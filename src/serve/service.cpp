#include "serve/service.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string_view>
#include <utility>

#include "deadlock/verify.h"
#include "noc/io.h"
#include "obs/metrics.h"
#include "runner/parallel_map.h"
#include "serve/protocol.h"
#include "util/canonical.h"
#include "util/clock.h"
#include "util/digest.h"
#include "util/error.h"
#include "util/text.h"

namespace nocdr::serve {

namespace {

// Serve sections are timed into histograms only — no spans: they sit
// on schedule-dependent paths (a repeat may hit the memo or coalesce
// depending on interleaving), and request traces must stay
// byte-deterministic.
using TimedSection = obs::ScopedHistogramTimer;

/// The serve-layer instruments, registered once (references stay valid
/// for the process lifetime; see obs/metrics.h).
struct ServeInstruments {
  obs::Histogram& request_us = obs::Metrics().GetHistogram("serve.request_us");
  obs::Histogram& hit_us = obs::Metrics().GetHistogram("serve.hit_us");
  obs::Histogram& compute_us =
      obs::Metrics().GetHistogram("serve.compute_us");
  obs::Histogram& coalesced_us =
      obs::Metrics().GetHistogram("serve.coalesced_us");
  obs::Histogram& materialize_us =
      obs::Metrics().GetHistogram("serve.materialize_us");
  obs::Histogram& canonicalize_us =
      obs::Metrics().GetHistogram("serve.canonicalize_us");
  obs::Histogram& cache_lookup_us =
      obs::Metrics().GetHistogram("serve.cache_lookup_us");
  obs::Histogram& coalesce_wait_us =
      obs::Metrics().GetHistogram("serve.coalesce_wait_us");
};

ServeInstruments& Instruments() {
  static ServeInstruments* instruments = new ServeInstruments();
  return *instruments;
}

/// Total request latency plus the per-outcome split. Outcome histograms
/// are deliberately schedule-dependent (the same request can hit,
/// compute or coalesce depending on interleaving) — that is the point:
/// they show what the traffic actually experienced.
void RecordRequestMetrics(const CertResponse& response) {
  ServeInstruments& instruments = Instruments();
  const auto us = static_cast<std::uint64_t>(response.service_ms * 1000.0);
  instruments.request_us.Record(us);
  switch (response.cache_outcome) {
    case CacheOutcome::kHit:
      instruments.hit_us.Record(us);
      break;
    case CacheOutcome::kComputed:
      instruments.compute_us.Record(us);
      break;
    case CacheOutcome::kCoalesced:
      instruments.coalesced_us.Record(us);
      break;
    case CacheOutcome::kNone:
      break;
  }
}

/// Trace id of the computation for canonical digest \p key: "k" + 16
/// hex digits. One computation trace exists per unique key (the
/// coalescer computes each key exactly once while no eviction
/// interferes), so the set of computation traces — and each one's span
/// tree — is deterministic even though *which* request triggered the
/// computation is not.
std::string KeyTraceId(std::uint64_t key) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "k%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

/// Room to reserve for AppendOptionsKey, whose output is at most 86
/// bytes.
constexpr std::size_t kOptionsKeyBytes = 96;

/// Appends an encoding of every semantically relevant option (the
/// fields CanonicalDesignDigest covers); it ends both cache key texts.
void AppendOptionsKey(std::string& out, const CertRequest& request) {
  out += "#options cycle=";
  AppendUnsigned(out, static_cast<std::uint64_t>(request.options.cycle_policy));
  out += " direction=";
  AppendUnsigned(out,
                static_cast<std::uint64_t>(request.options.direction_policy));
  out += " duplication=";
  AppendUnsigned(out, static_cast<std::uint64_t>(request.options.duplication));
  out += " max_iterations=";
  AppendUnsigned(out, request.options.max_iterations);
  out += request.treat ? " treat=1" : " treat=0";
}

/// Full collision-proof cache key: the canonical design text plus an
/// encoding of every option the digest covers. Two keys are the same
/// certification problem iff their texts compare equal, so a 64-bit
/// digest collision can only ever degrade to a miss.
std::string CacheKeyText(const std::string& canonical_text,
                         const CertRequest& request) {
  std::string key;
  key.reserve(canonical_text.size() + kOptionsKeyBytes);
  key = canonical_text;
  AppendOptionsKey(key, request);
  return key;
}

/// The exact bit pattern of \p value — injective, unlike any
/// fixed-precision decimal rendering (two specs differing in the last
/// ulp must not collide in the front memo: a fingerprint collision
/// would serve the wrong certificate).
std::uint64_t DoubleBits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Exact-bytes identity of a request for the front memo: the raw design
/// source fields plus the options suffix. Unlike the canonical key this
/// is representation-sensitive by design — it exists so an exact repeat
/// can skip canonicalization; distinct renderings of the same problem
/// simply take the full path once each and converge on one canonical
/// entry.
std::string FingerprintText(const CertRequest& request) {
  std::string fp;
  switch (request.kind) {
    case RequestKind::kDesignText:
      fp.reserve(request.design_text.size() + 8 + kOptionsKeyBytes);
      fp = "design\x1f";
      fp += request.design_text;
      break;
    case RequestKind::kGeneratorSpec: {
      const gen::GeneratorSpec& g = request.generator;
      fp = "generator\x1f";
      AppendUnsigned(fp, static_cast<std::uint64_t>(g.family));
      for (const std::uint64_t field :
           {std::uint64_t{g.width}, std::uint64_t{g.height},
            std::uint64_t{g.ring_nodes}, std::uint64_t{g.tree_arity},
            std::uint64_t{g.tree_levels}, std::uint64_t{g.tree_uplinks},
            std::uint64_t{g.cores_per_switch},
            static_cast<std::uint64_t>(g.pattern),
            std::uint64_t{g.uniform_fanout}, DoubleBits(g.hotspot_fraction),
            DoubleBits(g.min_bandwidth), DoubleBits(g.max_bandwidth),
            g.seed}) {
        fp += ' ';
        AppendUnsigned(fp, field);
      }
      break;
    }
    case RequestKind::kSourceSeed:
      fp = "source\x1f";
      fp += valid::SourceName(request.source);
      fp += ' ';
      AppendUnsigned(fp, request.seed);
      break;
  }
  AppendOptionsKey(fp, request);
  return fp;
}

/// Keys only the in-memory front memo, where a collision degrades to a
/// miss (the full fingerprint is compared), so it is a word-at-a-time
/// hash rather than the byte-wise FNV-1a of the protocol-visible
/// canonical key. Nothing persists it.
std::uint64_t FingerprintDigest(const std::string& fingerprint) {
  return std::hash<std::string_view>{}(fingerprint);
}

ErrorInfo MakeError(ErrorCode code, std::string message) {
  return ErrorInfo{code, std::move(message)};
}

/// Builds the persistent tier when the config names a directory; null
/// keeps the service memory-only. Compaction (when requested) runs
/// here, before the first request is served.
std::unique_ptr<DiskCache> MakeDiskTier(const ServiceConfig& config) {
  if (config.cache_dir.empty()) {
    return nullptr;
  }
  DiskCacheConfig disk_config;
  disk_config.directory = config.cache_dir;
  disk_config.max_bytes = config.disk_cache_bytes;
  auto disk = std::make_unique<DiskCache>(disk_config);
  if (config.cache_compact) {
    disk->Compact();
  }
  return disk;
}

void FillPayload(CertResponse& response, const CachedCertification& value,
                 const CertRequest& request) {
  response.status = ServeStatus::kOk;
  response.deadlock_free = value.deadlock_free;
  response.initially_deadlock_free = value.initially_deadlock_free;
  response.certificate_json = value.certificate_json;
  if (request.return_design) {
    response.treated_design_text = value.treated_design_text;
  }
  response.channels_before = value.channels_before;
  response.channels_after = value.channels_after;
  response.vcs_added = value.vcs_added;
  response.iterations = value.iterations;
  response.flows_rerouted = value.flows_rerouted;
}

}  // namespace

NocDesign MaterializeDesign(const DesignSpec& spec,
                            const valid::DesignEnvelope& envelope,
                            NextHopTable* table_out) {
  switch (spec.kind) {
    case RequestKind::kDesignText: {
      // Inline text carries routes but no next-hop table; fault detours
      // on such designs take the rip-up-and-reroute fallback.
      if (table_out != nullptr) {
        table_out->clear();
      }
      return ReadDesign(spec.design_text);
    }
    case RequestKind::kGeneratorSpec:
      return gen::GenerateStandardDesign(spec.generator, table_out);
    case RequestKind::kSourceSeed:
      return valid::GenerateTrialDesign(spec.source, spec.seed, envelope,
                                        table_out);
  }
  throw InvalidModelError("MaterializeDesign: unknown request kind");
}

CachedCertification ComputeCertification(const NocDesign& canonical_design,
                                         const CertRequest& request) {
  CachedCertification out;
  NocDesign treated = canonical_design;
  out.channels_before = treated.topology.ChannelCount();
  if (request.treat) {
    // The removal StageTimer (deadlock/removal.cpp) nests its
    // cycle_search/score/apply/invalidate stage spans under this one.
    obs::ScopedSpan span("treat");
    const RemovalReport report = RemoveDeadlocks(treated, request.options);
    out.initially_deadlock_free = report.initially_deadlock_free;
    out.iterations = report.iterations;
    out.vcs_added = report.vcs_added;
    out.flows_rerouted = report.flows_rerouted;
    span.Attr("iterations", static_cast<std::uint64_t>(report.iterations));
    span.Attr("vcs_added", static_cast<std::uint64_t>(report.vcs_added));
  }
  out.channels_after = treated.topology.ChannelCount();
  DeadlockCertificate certificate;
  {
    obs::ScopedSpan span("certify");
    certificate = CertifyDeadlockFreedom(treated);
  }
  out.deadlock_free = certificate.deadlock_free;
  if (!request.treat) {
    out.initially_deadlock_free = certificate.deadlock_free;
  }
  {
    obs::ScopedSpan span("serialize");
    out.certificate_json = CertificateToJson(certificate);
    out.treated_design_text = DesignText(treated);
  }
  return out;
}

CertificationService::CertificationService(ServiceConfig config,
                                           Certifier certifier)
    : config_(config),
      certifier_(std::move(certifier)),
      cache_(config.cache, MakeDiskTier(config)),
      front_(config.front_cache),
      coalescer_(CoalescerConfig{config.threads, config.max_pending}),
      admission_(config.admission),
      epoch_(std::chrono::steady_clock::now()) {
  if (!certifier_) {
    certifier_ = ComputeCertification;
  }
}

std::uint64_t CertificationService::NowUs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

CertResponse CertificationService::Guarded(
    const CertRequest& request, const std::function<CertResponse()>& inner) {
  const auto t0 = std::chrono::steady_clock::now();
  CertResponse response;
  // Request failures are responses, never escaping exceptions: Serve is
  // called from ServeBatch's pool workers (which must not throw) and
  // from long-lived server loops, and an injected test certifier (or an
  // allocation failure outside the inner try blocks) may throw types
  // the inner handlers don't cover.
  try {
    response = inner();
  } catch (const std::exception& e) {
    response = CertResponse{};
    response.protocol_version = request.protocol_version;
    response.id = request.id;
    response.status = ServeStatus::kError;
    response.error = MakeError(ErrorCode::kInternal, e.what());
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.errors;
  } catch (...) {
    response = CertResponse{};
    response.protocol_version = request.protocol_version;
    response.id = request.id;
    response.status = ServeStatus::kError;
    response.error =
        MakeError(ErrorCode::kInternal, "unknown non-standard exception");
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.errors;
  }
  response.service_ms = MillisSince(t0);
  return response;
}

CertResponse CertificationService::Serve(const CertRequest& request) {
  // The request's root span. Only deterministic-payload attributes go
  // on it (id, status, key, error code) — never cache_outcome or
  // timings, which depend on interleaving and would break the
  // byte-identical-traces contract. Timing lives in the metrics
  // histograms below.
  obs::ScopedTrace trace(config_.trace, request.trace_id, "request");
  // Not const: the return below moves it instead of copying the payload.
  CertResponse response =
      Guarded(request, [&] { return ServeInner(request); });
  RecordRequestMetrics(response);
  if (trace.active()) {
    trace.Attr("id", request.id);
    trace.Attr("status", StatusName(response.status));
    trace.Attr("key", response.key);
    if (!response.error.ok()) {
      trace.Attr("error", ErrorCodeName(response.error.code));
    }
  }
  return response;
}

CertResponse CertificationService::ServeDesign(const NocDesign& design,
                                               const CertRequest& request) {
  return Guarded(request, [&] {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.requests;
    }
    // No raw request bytes exist for an in-memory design, so there is
    // no fingerprint to memoize; the canonical cache still dedups.
    return ServeMaterialized(design, request, {}, 0);
  });
}

// ServeDesign deliberately opens no root trace of its own: its callers
// (sessions) either run under their message's trace — child spans nest
// there via the thread-local context — or pass an empty trace_id.

CertResponse CertificationService::ServeInner(const CertRequest& request) {
  CertResponse response;
  response.protocol_version = request.protocol_version;
  response.id = request.id;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }

  // Front fast path: an exact repeat of a request already resolved maps
  // straight to its canonical cache entry — no materialization, no
  // canonicalization. One hash pass over the raw bytes plus two hash
  // lookups; this is what a warm hit costs.
  std::string fingerprint;
  std::uint64_t fingerprint_digest = 0;
  if (config_.cache_enabled) {
    fingerprint = FingerprintText(request);
    fingerprint_digest = FingerprintDigest(fingerprint);
    if (const auto target = front_.Lookup(fingerprint_digest, fingerprint)) {
      // Revalidate, not Lookup: if the canonical entry was evicted, the
      // full path below will count the one miss for this request.
      if (const auto hit = cache_.Revalidate(target->canonical_digest,
                                             target->canonical_key_text)) {
        response.key = target->canonical_digest;
        FillPayload(response, *hit, request);
        response.cache_outcome = CacheOutcome::kHit;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.hits;
        return response;
      }
      // Canonical entry evicted since the memo was written; fall
      // through to the full path (which re-publishes it).
    }
  }

  NocDesign design;
  try {
    TimedSection timer(Instruments().materialize_us);
    design = MaterializeDesign(request, config_.envelope);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.errors;
    response.status = ServeStatus::kError;
    response.error = MakeError(ErrorCode::kInvalidRequest, e.what());
    return response;
  }
  return ServeMaterialized(design, request, std::move(fingerprint),
                           fingerprint_digest);
}

CertResponse CertificationService::ServeMaterialized(
    const NocDesign& design, const CertRequest& request,
    std::string fingerprint, std::uint64_t fingerprint_digest) {
  CertResponse response;
  response.protocol_version = request.protocol_version;
  response.id = request.id;

  CanonicalDesign canonical;
  try {
    TimedSection timer(Instruments().canonicalize_us);
    canonical = CanonicalizeDesign(design);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.errors;
    response.status = ServeStatus::kError;
    response.error = MakeError(ErrorCode::kInvalidRequest, e.what());
    return response;
  }
  response.key =
      CanonicalTextDigest(canonical.text, request.options, request.treat);
  const std::string key_text = CacheKeyText(canonical.text, request);

  if (!config_.cache_enabled) {
    // Recompute path: inline on the caller thread, no memoization, no
    // coalescing. The bench's cold baseline.
    try {
      const CachedCertification value = certifier_(canonical.design, request);
      FillPayload(response, value, request);
      response.cache_outcome = CacheOutcome::kComputed;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.computations;
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.errors;
      response.status = ServeStatus::kError;
      response.error = MakeError(ErrorCode::kComputeFailed, e.what());
    }
    return response;
  }

  // Remember how this exact request resolves, so its next repeat takes
  // the front fast path. ServeDesign requests have no fingerprint.
  const auto publish_front = [&] {
    if (!fingerprint.empty()) {
      front_.Insert(fingerprint_digest, std::move(fingerprint),
                    FrontTarget{response.key, key_text});
    }
  };

  // Fast path: a sharded, counted lookup with no global serialization.
  decltype(cache_.Lookup(response.key, key_text)) lookup_hit;
  {
    TimedSection timer(Instruments().cache_lookup_us);
    lookup_hit = cache_.Lookup(response.key, key_text);
  }
  if (lookup_hit) {
    FillPayload(response, *lookup_hit, request);
    response.cache_outcome = CacheOutcome::kHit;
    publish_front();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.hits;
    return response;
  }

  // Token-budget admission sits in front of the coalescer, on misses
  // only: a hit costs no compute, so the fast paths above never charge
  // the budget. The rejection is the same structured "overloaded" shape
  // as an in-flight-bound rejection — clients cannot tell which policy
  // said no, and both speak v1 and v2 unchanged.
  if (!admission_.TryAdmit(request.priority_class, sched::EstimateCost(design),
                           NowUs())) {
    response.status = ServeStatus::kOverloaded;
    response.error = MakeError(ErrorCode::kOverloaded,
                               "admission budget exhausted; retry later");
    response.cache_outcome = CacheOutcome::kNone;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.rejected;
    return response;
  }

  // Slow path: re-probe + single-flight under the coalescer lock. The
  // factory defers the design/request copies to the one leader; the
  // followers a duplicate burst produces never pay them.
  RequestCoalescer::Outcome outcome = coalescer_.Submit(
      response.key, key_text,
      [&]() -> std::optional<RequestCoalescer::Result> {
        if (const auto hit = cache_.Revalidate(response.key, key_text)) {
          return *hit;
        }
        return std::nullopt;
      },
      [&]() -> RequestCoalescer::ComputeFn {
        return [this, design = canonical.design, request,
                key = response.key, key_text]() {
          // The computation's own trace, keyed by canonical digest —
          // not by requester. Runs on a pool thread whose context is
          // empty (ScopedTrace saves/restores, so inline execution
          // would also be correct); ComputeCertification's
          // treat/certify/serialize spans and the removal stage spans
          // nest under this root.
          obs::ScopedTrace trace(config_.trace, KeyTraceId(key), "compute");
          trace.Attr("treat", static_cast<std::uint64_t>(request.treat));
          CachedCertification value = certifier_(design, request);
          trace.Attr("vcs_added", static_cast<std::uint64_t>(value.vcs_added));
          // Publish before the coalescer retires the in-flight entry —
          // the exactly-once-per-key argument lives on this ordering.
          cache_.Insert(key, key_text, value);
          return value;
        };
      });

  switch (outcome.kind) {
    case RequestCoalescer::Outcome::Kind::kResolved: {
      FillPayload(response, *outcome.resolved, request);
      response.cache_outcome = CacheOutcome::kHit;
      publish_front();
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.hits;
      return response;
    }
    case RequestCoalescer::Outcome::Kind::kRejected: {
      response.status = ServeStatus::kOverloaded;
      response.error = MakeError(ErrorCode::kOverloaded,
                                 "admission bound full; retry later");
      response.cache_outcome = CacheOutcome::kNone;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
      return response;
    }
    case RequestCoalescer::Outcome::Kind::kLeader:
    case RequestCoalescer::Outcome::Kind::kFollower: {
      const bool leader =
          outcome.kind == RequestCoalescer::Outcome::Kind::kLeader;
      try {
        TimedSection timer(Instruments().coalesce_wait_us);
        const CachedCertification value = outcome.future.get();
        FillPayload(response, value, request);
        response.cache_outcome =
            leader ? CacheOutcome::kComputed : CacheOutcome::kCoalesced;
        publish_front();
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++(leader ? stats_.computations : stats_.coalesced);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.errors;
        response.status = ServeStatus::kError;
        response.error = MakeError(ErrorCode::kComputeFailed, e.what());
      }
      return response;
    }
  }
  return response;
}

CertificationService::Published CertificationService::Publish(
    const std::string& canonical_text, const CertRequest& request,
    const std::function<CachedCertification()>& make_value) {
  Published out;
  out.key = CanonicalTextDigest(canonical_text, request.options, request.treat);
  if (!config_.cache_enabled) {
    out.value = std::make_shared<const CachedCertification>(make_value());
    return out;
  }
  std::string key_text = CacheKeyText(canonical_text, request);
  out.value = cache_.Lookup(out.key, key_text);
  if (out.value == nullptr) {
    out.value = std::make_shared<const CachedCertification>(make_value());
    cache_.Insert(out.key, std::move(key_text), *out.value);
  }
  return out;
}

std::vector<CertResponse> CertificationService::ServeBatch(
    const std::vector<CertRequest>& requests, std::size_t client_threads) {
  if (client_threads == 0) {
    client_threads = coalescer_.ThreadCount();
  }
  return runner::ParallelMapIndexed<CertResponse>(
      requests.size(), client_threads,
      [&](std::size_t i) { return Serve(requests[i]); });
}

ServiceStats CertificationService::Stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats = stats_;
  }
  stats.pool_backlog = coalescer_.PoolBacklog();
  stats.cache = cache_.Stats();
  stats.front = front_.Stats();
  stats.disk = cache_.DiskStats();
  stats.admission_classes = admission_.Counters();
  return stats;
}

std::uint64_t ResponseDigest(const std::vector<CertResponse>& responses) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const CertResponse& response : responses) {
    DigestField(h, static_cast<std::uint64_t>(response.protocol_version));
    DigestField(h, response.id);
    DigestField(h, static_cast<std::uint64_t>(response.status));
    DigestField(h, static_cast<std::uint64_t>(response.error.code));
    DigestField(h, response.error.message);
    DigestField(h, response.key);
    DigestField(h, static_cast<std::uint64_t>(response.deadlock_free));
    DigestField(h,
                static_cast<std::uint64_t>(response.initially_deadlock_free));
    DigestField(h, response.certificate_json);
    DigestField(h, response.treated_design_text);
    DigestField(h, response.channels_before);
    DigestField(h, response.channels_after);
    DigestField(h, response.vcs_added);
    DigestField(h, response.iterations);
    DigestField(h, response.flows_rerouted);
  }
  return h;
}

}  // namespace nocdr::serve
