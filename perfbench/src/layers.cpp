#include "layers.h"

#include <sstream>

#include "deadlock/verify.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "obs/metrics.h"
#include "util/canonical.h"
#include "util/digest.h"
#include "valid/campaign.h"
#include "workloads.h"

namespace perfbench {

namespace serve = nocdr::serve;

std::uint64_t DeriveSeed(std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over the pair.
  std::uint64_t x = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void RemovalTally::Add(const nocdr::RemovalReport& report) {
  ++calls;
  iterations += report.iterations;
  vcs_added += report.vcs_added;
  bfs_runs += report.cycle_bfs_runs;
}

void RemovalTally::Report(PhaseResult& result) const {
  const auto per_call = [&](std::uint64_t total) {
    return calls == 0 ? 0.0
                      : static_cast<double>(total) / static_cast<double>(calls);
  };
  result.figures["deadlock.iterations"] = {per_call(iterations), "count",
                                           calls};
  result.figures["deadlock.vcs_added"] = {per_call(vcs_added), "count", calls};
  result.figures["cdg.bfs_runs"] = {per_call(bfs_runs), "count", calls};
  result.figures["cdg.bfs_per_iteration"] = {
      iterations == 0 ? 0.0
                      : static_cast<double>(bfs_runs) /
                            static_cast<double>(iterations),
      "ratio", calls};
}

Replay ReplayServePath(SpanRecorder* spans, std::uint64_t op,
                       const serve::CertRequest& request,
                       const nocdr::valid::DesignEnvelope& envelope,
                       bool compute, RemovalTally* tally) {
  nocdr::NocDesign design;
  switch (request.kind) {
    case serve::RequestKind::kGeneratorSpec: {
      SpanRecorder::Scope span(spans, "gen", op);
      design = nocdr::gen::GenerateStandardDesign(request.generator);
      break;
    }
    case serve::RequestKind::kSourceSeed: {
      SpanRecorder::Scope span(spans, "valid", op);
      design = nocdr::valid::GenerateTrialDesign(request.source, request.seed,
                                                 envelope);
      break;
    }
    case serve::RequestKind::kDesignText: {
      std::istringstream in(request.design_text);
      SpanRecorder::Scope span(spans, "noc.parse", op);
      design = nocdr::ReadDesign(in);
      break;
    }
  }
  nocdr::CanonicalDesign canonical;
  {
    SpanRecorder::Scope span(spans, "canonical", op);
    canonical = nocdr::CanonicalizeDesign(design);
  }
  Replay replay;
  if (!compute) {
    return replay;
  }
  replay.treated = std::move(canonical.design);
  if (request.treat) {
    SpanRecorder::Scope span(spans, "deadlock.removal", op);
    const nocdr::RemovalReport report =
        nocdr::RemoveDeadlocks(replay.treated, request.options);
    if (tally != nullptr) {
      tally->Add(report);
    }
  }
  nocdr::DeadlockCertificate certificate;
  {
    SpanRecorder::Scope span(spans, "deadlock.certify", op);
    certificate = nocdr::CertifyDeadlockFreedom(replay.treated);
  }
  {
    SpanRecorder::Scope span(spans, "serialize", op);
    replay.certificate_json = nocdr::CertificateToJson(certificate);
    replay.design_text = nocdr::DesignText(replay.treated);
  }
  return replay;
}

ServedPayload::ServedPayload(serve::CertResponse&& response, bool keep_text)
    : status(response.status),
      cache_outcome(response.cache_outcome),
      error(std::move(response.error.message)),
      key(response.key),
      deadlock_free(response.deadlock_free) {
  digest = nocdr::kFnvOffsetBasis;
  nocdr::DigestField(digest, response.certificate_json);
  nocdr::DigestField(digest, response.treated_design_text);
  nocdr::DigestField(digest, response.channels_after);
  nocdr::DigestField(digest, response.vcs_added);
  nocdr::DigestField(digest, response.iterations);
  if (keep_text) {
    certificate_json = std::move(response.certificate_json);
    treated_design_text = std::move(response.treated_design_text);
  }
}

Outcome PayloadChecker::Check(const ServedPayload& response,
                              const std::function<Replay()>& recompute,
                              std::string* why) {
  if (response.status == serve::ServeStatus::kOverloaded) {
    *why = "refused: " + response.error;
    return Outcome::kRefused;
  }
  if (response.status != serve::ServeStatus::kOk) {
    *why = "error: " + response.error;
    return Outcome::kError;
  }
  if (!response.deadlock_free) {
    *why = "treated design has no positive certificate";
    return Outcome::kWrong;
  }
  if (!SameAsEarlier(response.key, response.digest, why)) {
    return Outcome::kWrong;
  }
  if (certified_keys_.insert(response.key).second) {
    if (response.certificate_json.empty()) {
      *why = "the first payload of a key was not kept for checking";
      return Outcome::kWrong;
    }
    const Replay replay = recompute();
    if (replay.certificate_json != response.certificate_json) {
      *why = "recomputed certificate differs from the served one";
      return Outcome::kWrong;
    }
    if (!response.treated_design_text.empty() &&
        replay.design_text != response.treated_design_text) {
      *why = "served treated design differs from its recomputation";
      return Outcome::kWrong;
    }
    if (!nocdr::CheckCertificate(
            replay.treated,
            nocdr::CertificateFromJson(response.certificate_json))) {
      *why = "certificate does not check against its treated design";
      return Outcome::kWrong;
    }
  }
  return Outcome::kOk;
}

Outcome PayloadChecker::CheckEpoch(std::uint64_t key,
                                   const std::string& certificate_json,
                                   const std::string& design_text,
                                   std::string* why) {
  std::uint64_t digest = nocdr::kFnvOffsetBasis;
  nocdr::DigestField(digest, certificate_json);
  if (!SameAsEarlier(key, digest, why)) {
    return Outcome::kWrong;
  }
  if (certified_keys_.insert(key).second) {
    std::istringstream in(design_text);
    const nocdr::NocDesign live = nocdr::ReadDesign(in);
    const nocdr::DeadlockCertificate certificate =
        nocdr::CertificateFromJson(certificate_json);
    if (!certificate.deadlock_free ||
        !nocdr::CheckCertificate(nocdr::CanonicalizeDesign(live).design,
                                 certificate)) {
      *why = "epoch certificate does not check against its design";
      return Outcome::kWrong;
    }
  }
  return Outcome::kOk;
}

bool PayloadChecker::SameAsEarlier(std::uint64_t key,
                                   std::uint64_t payload_digest,
                                   std::string* why) {
  const auto [it, inserted] = payload_by_key_.emplace(key, payload_digest);
  if (!inserted && it->second != payload_digest) {
    *why = "payload differs from an earlier response with the same key";
    return false;
  }
  return true;
}

HistogramDelta::HistogramDelta() : before_(Read()) {}

std::map<std::string, HistogramDelta::Totals> HistogramDelta::Read() {
  std::map<std::string, Totals> totals;
  for (const auto& [name, snapshot] :
       nocdr::obs::Metrics().Snapshot().histograms) {
    totals[name] = Totals{snapshot.count, snapshot.sum};
  }
  return totals;
}

double HistogramDelta::MeanSince(const std::string& name) const {
  const std::map<std::string, Totals> now = Read();
  const auto after = now.find(name);
  if (after == now.end()) {
    return 0.0;
  }
  Totals base;
  if (const auto it = before_.find(name); it != before_.end()) {
    base = it->second;
  }
  const std::uint64_t count = after->second.count - base.count;
  return count == 0 ? 0.0
                    : static_cast<double>(after->second.sum - base.sum) /
                          static_cast<double>(count);
}

void ReportRemovalStages(const HistogramDelta& delta, PhaseResult& result) {
  for (const char* stage : {"cycle_search", "score", "apply", "invalidate"}) {
    const std::string suffix = std::string(stage) + "_us";
    result.figures["deadlock." + suffix] = {
        delta.MeanSince("removal." + suffix), "us", 0};
  }
}

void ReportServiceStats(const serve::ServiceStats& stats,
                        const HistogramDelta& delta, PhaseResult& result) {
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  result.figures["serve.front_hit_ratio"] = {
      ratio(stats.front.hits, stats.front.misses), "ratio", 0};
  result.figures["serve.cache_hit_ratio"] = {
      ratio(stats.cache.hits, stats.cache.misses), "ratio", 0};
  result.figures["serve.cache_evictions"] = {
      static_cast<double>(stats.cache.evictions), "count", 0};
  result.figures["serve.lookup_us"] = {delta.MeanSince("serve.cache_lookup_us"),
                                       "us", 0};
  result.figures["serve.disk_hits"] = {static_cast<double>(stats.disk.hits),
                                       "count", 0};
  result.figures["serve.disk_lookup_us"] = {delta.MeanSince("disk.read_us"),
                                            "us", 0};
  result.figures["serve.rejected"] = {static_cast<double>(stats.rejected),
                                      "count", 0};
  // Requests the admission policy weighed (misses only), printed beside
  // serve.rejected to show the token bucket ran.
  std::uint64_t admission_checks = 0;
  for (const serve::sched::ClassCounters& counters : stats.admission_classes) {
    admission_checks += counters.requests;
  }
  result.figures["serve.admission_checks"] = {
      static_cast<double>(admission_checks), "count", 0};
  result.figures["serve.coalesced"] = {static_cast<double>(stats.coalesced),
                                       "count", 0};
  result.figures["serve.wait_ms"] = {
      delta.MeanSince("serve.coalesce_wait_us") / 1000.0, "ms", 0};
}

const std::vector<std::pair<std::string, std::string>>& LayerSpanMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"gen", "gen.ms"},
      {"valid", "valid.ms"},
      {"noc.parse", "noc.parse_ms"},
      {"canonical", "canonical.ms"},
      {"deadlock.removal", "deadlock.removal_ms"},
      {"deadlock.certify", "deadlock.certify_ms"},
      {"serialize", "serialize.ms"},
      {"fault", "fault.ms"},
      {"sim.schedule", "sim.schedule_ms"},
      {"sim.run", "sim.run_ms"},
  };
  return kLayers;
}

void ReportLayerTimes(const SpanRecorder& spans, std::size_t ops,
                      PhaseResult& result) {
  const std::map<std::string, double> self = spans.SelfMs();
  for (const auto& [span, metric] : LayerSpanMetrics()) {
    const auto it = self.find(span);
    const double total = it == self.end() ? 0.0 : it->second;
    result.figures[metric] = {
        ops == 0 ? 0.0 : total / static_cast<double>(ops), "ms", ops};
  }
}

void ReportCoverage(const SpanRecorder& spans, const std::string& entry,
                    PhaseResult& result) {
  const std::map<std::string, double> self = spans.SelfMs();
  double covered = 0.0;
  for (const auto& [span, metric] : LayerSpanMetrics()) {
    if (const auto it = self.find(span); it != self.end()) {
      covered += it->second;
    }
  }
  const double entry_ms = spans.InclusiveMs(entry);
  result.figures["trace.coverage"] = {
      entry_ms <= 0.0 ? 0.0 : covered / entry_ms, "ratio", 0};
}

}  // namespace perfbench
