#include "serve/session.h"

#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/verify.h"
#include "fault/reconfigure.h"
#include "noc/io.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "util/canonical.h"
#include "util/clock.h"
#include "util/digest.h"

namespace nocdr::serve {

/// Everything a session keeps alive between messages: the design, the
/// channel dependency graph mirroring its routes, the dirty-cycle
/// finder's cache, the accumulated failure masks and the (possibly
/// patched) next-hop table. Operations serialize on \p mutex; the
/// object lives in a shared_ptr so a concurrent close can never free it
/// under a burst.
struct SessionService::Session {
  Session(NocDesign live, NextHopTable next_hops,
          RemovalOptions removal_options)
      : options(removal_options),
        design(std::move(live)),
        cdg(ChannelDependencyGraph::Build(design)),
        finder(cdg),
        table(std::move(next_hops)),
        state(fault::FaultState::None(design)) {
    for (std::size_t s = 0; s < design.topology.SwitchCount(); ++s) {
      // Name resolution for protocol-level fault events; duplicate or
      // empty names simply stay unresolvable by name.
      const SwitchId sid{s};
      const std::string& name = design.topology.SwitchName(sid);
      if (!name.empty()) {
        switch_by_name.emplace(name, sid);
      }
    }
  }

  std::mutex mutex;
  bool closed = false;

  /// Assigned when an open registers the session.
  std::string id;
  const RemovalOptions options;

  // The live quadruple ApplyFaultBurst advances. `finder` references
  // `cdg`; the session is never moved after construction.
  NocDesign design;
  ChannelDependencyGraph cdg;
  DirtyCycleFinder finder;
  NextHopTable table;
  fault::FaultState state;
  std::unordered_map<std::string, SwitchId> switch_by_name;

  std::uint64_t epoch = 0;
  std::size_t bursts_applied = 0;

  // The current epoch's published certification coordinates.
  std::uint64_t key = 0;
  bool deadlock_free = false;
  std::string certificate_json;
};

namespace {

/// Time of an epoch publish (the open.publish and burst.publish spans).
obs::Histogram& PublishHistogram() {
  static obs::Histogram& histogram =
      obs::Metrics().GetHistogram("session.publish_us");
  return histogram;
}

}  // namespace

SessionService::SessionService(CertificationService& service,
                               SessionServiceConfig config)
    : service_(service), config_(config) {}

SessionService::~SessionService() = default;

SessionResponse SessionService::Handle(const SessionRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  // The message's root span. nocdr_serve serves session messages
  // synchronously in stream order, so everything about this trace —
  // which child spans run, the assigned session id, the epoch — is
  // deterministic, and the full open/burst pipeline can carry spans
  // (unlike stateless requests, whose inner path is schedule-
  // dependent).
  obs::ScopedTrace trace(service_.config().trace, request.trace_id,
                         "session");
  SessionResponse response;
  // Failures are responses, never escaping exceptions — the server loop
  // and the campaign drive sessions from code that must not unwind.
  try {
    response = HandleInner(request);
  } catch (const std::exception& e) {
    response = SessionResponse{};
    response.protocol_version = request.protocol_version;
    response.op = request.op;
    response.id = request.id;
    response.session_id = request.session_id;
    response.status = ServeStatus::kError;
    response.error = ErrorInfo{ErrorCode::kInternal, e.what()};
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
  }
  response.service_ms = MillisSince(t0);
  if (trace.active()) {
    trace.Attr("id", request.id);
    trace.Attr("op", SessionOpName(request.op));
    trace.Attr("session", response.session_id);
    trace.Attr("status", StatusName(response.status));
    trace.Attr("epoch", response.epoch);
    if (!response.error.ok()) {
      trace.Attr("error", ErrorCodeName(response.error.code));
    }
  }
  {
    obs::MetricsRegistry& registry = obs::Metrics();
    static obs::Histogram& open_us =
        registry.GetHistogram("session.open_us");
    static obs::Histogram& burst_us =
        registry.GetHistogram("session.burst_us");
    const auto us = static_cast<std::uint64_t>(response.service_ms * 1000.0);
    if (request.op == SessionOp::kOpen) {
      open_us.Record(us);
    } else if (request.op == SessionOp::kBurst) {
      burst_us.Record(us);
    }
  }
  return response;
}

SessionResponse SessionService::HandleInner(const SessionRequest& request) {
  if (request.op == SessionOp::kOpen) {
    return Open(request);
  }
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = request.op;
  response.id = request.id;
  response.session_id = request.session_id;
  const std::shared_ptr<Session> session = Find(request.session_id);
  if (session == nullptr) {
    response.status = ServeStatus::kError;
    response.error =
        ErrorInfo{ErrorCode::kUnknownSession,
                  "no open session \"" + request.session_id + "\""};
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return response;
  }
  switch (request.op) {
    case SessionOp::kBurst:
      return Burst(request, *session);
    case SessionOp::kSnapshot:
      return Snapshot(request, *session);
    case SessionOp::kClose:
      return Close(request, *session);
    case SessionOp::kOpen:
      break;  // handled above
  }
  response.status = ServeStatus::kError;
  response.error = ErrorInfo{ErrorCode::kInternal, "unhandled session op"};
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.errors;
  return response;
}

SessionResponse SessionService::Open(const SessionRequest& request) {
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = SessionOp::kOpen;
  response.id = request.id;

  // Reserve an admission slot before the (expensive) certification so a
  // concurrent open burst cannot overshoot max_sessions.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.size() + opening_ >= config_.max_sessions) {
      ++stats_.open_rejected;
      response.status = ServeStatus::kError;
      response.error = ErrorInfo{
          ErrorCode::kSessionLimit,
          "session limit (" + std::to_string(config_.max_sessions) +
              ") reached; close a session first"};
      return response;
    }
    ++opening_;
  }
  const auto release_slot = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    --opening_;
  };

  CertRequest cert;
  static_cast<DesignSpec&>(cert) = request.spec;
  cert.protocol_version = request.protocol_version;
  cert.id = request.id;
  cert.options = request.options;
  // Sessions always treat: the live CDG must start acyclic for the
  // incremental re-certification contract to mean anything.
  cert.treat = true;
  cert.return_design = true;

  NextHopTable table;
  NocDesign materialized;
  try {
    obs::ScopedSpan span("open.materialize");
    materialized = MaterializeDesign(request.spec, service_.config().envelope,
                                     &table);
  } catch (const std::exception& e) {
    release_slot();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    response.status = ServeStatus::kError;
    response.error = ErrorInfo{ErrorCode::kInvalidRequest, e.what()};
    return response;
  }

  // Epoch-0 certification through the service: coalesces with
  // stateless clients of the same design, hits its cache, respects its
  // admission bound. The computation itself runs (and is traced) under
  // its canonical key on a pool thread; this span is the session's
  // wait for it.
  CertResponse treated;
  {
    obs::ScopedSpan span("open.certify");
    treated = service_.ServeDesign(materialized, cert);
  }
  if (treated.status != ServeStatus::kOk) {
    release_slot();
    std::lock_guard<std::mutex> lock(mutex_);
    if (treated.status == ServeStatus::kOverloaded) {
      ++stats_.open_rejected;
    } else {
      ++stats_.errors;
    }
    response.status = treated.status;
    response.error = treated.error;
    return response;
  }

  // Epoch 0 is the treated design as content: its canonical form
  // becomes the live design, so the session's text, key and certificate
  // are exactly what a stateless client re-shipping that text gets, and
  // it is published the way every later epoch is.
  std::shared_ptr<Session> session;
  std::string canonical_text;
  bool acyclic = false;
  try {
    obs::ScopedSpan span("open.publish");
    obs::ScopedHistogramTimer timer(PublishHistogram());
    CanonicalDesign canonical =
        CanonicalizeDesign(ReadDesign(treated.treated_design_text));
    canonical_text = std::move(canonical.text);
    session = std::make_shared<Session>(std::move(canonical.design),
                                        std::move(table), request.options);
    acyclic = PublishEpoch(*session, canonical_text);
  } catch (...) {
    release_slot();
    throw;
  }
  if (!acyclic) {
    release_slot();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    response.status = ServeStatus::kError;
    response.error = ErrorInfo{ErrorCode::kComputeFailed,
                               "the treated design's CDG has a cycle"};
    return response;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --opening_;
    session->id = "s" + std::to_string(next_session_++);
    sessions_.emplace(session->id, session);
    ++stats_.opened;
    ++stats_.epochs_served;
  }

  response.status = ServeStatus::kOk;
  response.session_id = session->id;
  response.epoch = 0;
  // The delta fields of an open describe the initial treatment.
  response.removal_iterations = treated.iterations;
  response.vcs_added = treated.vcs_added;
  response.flows_rerouted = treated.flows_rerouted;
  response.channels = session->design.topology.ChannelCount();
  response.key = session->key;
  response.deadlock_free = session->deadlock_free;
  response.certificate_json = session->certificate_json;
  if (request.return_design) {
    response.design_text = std::move(canonical_text);
  }
  response.cache_outcome = treated.cache_outcome;
  return response;
}

SessionResponse SessionService::Burst(const SessionRequest& request,
                                      Session& session) {
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = SessionOp::kBurst;
  response.id = request.id;
  response.session_id = session.id;

  const auto fail = [&](ErrorCode code, std::string message) {
    response.status = ServeStatus::kError;
    response.error = ErrorInfo{code, std::move(message)};
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return response;
  };

  std::lock_guard<std::mutex> session_lock(session.mutex);
  if (session.closed) {
    return fail(ErrorCode::kUnknownSession,
                "session \"" + session.id + "\" is closed");
  }
  if (request.has_expect_epoch && request.expect_epoch != session.epoch) {
    // Echo the session's actual epoch so an optimistic client can
    // resync without a snapshot round trip.
    response.epoch = session.epoch;
    return fail(ErrorCode::kStaleEpoch,
                "expect_epoch " + std::to_string(request.expect_epoch) +
                    " but session is at epoch " +
                    std::to_string(session.epoch));
  }
  if (request.events.empty()) {
    return fail(ErrorCode::kInvalidRequest,
                "a fault_burst needs at least one event");
  }

  fault::FaultBurst burst;
  burst.reserve(request.events.size());
  for (const SessionEventSpec& spec : request.events) {
    std::optional<fault::FaultEvent> event;
    if (spec.kind == fault::FaultKind::kLink) {
      event = fault::MakeLinkFault(session.design, spec.src, spec.dst);
      if (!event) {
        return fail(ErrorCode::kInvalidRequest,
                    "no link \"" + spec.src + "\" -> \"" + spec.dst + "\"");
      }
    } else {
      event = fault::MakeSwitchFault(session.design, spec.switch_name);
      if (!event) {
        return fail(ErrorCode::kInvalidRequest,
                    "no switch \"" + spec.switch_name + "\"");
      }
    }
    burst.push_back(*event);
  }

  fault::ReconfigureOptions reconfigure;
  reconfigure.table = session.table.empty() ? nullptr : &session.table;
  reconfigure.removal = session.options;

  fault::ReconfigureReport report;
  try {
    // The incremental removal inside ApplyFaultBurst runs on this
    // thread, so its cycle_search/score/apply/invalidate stage spans
    // nest under this span.
    obs::ScopedSpan span("burst.apply_faults");
    report = fault::ApplyFaultBurst(session.design, session.cdg,
                                    session.finder, session.state, burst,
                                    reconfigure);
    span.Attr("events", static_cast<std::uint64_t>(burst.size()));
    span.Attr("affected_flows",
              static_cast<std::uint64_t>(report.affected_flows.size()));
  } catch (const std::exception& e) {
    // The live quadruple may be mid-mutation; the session is unusable.
    session.closed = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_.erase(session.id);
      ++stats_.closed;
    }
    return fail(ErrorCode::kComputeFailed,
                std::string("reconfiguration failed (session closed): ") +
                    e.what());
  }

  response.status = ServeStatus::kOk;
  response.affected_flows = report.affected_flows.size();
  if (report.infeasible()) {
    // Infeasibility is an answer, not an error: nothing was mutated,
    // the epoch stands and the current certificate is still the truth.
    response.feasible = false;
    response.disconnected_flows.reserve(report.disconnected_flows.size());
    for (const FlowId flow : report.disconnected_flows) {
      response.disconnected_flows.push_back(flow.value());
    }
    response.epoch = session.epoch;
    response.channels = session.design.topology.ChannelCount();
    response.key = session.key;
    response.deadlock_free = session.deadlock_free;
    response.certificate_json = session.certificate_json;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.bursts_infeasible;
    ++stats_.epochs_served;
    return response;
  }

  session.epoch += 1;
  session.bursts_applied += 1;

  // The removal above ran on the maintained CDG (RemoveDeadlocksOnCdg
  // inside ApplyFaultBurst); the publish proves that graph acyclic.
  bool acyclic = false;
  {
    obs::ScopedSpan span("burst.publish");
    obs::ScopedHistogramTimer timer(PublishHistogram());
    acyclic = PublishEpoch(session, CanonicalizeDesign(session.design).text);
  }
  if (!acyclic) {
    session.closed = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_.erase(session.id);
      ++stats_.closed;
    }
    return fail(ErrorCode::kComputeFailed,
                "post-burst CDG has a cycle (session closed)");
  }

  response.epoch = session.epoch;
  response.feasible = true;
  response.table_detours = report.table_detours;
  response.ripup_reroutes = report.ripup_reroutes;
  response.removal_iterations = report.removal.iterations;
  response.vcs_added = report.removal.vcs_added;
  response.flows_rerouted = report.removal.flows_rerouted;
  response.channels = session.design.topology.ChannelCount();
  response.key = session.key;
  response.deadlock_free = session.deadlock_free;
  response.certificate_json = session.certificate_json;
  if (request.return_design) {
    response.design_text = DesignText(session.design);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.bursts_applied;
    ++stats_.epochs_served;
  }
  return response;
}

bool SessionService::PublishEpoch(Session& session,
                                  const std::string& canonical_text) {
  // One Kahn pass over the live graph in canonical channel order proves
  // the epoch acyclic and gives the certificate a stateless certify of
  // canonical_text computes.
  std::optional<std::vector<ChannelId>> order = TopologicalOrder(
      session.cdg, CanonicalChannelIds(session.design.topology));
  if (!order) {
    return false;
  }
  CertRequest request;
  request.options = session.options;
  request.treat = true;
  const CertificationService::Published published =
      service_.Publish(canonical_text, request, [&] {
        // ComputeCertification's value for an acyclic design: treatment
        // finds nothing to do.
        DeadlockCertificate certificate;
        certificate.deadlock_free = true;
        certificate.topological_order = std::move(*order);
        CachedCertification value;
        value.certificate_json = CertificateToJson(certificate);
        value.treated_design_text = canonical_text;
        value.deadlock_free = true;
        value.initially_deadlock_free = true;
        value.channels_before = session.design.topology.ChannelCount();
        value.channels_after = value.channels_before;
        return value;
      });
  session.key = published.key;
  session.deadlock_free = published.value->deadlock_free;
  session.certificate_json = published.value->certificate_json;
  return true;
}

SessionResponse SessionService::Snapshot(const SessionRequest& request,
                                         Session& session) {
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = SessionOp::kSnapshot;
  response.id = request.id;
  response.session_id = session.id;

  std::lock_guard<std::mutex> session_lock(session.mutex);
  if (session.closed) {
    response.status = ServeStatus::kError;
    response.error = ErrorInfo{ErrorCode::kUnknownSession,
                               "session \"" + session.id + "\" is closed"};
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return response;
  }
  response.status = ServeStatus::kOk;
  response.epoch = session.epoch;
  response.channels = session.design.topology.ChannelCount();
  response.key = session.key;
  response.deadlock_free = session.deadlock_free;
  response.certificate_json = session.certificate_json;
  response.design_text = DesignText(session.design);
  response.failed_links = session.state.FailedLinkCount();
  response.failed_switches = session.state.FailedSwitchCount();
  response.bursts_applied = session.bursts_applied;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.epochs_served;
  }
  return response;
}

SessionResponse SessionService::Close(const SessionRequest& request,
                                      Session& session) {
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = SessionOp::kClose;
  response.id = request.id;
  response.session_id = session.id;

  std::lock_guard<std::mutex> session_lock(session.mutex);
  if (session.closed) {
    response.status = ServeStatus::kError;
    response.error = ErrorInfo{ErrorCode::kUnknownSession,
                               "session \"" + session.id + "\" is closed"};
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return response;
  }
  session.closed = true;
  response.status = ServeStatus::kOk;
  response.epoch = session.epoch;
  response.failed_links = session.state.FailedLinkCount();
  response.failed_switches = session.state.FailedSwitchCount();
  response.bursts_applied = session.bursts_applied;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(session.id);
    ++stats_.closed;
  }
  return response;
}

std::shared_ptr<SessionService::Session> SessionService::Find(
    const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

SessionServiceStats SessionService::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionServiceStats stats = stats_;
  stats.live_sessions = sessions_.size();
  return stats;
}

std::uint64_t SessionResponseDigest(
    const std::vector<SessionResponse>& responses) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const SessionResponse& response : responses) {
    DigestField(h, static_cast<std::uint64_t>(response.protocol_version));
    DigestField(h, static_cast<std::uint64_t>(response.op));
    DigestField(h, response.id);
    DigestField(h, response.session_id);
    DigestField(h, static_cast<std::uint64_t>(response.status));
    DigestField(h, static_cast<std::uint64_t>(response.error.code));
    DigestField(h, response.error.message);
    DigestField(h, response.epoch);
    DigestField(h, static_cast<std::uint64_t>(response.feasible));
    for (const std::uint64_t flow : response.disconnected_flows) {
      DigestField(h, flow);
    }
    DigestField(h, response.affected_flows);
    DigestField(h, response.table_detours);
    DigestField(h, response.ripup_reroutes);
    DigestField(h, response.removal_iterations);
    DigestField(h, response.vcs_added);
    DigestField(h, response.flows_rerouted);
    DigestField(h, response.channels);
    DigestField(h, response.key);
    DigestField(h, static_cast<std::uint64_t>(response.deadlock_free));
    DigestField(h, response.certificate_json);
    DigestField(h, response.design_text);
    DigestField(h, response.failed_links);
    DigestField(h, response.failed_switches);
    DigestField(h, response.bursts_applied);
  }
  return h;
}

}  // namespace nocdr::serve
