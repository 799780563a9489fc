// fault_stream: one closed-loop client opens protocol-v2 sessions on a
// torus 12x12 and a mesh 16x16 design (two torus sessions per mesh
// session) and streams a seeded plan of link and switch fault bursts
// into each. Every burst re-routes
// on the live channel dependency graph, removes new cycles incrementally
// (RemoveDeadlocksOnCdg inside ApplyFaultBurst), re-certifies, and
// publishes the epoch to the certificate cache.
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/verify.h"
#include "fault/plan.h"
#include "fault/reconfigure.h"
#include "layers.h"
#include "noc/io.h"
#include "serve/session.h"
#include "util/canonical.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = nocdr::serve;
namespace fault = nocdr::fault;

/// Bursts streamed into each session before it is closed.
constexpr std::size_t kBurstsPerSession = 8;
/// Memory-tier entries: a few sessions' worth of published epochs.
constexpr std::size_t kCachedEpochs = 64;

/// The two session designs. Their traffic is fixed rather than drawn from
/// the workload seed, which draws the fault streams: burst cost depends
/// strongly on the flow set, and two designs are too few to average it
/// out across seeds.
serve::DesignSpec BaseSpec(std::size_t base) {
  serve::DesignSpec spec;
  spec.kind = serve::RequestKind::kGeneratorSpec;
  spec.generator.family = base == 0 ? nocdr::gen::TopologyFamily::kTorus2D
                                    : nocdr::gen::TopologyFamily::kMesh2D;
  spec.generator.width = base == 0 ? 12 : 16;
  spec.generator.height = spec.generator.width;
  spec.generator.seed = 1;
  return spec;
}

/// A session's stream: each burst's events by switch name (the only form
/// the protocol accepts), drawn on the session's epoch-0 design.
std::vector<std::vector<serve::SessionEventSpec>> DrawStream(
    const nocdr::NocDesign& design, std::uint64_t seed) {
  fault::FaultPlanOptions options;
  options.bursts = kBurstsPerSession;
  options.max_links_per_burst = 2;
  options.switch_fault_probability = 0.15;
  options.disconnect_tolerance = 0.0;
  const fault::FaultPlan plan = fault::DrawFaultPlan(design, seed, options);
  const nocdr::TopologyGraph& topology = design.topology;
  std::vector<std::vector<serve::SessionEventSpec>> stream;
  for (const fault::FaultBurst& burst : plan.bursts) {
    std::vector<serve::SessionEventSpec> events;
    for (const fault::FaultEvent& event : burst) {
      serve::SessionEventSpec spec;
      spec.kind = event.kind;
      if (event.kind == fault::FaultKind::kSwitch) {
        spec.switch_name = topology.SwitchName(event.switch_id);
      } else {
        const nocdr::Link& link = topology.LinkAt(event.link);
        spec.src = topology.SwitchName(link.src);
        spec.dst = topology.SwitchName(link.dst);
      }
      events.push_back(spec);
    }
    if (!events.empty()) {
      stream.push_back(std::move(events));
    }
  }
  return stream;
}

nocdr::NocDesign Parse(const std::string& text) {
  std::istringstream in(text);
  return nocdr::ReadDesign(in);
}

/// The traced phase's copy of a session's live state, advanced with the
/// same public calls the session service makes.
struct Replica {
  nocdr::NocDesign design;
  nocdr::ChannelDependencyGraph cdg;
  nocdr::DirtyCycleFinder finder;
  nocdr::NextHopTable table;
  fault::FaultState state;

  Replica(nocdr::NocDesign live, nocdr::NextHopTable next_hops)
      : design(std::move(live)),
        cdg(nocdr::ChannelDependencyGraph::Build(design)),
        finder(cdg),
        table(std::move(next_hops)),
        state(fault::FaultState::None(design)) {}
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;
};

}  // namespace

PhaseResult RunFaultStream(const WorkloadArgs& args) {
  PhaseResult result;
  std::unique_ptr<serve::CertificationService> service;
  std::unique_ptr<serve::SessionService> sessions;
  std::vector<nocdr::NocDesign> epoch0(2);
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    sessions.reset();
    service.reset();
    result.SampleHostSpeed(kSetupSpeedSamples);
    const Clock::time_point start = Clock::now();
    serve::ServiceConfig config;
    config.threads = kComputeThreads;
    // Every publish inserts a new key. A bounded memory tier keeps the
    // process's size from growing with the number of bursts a run fits
    // in, which made peak_rss_mb follow the host's speed; one LRU keeps
    // the two epoch-0 treatments, which every open reads, resident.
    config.cache.max_entries = kCachedEpochs;
    config.cache.shards = 1;
    service = std::make_unique<serve::CertificationService>(config);
    sessions = std::make_unique<serve::SessionService>(*service);
    // Warm-up: one session per base design, which also computes the
    // epoch-0 treatment every later open of that design hits.
    for (std::size_t base = 0; base < 2; ++base) {
      serve::SessionRequest open;
      open.op = serve::SessionOp::kOpen;
      open.spec = BaseSpec(base);
      open.return_design = true;
      const serve::SessionResponse opened = sessions->Handle(open);
      if (opened.status != serve::ServeStatus::kOk) {
        throw std::runtime_error("fault_stream: warm-up open failed: " +
                                 opened.error.message);
      }
      epoch0[base] = Parse(opened.design_text);
      serve::SessionRequest close;
      close.op = serve::SessionOp::kClose;
      close.session_id = opened.session_id;
      sessions->Handle(close);
    }
    result.setup_s.push_back(MsSince(start) / 1000.0);
  }

  SpanRecorder* spans = args.spans;
  const HistogramDelta histograms;
  RemovalTally tally;
  PayloadChecker checker;
  std::uint64_t affected = 0;
  std::uint64_t detours = 0;
  std::uint64_t ripups = 0;
  std::uint64_t serialized_bytes = 0;
  const double budget_ms = args.seconds * 1000.0;
  double measured_ms = 0.0;
  std::uint64_t op = 0;
  for (std::uint64_t k = 0; measured_ms < budget_ms; ++k) {
    // Two torus sessions per mesh session: a mesh burst costs about twice
    // a torus burst, and with equal shares the median would sit on the
    // gap between the two groups.
    const std::size_t base = k % 3 == 2 ? 1 : 0;
    const auto stream = DrawStream(epoch0[base], DeriveSeed(args.seed, k));
    result.SampleHostSpeed();

    serve::SessionRequest open;
    open.op = serve::SessionOp::kOpen;
    open.id = "s" + std::to_string(k);
    open.spec = BaseSpec(base);
    open.return_design = true;
    const Clock::time_point open_start = Clock::now();
    const serve::SessionResponse opened = sessions->Handle(open);
    measured_ms += MsSince(open_start);
    if (opened.status != serve::ServeStatus::kOk) {
      result.Record(opened.status == serve::ServeStatus::kOverloaded ||
                            opened.error.code == serve::ErrorCode::kSessionLimit
                        ? Outcome::kRefused
                        : Outcome::kError,
                    open.id + ": open failed: " + opened.error.message);
      continue;
    }
    std::optional<Replica> replica;
    if (spans != nullptr) {
      nocdr::NextHopTable table;
      serve::MaterializeDesign(open.spec, service->config().envelope, &table);
      replica.emplace(Parse(opened.design_text), std::move(table));
    }

    std::uint64_t epoch = opened.epoch;
    for (std::size_t b = 0; b < stream.size(); ++b, ++op) {
      serve::SessionRequest burst;
      burst.op = serve::SessionOp::kBurst;
      burst.id = open.id + ".b" + std::to_string(b);
      burst.session_id = opened.session_id;
      burst.events = stream[b];
      burst.has_expect_epoch = true;
      burst.expect_epoch = epoch;
      burst.return_design = true;

      // The traced phase runs the burst's layers on the replica first:
      // the fault pipeline, the re-certification on the live graph, and
      // the epoch publish (canonicalize + ComputeCertification's steps).
      fault::ReconfigureReport replayed;
      if (replica) {
        fault::FaultBurst events;
        for (const serve::SessionEventSpec& event : burst.events) {
          const std::optional<fault::FaultEvent> resolved =
              event.kind == fault::FaultKind::kLink
                  ? fault::MakeLinkFault(replica->design, event.src, event.dst)
                  : fault::MakeSwitchFault(replica->design, event.switch_name);
          if (!resolved) {
            throw std::runtime_error("fault_stream: unresolvable event in " +
                                     burst.id);
          }
          events.push_back(*resolved);
        }
        fault::ReconfigureOptions options;
        options.table = replica->table.empty() ? nullptr : &replica->table;
        {
          SpanRecorder::Scope span(spans, "fault", op);
          replayed =
              fault::ApplyFaultBurst(replica->design, replica->cdg,
                                     replica->finder, replica->state, events,
                                     options);
        }
        tally.Add(replayed.removal);
        affected += replayed.affected_flows.size();
        detours += replayed.table_detours;
        ripups += replayed.ripup_reroutes;
        if (!replayed.infeasible()) {
          {
            SpanRecorder::Scope span(spans, "deadlock.certify", op);
            nocdr::CertifyFromCdg(replica->design, replica->cdg);
          }
          SpanRecorder::Scope span(spans, "session.publish", op);
          nocdr::CanonicalDesign canonical;
          {
            SpanRecorder::Scope canonical_span(spans, "canonical", op);
            canonical = nocdr::CanonicalizeDesign(replica->design);
          }
          nocdr::NocDesign treated = canonical.design;
          {
            SpanRecorder::Scope removal_span(spans, "deadlock.removal", op);
            nocdr::RemoveDeadlocks(treated);
          }
          nocdr::DeadlockCertificate certificate;
          {
            SpanRecorder::Scope certify_span(spans, "deadlock.certify", op);
            certificate = nocdr::CertifyDeadlockFreedom(treated);
          }
          SpanRecorder::Scope serialize_span(spans, "serialize", op);
          serialized_bytes += nocdr::CertificateToJson(certificate).size() +
                              nocdr::DesignText(treated).size();
        }
      }

      const Clock::time_point start = Clock::now();
      const serve::SessionResponse response = sessions->Handle(burst);
      const Clock::time_point end = Clock::now();
      const double ms = MsBetween(start, end);
      measured_ms += ms;
      result.latencies_ms.push_back(ms);
      result.entry_ms.push_back(ms);
      if (spans != nullptr) {
        spans->AddRoot("session", op, start, end);
      }

      std::string why;
      Outcome outcome = Outcome::kOk;
      if (response.status != serve::ServeStatus::kOk) {
        outcome = Outcome::kError;
        why = response.error.message;
      } else if (response.feasible) {
        outcome = response.deadlock_free
                      ? checker.CheckEpoch(response.key,
                                           response.certificate_json,
                                           response.design_text, &why)
                      : Outcome::kWrong;
        epoch = response.epoch;
      }
      if (outcome == Outcome::kOk && replica &&
          (replayed.infeasible() == response.feasible ||
           replayed.affected_flows.size() != response.affected_flows ||
           replayed.ripup_reroutes != response.ripup_reroutes ||
           replayed.removal.vcs_added != response.vcs_added)) {
        outcome = Outcome::kWrong;
        why = "the replayed fault pipeline disagrees with the session";
      }
      result.Record(outcome, burst.id + ": " + why);
      if (outcome == Outcome::kOk) {
        ++result.completed;
      }
    }

    serve::SessionRequest close;
    close.op = serve::SessionOp::kClose;
    close.session_id = opened.session_id;
    const Clock::time_point close_start = Clock::now();
    sessions->Handle(close);
    measured_ms += MsSince(close_start);
  }
  result.throughput_window_s = measured_ms / 1000.0;

  if (spans != nullptr) {
    ReportLayerTimes(*spans, op, result);
    ReportCoverage(*spans, "session", result);
    tally.Report(result);
    ReportRemovalStages(histograms, result);
    ReportServiceStats(service->Stats(), histograms, result);
    const double bursts = static_cast<double>(std::max<std::uint64_t>(op, 1));
    result.figures["fault.affected_flows"] = {
        static_cast<double>(affected) / bursts, "count", op};
    result.figures["fault.ripup_share"] = {
        detours + ripups == 0 ? 0.0
                              : static_cast<double>(ripups) /
                                    static_cast<double>(detours + ripups),
        "ratio", op};
    result.figures["session.publish_ms"] = {
        spans->InclusiveMs("session.publish") / bursts, "ms", op};
    result.figures["serialize.bytes"] = {
        static_cast<double>(serialized_bytes) / bursts, "bytes", op};
    result.figures["serve.rejected"].value +=
        static_cast<double>(sessions->Stats().open_rejected);
  }
  return result;
}

}  // namespace perfbench
