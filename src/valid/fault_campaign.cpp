#include "valid/fault_campaign.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/removal.h"
#include "deadlock/verify.h"
#include "fault/reconfigure.h"
#include "runner/sweep.h"
#include "sim/transition.h"
#include "util/clock.h"
#include "util/error.h"
#include "valid/trials.h"

namespace nocdr::valid {

namespace {

/// Independent disconnect re-check: plain forward BFS over surviving
/// links, sharing no code with the reconfiguration pipeline's
/// feasibility scan.
bool IndependentlyReachable(const NocDesign& design,
                            const fault::FaultState& state, SwitchId src,
                            SwitchId dst) {
  if (state.SwitchFailed(src) || state.SwitchFailed(dst)) {
    return false;
  }
  std::vector<char> seen(design.topology.SwitchCount(), 0);
  std::vector<std::uint32_t> queue{src.value()};
  seen[src.value()] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (SwitchId(queue[head]) == dst) {
      return true;
    }
    for (const LinkId l : design.topology.OutLinks(SwitchId(queue[head]))) {
      if (state.LinkFailed(l)) {
        continue;
      }
      const SwitchId w = design.topology.LinkAt(l).dst;
      if (!seen[w.value()] && !state.SwitchFailed(w)) {
        seen[w.value()] = 1;
        queue.push_back(w.value());
      }
    }
  }
  return false;
}

bool SameRoutes(const NocDesign& a, const NocDesign& b) {
  if (a.traffic.FlowCount() != b.traffic.FlowCount()) {
    return false;
  }
  for (std::size_t f = 0; f < a.traffic.FlowCount(); ++f) {
    if (a.routes.RouteOf(FlowId(f)) != b.routes.RouteOf(FlowId(f))) {
      return false;
    }
  }
  return true;
}

SimConfig MakeSimConfig(const FaultWorkload& workload, std::uint64_t seed) {
  SimConfig cfg;
  cfg.engine = workload.engine;
  cfg.buffer_depth = workload.buffer_depth;
  cfg.max_cycles = workload.max_cycles;
  cfg.stall_threshold = workload.stall_threshold;
  cfg.deadlock_check_interval = 256;
  cfg.traffic.mode = InjectionMode::kFixedCount;
  cfg.traffic.packets_per_flow = workload.packets_per_flow;
  cfg.traffic.packet_length = workload.packet_length;
  cfg.traffic.seed = seed;
  return cfg;
}

struct Fail {
  FaultMismatchKind kind;
  std::string message;
};

}  // namespace

FaultTrialRow RunFaultTrial(DesignSource source, std::uint64_t seed,
                            const FaultCampaignConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  FaultTrialRow row;
  row.design_seed = seed;
  row.source = source;

  const auto fail = [&](FaultMismatchKind kind,
                        const std::string& message) -> FaultTrialRow& {
    row.verdict = FaultVerdict::kMismatch;
    row.mismatch_kind = kind;
    row.mismatch = message;
    row.run_ms = MillisSince(t0);
    return row;
  };

  try {
    NextHopTable table;
    NocDesign design =
        GenerateTrialDesign(source, seed, config.envelope, &table);
    row.design = design.name;
    row.switches = design.topology.SwitchCount();
    row.links = design.topology.LinkCount();
    row.flows = design.traffic.FlowCount();
    row.table_routed = !table.empty();

    // Start from a certified deadlock-free configuration.
    RemoveDeadlocks(design);
    row.channels_initial = design.topology.ChannelCount();

    auto cdg = ChannelDependencyGraph::Build(design);
    DirtyCycleFinder finder(cdg);
    {
      const DeadlockCertificate pre = CertifyFromCdg(design, cdg);
      if (!pre.deadlock_free || !CheckCertificate(design, pre)) {
        return fail(FaultMismatchKind::kPreCertificateNegative,
                    "treated design failed pre-fault certification");
      }
    }

    const fault::FaultPlan plan =
        fault::DrawFaultPlan(design, runner::JobSeed(seed, 0xfa01),
                             config.plan);
    row.bursts_planned = plan.bursts.size();

    // The rebuild reference runs the same plan on its own copies.
    NocDesign design_reb = design;
    NextHopTable table_inc = table;
    NextHopTable table_reb = table;
    fault::FaultState state_inc = fault::FaultState::None(design);
    fault::FaultState state_reb = fault::FaultState::None(design_reb);
    fault::ReconfigureOptions opts_inc;
    opts_inc.table = table_inc.empty() ? nullptr : &table_inc;
    fault::ReconfigureOptions opts_reb;
    opts_reb.table = table_reb.empty() ? nullptr : &table_reb;

    for (std::size_t b = 0; b < plan.bursts.size(); ++b) {
      const fault::FaultBurst& burst = plan.bursts[b];
      const RouteSet pre_routes = design.routes;

      const fault::ReconfigureReport rep_inc = fault::ApplyFaultBurst(
          design, cdg, finder, state_inc, burst, opts_inc);
      const fault::ReconfigureReport rep_reb =
          fault::ApplyFaultBurstRebuild(design_reb, state_reb, burst,
                                        opts_reb);

      if (rep_inc.infeasible() != rep_reb.infeasible() ||
          rep_inc.affected_flows != rep_reb.affected_flows ||
          rep_inc.disconnected_flows != rep_reb.disconnected_flows) {
        return fail(FaultMismatchKind::kEngineDiverged,
                    "incremental and rebuild paths disagree on burst " +
                        std::to_string(b) + " feasibility/affected set");
      }

      if (rep_inc.infeasible()) {
        // The infeasibility claim must be genuine: every named flow
        // really has no surviving path.
        fault::FaultState probe = state_inc;
        probe.Apply(design, burst);
        for (const FlowId f : rep_inc.disconnected_flows) {
          const Flow& flow = design.traffic.FlowAt(f);
          if (IndependentlyReachable(design, probe,
                                     design.attachment[flow.src.value()],
                                     design.attachment[flow.dst.value()])) {
            return fail(FaultMismatchKind::kFalseDisconnect,
                        "flow " + std::to_string(f.value()) +
                            " reported disconnected but is reachable");
          }
        }
        row.disconnected_flows = rep_inc.disconnected_flows.size();
        row.affected_flows += rep_inc.affected_flows.size();
        row.verdict = FaultVerdict::kDisconnected;
        row.channels_final = design.topology.ChannelCount();
        row.failed_links = state_inc.FailedLinkCount();
        row.failed_switches = state_inc.FailedSwitchCount();
        row.run_ms = MillisSince(t0);
        return row;
      }

      ++row.bursts_applied;
      row.affected_flows += rep_inc.affected_flows.size();
      row.table_detours += rep_inc.table_detours;
      row.ripup_reroutes += rep_inc.ripup_reroutes;
      row.removal_iterations += rep_inc.removal.iterations;
      row.removal_vcs_added += rep_inc.removal.vcs_added;

      // Both paths must land on the same design.
      if (design.topology.ChannelCount() !=
              design_reb.topology.ChannelCount() ||
          !SameRoutes(design, design_reb) ||
          rep_inc.removal.iterations != rep_reb.removal.iterations ||
          rep_inc.removal.vcs_added != rep_reb.removal.vcs_added) {
        return fail(FaultMismatchKind::kEngineDiverged,
                    "incremental and rebuild designs diverged after "
                    "burst " +
                        std::to_string(b));
      }

      // The maintained CDG must equal a from-scratch rebuild.
      if (!cdg.SameDependencies(ChannelDependencyGraph::Build(design))) {
        return fail(FaultMismatchKind::kCdgDesync,
                    "maintained CDG diverged from rebuild after burst " +
                        std::to_string(b));
      }

      // Re-certification: maintained-CDG certificate, independently
      // checked, JSON-round-tripped and cross-checked against the
      // rebuild path's from-scratch certificate.
      const DeadlockCertificate cert = CertifyFromCdg(design, cdg);
      if (!cert.deadlock_free) {
        return fail(FaultMismatchKind::kPostCertificateNegative,
                    "post-fault removal left a CDG cycle on burst " +
                        std::to_string(b));
      }
      if (!CheckCertificate(design, cert)) {
        return fail(FaultMismatchKind::kCheckerRejectedCertificate,
                    "post-fault certificate rejected by checker on "
                    "burst " +
                        std::to_string(b));
      }
      const DeadlockCertificate reloaded =
          CertificateFromJson(CertificateToJson(cert));
      if (!CheckCertificate(design, reloaded)) {
        return fail(FaultMismatchKind::kCertificateJsonRoundTrip,
                    "post-fault certificate changed verdict after JSON "
                    "round trip");
      }
      const DeadlockCertificate scratch = CertifyDeadlockFreedom(design_reb);
      if (scratch.deadlock_free != cert.deadlock_free ||
          scratch.topological_order != cert.topological_order) {
        return fail(FaultMismatchKind::kEngineDiverged,
                    "maintained-CDG certificate differs from the "
                    "from-scratch certificate on burst " +
                        std::to_string(b));
      }

      // Post-fault certificate vs. post-fault simulation: the workload
      // must run clean on the reconfigured design.
      const std::vector<char> dead =
          fault::DeadChannelMask(design, state_inc);
      {
        const SimResult sim = SimulateWorkload(
            design,
            MakeSimConfig(config.workload, runner::JobSeed(seed, 3 * b)));
        if (sim.deadlocked) {
          return fail(FaultMismatchKind::kPostSimDeadlocked,
                      "positive post-fault certificate but the simulator "
                      "deadlocked on burst " +
                          std::to_string(b));
        }
        if (!sim.AllDelivered()) {
          return fail(FaultMismatchKind::kPostSimUndelivered,
                      "positive post-fault certificate but packets "
                      "undelivered on burst " +
                          std::to_string(b));
        }
        row.post_delivered += sim.packets_delivered;
      }

      // Transition disciplines across the reconfiguration boundary.
      TransitionConfig tconfig;
      tconfig.sim =
          MakeSimConfig(config.workload, runner::JobSeed(seed, 3 * b + 1));
      tconfig.transition_cycle = config.workload.transition_cycle;
      tconfig.policy = TransitionPolicy::kDrainAndRestart;
      {
        const TransitionResult drain =
            SimulateTransition(design, pre_routes, dead, tconfig);
        if (drain.sim.deadlocked) {
          return fail(FaultMismatchKind::kDrainDeadlocked,
                      "drain-and-restart transition deadlocked on burst " +
                          std::to_string(b));
        }
        if (!drain.sim.AllDelivered() || drain.packets_dropped != 0) {
          return fail(FaultMismatchKind::kDrainUndelivered,
                      "drain-and-restart transition lost packets on "
                      "burst " +
                          std::to_string(b));
        }
        row.drain_cycles += drain.drain_cycles;
        row.drain_delivered += drain.sim.packets_delivered;
      }
      tconfig.sim =
          MakeSimConfig(config.workload, runner::JobSeed(seed, 3 * b + 2));
      tconfig.policy = TransitionPolicy::kMidFlight;
      {
        const TransitionResult mid =
            SimulateTransition(design, pre_routes, dead, tconfig);
        row.midflight_dropped += mid.packets_dropped;
        row.midflight_delivered += mid.sim.packets_delivered;
        if (mid.sim.deadlocked) {
          // Cross-epoch circular waits are real and outside any single
          // certificate's claim; recorded, not a contract breach.
          ++row.midflight_deadlocks;
        } else if (!mid.AllAccountedFor()) {
          return fail(FaultMismatchKind::kMidflightLost,
                      "mid-flight transition lost packets beyond the "
                      "fault's drops on burst " +
                          std::to_string(b));
        }
      }
    }

    row.channels_final = design.topology.ChannelCount();
    row.failed_links = state_inc.FailedLinkCount();
    row.failed_switches = state_inc.FailedSwitchCount();
    row.verdict = FaultVerdict::kReconfigured;
  } catch (const std::exception& e) {
    return fail(FaultMismatchKind::kTrialThrew,
                "trial threw: " + std::string(e.what()));
  }
  row.run_ms = MillisSince(t0);
  return row;
}

FaultCampaignResult RunFaultCampaign(const FaultCampaignConfig& config) {
  Require(!config.sources.empty(),
          "RunFaultCampaign: at least one design source required");
  FaultCampaignResult result;
  RunTrials(result, config.trials, config.threads, [&](std::size_t i) {
    return RunFaultTrial(config.sources[i % config.sources.size()],
                         runner::JobSeed(config.base_seed, i), config);
  });
  result.reconfigured = result.Count(FaultVerdict::kReconfigured);
  result.disconnected = result.Count(FaultVerdict::kDisconnected);
  result.mismatches = result.Count(FaultVerdict::kMismatch);
  return result;
}

}  // namespace nocdr::valid
