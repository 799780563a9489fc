#include "fault/reconfigure.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace nocdr::fault {

namespace {

/// BFS reachability over surviving links, memoized per source switch —
/// many affected flows share a source.
class SurvivorReachability {
 public:
  SurvivorReachability(const NocDesign& design, const FaultState& state)
      : design_(design), state_(state),
        visited_(design.topology.SwitchCount() *
                     design.topology.SwitchCount(),
                 0),
        done_(design.topology.SwitchCount(), 0) {}

  bool Reachable(SwitchId src, SwitchId dst) {
    const std::size_t n = design_.topology.SwitchCount();
    if (!done_[src.value()]) {
      char* row = visited_.data() + src.value() * n;
      std::vector<std::uint32_t> queue;
      if (!state_.SwitchFailed(src)) {
        row[src.value()] = 1;
        queue.push_back(src.value());
      }
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const SwitchId v(queue[head]);
        for (const LinkId l : design_.topology.OutLinks(v)) {
          if (state_.LinkFailed(l)) {
            continue;
          }
          const SwitchId w = design_.topology.LinkAt(l).dst;
          if (!row[w.value()] && !state_.SwitchFailed(w)) {
            row[w.value()] = 1;
            queue.push_back(w.value());
          }
        }
      }
      done_[src.value()] = 1;
    }
    return visited_[src.value() * n + dst.value()] != 0;
  }

 private:
  const NocDesign& design_;
  const FaultState& state_;
  std::vector<char> visited_;  // n x n, rows filled lazily
  std::vector<char> done_;
};

/// The shared burst pipeline. \p cdg / \p finder are null on the rebuild
/// reference path. Returns true when the design was mutated (the burst
/// was feasible).
bool ReconfigureCore(NocDesign& design, ChannelDependencyGraph* cdg,
                     DirtyCycleFinder* finder, FaultState& state,
                     const FaultBurst& burst,
                     const ReconfigureOptions& options,
                     ReconfigureReport& report) {
  FaultState next = state;
  next.Apply(design, burst);

  // 1. Affected flows: endpoint switch died, or the route crosses a
  // failed link. Routes were valid under the previous state, so any
  // failed link on them is newly failed.
  report.affected_flows = AffectedFlows(design, next);

  // 2. Feasibility: every affected flow must still have some surviving
  // path. Any miss makes the whole burst infeasible, untouched.
  SurvivorReachability reach(design, next);
  for (const FlowId f : report.affected_flows) {
    const Flow& flow = design.traffic.FlowAt(f);
    const SwitchId src = design.attachment[flow.src.value()];
    const SwitchId dst = design.attachment[flow.dst.value()];
    if (next.SwitchFailed(src) || next.SwitchFailed(dst) ||
        !reach.Reachable(src, dst)) {
      report.disconnected_flows.push_back(f);
    }
  }
  if (report.infeasible()) {
    return false;
  }
  const FaultState previous = std::exchange(state, std::move(next));

  // 3. Mirror the rip-up into the CDG before any route changes.
  if (cdg != nullptr) {
    for (const FlowId f : report.affected_flows) {
      cdg->RemoveEdges(design.routes.RouteOf(f), f);
    }
  }

  // 4. Re-route: table detours first, rip-up Dijkstra for the rest.
  std::vector<FlowId> ripup;
  if (options.table != nullptr) {
    report.table_pairs_disconnected = PatchNextHopTable(
        design.topology, *options.table, state.failed_links,
        state.failed_switches, previous.failed_links,
        previous.failed_switches);
    for (const FlowId f : report.affected_flows) {
      const Flow& flow = design.traffic.FlowAt(f);
      const SwitchId src = design.attachment[flow.src.value()];
      const SwitchId dst = design.attachment[flow.dst.value()];
      auto detour =
          WalkTableRoute(design.topology, *options.table, src, dst);
      if (detour.has_value()) {
        design.routes.SetRoute(f, std::move(*detour));
        ++report.table_detours;
      } else {
        ripup.push_back(f);
      }
    }
  } else {
    ripup = report.affected_flows;
  }
  if (!ripup.empty()) {
    RerouteFlows(design, ripup, state.failed_links, state.failed_switches,
                 options.route_options);
    report.ripup_reroutes = ripup.size();
  }
  if (cdg != nullptr) {
    for (const FlowId f : report.affected_flows) {
      const Route& route = design.routes.RouteOf(f);
      cdg->AddEdges(route, f);
      // The new edges connect pre-existing vertices, which the finder's
      // fresh-vertex rule would never re-scan on its own.
      finder->NoteExternalEdges(route);
    }
  }

  // 5. Deadlock removal re-runs on what the detours left behind.
  if (cdg != nullptr) {
    report.removal =
        RemoveDeadlocksOnCdg(design, *cdg, *finder, options.removal);
    if (options.paranoid_validation) {
      Require(cdg->SameDependencies(ChannelDependencyGraph::Build(design)),
              "ApplyFaultBurst: maintained CDG diverged from rebuild");
    }
  } else {
    RemovalOptions rebuild = options.removal;
    rebuild.engine = RemovalEngine::kRebuild;
    report.removal = RemoveDeadlocks(design, rebuild);
  }
  if (options.paranoid_validation) {
    design.Validate();
  }
  return true;
}

}  // namespace

std::vector<FlowId> AffectedFlows(const NocDesign& design,
                                  const FaultState& state) {
  std::vector<FlowId> affected;
  for (std::size_t fi = 0; fi < design.traffic.FlowCount(); ++fi) {
    const FlowId f(fi);
    const Flow& flow = design.traffic.FlowAt(f);
    const SwitchId src = design.attachment[flow.src.value()];
    const SwitchId dst = design.attachment[flow.dst.value()];
    if (state.SwitchFailed(src) || state.SwitchFailed(dst)) {
      affected.push_back(f);
      continue;
    }
    for (const ChannelId c : design.routes.RouteOf(f)) {
      if (state.LinkFailed(design.topology.ChannelAt(c).link)) {
        affected.push_back(f);
        break;
      }
    }
  }
  return affected;
}

std::vector<char> DeadChannelMask(const NocDesign& design,
                                  const FaultState& state) {
  std::vector<char> dead(design.topology.ChannelCount(), 0);
  for (std::size_t c = 0; c < design.topology.ChannelCount(); ++c) {
    dead[c] = state.LinkFailed(design.topology.ChannelAt(ChannelId(c)).link)
                  ? 1
                  : 0;
  }
  return dead;
}

ReconfigureReport ApplyFaultBurst(NocDesign& design,
                                  ChannelDependencyGraph& cdg,
                                  DirtyCycleFinder& finder,
                                  FaultState& state, const FaultBurst& burst,
                                  const ReconfigureOptions& options) {
  ReconfigureReport report;
  ReconfigureCore(design, &cdg, &finder, state, burst, options, report);
  return report;
}

ReconfigureReport ApplyFaultBurstRebuild(NocDesign& design,
                                         FaultState& state,
                                         const FaultBurst& burst,
                                         const ReconfigureOptions& options) {
  ReconfigureReport report;
  ReconfigureCore(design, nullptr, nullptr, state, burst, options, report);
  return report;
}

}  // namespace nocdr::fault
