// Fault-injection subsystem: plan determinism, online reconfiguration
// against its from-scratch reference, infeasibility honesty, table
// detours, and the fault-reconfig campaign contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/removal.h"
#include "deadlock/verify.h"
#include "fault/plan.h"
#include "fault/reconfigure.h"
#include "gen/generators.h"
#include "synth/route_builder.h"
#include "test_helpers.h"
#include "util/error.h"
#include "valid/campaign.h"
#include "valid/fault_campaign.h"

namespace nocdr {
namespace {

using fault::FaultBurst;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultPlanOptions;
using fault::FaultState;

bool SameEvents(const FaultPlan& a, const FaultPlan& b) {
  if (a.bursts.size() != b.bursts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.bursts.size(); ++i) {
    if (a.bursts[i].size() != b.bursts[i].size()) {
      return false;
    }
    for (std::size_t j = 0; j < a.bursts[i].size(); ++j) {
      const FaultEvent& x = a.bursts[i][j];
      const FaultEvent& y = b.bursts[i][j];
      if (x.kind != y.kind || x.link != y.link ||
          x.switch_id != y.switch_id) {
        return false;
      }
    }
  }
  return true;
}

TEST(FaultPlanTest, DeterministicInSeed) {
  const NocDesign design = testing::MakeRandomDesign(5, 10, 14, 30);
  FaultPlanOptions options;
  options.bursts = 3;
  EXPECT_TRUE(SameEvents(fault::DrawFaultPlan(design, 42, options),
                         fault::DrawFaultPlan(design, 42, options)));
  // Different seeds should (for this design) pick different victims.
  EXPECT_FALSE(SameEvents(fault::DrawFaultPlan(design, 42, options),
                          fault::DrawFaultPlan(design, 43, options)));
}

TEST(FaultPlanTest, NeverNamesAnElementTwice) {
  const NocDesign design = testing::MakeRandomDesign(9, 12, 16, 40);
  FaultPlanOptions options;
  options.bursts = 4;
  options.max_links_per_burst = 3;
  options.disconnect_tolerance = 1.0;  // no guard: maximum churn
  const FaultPlan plan = fault::DrawFaultPlan(design, 17, options);
  std::vector<std::uint32_t> links;
  for (const FaultBurst& burst : plan.bursts) {
    for (const FaultEvent& event : burst) {
      if (event.kind == FaultKind::kLink) {
        links.push_back(event.link.value());
      }
    }
  }
  std::sort(links.begin(), links.end());
  EXPECT_EQ(std::adjacent_find(links.begin(), links.end()), links.end());
}

TEST(FaultPlanTest, GuardedPlansKeepAttachmentsConnected) {
  // With tolerance 0 every drawn burst must be survivable: applying the
  // whole plan leaves every flow's endpoints mutually reachable.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const NocDesign design = testing::MakeRandomDesign(seed, 10, 14, 30);
    FaultPlanOptions options;
    options.bursts = 3;
    options.disconnect_tolerance = 0.0;
    const FaultPlan plan = fault::DrawFaultPlan(design, seed * 7, options);
    FaultState state = FaultState::None(design);
    for (const FaultBurst& burst : plan.bursts) {
      state.Apply(design, burst);
    }
    // Reuse the pipeline's own feasibility scan target: no affected flow
    // may be disconnected.
    NocDesign scratch = design;
    auto cdg = ChannelDependencyGraph::Build(scratch);
    DirtyCycleFinder finder(cdg);
    FaultState fresh = FaultState::None(scratch);
    for (const FaultBurst& burst : plan.bursts) {
      const auto report =
          fault::ApplyFaultBurst(scratch, cdg, finder, fresh, burst);
      EXPECT_FALSE(report.infeasible()) << "seed " << seed;
    }
  }
}

TEST(FaultStateTest, SwitchFailureFansOutToIncidentLinks) {
  const auto ex = testing::MakePaperExample();
  FaultState state = FaultState::None(ex.design);
  // SW2 is l1's dst and l2's src.
  state.Apply(ex.design, {{FaultKind::kSwitch, LinkId(), SwitchId(1)}});
  EXPECT_TRUE(state.SwitchFailed(SwitchId(1)));
  EXPECT_TRUE(state.LinkFailed(ex.l1));
  EXPECT_TRUE(state.LinkFailed(ex.l2));
  EXPECT_FALSE(state.LinkFailed(ex.l3));
  EXPECT_EQ(state.FailedLinkCount(), 2u);
  EXPECT_EQ(state.FailedSwitchCount(), 1u);
}

TEST(FaultReconfigureTest, AffectedFlowsMatchesRoutes) {
  const auto ex = testing::MakePaperExample();
  FaultState state = FaultState::None(ex.design);
  state.Apply(ex.design, {{FaultKind::kLink, ex.l2, SwitchId()}});
  // Routes touching l2's channel c2: F1 {c1,c2,c3} and F4 {c1,c2}.
  EXPECT_EQ(fault::AffectedFlows(ex.design, state),
            (std::vector<FlowId>{ex.f1, ex.f4}));
  const auto dead = fault::DeadChannelMask(ex.design, state);
  EXPECT_EQ(dead[ex.c2.value()], 1);
  EXPECT_EQ(dead[ex.c1.value()], 0);
}

TEST(FaultReconfigureTest, InfeasibleBurstMutatesNothing) {
  // The paper example's ring has no redundancy: killing l2 strands F1/F4.
  auto ex = testing::MakePaperExample();
  NocDesign design = ex.design;
  RemoveDeadlocks(design);
  const RouteSet routes_before = design.routes;
  const std::size_t channels_before = design.topology.ChannelCount();

  auto cdg = ChannelDependencyGraph::Build(design);
  DirtyCycleFinder finder(cdg);
  FaultState state = FaultState::None(design);
  const auto report = fault::ApplyFaultBurst(
      design, cdg, finder, state, {{FaultKind::kLink, ex.l2, SwitchId()}});

  ASSERT_TRUE(report.infeasible());
  EXPECT_EQ(report.disconnected_flows, (std::vector<FlowId>{ex.f1, ex.f4}));
  EXPECT_EQ(design.topology.ChannelCount(), channels_before);
  EXPECT_FALSE(state.LinkFailed(ex.l2)) << "state must not advance";
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    EXPECT_EQ(design.routes.RouteOf(FlowId(f)),
              routes_before.RouteOf(FlowId(f)));
  }
  EXPECT_TRUE(cdg.SameDependencies(ChannelDependencyGraph::Build(design)));
}

TEST(FaultReconfigureTest, ReroutesAroundTheFaultAndStaysCertified) {
  for (std::uint64_t seed = 11; seed <= 18; ++seed) {
    NocDesign design = testing::MakeRandomDesign(seed, 10, 14, 30);
    RemoveDeadlocks(design);
    auto cdg = ChannelDependencyGraph::Build(design);
    DirtyCycleFinder finder(cdg);
    FaultState state = FaultState::None(design);

    FaultPlanOptions options;
    options.bursts = 2;
    options.disconnect_tolerance = 0.0;
    const FaultPlan plan = fault::DrawFaultPlan(design, seed, options);
    fault::ReconfigureOptions opts;
    opts.paranoid_validation = true;  // Validate() + CDG cross-check
    for (const FaultBurst& burst : plan.bursts) {
      const auto report =
          fault::ApplyFaultBurst(design, cdg, finder, state, burst, opts);
      ASSERT_FALSE(report.infeasible()) << "seed " << seed;
      // No surviving route may cross a failed link.
      for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
        for (const ChannelId c : design.routes.RouteOf(FlowId(f))) {
          EXPECT_FALSE(
              state.LinkFailed(design.topology.ChannelAt(c).link))
              << "seed " << seed << " flow " << f;
        }
      }
      const DeadlockCertificate cert = CertifyFromCdg(design, cdg);
      EXPECT_TRUE(cert.deadlock_free);
      EXPECT_TRUE(CheckCertificate(design, cert));
    }
  }
}

TEST(FaultReconfigureTest, IncrementalMatchesRebuildReference) {
  for (std::uint64_t seed = 31; seed <= 40; ++seed) {
    NocDesign inc = testing::MakeRandomDesign(seed, 10, 14, 30);
    RemoveDeadlocks(inc);
    NocDesign reb = inc;
    auto cdg = ChannelDependencyGraph::Build(inc);
    DirtyCycleFinder finder(cdg);
    FaultState state_inc = FaultState::None(inc);
    FaultState state_reb = FaultState::None(reb);

    FaultPlanOptions options;
    options.bursts = 3;
    const FaultPlan plan = fault::DrawFaultPlan(inc, seed * 3, options);
    for (const FaultBurst& burst : plan.bursts) {
      const auto rep_inc =
          fault::ApplyFaultBurst(inc, cdg, finder, state_inc, burst);
      const auto rep_reb =
          fault::ApplyFaultBurstRebuild(reb, state_reb, burst);
      ASSERT_EQ(rep_inc.infeasible(), rep_reb.infeasible());
      ASSERT_EQ(rep_inc.affected_flows, rep_reb.affected_flows);
      if (rep_inc.infeasible()) {
        break;
      }
      EXPECT_EQ(rep_inc.removal.iterations, rep_reb.removal.iterations);
      EXPECT_EQ(rep_inc.removal.vcs_added, rep_reb.removal.vcs_added);
      ASSERT_EQ(inc.topology.ChannelCount(), reb.topology.ChannelCount());
      for (std::size_t f = 0; f < inc.traffic.FlowCount(); ++f) {
        ASSERT_EQ(inc.routes.RouteOf(FlowId(f)),
                  reb.routes.RouteOf(FlowId(f)))
            << "seed " << seed << " flow " << f;
      }
      ASSERT_TRUE(cdg.SameDependencies(ChannelDependencyGraph::Build(inc)));
    }
  }
}

TEST(FaultReconfigureTest, TableDetourPatchesInsteadOfRippingUp) {
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kMesh2D;
  spec.width = 5;
  spec.height = 5;
  spec.pattern = gen::TrafficPattern::kUniform;
  spec.uniform_fanout = 3;
  spec.seed = 3;
  NextHopTable table;
  NocDesign design = gen::GenerateStandardDesign(spec, &table);
  ASSERT_FALSE(table.empty());
  RemoveDeadlocks(design);

  auto cdg = ChannelDependencyGraph::Build(design);
  DirtyCycleFinder finder(cdg);
  FaultState state = FaultState::None(design);
  FaultPlanOptions plan_options;
  plan_options.bursts = 1;
  plan_options.disconnect_tolerance = 0.0;
  plan_options.switch_fault_probability = 0.0;
  const FaultPlan plan = fault::DrawFaultPlan(design, 2, plan_options);
  ASSERT_FALSE(plan.bursts.front().empty());

  fault::ReconfigureOptions opts;
  opts.table = &table;
  const auto report = fault::ApplyFaultBurst(design, cdg, finder, state,
                                             plan.bursts.front(), opts);
  ASSERT_FALSE(report.infeasible());
  EXPECT_GT(report.affected_flows.size(), 0u);
  EXPECT_EQ(report.table_detours, report.affected_flows.size());
  EXPECT_EQ(report.ripup_reroutes, 0u);
  // The patched table must still be complete and loop-free for every
  // surviving pair (dead entries are allowed to be holes).
  EXPECT_NO_THROW(ValidateNextHopTable(design.topology, table));
  design.Validate();
}

TEST(FaultReconfigureTest, TablePatchSurvivesARoutingLoopInTheInput) {
  // A corrupted table whose walk toward C cycles A -> B -> A must be
  // classified as broken (loop guard), not chased forever. The patch
  // repairs only columns a newly failed next hop touches, so D's link
  // toward C fails to send column C through the repair; it then
  // invalidates the unroutable entries and the table validates.
  TopologyGraph topology;
  const SwitchId a = topology.AddSwitch("A");
  const SwitchId b = topology.AddSwitch("B");
  const SwitchId c = topology.AddSwitch("C");
  const SwitchId d = topology.AddSwitch("D");
  const LinkId ab = topology.AddLink(a, b);
  const LinkId ba = topology.AddLink(b, a);
  const LinkId dc = topology.AddLink(d, c);
  NextHopTable looped(4, std::vector<LinkId>(4));
  looped[a.value()][c.value()] = ab;
  looped[b.value()][c.value()] = ba;  // the loop: C is never reached
  looped[d.value()][c.value()] = dc;
  std::vector<char> failed_links(topology.LinkCount(), 0);
  failed_links[dc.value()] = 1;
  const std::size_t unroutable =
      PatchNextHopTable(topology, looped, failed_links, {});
  EXPECT_EQ(unroutable, 3u);  // every filled entry; C has no live in-link
  EXPECT_FALSE(looped[a.value()][c.value()].valid());
  EXPECT_FALSE(looped[b.value()][c.value()].valid());
  EXPECT_FALSE(looped[d.value()][c.value()].valid());
  EXPECT_NO_THROW(ValidateNextHopTable(topology, looped));
}

// ------------------------------------------------- table patch oracle
//
// PatchNextHopTable as it was before it became incremental: every
// destination column is walked from every source after every burst.
// The incremental patch must leave the same table and report the same
// number of disconnected pairs.

bool OracleLinkDown(const TopologyGraph& topology, LinkId l,
                    const std::vector<char>& failed_links,
                    const std::vector<char>& failed_switches) {
  if (!failed_links.empty() && failed_links[l.value()]) {
    return true;
  }
  if (failed_switches.empty()) {
    return false;
  }
  const Link& link = topology.LinkAt(l);
  return failed_switches[link.src.value()] ||
         failed_switches[link.dst.value()];
}

bool OracleSwitchDown(SwitchId s, const std::vector<char>& failed_switches) {
  return !failed_switches.empty() && failed_switches[s.value()];
}

std::size_t FullScanPatch(const TopologyGraph& topology, NextHopTable& table,
                          const std::vector<char>& failed_links,
                          const std::vector<char>& failed_switches) {
  const std::size_t n = topology.SwitchCount();
  std::size_t disconnected = 0;
  std::vector<std::uint8_t> status(n);
  std::vector<std::uint32_t> dist(n);
  std::vector<LinkId> via(n);
  std::vector<std::uint32_t> queue;
  std::vector<std::uint32_t> chain;
  constexpr std::uint32_t kUnreached =
      std::numeric_limits<std::uint32_t>::max();
  for (std::size_t d = 0; d < n; ++d) {
    if (OracleSwitchDown(SwitchId(d), failed_switches)) {
      for (std::size_t s = 0; s < n; ++s) {
        table[s][d] = LinkId();
      }
      continue;
    }
    std::fill(status.begin(), status.end(), std::uint8_t{0});
    status[d] = 1;
    bool any_broken = false;
    for (std::size_t s = 0; s < n; ++s) {
      if (status[s] != 0 || !table[s][d].valid()) {
        continue;
      }
      chain.clear();
      std::size_t cur = s;
      std::uint8_t verdict = 0;
      while (verdict == 0) {
        if (status[cur] != 0) {
          verdict = status[cur];
          break;
        }
        chain.push_back(static_cast<std::uint32_t>(cur));
        if (chain.size() > n) {
          verdict = 2;
          break;
        }
        if (OracleSwitchDown(SwitchId(cur), failed_switches)) {
          verdict = 2;
          break;
        }
        const LinkId l = table[cur][d];
        if (!l.valid() ||
            OracleLinkDown(topology, l, failed_links, failed_switches)) {
          verdict = 2;
          break;
        }
        cur = topology.LinkAt(l).dst.value();
      }
      for (const std::uint32_t v : chain) {
        status[v] = verdict;
      }
      any_broken = any_broken || verdict == 2;
    }
    if (!any_broken) {
      continue;
    }
    std::fill(dist.begin(), dist.end(), kUnreached);
    for (std::size_t s = 0; s < n; ++s) {
      via[s] = LinkId();
    }
    dist[d] = 0;
    queue.assign(1, static_cast<std::uint32_t>(d));
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const SwitchId v(queue[head]);
      for (const LinkId l : topology.InLinks(v)) {
        if (OracleLinkDown(topology, l, failed_links, failed_switches)) {
          continue;
        }
        const std::size_t u = topology.LinkAt(l).src.value();
        if (dist[u] != kUnreached) {
          continue;
        }
        dist[u] = dist[v.value()] + 1;
        via[u] = l;
        queue.push_back(static_cast<std::uint32_t>(u));
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (s == d || status[s] != 2) {
        continue;
      }
      if (OracleSwitchDown(SwitchId(s), failed_switches)) {
        table[s][d] = LinkId();
        continue;
      }
      if (dist[s] == kUnreached) {
        table[s][d] = LinkId();
        ++disconnected;
        continue;
      }
      table[s][d] = via[s];
    }
  }
  return disconnected;
}

/// Small designs of every table-routed family: the generators' four and
/// the campaign's four generated sources.
std::vector<std::pair<NocDesign, NextHopTable>> TableRoutedDesigns() {
  std::vector<std::pair<NocDesign, NextHopTable>> designs;
  for (const gen::TopologyFamily family : gen::AllFamilies()) {
    gen::GeneratorSpec spec;
    spec.family = family;
    spec.width = 5;
    spec.height = 4;
    spec.ring_nodes = 9;
    spec.seed = 4;
    NextHopTable table;
    NocDesign design = gen::GenerateStandardDesign(spec, &table);
    designs.emplace_back(std::move(design), std::move(table));
  }
  valid::DesignEnvelope envelope;
  envelope.min_cores = 8;
  envelope.max_cores = 16;
  for (const valid::DesignSource source : valid::AllSources()) {
    NextHopTable table;
    NocDesign design = valid::GenerateTrialDesign(source, 6, envelope, &table);
    if (!table.empty()) {
      designs.emplace_back(std::move(design), std::move(table));
    }
  }
  return designs;
}

/// A table-routed grid with cores on every other switch only: the
/// core-free switches are transit switches a feasible burst can kill.
std::pair<NocDesign, NextHopTable> SparseCoreGrid(gen::TopologyFamily family) {
  gen::GeneratorSpec spec;
  spec.family = family;
  spec.width = 5;
  spec.height = 4;
  gen::GeneratedTopology generated = gen::BuildFamilyTopology(spec);
  NocDesign design;
  design.name = gen::FamilyName(family) + "_sparse";
  design.topology = std::move(generated.topology);
  std::vector<CoreId> cores;
  for (std::size_t s = 0; s < design.topology.SwitchCount(); s += 2) {
    cores.push_back(design.traffic.AddCore("c" + std::to_string(s)));
    design.attachment.emplace_back(s);
  }
  for (std::size_t i = 0; i < cores.size(); ++i) {
    for (const std::size_t hop : {std::size_t{3}, cores.size() / 2}) {
      design.traffic.AddFlow(cores[i], cores[(i + hop) % cores.size()],
                             10.0 + static_cast<double>(i));
    }
  }
  design.routes = BuildTableRoutes(design.topology, design.traffic,
                                   design.attachment, generated.table);
  design.Validate();
  return {std::move(design), std::move(generated.table)};
}

TEST(TablePatchOracleTest, BurstsThroughTheFaultPipelineMatchTheFullScan) {
  std::size_t bursts_applied = 0;
  std::size_t switch_faults = 0;
  auto designs = TableRoutedDesigns();
  designs.push_back(SparseCoreGrid(gen::TopologyFamily::kMesh2D));
  designs.push_back(SparseCoreGrid(gen::TopologyFamily::kTorus2D));
  for (auto& [generated, generated_table] : designs) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      NocDesign design = generated;
      RemoveDeadlocks(design);
      NextHopTable table = generated_table;
      NextHopTable oracle = generated_table;
      ChannelDependencyGraph cdg = ChannelDependencyGraph::Build(design);
      DirtyCycleFinder finder(cdg);
      FaultState state = FaultState::None(design);
      FaultPlanOptions plan_options;
      plan_options.bursts = 5;
      plan_options.switch_fault_probability = 0.4;
      plan_options.disconnect_tolerance = 0.5;
      const FaultPlan plan = fault::DrawFaultPlan(design, seed, plan_options);
      fault::ReconfigureOptions options;
      options.table = &table;
      for (std::size_t b = 0; b < plan.bursts.size(); ++b) {
        const fault::ReconfigureReport report = fault::ApplyFaultBurst(
            design, cdg, finder, state, plan.bursts[b], options);
        if (report.infeasible()) {
          continue;  // nothing was patched
        }
        ++bursts_applied;
        const std::size_t expected = FullScanPatch(
            design.topology, oracle, state.failed_links,
            state.failed_switches);
        ASSERT_EQ(report.table_pairs_disconnected, expected)
            << design.name << " seed " << seed << " burst " << b;
        ASSERT_EQ(table, oracle)
            << design.name << " seed " << seed << " burst " << b;
        for (const FaultEvent& event : plan.bursts[b]) {
          switch_faults += event.kind == FaultKind::kSwitch ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(bursts_applied, 40u);
  EXPECT_GT(switch_faults, 0u);
}

TEST(TablePatchOracleTest, SwitchAndLinkMaskSequencesMatchTheFullScan) {
  // Plans that may kill attachment switches too, applied to the masks
  // directly: the table patch itself never needs a burst to be feasible.
  // Each plan runs twice: on FaultState masks, where a switch failure
  // also sets its links' entries, and on raw masks, where it does not
  // and the patch must see those links as down through the switch.
  std::size_t switch_faults = 0;
  std::size_t pairs_disconnected = 0;
  for (auto& [design, generated_table] : TableRoutedDesigns()) {
    for (const std::uint64_t seed : {5ull, 6ull, 7ull, 8ull}) {
      FaultPlanOptions plan_options;
      plan_options.bursts = 6;
      plan_options.switch_fault_probability = 0.5;
      plan_options.spare_attachment_switches = false;
      plan_options.disconnect_tolerance = 1.0;
      const FaultPlan plan = fault::DrawFaultPlan(design, seed, plan_options);
      for (const bool fan_out : {true, false}) {
        NextHopTable table = generated_table;
        NextHopTable oracle = generated_table;
        FaultState state = FaultState::None(design);
        for (std::size_t b = 0; b < plan.bursts.size(); ++b) {
          const FaultState previous = state;
          if (fan_out) {
            state.Apply(design, plan.bursts[b]);
          }
          for (const FaultEvent& event : plan.bursts[b]) {
            const bool dead_switch = event.kind == FaultKind::kSwitch;
            switch_faults += dead_switch ? 1 : 0;
            if (!fan_out && dead_switch) {
              state.failed_switches[event.switch_id.value()] = 1;
            } else if (!fan_out) {
              state.failed_links[event.link.value()] = 1;
            }
          }
          const std::size_t got = PatchNextHopTable(
              design.topology, table, state.failed_links,
              state.failed_switches, previous.failed_links,
              previous.failed_switches);
          const std::size_t expected = FullScanPatch(
              design.topology, oracle, state.failed_links,
              state.failed_switches);
          ASSERT_EQ(got, expected) << design.name << " seed " << seed
                                   << " burst " << b << " fan-out " << fan_out;
          ASSERT_EQ(table, oracle) << design.name << " seed " << seed
                                   << " burst " << b << " fan-out " << fan_out;
          pairs_disconnected += expected;
        }
      }
    }
  }
  EXPECT_GT(switch_faults, 10u);
  EXPECT_GT(pairs_disconnected, 0u);
}

TEST(DirtyCycleFinderTest, ExternalEdgeTaintRestoresExactness) {
  // Start from the acyclic half of the paper example, let the finder
  // cache "no cycle", then close the ring with edges between
  // pre-existing vertices — exactly what a fault re-route does.
  const auto ex = testing::MakePaperExample();
  ChannelDependencyGraph cdg;
  cdg.EnsureVertices(ex.design.topology.ChannelCount());
  cdg.AddEdges({ex.c1, ex.c2, ex.c3}, ex.f1);
  DirtyCycleFinder finder(cdg);
  EXPECT_FALSE(finder.Pick(CyclePolicy::kSmallestFirst).has_value());

  const Route closing = {ex.c3, ex.c4, ex.c1};
  cdg.AddEdges(closing, ex.f2);
  finder.NoteExternalEdges(closing);
  const auto dirty = finder.Pick(CyclePolicy::kSmallestFirst);
  const auto full = PickCycle(cdg, CyclePolicy::kSmallestFirst);
  ASSERT_TRUE(dirty.has_value());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*dirty, *full);

  // And removal of the same edges needs no taint at all.
  cdg.RemoveEdges(closing, ex.f2);
  EXPECT_FALSE(finder.Pick(CyclePolicy::kSmallestFirst).has_value());
}

TEST(FaultCampaignTest, SmallCampaignIsCleanAndThreadStable) {
  valid::FaultCampaignConfig config;
  config.trials = 20;
  config.base_seed = 5;
  config.threads = 2;
  const auto result = valid::RunFaultCampaign(config);
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_EQ(result.rows.size(), 20u);
  for (const auto& row : result.rows) {
    EXPECT_TRUE(row.mismatch.empty()) << row.mismatch;
  }

  valid::FaultCampaignConfig serial = config;
  serial.threads = 1;
  EXPECT_EQ(valid::RunFaultCampaign(serial).digest, result.digest);
}

TEST(FaultCampaignTest, TrialRowsAreDeterministic) {
  valid::FaultCampaignConfig config;
  const auto a = valid::RunFaultTrial(valid::DesignSource::kTorus, 99, config);
  const auto b = valid::RunFaultTrial(valid::DesignSource::kTorus, 99, config);
  EXPECT_EQ(valid::FaultDigest({a}), valid::FaultDigest({b}));
}

}  // namespace
}  // namespace nocdr
