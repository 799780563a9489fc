// Three-way engine-equivalence suite: the discrete-event engine
// (SimEngine::kEvent) must be bit-identical — full SimResult, per-flow
// delivery counts, deadlock verdicts and the detected wait cycle, not
// just aggregates — to both the worklist engine and the full-scan
// reference, on every corpus design, traffic pattern and seed. Also
// holds the EventQueue's deterministic tie-break to its contract with a
// seeded insertion-order fuzz test, and drives the event engine through
// the adversarial corners (zero flows, single-flit worms, saturated
// injection, simultaneous same-cycle events, a cycle-0 deadlock). The
// worklist engines' bitset worklists and parked blocked heads get their
// own cases: saturated runs at buffer depths 1 and 2, channel and flow
// counts on 64-bit word edges, and the bitset visit order itself.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/transition.h"
#include "sim/work_set.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "valid/campaign.h"

namespace nocdr {
namespace {

// ---------------------------------------------------------------------
// Full-result comparison. Every deterministic field of SimResult,
// including the deadlock wait cycle and the per-channel / per-flow
// breakdowns — "bit-identical" means nothing is exempt.
// ---------------------------------------------------------------------

void ExpectIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.deadlock_cycle, b.deadlock_cycle);
  EXPECT_EQ(a.stuck_flits, b.stuck_flits);
  EXPECT_DOUBLE_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.max_packet_latency, b.max_packet_latency);
  EXPECT_EQ(a.channel_flits, b.channel_flits);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].packets_delivered, b.flows[f].packets_delivered);
    EXPECT_DOUBLE_EQ(a.flows[f].avg_latency, b.flows[f].avg_latency);
    EXPECT_EQ(a.flows[f].max_latency, b.flows[f].max_latency);
  }
}

/// Runs \p config on \p design under all three engines and asserts the
/// results are pairwise identical (full-scan is the reference).
void ExpectEnginesAgree(const NocDesign& design, SimConfig config,
                        const std::string& context) {
  config.engine = SimEngine::kFullScan;
  const SimResult reference = SimulateWorkload(design, config);
  for (const SimEngine engine :
       {SimEngine::kWorklist, SimEngine::kEvent}) {
    config.engine = engine;
    const SimResult candidate = SimulateWorkload(design, config);
    SCOPED_TRACE(context + " engine=" + EngineName(engine));
    ExpectIdentical(reference, candidate);
  }
}

// ---------------------------------------------------------------------
// Workload shapes. Deliberately spans the regimes where the engines'
// bookkeeping diverges most: dense deadlock pressure, sparse Bernoulli
// traffic with long idle gaps (the event engine's fast path),
// injection-first arbitration, and single-slot buffers.
// ---------------------------------------------------------------------

std::vector<std::pair<std::string, SimConfig>> EngineConfigs() {
  std::vector<std::pair<std::string, SimConfig>> configs;
  SimConfig deadlocky;
  deadlocky.traffic.mode = InjectionMode::kFixedCount;
  deadlocky.traffic.packets_per_flow = 4;
  deadlocky.traffic.packet_length = 8;
  deadlocky.buffer_depth = 1;
  deadlocky.max_cycles = 50000;
  deadlocky.stall_threshold = 500;
  configs.emplace_back("deadlocky", deadlocky);

  SimConfig sparse;
  sparse.traffic.mode = InjectionMode::kBernoulli;
  sparse.traffic.reference_injection_rate = 0.002;
  sparse.traffic.packet_length = 4;
  sparse.max_cycles = 6000;
  sparse.stall_threshold = 500;
  configs.emplace_back("sparse_bernoulli", sparse);

  SimConfig inject_first;
  inject_first.traffic.mode = InjectionMode::kFixedCount;
  inject_first.traffic.packets_per_flow = 6;
  inject_first.traffic.packet_length = 5;
  inject_first.inject_first = true;
  inject_first.buffer_depth = 2;
  inject_first.max_cycles = 50000;
  inject_first.stall_threshold = 500;
  configs.emplace_back("inject_first", inject_first);
  return configs;
}

// ---------------------------------------------------------------------
// Corpus property test: every design source the validation campaign
// draws from (synthesized SoCs, mesh/torus/ring DOR, fat-tree), seeds x
// treatments x traffic patterns. The untreated generated families are
// the adversarial half — torus/ring DOR designs really deadlock.
// ---------------------------------------------------------------------

TEST(SimEnginesTest, CorpusThreeWayEquivalence) {
  valid::DesignEnvelope envelope;
  envelope.min_cores = 12;
  envelope.max_cores = 30;
  const auto configs = EngineConfigs();
  for (const valid::DesignSource source : valid::AllSources()) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      NocDesign design = valid::GenerateTrialDesign(source, seed, envelope);
      NocDesign treated = design;
      RemoveDeadlocks(treated);
      for (const auto& [config_name, config] : configs) {
        const std::string context = valid::SourceName(source) + "/seed" +
                                    std::to_string(seed) + "/" +
                                    config_name;
        ExpectEnginesAgree(design, config, context + "/untreated");
        ExpectEnginesAgree(treated, config, context + "/treated");
      }
    }
  }
}

TEST(SimEnginesTest, HandcraftedDesignsThreeWayEquivalence) {
  std::vector<std::pair<std::string, NocDesign>> designs;
  designs.emplace_back("paper", testing::MakePaperExample().design);
  designs.emplace_back("ring4", testing::MakeRingDesign(4, 2));
  designs.emplace_back("ring8", testing::MakeRingDesign(8, 3));
  for (const std::uint64_t seed : {3ull, 4ull, 5ull}) {
    designs.emplace_back("random" + std::to_string(seed),
                         testing::MakeRandomDesign(seed, 8, 12, 24));
  }
  const auto configs = EngineConfigs();
  for (const auto& [name, design] : designs) {
    for (const auto& [config_name, config] : configs) {
      ExpectEnginesAgree(design, config, name + "/" + config_name);
    }
  }
}

TEST(SimEnginesTest, EventEngineIsDeterministicAcrossRuns) {
  const NocDesign design = testing::MakeRandomDesign(7, 8, 12, 24);
  SimConfig config;
  config.engine = SimEngine::kEvent;
  config.traffic.mode = InjectionMode::kBernoulli;
  config.traffic.reference_injection_rate = 0.01;
  config.max_cycles = 8000;
  const SimResult r1 = SimulateWorkload(design, config);
  const SimResult r2 = SimulateWorkload(design, config);
  ExpectIdentical(r1, r2);
}

// ---------------------------------------------------------------------
// Transitions: the event engine must track drain windows and mid-flight
// kills cycle-for-cycle. Same detour scenario as tests/test_transition,
// compared across all three engines on the full TransitionResult.
// ---------------------------------------------------------------------

struct DetourFixture {
  NocDesign design;        // routes already detoured: flow 0 on {c}
  RouteSet pre_routes;     // original routes: flow 0 on {a, b}
  std::vector<char> dead;  // channel of link b
};

DetourFixture MakeDetourFixture() {
  DetourFixture fx;
  NocDesign& d = fx.design;
  d.name = "detour_line";
  const SwitchId s0 = d.topology.AddSwitch("S0");
  const SwitchId s1 = d.topology.AddSwitch("S1");
  const SwitchId s2 = d.topology.AddSwitch("S2");
  const LinkId a = d.topology.AddLink(s0, s1);
  const LinkId b = d.topology.AddLink(s1, s2);
  const LinkId c = d.topology.AddLink(s0, s2);
  const ChannelId ca = *d.topology.FindChannel(a, 0);
  const ChannelId cb = *d.topology.FindChannel(b, 0);
  const ChannelId cc = *d.topology.FindChannel(c, 0);

  const CoreId src0 = d.traffic.AddCore("src0");
  const CoreId dst0 = d.traffic.AddCore("dst0");
  const CoreId src1 = d.traffic.AddCore("src1");
  const CoreId dst1 = d.traffic.AddCore("dst1");
  d.attachment = {s0, s2, s0, s1};
  const FlowId f0 = d.traffic.AddFlow(src0, dst0, 100.0);
  const FlowId f1 = d.traffic.AddFlow(src1, dst1, 100.0);

  d.routes.Resize(2);
  fx.pre_routes.Resize(2);
  fx.pre_routes.SetRoute(f0, {ca, cb});
  fx.pre_routes.SetRoute(f1, {ca});
  d.routes.SetRoute(f0, {cc});
  d.routes.SetRoute(f1, {ca});
  d.Validate();

  fx.dead.assign(d.topology.ChannelCount(), 0);
  fx.dead[cb.value()] = 1;
  return fx;
}

TEST(SimEnginesTest, TransitionThreeWayEquivalence) {
  const DetourFixture fx = MakeDetourFixture();
  for (const TransitionPolicy policy :
       {TransitionPolicy::kDrainAndRestart, TransitionPolicy::kMidFlight}) {
    for (const std::uint64_t transition_cycle : {0ull, 10ull, 40000ull}) {
      TransitionConfig config;
      config.sim.buffer_depth = 1;
      config.sim.max_cycles = 50000;
      config.sim.stall_threshold = 1000;
      config.sim.traffic.mode = InjectionMode::kFixedCount;
      config.sim.traffic.packets_per_flow = 8;
      config.sim.traffic.packet_length = 6;
      config.policy = policy;
      config.transition_cycle = transition_cycle;

      config.sim.engine = SimEngine::kFullScan;
      const TransitionResult reference =
          SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
      for (const SimEngine engine :
           {SimEngine::kWorklist, SimEngine::kEvent}) {
        config.sim.engine = engine;
        const TransitionResult candidate =
            SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
        SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)) +
                     " cycle=" + std::to_string(transition_cycle) +
                     " engine=" + EngineName(engine));
        ExpectIdentical(reference.sim, candidate.sim);
        EXPECT_EQ(reference.packets_dropped, candidate.packets_dropped);
        EXPECT_EQ(reference.drain_cycles, candidate.drain_cycles);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Adversarial edge cases.
// ---------------------------------------------------------------------

TEST(SimEnginesEdgeTest, ZeroFlowDesignTerminatesImmediately) {
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch();
  d.topology.AddLink(a, b);
  d.routes.Resize(0);
  d.Validate();
  SimConfig config;
  config.traffic.packets_per_flow = 5;
  ExpectEnginesAgree(d, config, "zero_flow");
  config.engine = SimEngine::kEvent;
  const SimResult r = SimulateWorkload(d, config);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.packets_offered, 0u);
  EXPECT_LE(r.cycles, 2u);
}

TEST(SimEnginesEdgeTest, SingleFlitWorms) {
  // packet_length == 1: every head is its own tail, so channel ownership
  // is claimed and released within one hop. Exercises the worm-completion
  // wake on every single delivery.
  const auto designs = {testing::MakeRingDesign(4, 2),
                        testing::MakeRandomDesign(11, 6, 10, 16)};
  std::size_t i = 0;
  for (const NocDesign& d : designs) {
    SimConfig config;
    config.traffic.packets_per_flow = 10;
    config.traffic.packet_length = 1;
    config.buffer_depth = 1;
    config.max_cycles = 50000;
    config.stall_threshold = 500;
    ExpectEnginesAgree(d, config, "single_flit/" + std::to_string(i++));
  }
}

TEST(SimEnginesEdgeTest, FullySaturatedInjection) {
  // Bernoulli at probability 1.0: every flow offers a packet every
  // cycle, so the event engine's idle-skip fast path never fires and it
  // degenerates to the worklist engine plus heap overhead — results must
  // still be identical, including any deadlock.
  for (const bool treated : {false, true}) {
    NocDesign d = testing::MakeRingDesign(6, 2);
    if (treated) {
      RemoveDeadlocks(d);
    }
    SimConfig config;
    config.traffic.mode = InjectionMode::kBernoulli;
    config.traffic.reference_injection_rate = 1.0;
    config.traffic.reference_bandwidth = 50.0;  // ring flows' bandwidth
    config.traffic.packet_length = 4;
    config.buffer_depth = 2;
    config.max_cycles = 3000;
    config.stall_threshold = 500;
    ExpectEnginesAgree(d, config,
                       treated ? "saturated/treated" : "saturated/raw");
  }
}

TEST(SimEnginesEdgeTest, SimultaneousSameCycleEventsTieBreak) {
  // Eight flows, one shared link, every packet ready on cycle 0: eight
  // kFlitInjection events with equal cycles land in the heap at once and
  // only the (kind, id) tie-break orders them. The arbitration outcome —
  // and therefore delivery order and per-flow latency — must match the
  // cycle-accurate engines exactly, twice in a row.
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch();
  const LinkId ab = d.topology.AddLink(a, b);
  const ChannelId ch = *d.topology.FindChannel(ab, 0);
  const std::size_t kFlows = 8;
  d.routes.Resize(0);
  for (std::size_t i = 0; i < kFlows; ++i) {
    const CoreId src = d.traffic.AddCore();
    const CoreId dst = d.traffic.AddCore();
    d.attachment.push_back(a);
    d.attachment.push_back(b);
    d.traffic.AddFlow(src, dst, 100.0);
  }
  d.routes.Resize(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    d.routes.SetRoute(FlowId(i), {ch});
  }
  d.Validate();
  SimConfig config;
  config.traffic.packets_per_flow = 3;
  config.traffic.packet_length = 4;
  config.buffer_depth = 1;
  ExpectEnginesAgree(d, config, "simultaneous_ready");
  config.engine = SimEngine::kEvent;
  const SimResult r1 = SimulateWorkload(d, config);
  const SimResult r2 = SimulateWorkload(d, config);
  ExpectIdentical(r1, r2);
}

TEST(SimEnginesEdgeTest, DeadlockOnCycleZero) {
  // Two switches with links in both directions and two flows routed
  // A->B->A and B->A->B. With one-slot buffers both heads inject on
  // cycle 0, fill each other's next channel, and form a circular hard
  // wait that the cycle-0 periodic check catches before a single cycle
  // elapses. All engines must report deadlocked at cycles == 0 with the
  // same wait cycle.
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch("A"), b = d.topology.AddSwitch("B");
  const LinkId lab = d.topology.AddLink(a, b);
  const LinkId lba = d.topology.AddLink(b, a);
  const ChannelId cab = *d.topology.FindChannel(lab, 0);
  const ChannelId cba = *d.topology.FindChannel(lba, 0);
  const CoreId a_src = d.traffic.AddCore(), a_dst = d.traffic.AddCore();
  const CoreId b_src = d.traffic.AddCore(), b_dst = d.traffic.AddCore();
  d.attachment = {a, a, b, b};
  const FlowId f0 = d.traffic.AddFlow(a_src, a_dst, 100.0);
  const FlowId f1 = d.traffic.AddFlow(b_src, b_dst, 100.0);
  d.routes.Resize(2);
  d.routes.SetRoute(f0, {cab, cba});
  d.routes.SetRoute(f1, {cba, cab});
  d.Validate();

  SimConfig config;
  config.traffic.packets_per_flow = 1;
  config.traffic.packet_length = 4;
  config.buffer_depth = 1;
  ExpectEnginesAgree(d, config, "cycle0_deadlock");
  for (const SimEngine engine : AllEngines()) {
    config.engine = engine;
    const SimResult r = SimulateWorkload(d, config);
    SCOPED_TRACE("engine=" + EngineName(engine));
    EXPECT_TRUE(r.deadlocked);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_FALSE(r.deadlock_cycle.empty());
  }
}

// ---------------------------------------------------------------------
// Saturation: most heads and most armed flows are blocked, so the
// worklist engines park them on the channel they wait for and skip them
// until that channel pops a flit. Every parked claim must be one the
// full scan would have retried and lost.
// ---------------------------------------------------------------------

/// Bernoulli traffic far above what the network delivers.
SimConfig SaturatingConfig(std::uint16_t depth, std::uint16_t packet_length,
                           bool inject_first) {
  SimConfig config;
  config.traffic.mode = InjectionMode::kBernoulli;
  config.traffic.reference_injection_rate = 0.5;
  config.traffic.packet_length = packet_length;
  config.traffic.seed = 3;
  config.buffer_depth = depth;
  config.inject_first = inject_first;
  config.max_cycles = 600;
  config.stall_threshold = 300;
  config.deadlock_check_interval = 64;
  return config;
}

/// Runs \p design through every saturating shape: buffer depths 1 and
/// 2, single-flit and multi-flit packets, both arbitration orders.
void ExpectSaturatedEnginesAgree(const NocDesign& design,
                                 const std::string& name) {
  for (const std::uint16_t depth : {1, 2}) {
    for (const std::uint16_t length : {1, 4}) {
      for (const bool inject_first : {false, true}) {
        const SimConfig config = SaturatingConfig(depth, length, inject_first);
        ExpectEnginesAgree(design, config,
                           name + "/depth" + std::to_string(depth) + "/len" +
                               std::to_string(length) +
                               (inject_first ? "/inject_first" : ""));
      }
    }
  }
}

TEST(SimEnginesSaturationTest, ParkedHeadsThreeWayEquivalence) {
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kTorus2D;
  spec.width = 4;
  spec.height = 4;
  spec.seed = 1;
  const NocDesign torus = gen::GenerateStandardDesign(spec);
  NocDesign treated_torus = torus;
  RemoveDeadlocks(treated_torus);
  NocDesign treated_ring = testing::MakeRingDesign(8, 3);
  RemoveDeadlocks(treated_ring);
  // The untreated designs deadlock under this load: the parked heads are
  // then the very waits the circular-wait check must still see.
  ExpectSaturatedEnginesAgree(torus, "torus4x4");
  ExpectSaturatedEnginesAgree(treated_torus, "torus4x4/treated");
  ExpectSaturatedEnginesAgree(testing::MakeRingDesign(8, 3), "ring8");
  ExpectSaturatedEnginesAgree(treated_ring, "ring8/treated");
}

/// A one-way line of \p channels links (so exactly \p channels channels
/// and an acyclic CDG that never deadlocks) carrying \p flows flows:
/// flow i enters at switch i mod channels and runs 1 + i mod 3 hops,
/// clipped at the end of the line. Bandwidths vary so the Bernoulli
/// rates differ from flow to flow.
NocDesign MakeLineDesign(std::size_t channels, std::size_t flows) {
  NocDesign d;
  d.name = "line" + std::to_string(channels) + "x" + std::to_string(flows);
  std::vector<SwitchId> switches;
  for (std::size_t i = 0; i <= channels; ++i) {
    switches.push_back(d.topology.AddSwitch());
  }
  std::vector<ChannelId> line;
  for (std::size_t i = 0; i < channels; ++i) {
    const LinkId link = d.topology.AddLink(switches[i], switches[i + 1]);
    line.push_back(*d.topology.FindChannel(link, 0));
  }
  d.routes.Resize(0);
  std::vector<Route> routes;
  for (std::size_t i = 0; i < flows; ++i) {
    const std::size_t start = i % channels;
    const std::size_t hops = std::min(1 + i % 3, channels - start);
    const CoreId src = d.traffic.AddCore();
    const CoreId dst = d.traffic.AddCore();
    d.attachment.push_back(switches[start]);
    d.attachment.push_back(switches[start + hops]);
    d.traffic.AddFlow(src, dst, 40.0 + 10.0 * static_cast<double>(i % 7));
    routes.emplace_back(line.begin() + static_cast<std::ptrdiff_t>(start),
                        line.begin() +
                            static_cast<std::ptrdiff_t>(start + hops));
  }
  d.routes.Resize(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    d.routes.SetRoute(FlowId(i), std::move(routes[i]));
  }
  d.Validate();
  return d;
}

TEST(SimEnginesSaturationTest, WordEdgeSizesThreeWayEquivalence) {
  // Channel and flow counts on either side of a 64-bit word, so the
  // worklist bitsets end mid-word, exactly on a word, and one past it,
  // and the rotating pivot (cycle mod count) crosses bit 0 and bit 63 of
  // every word over the run.
  for (const auto& [channels, flows] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {63, 65}, {64, 64}, {65, 63}, {128, 128}}) {
    const NocDesign design = MakeLineDesign(channels, flows);
    ASSERT_EQ(design.topology.ChannelCount(), channels);
    ASSERT_EQ(design.traffic.FlowCount(), flows);
    ExpectSaturatedEnginesAgree(design, design.name);
    SimConfig fixed = EngineConfigs().front().second;
    fixed.traffic.packet_length = 3;
    ExpectEnginesAgree(design, fixed, design.name + "/fixed_count");
  }
}

// ---------------------------------------------------------------------
// WorkSet: the bitset visit must reproduce the sorted-list order the
// worklists had — ascending from lower_bound(pivot), then wrapping
// around to the ids below the pivot.
// ---------------------------------------------------------------------

std::vector<std::uint32_t> SortedListOrder(
    const std::vector<std::uint32_t>& sorted, std::uint32_t pivot) {
  const auto split = std::lower_bound(sorted.begin(), sorted.end(), pivot);
  std::vector<std::uint32_t> order(split, sorted.end());
  order.insert(order.end(), sorted.begin(), split);
  return order;
}

TEST(WorkSetTest, VisitOrderMatchesSortedListPivotOrder) {
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u,
                              200u}) {
    for (const double density : {0.0, 0.1, 0.5, 1.0}) {
      Rng rng(n * 1000 + static_cast<std::uint64_t>(density * 10));
      WorkSet set;
      WorkSet skip;
      set.Reset(n);
      skip.Reset(n);
      std::vector<std::uint32_t> members;
      std::vector<std::uint32_t> live;
      for (std::uint32_t i = 0; i < n; ++i) {
        const bool in = rng.NextBool(density);
        const bool skipped = rng.NextBool(0.2);
        if (in) {
          set.Insert(i);
          members.push_back(i);
        }
        if (skipped) {
          skip.Insert(i);
        }
        if (in && !skipped) {
          live.push_back(i);
        }
      }
      std::vector<std::uint32_t> ascending;
      set.ForEach([&](std::uint32_t i) { ascending.push_back(i); });
      EXPECT_EQ(ascending, members);

      std::vector<std::size_t> pivots = {0, n - 1, n / 2,
                                         rng.NextBelow(n)};
      for (const std::size_t edge : {63u, 64u, 127u, 128u}) {
        if (edge < n) {
          pivots.push_back(edge);
        }
      }
      for (const std::size_t pivot : pivots) {
        std::vector<std::uint32_t> visited;
        set.VisitFrom(pivot, skip,
                      [&](std::uint32_t i) { visited.push_back(i); });
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " density=" + std::to_string(density) +
                     " pivot=" + std::to_string(pivot));
        EXPECT_EQ(visited,
                  SortedListOrder(live, static_cast<std::uint32_t>(pivot)));
      }
    }
  }
}

TEST(WorkSetTest, VisitMayEraseAndReinsertTheVisitedId) {
  // The engines disarm a flow or park a channel from inside its own
  // visit; that must neither reorder nor skip the rest of the visit.
  const std::size_t n = 130;
  WorkSet set;
  WorkSet skip;
  set.Reset(n);
  skip.Reset(n);
  std::vector<std::uint32_t> all;
  for (std::uint32_t i = 0; i < n; i += 3) {
    set.Insert(i);
    all.push_back(i);
  }
  for (const std::size_t pivot : {0u, 63u, 64u, 100u}) {
    std::vector<std::uint32_t> visited;
    set.VisitFrom(pivot, skip, [&](std::uint32_t i) {
      visited.push_back(i);
      set.Erase(i);
      skip.Insert(i);
    });
    EXPECT_EQ(visited,
              SortedListOrder(all, static_cast<std::uint32_t>(pivot)));
    std::size_t left = 0;
    set.ForEach([&](std::uint32_t) { ++left; });
    EXPECT_EQ(left, 0u);
    for (const std::uint32_t i : all) {
      set.Insert(i);
    }
    skip.Clear();
  }
}

// ---------------------------------------------------------------------
// EventQueue unit + fuzz coverage: the (cycle, kind, id) total order
// makes the pop sequence a pure function of the event multiset. Shuffle
// insertion orders under heavy key collisions and assert invariance.
// ---------------------------------------------------------------------

std::vector<SimEvent> DrainAll(EventQueue& queue) {
  std::vector<SimEvent> popped;
  while (!queue.Empty()) {
    popped.push_back(queue.PopTop());
  }
  return popped;
}

TEST(EventQueueTest, PopsInTotalOrder) {
  EventQueue queue;
  queue.Push({5, EventKind::kCreditReturn, 0});
  queue.Push({5, EventKind::kFlitInjection, 9});
  queue.Push({5, EventKind::kFlitInjection, 2});
  queue.Push({1, EventKind::kArbitrationWake, 0});
  queue.Push({5, EventKind::kWormCompletion, 0});
  const std::vector<SimEvent> expected = {
      {1, EventKind::kArbitrationWake, 0},
      {5, EventKind::kFlitInjection, 2},
      {5, EventKind::kFlitInjection, 9},
      {5, EventKind::kCreditReturn, 0},
      {5, EventKind::kWormCompletion, 0},
  };
  EXPECT_EQ(DrainAll(queue), expected);
}

TEST(EventQueueTest, TopAndPopOnEmptyThrow) {
  EventQueue queue;
  EXPECT_THROW(static_cast<void>(queue.Top()), InvalidModelError);
  EXPECT_THROW(queue.PopTop(), InvalidModelError);
  queue.Push({1, EventKind::kFlitInjection, 0});
  queue.Clear();
  EXPECT_TRUE(queue.Empty());
  EXPECT_THROW(queue.PopTop(), InvalidModelError);
}

TEST(EventQueueFuzzTest, PopSequenceIsInsertionOrderInvariant) {
  // Small key ranges force many exact collisions (equal cycle AND kind,
  // equal full keys): the regime where a broken tie-break would show.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<SimEvent> events;
    const std::size_t count = 20 + rng.NextBelow(200);
    for (std::size_t i = 0; i < count; ++i) {
      events.push_back(
          {rng.NextBelow(8),
           static_cast<EventKind>(rng.NextBelow(4)),
           static_cast<std::uint32_t>(rng.NextBelow(5))});
    }
    std::vector<SimEvent> expected = events;
    std::sort(expected.begin(), expected.end(), EventBefore);

    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      rng.Shuffle(events);
      EventQueue queue;
      for (const SimEvent& event : events) {
        queue.Push(event);
      }
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " shuffle=" + std::to_string(shuffle));
      EXPECT_EQ(DrainAll(queue), expected);
    }
  }
}

TEST(EventQueueFuzzTest, InterleavedPushPopMatchesReferenceExtraction) {
  // Mixed push/pop traffic (the engine's actual usage pattern) against a
  // naive min-extraction reference.
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    Rng rng(seed);
    EventQueue queue;
    std::vector<SimEvent> reference;
    for (std::size_t op = 0; op < 400; ++op) {
      if (reference.empty() || rng.NextBool(0.6)) {
        const SimEvent event = {
            rng.NextBelow(16),
            static_cast<EventKind>(rng.NextBelow(4)),
            static_cast<std::uint32_t>(rng.NextBelow(6))};
        queue.Push(event);
        reference.push_back(event);
      } else {
        const auto min_it =
            std::min_element(reference.begin(), reference.end(),
                             [](const SimEvent& a, const SimEvent& b) {
                               return EventBefore(a, b);
                             });
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " op=" + std::to_string(op));
        ASSERT_EQ(queue.Top(), *min_it);
        ASSERT_EQ(queue.PopTop(), *min_it);
        reference.erase(min_it);
      }
      ASSERT_EQ(queue.Size(), reference.size());
    }
    std::vector<SimEvent> expected = reference;
    std::sort(expected.begin(), expected.end(), EventBefore);
    EXPECT_EQ(DrainAll(queue), expected);
  }
}

TEST(SimEnginesTest, EngineNamesRoundTrip) {
  for (const SimEngine engine : AllEngines()) {
    const auto parsed = ParseEngine(EngineName(engine));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, engine);
  }
  EXPECT_FALSE(ParseEngine("quantum").has_value());
  EXPECT_EQ(AllEngines().size(), 3u);
  EXPECT_EQ(AllEngines().front(), SimEngine::kFullScan);
}

}  // namespace
}  // namespace nocdr
