// Transition-simulation semantics: drain-and-restart loses nothing,
// mid-flight drops exactly the packets the fault caught, and a
// transition with nothing changed degenerates to a plain run. Also
// transitions that strike a saturated network, where the worklist
// engines hold most heads and flows parked at the switch.
#include <gtest/gtest.h>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "noc/design.h"
#include "sim/simulator.h"
#include "sim/transition.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

/// Three switches, a two-hop path S0->S1->S2 and a direct spare
/// S0->S2: the smallest design where a fault on the second hop has a
/// detour. Flow 0 runs S0->S2 (route {a, b}), flow 1 runs S0->S1
/// (route {a}).
struct DetourFixture {
  NocDesign design;   // routes already detoured: flow 0 on {c}
  RouteSet pre_routes;  // original routes: flow 0 on {a, b}
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
  d.routes.SetRoute(f0, {cc});  // post-fault detour
  d.routes.SetRoute(f1, {ca});  // unaffected
  d.Validate();

  fx.dead.assign(d.topology.ChannelCount(), 0);
  fx.dead[cb.value()] = 1;
  return fx;
}

TransitionConfig MakeConfig(TransitionPolicy policy,
                            std::uint64_t transition_cycle,
                            SimEngine engine = SimEngine::kWorklist) {
  TransitionConfig config;
  config.sim.engine = engine;
  config.sim.buffer_depth = 1;
  config.sim.max_cycles = 50000;
  config.sim.stall_threshold = 1000;
  config.sim.traffic.mode = InjectionMode::kFixedCount;
  config.sim.traffic.packets_per_flow = 8;
  config.sim.traffic.packet_length = 6;
  config.policy = policy;
  config.transition_cycle = transition_cycle;
  return config;
}

TEST(TransitionTest, DrainAndRestartLosesNothing) {
  const DetourFixture fx = MakeDetourFixture();
  const auto result = SimulateTransition(
      fx.design, fx.pre_routes, fx.dead,
      MakeConfig(TransitionPolicy::kDrainAndRestart, 10));
  EXPECT_FALSE(result.sim.deadlocked);
  EXPECT_EQ(result.packets_dropped, 0u);
  EXPECT_TRUE(result.sim.AllDelivered());
  // Traffic was mid-flight at cycle 10, so the drain had to stall.
  EXPECT_GT(result.drain_cycles, 0u);
}

TEST(TransitionTest, MidFlightDropsExactlyTheDoomedPackets) {
  const DetourFixture fx = MakeDetourFixture();
  const auto result =
      SimulateTransition(fx.design, fx.pre_routes, fx.dead,
                         MakeConfig(TransitionPolicy::kMidFlight, 10));
  EXPECT_FALSE(result.sim.deadlocked);
  // The fault destroys something (flow 0 worms were in flight on the
  // doomed path at cycle 10) but every packet is accounted for.
  EXPECT_GT(result.packets_dropped, 0u);
  EXPECT_LT(result.sim.packets_delivered, result.sim.packets_offered);
  EXPECT_TRUE(result.AllAccountedFor());
  EXPECT_EQ(result.drain_cycles, 0u);
  // Flow 1 never touches the dead link: all its packets arrive.
  EXPECT_EQ(result.sim.flows[1].packets_delivered, 8u);
}

TEST(TransitionTest, LateTransitionTouchesNothing) {
  // If the whole workload drains before the transition cycle, both
  // policies must match a plain simulation of the pre-fault routes.
  const DetourFixture fx = MakeDetourFixture();
  NocDesign pre = fx.design;
  pre.routes = fx.pre_routes;
  TransitionConfig config =
      MakeConfig(TransitionPolicy::kMidFlight, 40000);
  const SimResult plain = SimulateWorkload(pre, config.sim);
  ASSERT_TRUE(plain.AllDelivered());

  for (const TransitionPolicy policy :
       {TransitionPolicy::kMidFlight, TransitionPolicy::kDrainAndRestart}) {
    config.policy = policy;
    const auto result =
        SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
    EXPECT_EQ(result.packets_dropped, 0u);
    EXPECT_EQ(result.sim.packets_delivered, plain.packets_delivered);
    EXPECT_EQ(result.sim.flits_delivered, plain.flits_delivered);
  }
}

TEST(TransitionTest, IdentityTransitionMatchesPlainRun) {
  // Same routes on both sides and nothing dead: a mid-flight
  // "transition" is a no-op and must be cycle-accurate-identical to
  // SimulateWorkload.
  const NocDesign design = testing::MakeRandomDesign(3, 8, 12, 20);
  TransitionConfig config = MakeConfig(TransitionPolicy::kMidFlight, 32);
  config.sim.max_cycles = 200000;
  const SimResult plain = SimulateWorkload(design, config.sim);
  const auto result =
      SimulateTransition(design, design.routes, {}, config);
  EXPECT_EQ(result.packets_dropped, 0u);
  EXPECT_EQ(result.sim.cycles, plain.cycles);
  EXPECT_EQ(result.sim.packets_delivered, plain.packets_delivered);
  EXPECT_EQ(result.sim.flits_delivered, plain.flits_delivered);
  EXPECT_EQ(result.sim.avg_packet_latency, plain.avg_packet_latency);
  EXPECT_EQ(result.sim.deadlocked, plain.deadlocked);
}

TEST(TransitionTest, EnginesAgreeAcrossTheTransition) {
  const DetourFixture fx = MakeDetourFixture();
  for (const TransitionPolicy policy :
       {TransitionPolicy::kDrainAndRestart, TransitionPolicy::kMidFlight}) {
    const auto fullscan = SimulateTransition(
        fx.design, fx.pre_routes, fx.dead,
        MakeConfig(policy, 10, SimEngine::kFullScan));
    for (const SimEngine engine :
         {SimEngine::kWorklist, SimEngine::kEvent}) {
      const auto candidate = SimulateTransition(
          fx.design, fx.pre_routes, fx.dead, MakeConfig(policy, 10, engine));
      EXPECT_EQ(candidate.sim.cycles, fullscan.sim.cycles);
      EXPECT_EQ(candidate.sim.packets_delivered,
                fullscan.sim.packets_delivered);
      EXPECT_EQ(candidate.sim.flits_delivered, fullscan.sim.flits_delivered);
      EXPECT_EQ(candidate.packets_dropped, fullscan.packets_dropped);
      EXPECT_EQ(candidate.drain_cycles, fullscan.drain_cycles);
    }
  }
}

/// Every field of two transition results, the full SimResult included.
void ExpectSameTransition(const TransitionResult& a,
                          const TransitionResult& b) {
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.drain_cycles, b.drain_cycles);
  EXPECT_EQ(a.sim.cycles, b.sim.cycles);
  EXPECT_EQ(a.sim.packets_offered, b.sim.packets_offered);
  EXPECT_EQ(a.sim.packets_injected, b.sim.packets_injected);
  EXPECT_EQ(a.sim.packets_delivered, b.sim.packets_delivered);
  EXPECT_EQ(a.sim.flits_delivered, b.sim.flits_delivered);
  EXPECT_EQ(a.sim.deadlocked, b.sim.deadlocked);
  EXPECT_EQ(a.sim.deadlock_cycle, b.sim.deadlock_cycle);
  EXPECT_EQ(a.sim.stuck_flits, b.sim.stuck_flits);
  EXPECT_EQ(a.sim.avg_packet_latency, b.sim.avg_packet_latency);
  EXPECT_EQ(a.sim.max_packet_latency, b.sim.max_packet_latency);
  EXPECT_EQ(a.sim.channel_flits, b.sim.channel_flits);
  ASSERT_EQ(a.sim.flows.size(), b.sim.flows.size());
  for (std::size_t f = 0; f < a.sim.flows.size(); ++f) {
    EXPECT_EQ(a.sim.flows[f].packets_delivered,
              b.sim.flows[f].packets_delivered);
    EXPECT_EQ(a.sim.flows[f].avg_latency, b.sim.flows[f].avg_latency);
    EXPECT_EQ(a.sim.flows[f].max_latency, b.sim.flows[f].max_latency);
  }
}

/// Runs \p config under the full scan and both worklist engines and
/// requires identical results.
void ExpectEnginesAgreeOnTransition(const NocDesign& post,
                                    const RouteSet& pre_routes,
                                    const std::vector<char>& dead,
                                    TransitionConfig config,
                                    const std::string& context) {
  config.sim.engine = SimEngine::kFullScan;
  const TransitionResult reference =
      SimulateTransition(post, pre_routes, dead, config);
  for (const SimEngine engine : {SimEngine::kWorklist, SimEngine::kEvent}) {
    config.sim.engine = engine;
    SCOPED_TRACE(context + " engine=" + EngineName(engine));
    ExpectSameTransition(
        reference, SimulateTransition(post, pre_routes, dead, config));
  }
}

TEST(TransitionTest, SaturatedDetourWhileFlowsAreParked) {
  // Both flows offer a packet every cycle and share their first channel
  // under the pre-fault routes, so at any transition cycle one of them is
  // parked on that channel and flow 0's heads wait on the doomed hop.
  // The switch must wake the parked flow: drain-and-restart ends its
  // injection suspension, and mid-flight moves flow 0 to the detour.
  const DetourFixture fx = MakeDetourFixture();
  for (const TransitionPolicy policy :
       {TransitionPolicy::kDrainAndRestart, TransitionPolicy::kMidFlight}) {
    for (const std::uint64_t transition_cycle : {3ull, 10ull, 11ull, 57ull}) {
      for (const std::uint16_t depth : {1, 2}) {
        TransitionConfig config = MakeConfig(policy, transition_cycle);
        config.sim.traffic.mode = InjectionMode::kBernoulli;
        config.sim.traffic.reference_injection_rate = 1.0;
        config.sim.max_cycles = 400;
        config.sim.buffer_depth = depth;
        ExpectEnginesAgreeOnTransition(
            fx.design, fx.pre_routes, fx.dead, config,
            "policy=" + std::to_string(static_cast<int>(policy)) +
                " cycle=" + std::to_string(transition_cycle) +
                " depth=" + std::to_string(depth));
      }
    }
  }
}

TEST(TransitionTest, SaturatedTorusTransitionsMatchFullScan) {
  // A saturated torus 4x4 moving from its deadlock-prone routes to the
  // treated ones, with a fifth of the channels dead: worms of both route
  // generations and many parked heads and flows meet at the switch.
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kTorus2D;
  spec.width = 4;
  spec.height = 4;
  spec.seed = 1;
  const NocDesign pre = gen::GenerateStandardDesign(spec);
  NocDesign post = pre;
  RemoveDeadlocks(post);
  std::vector<char> dead(post.topology.ChannelCount(), 0);
  for (std::size_t c = 0; c < dead.size(); c += 5) {
    dead[c] = 1;
  }
  for (const TransitionPolicy policy :
       {TransitionPolicy::kDrainAndRestart, TransitionPolicy::kMidFlight}) {
    for (const std::uint64_t transition_cycle : {5ull, 40ull, 150ull}) {
      for (const std::uint16_t depth : {1, 2}) {
        for (const bool inject_first : {false, true}) {
          TransitionConfig config;
          config.policy = policy;
          config.transition_cycle = transition_cycle;
          config.sim.buffer_depth = depth;
          config.sim.inject_first = inject_first;
          config.sim.traffic.mode = InjectionMode::kBernoulli;
          config.sim.traffic.reference_injection_rate = 0.5;
          config.sim.traffic.packet_length = 4;
          config.sim.max_cycles = 800;
          config.sim.stall_threshold = 300;
          config.sim.deadlock_check_interval = 64;
          ExpectEnginesAgreeOnTransition(
              post, pre.routes, dead, config,
              "policy=" + std::to_string(static_cast<int>(policy)) +
                  " cycle=" + std::to_string(transition_cycle) +
                  " depth=" + std::to_string(depth) +
                  (inject_first ? " inject_first" : ""));
        }
      }
    }
  }
}

TEST(TransitionTest, DeterministicAcrossRuns) {
  const DetourFixture fx = MakeDetourFixture();
  const auto config = MakeConfig(TransitionPolicy::kMidFlight, 12);
  const auto a =
      SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
  const auto b =
      SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
  EXPECT_EQ(a.sim.cycles, b.sim.cycles);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.sim.packets_delivered, b.sim.packets_delivered);
}

TEST(TransitionTest, RejectsMalformedInputs) {
  const DetourFixture fx = MakeDetourFixture();
  TransitionConfig config = MakeConfig(TransitionPolicy::kMidFlight, 10);
  RouteSet short_routes(1);  // wrong flow count
  EXPECT_THROW(
      SimulateTransition(fx.design, short_routes, fx.dead, config),
      InvalidModelError);
  std::vector<char> short_mask(1, 0);  // wrong channel count
  EXPECT_THROW(
      SimulateTransition(fx.design, fx.pre_routes, short_mask, config),
      InvalidModelError);
}

}  // namespace
}  // namespace nocdr
