// Unit tests for congestion-aware route construction.
#include "synth/route_builder.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "gen/generators.h"
#include "soc/benchmarks.h"
#include "synth/partition.h"
#include "synth/synthesizer.h"
#include "synth/topology_builder.h"
#include "util/error.h"
#include "util/rng.h"

namespace nocdr {
namespace {

/// Small diamond: a -> {b, c} -> d lets traffic split.
struct Diamond {
  TopologyGraph topo;
  SwitchId a, b, c, d;
};

Diamond MakeDiamond() {
  Diamond dm;
  dm.a = dm.topo.AddSwitch("a");
  dm.b = dm.topo.AddSwitch("b");
  dm.c = dm.topo.AddSwitch("c");
  dm.d = dm.topo.AddSwitch("d");
  dm.topo.AddLink(dm.a, dm.b);
  dm.topo.AddLink(dm.b, dm.d);
  dm.topo.AddLink(dm.a, dm.c);
  dm.topo.AddLink(dm.c, dm.d);
  return dm;
}

TEST(RouteBuilderTest, ShortestPathWhenUncongested) {
  Diamond dm = MakeDiamond();
  // Extra 3-hop detour a->b->c->d would never win.
  dm.topo.AddLink(dm.b, dm.c);
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  g.AddFlow(x, y, 10.0);
  const std::vector<SwitchId> attachment = {dm.a, dm.d};
  const auto routes = BuildRoutes(dm.topo, g, attachment);
  EXPECT_EQ(routes.RouteOf(FlowId(0u)).size(), 2u);
}

TEST(RouteBuilderTest, CongestionSplitsHeavyTraffic) {
  Diamond dm = MakeDiamond();
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  // Two very heavy parallel flows: with load-aware weights the second
  // must take the other branch of the diamond.
  g.AddFlow(x, y, 2000.0);
  g.AddFlow(x, y, 2000.0);
  const std::vector<SwitchId> attachment = {dm.a, dm.d};
  RouteBuildOptions options;
  options.congestion_weight = 4.0;
  options.link_capacity_mbps = 1000.0;
  const auto routes = BuildRoutes(dm.topo, g, attachment, options);
  const Route& r0 = routes.RouteOf(FlowId(0u));
  const Route& r1 = routes.RouteOf(FlowId(1u));
  ASSERT_EQ(r0.size(), 2u);
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_NE(r0[0], r1[0]) << "both flows took the same branch";
}

TEST(RouteBuilderTest, ZeroCongestionWeightIgnoresLoad) {
  Diamond dm = MakeDiamond();
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  g.AddFlow(x, y, 2000.0);
  g.AddFlow(x, y, 2000.0);
  const std::vector<SwitchId> attachment = {dm.a, dm.d};
  RouteBuildOptions options;
  options.congestion_weight = 0.0;
  const auto routes = BuildRoutes(dm.topo, g, attachment, options);
  // Pure shortest path with deterministic tie-break: identical routes.
  EXPECT_EQ(routes.RouteOf(FlowId(0u)), routes.RouteOf(FlowId(1u)));
}

TEST(RouteBuilderTest, IntraSwitchFlowsGetEmptyRoutes) {
  Diamond dm = MakeDiamond();
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  g.AddFlow(x, y, 50.0);
  const std::vector<SwitchId> attachment = {dm.a, dm.a};
  const auto routes = BuildRoutes(dm.topo, g, attachment);
  EXPECT_TRUE(routes.RouteOf(FlowId(0u)).empty());
}

TEST(RouteBuilderTest, DisconnectedThrows) {
  TopologyGraph t;
  const SwitchId a = t.AddSwitch(), b = t.AddSwitch();
  (void)b;
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  g.AddFlow(x, y, 1.0);
  const std::vector<SwitchId> attachment = {a, SwitchId(1u)};
  EXPECT_THROW(BuildRoutes(t, g, attachment), InvalidModelError);
}

TEST(RouteBuilderTest, AllRoutesValidateOnSynthesizedTopologies) {
  for (auto id : AllBenchmarkIds()) {
    const auto b = MakeBenchmark(id);
    const auto design = SynthesizeDesign(b.traffic, b.name, 10);
    EXPECT_NO_THROW(design.Validate()) << b.name;
  }
}

TEST(RouteBuilderTest, RoutesUseOnlyVcZero) {
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_6);
  const auto design = SynthesizeDesign(b.traffic, b.name, 12);
  for (std::size_t fi = 0; fi < design.traffic.FlowCount(); ++fi) {
    for (ChannelId c : design.routes.RouteOf(FlowId(fi))) {
      EXPECT_EQ(design.topology.ChannelAt(c).vc, 0u);
    }
  }
}

// ------------------------------------------- ValidateNextHopTable oracle

/// Reference validator: the hop-by-hop walk of every (source,
/// destination) pair, O(S^2 * diameter). It is the oracle the memoized
/// ValidateNextHopTable must agree with on accept or reject.
bool ReferenceTableValid(const TopologyGraph& topology,
                         const NextHopTable& table) {
  const std::size_t n = topology.SwitchCount();
  if (table.size() != n) {
    return false;
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (table[s].size() != n) {
      return false;
    }
    for (std::size_t d = 0; d < n; ++d) {
      const LinkId l = table[s][d];
      if (l.valid() && (s == d || !topology.IsValidLink(l) ||
                        topology.LinkAt(l).src != SwitchId(s))) {
        return false;
      }
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d || !table[s][d].valid()) {
        continue;
      }
      std::size_t cur = s;
      std::size_t hops = 0;
      while (cur != d) {
        const LinkId l = table[cur][d];
        if (!l.valid()) {
          return false;  // hole
        }
        cur = topology.LinkAt(l).dst.value();
        if (++hops > n) {
          return false;  // loop
        }
      }
    }
  }
  return true;
}

/// ValidateNextHopTable's verdict: empty when it accepts, else the
/// thrown message.
std::optional<std::string> Rejection(const TopologyGraph& topology,
                                     const NextHopTable& table) {
  try {
    ValidateNextHopTable(topology, table);
    return std::nullopt;
  } catch (const InvalidModelError& e) {
    return std::string(e.what());
  }
}

void ExpectAgreesWithReference(const TopologyGraph& topology,
                               const NextHopTable& table,
                               const std::string& label) {
  const auto rejection = Rejection(topology, table);
  EXPECT_EQ(!rejection.has_value(), ReferenceTableValid(topology, table))
      << label << ": " << rejection.value_or("accepted");
}

void ExpectRejectedNaming(const TopologyGraph& topology,
                          const NextHopTable& table,
                          const std::string& expected) {
  EXPECT_FALSE(ReferenceTableValid(topology, table)) << expected;
  const auto rejection = Rejection(topology, table);
  ASSERT_TRUE(rejection.has_value()) << expected;
  EXPECT_NE(rejection->find(expected), std::string::npos) << *rejection;
}

/// Four families at two sizes each; the fat trees have parallel links.
std::vector<gen::GeneratedTopology> OracleTopologies() {
  std::vector<gen::GeneratorSpec> specs;
  for (const std::size_t side : {3, 6}) {
    gen::GeneratorSpec spec;
    spec.family = gen::TopologyFamily::kMesh2D;
    spec.width = side;
    spec.height = side + 1;
    specs.push_back(spec);
    spec.family = gen::TopologyFamily::kTorus2D;
    specs.push_back(spec);
  }
  for (const std::size_t nodes : {5, 12}) {
    gen::GeneratorSpec spec;
    spec.family = gen::TopologyFamily::kRing;
    spec.ring_nodes = nodes;
    specs.push_back(spec);
  }
  for (const std::size_t arity : {2, 3}) {
    gen::GeneratorSpec spec;
    spec.family = gen::TopologyFamily::kFatTree;
    spec.tree_arity = arity;
    spec.tree_levels = 3;
    spec.tree_uplinks = arity;
    specs.push_back(spec);
  }
  std::vector<gen::GeneratedTopology> out;
  for (const gen::GeneratorSpec& spec : specs) {
    out.push_back(gen::BuildFamilyTopology(spec));
  }
  return out;
}

TEST(NextHopOracleTest, GeneratedTablesAgreeWithReference) {
  for (const gen::GeneratedTopology& topo : OracleTopologies()) {
    EXPECT_TRUE(ReferenceTableValid(topo.topology, topo.table));
    ExpectAgreesWithReference(topo.topology, topo.table, "generated");
  }
}

TEST(NextHopOracleTest, SeededMutationsAgreeWithReference) {
  Rng rng(20240613);
  std::size_t rejected = 0;
  std::size_t cases = 0;
  for (const gen::GeneratedTopology& topo : OracleTopologies()) {
    const TopologyGraph& topology = topo.topology;
    const std::size_t n = topology.SwitchCount();
    for (int trial = 0; trial < 40; ++trial) {
      NextHopTable table = topo.table;
      const std::size_t s = rng.NextBelow(n);
      const std::size_t d = rng.NextBelow(n);
      const std::vector<LinkId>& outs = topology.OutLinks(SwitchId(s));
      std::string label = "s=" + std::to_string(s) + " d=" + std::to_string(d);
      switch (trial % 4) {
        case 0:  // hole
          table[s][d] = LinkId();
          label += " hole";
          break;
        case 1:  // self entry
          table[s][s] = outs.front();
          label += " self";
          break;
        case 2:  // foreign link: leaves some other switch
          table[s][d] = LinkId(static_cast<std::uint32_t>(
              rng.NextBelow(topology.LinkCount())));
          label += " foreign";
          break;
        default:  // an arbitrary out-link of s: may loop or stay valid
          if (s != d) {
            table[s][d] = outs[rng.NextBelow(outs.size())];
          }
          label += " redirect";
          break;
      }
      ++cases;
      rejected += !ReferenceTableValid(topology, table);
      ExpectAgreesWithReference(topology, table, label);
    }
  }
  // The mutations must exercise both verdicts.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, cases);
}

TEST(NextHopOracleTest, NamedViolationsNameTheOffendingPair) {
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kRing;
  spec.ring_nodes = 8;
  const gen::GeneratedTopology ring = gen::BuildFamilyTopology(spec);
  const TopologyGraph& topology = ring.topology;
  const auto link = [&](std::size_t a, std::size_t b) {
    return *topology.FindLink(SwitchId(a), SwitchId(b));
  };

  NextHopTable self = ring.table;
  self[3][3] = link(3, 4);
  ExpectRejectedNaming(topology, self, "self entry on switch 3");

  NextHopTable foreign = ring.table;
  foreign[2][6] = link(5, 6);
  ExpectRejectedNaming(topology, foreign, "(2,6) does not leave switch 2");

  NextHopTable invalid = ring.table;
  invalid[1][5] = LinkId(static_cast<std::uint32_t>(topology.LinkCount()));
  ExpectRejectedNaming(topology, invalid, "invalid link on (1,5)");

  // A loop entered mid-walk: 0 -> 1 -> 2 -> 1 never reaches 4.
  NextHopTable looped = ring.table;
  looped[2][4] = link(2, 1);
  ExpectRejectedNaming(topology, looped, "routing loop from 0 to 4");

  // A hole behind a chain memoized from an earlier source: toward 4,
  // source 0's walk 0 -> 1 -> 2 -> 3 -> 4 is memoized first, and source
  // 7's walk 7 -> 6 then finds (6, 4) empty.
  NextHopTable holed = ring.table;
  holed[6][4] = LinkId();
  ExpectRejectedNaming(topology, holed, "hole at (6,4) on the walk from 7");

  // A hole behind a chain memoized for the previous destination: switch
  // 5 is known to reach 2 (5 -> 4 -> 3 -> 2), but its entry toward 3 is
  // empty and source 6 walks 6 -> 5 toward 3.
  NextHopTable stale = ring.table;
  stale[5][3] = LinkId();
  ExpectRejectedNaming(topology, stale, "hole at (5,3) on the walk from 6");
}

TEST(NextHopOracleTest, PatchedTablesAgreeWithReference) {
  Rng rng(7);
  for (const gen::GeneratedTopology& topo : OracleTopologies()) {
    const TopologyGraph& topology = topo.topology;
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<char> failed_links(topology.LinkCount(), 0);
      std::vector<char> failed_switches;
      const std::size_t faults = 1 + rng.NextBelow(3);
      for (std::size_t i = 0; i < faults; ++i) {
        failed_links[rng.NextBelow(topology.LinkCount())] = 1;
      }
      if (trial % 3 == 0) {
        failed_switches.assign(topology.SwitchCount(), 0);
        failed_switches[rng.NextBelow(topology.SwitchCount())] = 1;
      }
      NextHopTable table = topo.table;
      PatchNextHopTable(topology, table, failed_links, failed_switches);
      ExpectAgreesWithReference(topology, table,
                                "patch trial " + std::to_string(trial));
    }
  }
}

}  // namespace
}  // namespace nocdr
