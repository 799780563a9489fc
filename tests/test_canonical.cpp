// util/canonical: canonical design rendering and content-addressed
// digesting — the primitive the certification service keys its cache by
// and the shrinker validates repros against.
#include "util/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/removal.h"
#include "fault/plan.h"
#include "fault/reconfigure.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/json.h"
#include "valid/campaign.h"

namespace nocdr {
namespace {

using testing::MakePaperExample;
using testing::MakeRandomDesign;

/// Rebuilds \p design with flows (and their routes) permuted by
/// \p order — the construction-order noise canonicalization must erase.
NocDesign PermuteFlows(const NocDesign& design,
                       const std::vector<std::size_t>& order) {
  NocDesign out;
  out.name = design.name;
  out.topology = design.topology;
  out.attachment = design.attachment;
  for (std::size_t c = 0; c < design.traffic.CoreCount(); ++c) {
    out.traffic.AddCore(design.traffic.CoreName(CoreId(c)));
  }
  out.routes.Resize(order.size());
  for (const std::size_t original : order) {
    const Flow& flow = design.traffic.FlowAt(FlowId(original));
    const FlowId f =
        out.traffic.AddFlow(flow.src, flow.dst, flow.bandwidth_mbps);
    out.routes.SetRoute(f, design.routes.RouteOf(FlowId(original)));
  }
  out.Validate();
  return out;
}

// ------------------------------------------------------------ the oracle
//
// CanonicalizeDesign as it was before it built its result directly:
// sort the flows into a copy of the design, render, then parse and
// re-render until the text is a round-trip fixpoint. The direct build
// must give the same text, channel numbering, routes and bandwidths.

std::vector<std::pair<std::uint32_t, std::uint32_t>> OracleRouteKey(
    const NocDesign& design, const Route& route) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> key;
  key.reserve(route.size());
  for (const ChannelId c : route) {
    const Channel& channel = design.topology.ChannelAt(c);
    key.emplace_back(channel.link.value(), channel.vc);
  }
  return key;
}

NocDesign OracleSortFlows(const NocDesign& design) {
  const std::size_t flow_count = design.traffic.FlowCount();
  std::vector<std::size_t> order(flow_count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    const Flow& fa = design.traffic.FlowAt(FlowId(a));
    const Flow& fb = design.traffic.FlowAt(FlowId(b));
    if (fa.src != fb.src) {
      return fa.src.value() < fb.src.value();
    }
    if (fa.dst != fb.dst) {
      return fa.dst.value() < fb.dst.value();
    }
    if (fa.bandwidth_mbps != fb.bandwidth_mbps) {
      return fa.bandwidth_mbps < fb.bandwidth_mbps;
    }
    return OracleRouteKey(design, design.routes.RouteOf(FlowId(a))) <
           OracleRouteKey(design, design.routes.RouteOf(FlowId(b)));
  });
  NocDesign out;
  out.name = design.name;
  out.topology = design.topology;
  out.attachment = design.attachment;
  for (std::size_t c = 0; c < design.traffic.CoreCount(); ++c) {
    out.traffic.AddCore(design.traffic.CoreName(CoreId(c)));
  }
  out.routes.Resize(flow_count);
  for (std::size_t i = 0; i < flow_count; ++i) {
    const Flow& flow = design.traffic.FlowAt(FlowId(order[i]));
    const FlowId f = out.traffic.AddFlow(flow.src, flow.dst,
                                         flow.bandwidth_mbps);
    out.routes.SetRoute(f, design.routes.RouteOf(FlowId(order[i])));
  }
  return out;
}

CanonicalDesign OracleCanonicalize(const NocDesign& design) {
  CanonicalDesign out;
  out.text = DesignText(OracleSortFlows(design));
  std::string reparsed;
  for (int round = 0; round < 4; ++round) {
    out.design = ReadDesign(out.text);
    reparsed.clear();
    AppendDesignText(reparsed, out.design);
    if (reparsed == out.text) {
      return out;
    }
    out.text.swap(reparsed);
  }
  throw InvalidModelError("oracle: no round-trip fixpoint");
}

/// Text, every channel's (link, vc), every route's channel ids, every
/// bandwidth (bit for bit) and the names and attachment agree.
void ExpectSameCanonicalForm(const NocDesign& input, const std::string& what) {
  SCOPED_TRACE(what);
  const CanonicalDesign direct = CanonicalizeDesign(input);
  const CanonicalDesign oracle = OracleCanonicalize(input);
  ASSERT_EQ(direct.text, oracle.text);
  EXPECT_EQ(DesignText(direct.design), direct.text);
  const NocDesign& a = direct.design;
  const NocDesign& b = oracle.design;
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.topology.SwitchCount(), b.topology.SwitchCount());
  for (std::size_t s = 0; s < a.topology.SwitchCount(); ++s) {
    EXPECT_EQ(a.topology.SwitchName(SwitchId(s)),
              b.topology.SwitchName(SwitchId(s)));
  }
  ASSERT_EQ(a.topology.LinkCount(), b.topology.LinkCount());
  ASSERT_EQ(a.topology.ChannelCount(), b.topology.ChannelCount());
  for (std::size_t c = 0; c < a.topology.ChannelCount(); ++c) {
    EXPECT_EQ(a.topology.ChannelAt(ChannelId(c)),
              b.topology.ChannelAt(ChannelId(c)))
        << "channel " << c;
  }
  EXPECT_EQ(a.attachment, b.attachment);
  ASSERT_EQ(a.traffic.FlowCount(), b.traffic.FlowCount());
  for (std::size_t f = 0; f < a.traffic.FlowCount(); ++f) {
    const Flow& fa = a.traffic.FlowAt(FlowId(f));
    const Flow& fb = b.traffic.FlowAt(FlowId(f));
    EXPECT_EQ(fa.src, fb.src);
    EXPECT_EQ(fa.dst, fb.dst);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fa.bandwidth_mbps),
              std::bit_cast<std::uint64_t>(fb.bandwidth_mbps))
        << "flow " << f << ": " << fa.bandwidth_mbps << " vs "
        << fb.bandwidth_mbps;
    EXPECT_EQ(a.routes.RouteOf(FlowId(f)), b.routes.RouteOf(FlowId(f)))
        << "flow " << f;
  }
  EXPECT_EQ(CanonicalChannelIds(a.topology).size(), a.topology.ChannelCount());
}

std::vector<std::string> ExampleDesignTexts() {
  std::vector<std::string> texts;
  for (const char* name :
       {"serve_requests.jsonl", "serve_session_requests.jsonl"}) {
    std::ifstream in(std::string(NOCDR_SOURCE_DIR) + "/examples/" + name);
    EXPECT_TRUE(in) << name;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      const JsonValue request = JsonValue::Parse(line);
      if (const JsonValue* design = request.Find("design")) {
        texts.push_back(design->AsString());
      }
    }
  }
  return texts;
}

TEST(CanonicalOracleTest, GeneratorFamiliesMatchTheFixpointOracle) {
  for (const gen::TopologyFamily family : gen::AllFamilies()) {
    for (const gen::TrafficPattern pattern : gen::AllPatterns()) {
      gen::GeneratorSpec spec;
      spec.family = family;
      spec.pattern = pattern;
      spec.width = 4;
      spec.height = 3 + static_cast<std::size_t>(pattern);
      spec.cores_per_switch = 2;
      spec.seed = 3;
      NocDesign design = gen::GenerateStandardDesign(spec);
      const std::string what =
          gen::FamilyName(family) + "/" + gen::PatternName(pattern);
      ExpectSameCanonicalForm(design, what + " raw");
      RemoveDeadlocks(design);
      ExpectSameCanonicalForm(design, what + " treated");
    }
  }
}

TEST(CanonicalOracleTest, CampaignSourcesRawAndTreatedMatchTheOracle) {
  valid::DesignEnvelope envelope;
  envelope.min_cores = 6;
  envelope.max_cores = 14;
  for (const valid::DesignSource source : valid::AllSources()) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      NocDesign design = valid::GenerateTrialDesign(source, seed, envelope);
      const std::string what =
          valid::SourceName(source) + " seed " + std::to_string(seed);
      ExpectSameCanonicalForm(design, what + " raw");
      const std::size_t channels = design.topology.ChannelCount();
      RemoveDeadlocks(design);
      ExpectSameCanonicalForm(design, what + " treated");
      if (design.topology.ChannelCount() > channels) {
        // Appended VCs: the input numbering is not link-major, so the
        // renumbering really moves channels.
        const std::vector<std::uint32_t> ids =
            CanonicalChannelIds(design.topology);
        bool moved = false;
        for (std::size_t c = 0; c < ids.size(); ++c) {
          moved = moved || ids[c] != c;
        }
        EXPECT_TRUE(moved) << what;
      }
    }
  }
}

TEST(CanonicalOracleTest, SessionEpochsAfterBurstsMatchTheOracle) {
  // A session's live design after fault bursts: re-routed flows and VCs
  // the incremental removal appended, advanced the way sessions do.
  for (const gen::TopologyFamily family :
       {gen::TopologyFamily::kMesh2D, gen::TopologyFamily::kTorus2D}) {
    gen::GeneratorSpec spec;
    spec.family = family;
    spec.width = 5;
    spec.height = 5;
    spec.seed = 9;
    NextHopTable table;
    NocDesign generated = gen::GenerateStandardDesign(spec, &table);
    RemoveDeadlocks(generated);
    NocDesign design = CanonicalizeDesign(generated).design;
    ChannelDependencyGraph cdg = ChannelDependencyGraph::Build(design);
    DirtyCycleFinder finder(cdg);
    fault::FaultState state = fault::FaultState::None(design);
    fault::FaultPlanOptions plan_options;
    plan_options.bursts = 6;
    const fault::FaultPlan plan = fault::DrawFaultPlan(design, 5, plan_options);
    fault::ReconfigureOptions options;
    options.table = &table;
    std::size_t applied = 0;
    for (std::size_t b = 0; b < plan.bursts.size(); ++b) {
      const fault::ReconfigureReport report = fault::ApplyFaultBurst(
          design, cdg, finder, state, plan.bursts[b], options);
      if (report.infeasible()) {
        continue;
      }
      ++applied;
      ExpectSameCanonicalForm(design, gen::FamilyName(family) + " epoch " +
                                          std::to_string(applied));
    }
    EXPECT_GT(applied, 0u);
  }
}

TEST(CanonicalOracleTest, ExampleDesignsMatchTheOracle) {
  const std::vector<std::string> texts = ExampleDesignTexts();
  ASSERT_FALSE(texts.empty());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    ExpectSameCanonicalForm(ReadDesign(texts[i]),
                            "example design " + std::to_string(i));
  }
}

TEST(CanonicalOracleTest, BandwidthsNeedingRoundingMatchTheOracle) {
  NocDesign design = MakeRandomDesign(17, 6, 10, 24);
  // Values the six significant digits round, ties, huge and tiny
  // values, a subnormal and zero; two flows of one pair differing only
  // past the sixth digit keep their unrounded sort order.
  const std::vector<double> bandwidths = {
      123.4567891, 0.1 + 0.2,  98765432.1, 1.0000005, 2.5e-7,
      4.9e-322,    0.0,        1e300,      999999.5,  7.0000001,
      7.0000002,   123456789.0};
  NocDesign rounded;
  rounded.name = "rounding";
  rounded.topology = design.topology;
  rounded.attachment = design.attachment;
  for (std::size_t c = 0; c < design.traffic.CoreCount(); ++c) {
    rounded.traffic.AddCore(design.traffic.CoreName(CoreId(c)));
  }
  rounded.routes.Resize(design.traffic.FlowCount());
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    const FlowId id = rounded.traffic.AddFlow(
        flow.src, flow.dst, bandwidths[f % bandwidths.size()]);
    rounded.routes.SetRoute(id, design.routes.RouteOf(FlowId(f)));
  }
  // Two more flows of the first flow's pair, added in descending order,
  // whose bandwidths differ only past the sixth digit: the sort reads
  // the unrounded values, the text the rounded ones.
  for (const double bw : {5.00000002, 5.00000001}) {
    const Flow& flow = design.traffic.FlowAt(FlowId(0));
    const FlowId id = rounded.traffic.AddFlow(flow.src, flow.dst, bw);
    rounded.routes.Resize(rounded.traffic.FlowCount());
    rounded.routes.SetRoute(id, design.routes.RouteOf(FlowId(0)));
  }
  rounded.Validate();
  ExpectSameCanonicalForm(rounded, "rounded bandwidths");
  RemoveDeadlocks(rounded);
  ExpectSameCanonicalForm(rounded, "rounded bandwidths, treated");
}

TEST(CanonicalOracleTest, NamesTheTextCannotCarryAreRejected) {
  // The oracle's parse fails on these; the direct build refuses them
  // up front instead of building a design its text does not describe.
  NocDesign spaced = MakePaperExample().design;
  NocDesign renamed;
  renamed.name = spaced.name;
  renamed.topology.AddSwitch("SW 1");
  for (std::size_t s = 1; s < spaced.topology.SwitchCount(); ++s) {
    renamed.topology.AddSwitch(spaced.topology.SwitchName(SwitchId(s)));
  }
  for (std::size_t l = 0; l < spaced.topology.LinkCount(); ++l) {
    const Link& link = spaced.topology.LinkAt(LinkId(l));
    renamed.topology.AddLink(link.src, link.dst);
  }
  renamed.attachment = spaced.attachment;
  for (std::size_t c = 0; c < spaced.traffic.CoreCount(); ++c) {
    renamed.traffic.AddCore(spaced.traffic.CoreName(CoreId(c)));
  }
  renamed.routes.Resize(spaced.traffic.FlowCount());
  for (std::size_t f = 0; f < spaced.traffic.FlowCount(); ++f) {
    const Flow& flow = spaced.traffic.FlowAt(FlowId(f));
    renamed.traffic.AddFlow(flow.src, flow.dst, flow.bandwidth_mbps);
    renamed.routes.SetRoute(FlowId(f), spaced.routes.RouteOf(FlowId(f)));
  }
  EXPECT_THROW((void)OracleCanonicalize(renamed), DesignParseError);
  EXPECT_THROW((void)CanonicalizeDesign(renamed), InvalidModelError);

  // A design name keeps only its first token, as the parse does.
  NocDesign named = MakePaperExample().design;
  named.name = "  two words # and a comment";
  EXPECT_EQ(CanonicalizeDesign(named).design.name, "two");
  ExpectSameCanonicalForm(named, "design name with spaces");
  named.name.clear();
  EXPECT_EQ(CanonicalizeDesign(named).design.name, "unnamed");
}

TEST(CanonicalTest, IoCanonicalizePreservesFlowOrderAndText) {
  const NocDesign design = MakePaperExample().design;
  const NocDesign round = IoCanonicalize(design);
  EXPECT_EQ(DesignText(design), DesignText(round));
  ASSERT_EQ(design.traffic.FlowCount(), round.traffic.FlowCount());
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    EXPECT_EQ(design.traffic.FlowAt(FlowId(f)).src,
              round.traffic.FlowAt(FlowId(f)).src);
  }
  EXPECT_TRUE(IsIoStable(design));
}

TEST(CanonicalTest, DigestStableUnderFlowReordering) {
  const RemovalOptions options;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const NocDesign design = MakeRandomDesign(seed);
    const std::uint64_t base = CanonicalDesignDigest(design, options);

    std::vector<std::size_t> order(design.traffic.FlowCount());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = order.size() - 1 - i;  // full reversal
    }
    EXPECT_EQ(base,
              CanonicalDesignDigest(PermuteFlows(design, order), options))
        << "seed " << seed;

    Rng rng(seed ^ 0xfeed);
    rng.Shuffle(order);
    EXPECT_EQ(base,
              CanonicalDesignDigest(PermuteFlows(design, order), options))
        << "seed " << seed;
  }
}

TEST(CanonicalTest, DigestStableUnderTextNoise) {
  // Comments, blank lines and trailing whitespace-only reformatting of
  // the source text must not change identity: parse both renderings and
  // digest.
  const NocDesign design = MakePaperExample().design;
  const std::string text = DesignText(design);
  std::string noisy = "# a comment\n\n";
  for (const char c : text) {
    noisy += c;
    if (c == '\n') {
      noisy += "# between lines\n\n";
    }
  }
  std::istringstream in(noisy);
  const NocDesign reparsed = ReadDesign(in);
  const RemovalOptions options;
  EXPECT_EQ(CanonicalDesignDigest(design, options),
            CanonicalDesignDigest(reparsed, options));
}

TEST(CanonicalTest, CanonicalizationIsIdempotent) {
  for (const std::uint64_t seed : {3ull, 11ull}) {
    const NocDesign design = MakeRandomDesign(seed);
    const CanonicalDesign once = CanonicalizeDesign(design);
    const CanonicalDesign twice = CanonicalizeDesign(once.design);
    EXPECT_EQ(once.text, twice.text) << "seed " << seed;
    EXPECT_TRUE(IsIoStable(once.design)) << "seed " << seed;
  }
}

TEST(CanonicalTest, CanonicalizationPreservesTheCertificationProblem) {
  // Same switches, links, channel multiset and route multiset — only
  // flow identity may be renamed.
  const NocDesign design = MakeRandomDesign(5);
  const CanonicalDesign canonical = CanonicalizeDesign(design);
  EXPECT_EQ(design.topology.SwitchCount(),
            canonical.design.topology.SwitchCount());
  EXPECT_EQ(design.topology.LinkCount(),
            canonical.design.topology.LinkCount());
  EXPECT_EQ(design.topology.ChannelCount(),
            canonical.design.topology.ChannelCount());
  ASSERT_EQ(design.traffic.FlowCount(),
            canonical.design.traffic.FlowCount());

  const auto route_key = [](const NocDesign& d, FlowId f) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> key;
    for (const ChannelId c : d.routes.RouteOf(f)) {
      const Channel& channel = d.topology.ChannelAt(c);
      key.emplace_back(channel.link.value(), channel.vc);
    }
    return key;
  };
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> a, b;
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    a.push_back(route_key(design, FlowId(f)));
    b.push_back(route_key(canonical.design, FlowId(f)));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(CanonicalTest, DigestSeparatesDesignsAndOptions) {
  const NocDesign a = MakeRandomDesign(1);
  const NocDesign b = MakeRandomDesign(2);
  const RemovalOptions options;
  EXPECT_NE(CanonicalDesignDigest(a, options),
            CanonicalDesignDigest(b, options));

  RemovalOptions first_found;
  first_found.cycle_policy = CyclePolicy::kFirstFound;
  EXPECT_NE(CanonicalDesignDigest(a, options),
            CanonicalDesignDigest(a, first_found));

  RemovalOptions capped;
  capped.max_iterations = 7;
  EXPECT_NE(CanonicalDesignDigest(a, options),
            CanonicalDesignDigest(a, capped));

  EXPECT_NE(CanonicalDesignDigest(a, options, /*treat=*/true),
            CanonicalDesignDigest(a, options, /*treat=*/false));

  // The engine choice is *not* part of identity: both engines produce
  // bit-identical results, so they share cache entries.
  RemovalOptions rebuild;
  rebuild.engine = RemovalEngine::kRebuild;
  EXPECT_EQ(CanonicalDesignDigest(a, options),
            CanonicalDesignDigest(a, rebuild));
}

}  // namespace
}  // namespace nocdr
