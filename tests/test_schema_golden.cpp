// Golden schema pins: the exact digests, JSON bytes and stable names
// every campaign row, sweep row and protocol enum renders today.
//
// The campaign and sweep digests are the determinism contract the CI
// smoke campaigns and the committed BENCH baselines rest on; the row
// JSON and the enum names are what BENCH_*.json consumers, repro dumps
// and protocol clients parse. A refactor of how those schemas are
// declared must leave every value here untouched, so the test uses only
// long-standing public entry points and pins literal values.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/generators.h"
#include "obs/trace.h"
#include "runner/sweep.h"
#include "serve/load_gen.h"
#include "serve/protocol.h"
#include "serve/sched.h"
#include "serve/session.h"
#include "sim/simulator.h"
#include "soc/benchmarks.h"
#include "test_helpers.h"
#include "util/json.h"
#include "valid/campaign.h"
#include "valid/fault_campaign.h"
#include "valid/session_campaign.h"

namespace nocdr {
namespace {

namespace load = serve::load;
namespace sched = serve::sched;

/// Names of \p values through \p name, space-separated, in order.
template <typename E, typename NameFn>
std::string NamesOf(const std::vector<E>& values, NameFn&& name) {
  std::string out;
  for (const E value : values) {
    out += (out.empty() ? "" : " ") + std::string(name(value));
  }
  return out;
}

/// The first \p count enumerators of E by underlying value, for enums
/// without an All*() list.
template <typename E>
std::vector<E> FirstValues(std::size_t count) {
  std::vector<E> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<E>(i));
  }
  return out;
}

/// what() of the exception \p fn throws; empty when it does not throw.
template <typename Fn>
std::string ThrownMessage(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

/// what() of the error ParseMessageLine throws on \p line.
std::string MessageError(const std::string& line) {
  return ThrownMessage([&] { serve::ParseMessageLine(line); });
}

// ------------------------------------------------------------ campaigns

/// Small mixed campaign: every arm on two designs per source pair.
valid::CampaignConfig SmallValidationCampaign() {
  valid::CampaignConfig cfg;
  cfg.trials = 10;
  cfg.base_seed = 5;
  cfg.threads = 2;
  cfg.sources = {valid::DesignSource::kTorus,
                 valid::DesignSource::kSynthesized};
  return cfg;
}

/// A workload too strangled to deliver or detonate anything, so every
/// untreated trial mismatches and is shrunk.
valid::CampaignConfig MismatchingValidationCampaign() {
  valid::CampaignConfig cfg;
  cfg.trials = 2;
  cfg.base_seed = 9;
  cfg.threads = 1;
  cfg.arms = {valid::TrialArm::kUntreated};
  cfg.sources = {valid::DesignSource::kTorus, valid::DesignSource::kRing};
  cfg.workload.max_cycles = 2;
  cfg.workload.stall_threshold = std::uint64_t{1} << 40;
  cfg.workload.max_escalations = 0;
  return cfg;
}

TEST(SchemaGoldenTest, ValidationCampaignDigest) {
  const valid::CampaignResult result =
      valid::RunCampaign(SmallValidationCampaign());
  EXPECT_EQ(result.digest, 494286611545396412ull);
  EXPECT_EQ(result.positives, 9u);
  EXPECT_EQ(result.detonations, 1u);
  EXPECT_EQ(result.infeasibles, 0u);
  EXPECT_EQ(result.mismatches, 0u);

  valid::TrialRow row = result.rows[1];
  row.run_ms = 0.25;
  EXPECT_EQ(valid::RowToJson(row).Dump(),
            R"({"trial":1,"design_seed":4517933670823692284,)"
            R"("design":"torus4x7_transpose","source":"torus",)"
            R"("arm":"removal_incremental","switches":28,"links":112,)"
            R"("flows":24,"channels_before":112,"channels_after":112,)"
            R"("certified_free":true,"certificate_checked":true,)"
            R"("sim_deadlocked":false,"all_delivered":true,"cycles":259,)"
            R"("packets_offered":96,"packets_delivered":96,"escalations":0,)"
            R"("verdict":"positive_delivered","run_ms":0.25})");
}

TEST(SchemaGoldenTest, ShrunkMismatchRowDigestAndJson) {
  const valid::CampaignResult result =
      valid::RunCampaign(MismatchingValidationCampaign());
  EXPECT_EQ(result.digest, 12915109750350799876ull);
  ASSERT_EQ(result.mismatches, result.rows.size());
  EXPECT_EQ(result.repros.size(), 2u);

  valid::TrialRow row = result.rows[0];
  row.run_ms = 1.5;
  EXPECT_EQ(valid::RowToJson(row).Dump(),
            R"({"trial":0,"design_seed":10417302387917868542,)"
            R"("design":"torus4x4_hotspot_c2","source":"torus",)"
            R"("arm":"untreated","switches":16,"links":64,"flows":31,)"
            R"("channels_before":64,"channels_after":64,"certified_free":true,)"
            R"("certificate_checked":true,"sim_deadlocked":false,)"
            R"("all_delivered":false,"cycles":2,"packets_offered":124,)"
            R"("packets_delivered":4,"escalations":0,"verdict":"mismatch",)"
            R"("run_ms":1.5,)"
            R"("mismatch":"positive certificate but only 4 of 124 packets )"
            R"(delivered",)"
            R"("mismatch_kind":7,"shrink_flows_kept":1,"shrink_steps":31})");
}

TEST(SchemaGoldenTest, FaultCampaignDigest) {
  valid::FaultCampaignConfig cfg;
  cfg.trials = 5;
  cfg.base_seed = 7;
  cfg.threads = 2;
  const valid::FaultCampaignResult result = valid::RunFaultCampaign(cfg);
  EXPECT_EQ(result.digest, 13599132281895409548ull);
  EXPECT_EQ(result.reconfigured, 5u);
  EXPECT_EQ(result.disconnected, 0u);
  EXPECT_EQ(result.mismatches, 0u);

  valid::FaultTrialRow row = result.rows[0];
  row.run_ms = 0.25;
  EXPECT_EQ(valid::FaultRowToJson(row).Dump(),
            R"({"trial":0,"design_seed":7259628554680249319,)"
            R"("design":"S31_f3@11sw","source":"synthesized","switches":11,)"
            R"("links":31,"flows":117,"channels_initial":31,)"
            R"("channels_final":32,"table_routed":false,"bursts_planned":2,)"
            R"("bursts_applied":2,"failed_links":3,"failed_switches":0,)"
            R"("affected_flows":15,"disconnected_flows":0,"table_detours":0,)"
            R"("ripup_reroutes":15,"removal_iterations":1,)"
            R"("removal_vcs_added":1,"drain_cycles":169,"drain_delivered":936,)"
            R"("post_delivered":936,"midflight_dropped":2,)"
            R"("midflight_delivered":934,"midflight_deadlocks":0,)"
            R"("verdict":"reconfigured","run_ms":0.25})");

  // A mismatch row adds the mismatch text and its kind.
  row.verdict = valid::FaultVerdict::kMismatch;
  row.mismatch_kind = valid::FaultMismatchKind::kCdgDesync;
  row.mismatch = "maintained CDG diverged";
  EXPECT_EQ(valid::FaultDigest({row}), 15626091064960663200ull);
  EXPECT_EQ(valid::FaultRowToJson(row).Dump(),
            R"({"trial":0,"design_seed":7259628554680249319,)"
            R"("design":"S31_f3@11sw","source":"synthesized","switches":11,)"
            R"("links":31,"flows":117,"channels_initial":31,)"
            R"("channels_final":32,"table_routed":false,"bursts_planned":2,)"
            R"("bursts_applied":2,"failed_links":3,"failed_switches":0,)"
            R"("affected_flows":15,"disconnected_flows":0,"table_detours":0,)"
            R"("ripup_reroutes":15,"removal_iterations":1,)"
            R"("removal_vcs_added":1,"drain_cycles":169,"drain_delivered":936,)"
            R"("post_delivered":936,"midflight_dropped":2,)"
            R"("midflight_delivered":934,"midflight_deadlocks":0,)"
            R"("verdict":"mismatch","run_ms":0.25,)"
            R"("mismatch":"maintained CDG diverged","mismatch_kind":4})");
}

TEST(SchemaGoldenTest, SessionCampaignDigest) {
  valid::SessionCampaignConfig cfg;
  cfg.trials = 5;
  cfg.base_seed = 7;
  cfg.threads = 2;
  const valid::SessionCampaignResult result = valid::RunSessionCampaign(cfg);
  EXPECT_EQ(result.digest, 17044263837337374134ull);
  EXPECT_EQ(result.streamed, 5u);
  EXPECT_EQ(result.disconnected, 0u);
  EXPECT_EQ(result.mismatches, 0u);

  valid::SessionTrialRow row = result.rows[0];
  row.run_ms = 0.25;
  EXPECT_EQ(valid::SessionRowToJson(row).Dump(),
            R"({"trial":0,"design_seed":7259628554680249319,)"
            R"("design":"S31_f3@11sw","source":"synthesized","switches":11,)"
            R"("links":31,"flows":117,"channels_initial":31,)"
            R"("channels_final":31,"table_routed":false,"bursts_planned":2,)"
            R"("bursts_streamed":2,"events_unnamed":0,"final_epoch":2,)"
            R"("affected_flows":16,"disconnected_flows":0,"table_detours":0,)"
            R"("ripup_reroutes":16,"removal_iterations":0,)"
            R"("removal_vcs_added":0,"failed_links":4,"failed_switches":0,)"
            R"("final_key":972797281886083181,)"
            R"("session_digest":4328093122449436901,"verdict":"streamed",)"
            R"("run_ms":0.25})");

  row.verdict = valid::SessionVerdict::kMismatch;
  row.mismatch_kind = valid::SessionMismatchKind::kEpochViolation;
  row.mismatch = "epoch did not advance";
  EXPECT_EQ(valid::SessionCampaignDigest({row}), 11290142616534923303ull);
  EXPECT_EQ(valid::SessionRowToJson(row).Dump(),
            R"({"trial":0,"design_seed":7259628554680249319,)"
            R"("design":"S31_f3@11sw","source":"synthesized","switches":11,)"
            R"("links":31,"flows":117,"channels_initial":31,)"
            R"("channels_final":31,"table_routed":false,"bursts_planned":2,)"
            R"("bursts_streamed":2,"events_unnamed":0,"final_epoch":2,)"
            R"("affected_flows":16,"disconnected_flows":0,"table_detours":0,)"
            R"("ripup_reroutes":16,"removal_iterations":0,)"
            R"("removal_vcs_added":0,"failed_links":4,"failed_switches":0,)"
            R"("final_key":972797281886083181,)"
            R"("session_digest":4328093122449436901,"verdict":"mismatch",)"
            R"("run_ms":0.25,"mismatch":"epoch did not advance",)"
            R"("mismatch_kind":5})");
}

TEST(SchemaGoldenTest, SweepDigestAndJson) {
  std::vector<runner::SweepJob> jobs;
  runner::SweepJob removal;
  removal.design = "ring6";
  removal.variant = "removal";
  removal.factory = [](Rng&) { return testing::MakeRingDesign(6, 3); };
  jobs.push_back(removal);
  runner::SweepJob ordering = removal;
  ordering.variant = "ordering";
  ordering.method = runner::SweepMethod::kResourceOrdering;
  jobs.push_back(ordering);
  runner::SweepJob poison = removal;
  poison.variant = "poison";
  poison.factory = [](Rng&) -> NocDesign {
    throw std::runtime_error("factory failed");
  };
  jobs.push_back(poison);

  runner::SweepConfig cfg;
  cfg.threads = 2;
  cfg.base_seed = 3;
  std::vector<runner::SweepRow> rows = runner::SweepRunner(cfg).Run(jobs);
  EXPECT_EQ(runner::Digest(rows), 8447357639445995823ull);
  for (runner::SweepRow& row : rows) {
    row.factory_ms = 0.5;
    row.run_ms = 0.25;
  }
  EXPECT_EQ(runner::RowToJson(rows[0]).Dump(),
            R"({"design":"ring6","variant":"removal",)"
            R"("seed":14416117309360870529,"switches":6,"links":6,"flows":6,)"
            R"("channels":8,"initially_deadlock_free":false,"iterations":1,)"
            R"("vcs_added":2,"flows_rerouted":2,"cycle_bfs_runs":6,)"
            R"("deadlock_free":true,"factory_ms":0.5,"run_ms":0.25})");
  EXPECT_EQ(runner::RowToJson(rows[2]).Dump(),
            R"({"design":"ring6","variant":"poison",)"
            R"("seed":13066309581097501094,"switches":0,"links":0,"flows":0,)"
            R"("channels":0,"initially_deadlock_free":false,"iterations":0,)"
            R"("vcs_added":0,"flows_rerouted":0,"cycle_bfs_runs":0,)"
            R"("deadlock_free":false,"factory_ms":0.5,"run_ms":0.25,)"
            R"("error":"factory failed"})");
}

// ---------------------------------------------------------- enum names

TEST(SchemaGoldenTest, CampaignEnumNames) {
  EXPECT_EQ(NamesOf(valid::AllArms(), valid::ArmName),
            "untreated removal_incremental removal_rebuild resource_ordering "
            "updown");
  for (const valid::TrialArm arm : valid::AllArms()) {
    EXPECT_EQ(valid::ParseArm(valid::ArmName(arm)), arm);
  }
  EXPECT_FALSE(valid::ParseArm("Untreated").has_value());

  EXPECT_EQ(NamesOf(valid::AllSources(), valid::SourceName),
            "synthesized mesh torus ring fat_tree");
  for (const valid::DesignSource source : valid::AllSources()) {
    EXPECT_EQ(valid::ParseSource(valid::SourceName(source)), source);
  }
  EXPECT_FALSE(valid::ParseSource("fat-tree").has_value());

  // TrialVerdict names appear only in RowToJson's "verdict" field.
  const auto verdict_name = [](valid::TrialVerdict verdict) {
    valid::TrialRow row;
    row.verdict = verdict;
    const JsonValue json = JsonValue::Parse(valid::RowToJson(row).Dump());
    return json.At("verdict").AsString();
  };
  EXPECT_EQ(NamesOf(FirstValues<valid::TrialVerdict>(4), verdict_name),
            "positive_delivered negative_detonated arm_infeasible mismatch");

  const auto fault_verdicts = FirstValues<valid::FaultVerdict>(3);
  EXPECT_EQ(NamesOf(fault_verdicts, valid::FaultVerdictName),
            "reconfigured disconnected mismatch");
  const auto session_verdicts = FirstValues<valid::SessionVerdict>(3);
  EXPECT_EQ(NamesOf(session_verdicts, valid::SessionVerdictName),
            "streamed disconnected mismatch");
}

TEST(SchemaGoldenTest, LibraryEnumNames) {
  EXPECT_EQ(NamesOf(AllEngines(), EngineName), "fullscan worklist event");
  for (const SimEngine engine : AllEngines()) {
    EXPECT_EQ(ParseEngine(EngineName(engine)), engine);
  }
  EXPECT_FALSE(ParseEngine("full_scan").has_value());

  EXPECT_EQ(NamesOf(gen::AllFamilies(), gen::FamilyName),
            "mesh torus ring fat_tree");
  for (const gen::TopologyFamily family : gen::AllFamilies()) {
    EXPECT_EQ(gen::ParseFamily(gen::FamilyName(family)), family);
  }
  EXPECT_FALSE(gen::ParseFamily("hypercube").has_value());

  EXPECT_EQ(NamesOf(gen::AllPatterns(), gen::PatternName),
            "uniform transpose hotspot neighbor");
  for (const gen::TrafficPattern pattern : gen::AllPatterns()) {
    EXPECT_EQ(gen::ParsePattern(gen::PatternName(pattern)), pattern);
  }
  EXPECT_FALSE(gen::ParsePattern("bitrev").has_value());

  EXPECT_EQ(NamesOf(AllBenchmarkIds(), BenchmarkName),
            "D26_media D36_4 D36_6 D36_8 D35_bot D38_tvo");

  const auto clocks = FirstValues<obs::TraceClockMode>(2);
  EXPECT_EQ(NamesOf(clocks, obs::TraceClockName), "logical wall");
  for (const obs::TraceClockMode mode : clocks) {
    EXPECT_EQ(obs::ParseTraceClock(obs::TraceClockName(mode)), mode);
  }
  EXPECT_EQ(ThrownMessage([] { obs::ParseTraceClock("cpu"); }),
            "ParseTraceClock: unknown clock \"cpu\" (want \"logical\" or "
            "\"wall\")");
}

TEST(SchemaGoldenTest, ServeEnumNames) {
  EXPECT_EQ(NamesOf(sched::AllDisciplines(), sched::DisciplineName),
            "fifo sjf priority");
  for (const sched::Discipline discipline : sched::AllDisciplines()) {
    EXPECT_EQ(sched::ParseDiscipline(sched::DisciplineName(discipline)),
              discipline);
  }
  EXPECT_FALSE(sched::ParseDiscipline("lifo").has_value());

  EXPECT_EQ(NamesOf(load::AllArrivalKinds(), load::ArrivalKindName),
            "poisson bursty");
  for (const load::ArrivalKind kind : load::AllArrivalKinds()) {
    EXPECT_EQ(load::ParseArrivalKind(load::ArrivalKindName(kind)), kind);
  }
  EXPECT_FALSE(load::ParseArrivalKind("uniform").has_value());

  EXPECT_EQ(NamesOf(FirstValues<load::Verdict>(3), load::VerdictName),
            "served rejected_tokens rejected_queue");
  EXPECT_EQ(NamesOf(FirstValues<serve::ServeStatus>(3), serve::StatusName),
            "ok overloaded error");
  const auto outcomes = FirstValues<serve::CacheOutcome>(4);
  EXPECT_EQ(NamesOf(outcomes, serve::CacheOutcomeName),
            "hit computed coalesced none");

  const auto codes = FirstValues<serve::ErrorCode>(10);
  EXPECT_EQ(NamesOf(codes, serve::ErrorCodeName),
            "none invalid_request unsupported_version unknown_type "
            "unknown_session stale_epoch session_limit overloaded "
            "compute_failed internal");
  for (const serve::ErrorCode code : codes) {
    EXPECT_EQ(serve::ParseErrorCode(serve::ErrorCodeName(code)), code);
  }
  EXPECT_EQ(ThrownMessage([] { serve::ParseErrorCode("Internal"); }),
            "unknown error code \"Internal\"");
}

TEST(SchemaGoldenTest, SessionOpNamesRoundTripThroughTheCodec) {
  const std::vector<serve::SessionOp> ops = FirstValues<serve::SessionOp>(4);
  EXPECT_EQ(NamesOf(ops, serve::SessionOpName),
            "session_open fault_burst session_snapshot session_close");
  for (const serve::SessionOp op : ops) {
    serve::SessionRequest request;
    request.op = op;
    request.session_id = "s1";
    request.spec.kind = serve::RequestKind::kSourceSeed;
    request.spec.source = valid::DesignSource::kMesh;
    request.spec.seed = 1;
    const serve::ServeMessage parsed =
        serve::ParseMessageLine(serve::SessionRequestToJsonLine(request));
    ASSERT_TRUE(parsed.is_session);
    EXPECT_EQ(parsed.session.op, op);
  }
  EXPECT_EQ(MessageError(R"({"protocol_version":2,"type":"session_reopen"})"),
            "unknown v2 message type \"session_reopen\"");
  const std::string bad_event =
      R"({"protocol_version":2,"type":"fault_burst","session":"s1",)"
      R"("events":[{"kind":"router"}]})";
  EXPECT_EQ(MessageError(bad_event),
            "ParseMessageLine: unknown event kind \"router\" (want \"link\" "
            "or \"switch\")");
}

/// Parses a certify request whose options set \p field to \p value and
/// returns the value the re-rendered request carries.
std::string OptionRoundTrip(const std::string& field,
                            const std::string& value) {
  const serve::CertRequest request =
      serve::ParseRequestLine(R"({"source":"mesh","seed":1,"options":{")" +
                              field + R"(":")" + value + R"("}})");
  const JsonValue rendered =
      JsonValue::Parse(serve::RequestToJsonLine(request));
  return rendered.At("options").At(field).AsString();
}

/// Every protocol name of each removal option, default first.
struct OptionNames {
  std::string field;
  std::vector<std::string> names;
};
const OptionNames kOptionNames[] = {
    {"cycle_policy", {"smallest_first", "first_found", "largest_first"}},
    {"direction", {"both", "forward_only", "backward_only"}},
    {"engine", {"incremental", "rebuild"}},
    {"duplication", {"virtual_channel", "physical_link"}},
};

TEST(SchemaGoldenTest, ProtocolOptionNames) {
  for (const auto& [field, names] : kOptionNames) {
    for (const std::string& name : names) {
      EXPECT_EQ(OptionRoundTrip(field, name), name) << field;
    }
    EXPECT_EQ(ThrownMessage([&] { OptionRoundTrip(field, "x"); }),
              "ParseRequestLine: unknown " + field + " \"x\"");
  }
  // The defaults render as the first name of each list.
  const serve::CertRequest defaults =
      serve::ParseRequestLine(R"({"source":"mesh","seed":1})");
  const JsonValue rendered =
      JsonValue::Parse(serve::RequestToJsonLine(defaults));
  for (const auto& [field, names] : kOptionNames) {
    EXPECT_EQ(rendered.At("options").At(field).AsString(), names.front());
  }
}

}  // namespace
}  // namespace nocdr
