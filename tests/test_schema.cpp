// Enum tables and row schemas (util/enum_names.h, util/row_schema.h):
// every table round-trips its names, and the engine-differential
// comparison reports the first differing outcome field in the format
// campaign mismatch rows carry.
#include <gtest/gtest.h>

#include "gen/generators.h"
#include "obs/trace.h"
#include "serve/load_gen.h"
#include "serve/protocol.h"
#include "serve/sched.h"
#include "sim/simulator.h"
#include "soc/benchmarks.h"
#include "util/row_schema.h"
#include "valid/campaign.h"
#include "valid/fault_campaign.h"
#include "valid/session_campaign.h"

namespace nocdr {
namespace {

template <typename E, std::size_t N>
void ExpectRoundTrip(const EnumTable<E, N>& table) {
  const std::vector<E> values = table.All();
  EXPECT_EQ(values.size(), N);
  for (const E value : values) {
    EXPECT_EQ(table.Parse(table.Name(value)), value) << table.Name(value);
  }
  EXPECT_FALSE(table.Parse("no_such_name").has_value());
  EXPECT_FALSE(table.Parse("").has_value());
  EXPECT_STREQ(table.Name(static_cast<E>(N)), "unknown");
}

TEST(EnumTableTest, EveryTableRoundTripsItsNames) {
  ExpectRoundTrip(valid::kArmNames);
  ExpectRoundTrip(valid::kSourceNames);
  ExpectRoundTrip(valid::kTrialVerdictNames);
  ExpectRoundTrip(valid::kFaultVerdictNames);
  ExpectRoundTrip(valid::kSessionVerdictNames);
  ExpectRoundTrip(kSimEngineNames);
  ExpectRoundTrip(gen::kFamilyNames);
  ExpectRoundTrip(gen::kPatternNames);
  ExpectRoundTrip(kBenchmarkNames);
  ExpectRoundTrip(obs::kTraceClockNames);
  ExpectRoundTrip(serve::sched::kDisciplineNames);
  ExpectRoundTrip(serve::load::kArrivalKindNames);
  ExpectRoundTrip(serve::load::kVerdictNames);
  ExpectRoundTrip(serve::kStatusNames);
  ExpectRoundTrip(serve::kErrorCodeNames);
  ExpectRoundTrip(serve::kCacheOutcomeNames);
  ExpectRoundTrip(serve::kSessionOpNames);
  ExpectRoundTrip(serve::kCyclePolicyNames);
  ExpectRoundTrip(serve::kDirectionNames);
  ExpectRoundTrip(serve::kRemovalEngineNames);
  ExpectRoundTrip(serve::kDuplicationNames);
  ExpectRoundTrip(serve::kFaultKindNames);
}

TEST(EnumTableTest, AllFollowsTableOrder) {
  // kFullScan is declared second but is the differential reference.
  EXPECT_EQ(kSimEngineNames.All().front(), SimEngine::kFullScan);
  EXPECT_STREQ(kSimEngineNames.Name(SimEngine::kWorklist), "worklist");
}

TEST(RowSchemaTest, OutcomeDifferenceNamesTheFirstDifferingField) {
  valid::TrialRow a;
  a.cycles = 12;
  valid::TrialRow b = a;
  EXPECT_EQ(schema::FirstOutcomeDifference(a, b), "");
  b.cycles = 13;
  b.escalations = 2;
  EXPECT_EQ(schema::FirstOutcomeDifference(a, b), "cycles (12 vs 13)");

  // Bools and the verdict read as integers.
  b = a;
  b.certified_free = true;
  EXPECT_EQ(schema::FirstOutcomeDifference(a, b), "certified_free (0 vs 1)");
  b = a;
  b.verdict = valid::TrialVerdict::kPositiveDelivered;
  EXPECT_EQ(schema::FirstOutcomeDifference(a, b), "verdict (3 vs 0)");

  // Identity, text, shrink and wall-clock fields are not outcomes: the
  // secondary engine's row differs in them by construction.
  b = a;
  b.trial_index = 9;
  b.design = "other";
  b.mismatch = "text";
  b.shrink_steps = 4;
  b.run_ms = 5.0;
  EXPECT_EQ(schema::FirstOutcomeDifference(a, b), "");
}

}  // namespace
}  // namespace nocdr
