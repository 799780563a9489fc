// JSON emission used for BENCH_*.json perf-trajectory rows, and the
// minimal parser used by certificates and campaign repro dumps.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/build_info.h"
#include "util/error.h"
#include "util/json.h"

namespace nocdr {
namespace {

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(JsonTest, DumpRendersFieldsInInsertionOrder) {
  const std::string dump = JsonObject()
                               .Set("name", "ring8")
                               .Set("vcs", std::size_t{3})
                               .Set("ok", true)
                               .Set("ms", 1.5)
                               .Dump();
  EXPECT_EQ(dump, "{\"name\":\"ring8\",\"vcs\":3,\"ok\":true,\"ms\":1.5}");
}

TEST(JsonTest, SignedAndUnsignedIntegers) {
  const std::string dump = JsonObject()
                               .Set("neg", -5)
                               .Set("big", std::uint64_t{1} << 40)
                               .Dump();
  EXPECT_EQ(dump, "{\"neg\":-5,\"big\":1099511627776}");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  const std::string dump =
      JsonObject().Set("inf", 1.0 / 0.0).Set("nan", 0.0 / 0.0).Dump();
  EXPECT_EQ(dump, "{\"inf\":null,\"nan\":null}");
}

// ------------------------------------------------------------- parsing

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null").IsNull());
  EXPECT_TRUE(JsonValue::Parse("true").AsBool());
  EXPECT_FALSE(JsonValue::Parse(" false ").AsBool());
  EXPECT_EQ(JsonValue::Parse("42").AsUint(), 42u);
  EXPECT_EQ(JsonValue::Parse("-7").AsInt(), -7);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("2.5e2").AsDouble(), 250.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"").AsString(), "hi");
}

TEST(JsonParseTest, Uint64RoundTripsExactly) {
  // Full-range 64-bit seeds must not be squeezed through a double.
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  EXPECT_EQ(JsonValue::Parse(std::to_string(big)).AsUint(), big);
  const std::uint64_t seed = 16902019798918317163ull;
  EXPECT_EQ(JsonValue::Parse(std::to_string(seed)).AsUint(), seed);
}

TEST(JsonParseTest, ParsesObjectsAndArrays) {
  const JsonValue v = JsonValue::Parse(
      "{\"a\":[1,2,3],\"b\":{\"c\":true},\"d\":\"x\",\"e\":[]}");
  ASSERT_EQ(v.kind(), JsonValue::Kind::kObject);
  ASSERT_EQ(v.At("a").Items().size(), 3u);
  EXPECT_EQ(v.At("a").Items()[2].AsUint(), 3u);
  EXPECT_TRUE(v.At("b").At("c").AsBool());
  EXPECT_EQ(v.At("d").AsString(), "x");
  EXPECT_TRUE(v.At("e").Items().empty());
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_THROW(static_cast<void>(v.At("missing")), InvalidModelError);
}

TEST(JsonParseTest, DecodesEscapes) {
  const JsonValue v =
      JsonValue::Parse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  EXPECT_EQ(v.AsString(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonParseTest, RoundTripsJsonObjectOutput) {
  const std::string dump = JsonObject()
                               .Set("name", "line \"quoted\"\n")
                               .Set("count", std::size_t{7})
                               .Set("ratio", 0.25)
                               .Set("ok", true)
                               .Dump();
  const JsonValue v = JsonValue::Parse(dump);
  EXPECT_EQ(v.At("name").AsString(), "line \"quoted\"\n");
  EXPECT_EQ(v.At("count").AsUint(), 7u);
  EXPECT_DOUBLE_EQ(v.At("ratio").AsDouble(), 0.25);
  EXPECT_TRUE(v.At("ok").AsBool());
}

TEST(JsonParseTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "nul", "\"bad\\q\"", "--3", "{1:2}"}) {
    EXPECT_THROW(static_cast<void>(JsonValue::Parse(bad)), InvalidModelError)
        << bad;
  }
}

TEST(JsonParseTest, TypeMismatchesThrow) {
  const JsonValue v = JsonValue::Parse("{\"s\":\"x\",\"n\":-1}");
  EXPECT_THROW(static_cast<void>(v.At("s").AsUint()), InvalidModelError);
  EXPECT_THROW(static_cast<void>(v.At("n").AsUint()), InvalidModelError);
  EXPECT_THROW(static_cast<void>(v.At("s").Items()), InvalidModelError);
  EXPECT_THROW(static_cast<void>(v.AsString()), InvalidModelError);
  EXPECT_EQ(v.At("n").AsInt(), -1);
}

TEST(BuildInfoTest, EffectiveCpuCountIsAffinityCappedByQuota) {
  EXPECT_GE(GetBuildInfo().effective_cpu_count, 1u);
  // cgroup v2 cpu.max: "<quota> <period>" in microseconds, or "max".
  EXPECT_EQ(CapCpusByQuota(4, "max 100000"), 4u);
  EXPECT_EQ(CapCpusByQuota(4, "100000 100000"), 1u);
  EXPECT_EQ(CapCpusByQuota(4, "150000 100000"), 2u);  // 1.5 CPUs of time
  EXPECT_EQ(CapCpusByQuota(4, "50000 100000"), 1u);
  EXPECT_EQ(CapCpusByQuota(2, "800000 100000"), 2u);  // affinity is lower
  EXPECT_EQ(CapCpusByQuota(3, ""), 3u);
  EXPECT_EQ(CapCpusByQuota(3, "garbage"), 3u);
}

TEST(BenchJsonWriterTest, WritesProvenanceHeaderThenOneRowPerLine) {
  BenchJsonWriter writer("jsontest_tmp");
  writer.AddRow(JsonObject().Set("a", std::size_t{1}));
  writer.AddRow(JsonObject().Set("b", "two"));
  ASSERT_EQ(writer.RowCount(), 2u);
  const std::string path = writer.Write();
  ASSERT_EQ(path, "BENCH_jsontest_tmp.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  // The first line is the build-provenance header row; its values are
  // build-dependent, so check shape rather than bytes.
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue header = JsonValue::Parse(line);
  EXPECT_TRUE(header.At("provenance").AsBool());
  EXPECT_FALSE(header.At("git_sha").AsString().empty());
  EXPECT_FALSE(header.At("compiler").AsString().empty());
  EXPECT_GE(header.At("effective_cpu_count").AsUint(), 1u);
  EXPECT_EQ(header.At("bench").AsString(), "jsontest_tmp");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"a\":1,\"bench\":\"jsontest_tmp\"}");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"b\":\"two\",\"bench\":\"jsontest_tmp\"}");
  EXPECT_FALSE(std::getline(in, line));
  in.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nocdr
