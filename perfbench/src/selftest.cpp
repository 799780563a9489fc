// Self-tests of the benchmark's own arithmetic. They run at the start of
// every benchmark run; a failure ends the run with exit 1.
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {

std::vector<std::string> RunSelfTests() {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  };

  // Percentile selection: the highest percentile with >= 10 samples
  // beyond it.
  expect(SamplesBeyond(100, 900) == 10, "100 samples leave 10 beyond p90");
  expect(PercentileSupported(100, 900), "p90 is supported at 100 samples");
  expect(!PercentileSupported(99, 900), "p90 is unsupported at 99 samples");
  expect(!PercentileSupported(999, 990), "p99 is unsupported at 999 samples");
  expect(PercentileSupported(1000, 990), "p99 is supported at 1000 samples");
  expect(HighestSupportedPercentile(0) == 0, "no samples, no percentile");
  expect(HighestSupportedPercentile(5) == 500, "5 samples give a median");
  expect(HighestSupportedPercentile(150) == 900, "150 samples give p90");
  expect(HighestSupportedPercentile(1500) == 990, "1500 samples give p99");
  expect(HighestSupportedPercentile(10000) == 999, "10000 samples give p99.9");
  {
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i) {
      samples.push_back(i);
    }
    expect(Percentile(samples, 500) == 50.0, "nearest-rank median of 1..100");
    expect(Percentile(samples, 900) == 90.0, "nearest-rank p90 of 1..100");
    expect(Percentile(samples, 990) == 99.0, "nearest-rank p99 of 1..100");
    std::vector<double> one = {7.0};
    expect(Percentile(one, 900) == 7.0, "percentile of one sample");
    expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  }

  // Open-loop latency runs from the due time: a request sent 5 ms late
  // and answered 1 ms after sending took 6 ms.
  {
    const Clock::time_point due = Clock::now();
    const Clock::time_point sent = due + std::chrono::milliseconds(5);
    const Clock::time_point done = sent + std::chrono::milliseconds(1);
    expect(std::abs(OpenLoopLatencyMs(due, done) - 6.0) < 1e-9,
           "open-loop latency is measured from the due time");
  }

  // A refused request counts as failed and as missing the limit.
  {
    expect(CountsAsFailed(Outcome::kRefused), "a refusal counts as failed");
    expect(CountsAsFailed(Outcome::kWrong), "a wrong output counts as failed");
    expect(!CountsAsFailed(Outcome::kOk), "an answer counts as completed");
    expect(std::isinf(LimitLatencyMs(Outcome::kRefused, 0.1)),
           "a refusal misses any latency limit");
    std::vector<double> fast(1000, 1.0);
    expect(MeetsP99Limit(fast, 2.0), "1000 fast answers meet a 2 ms p99");
    // Eleven refusals among 1000 put more than 1% beyond the limit.
    for (int i = 0; i < 11; ++i) {
      fast[i] = LimitLatencyMs(Outcome::kRefused, 1.0);
    }
    expect(!MeetsP99Limit(fast, 2.0), "11 refusals in 1000 miss a p99 limit");
    expect(!MeetsP99Limit(std::vector<double>(999, 1.0), 2.0),
           "a p99 limit is missed without the samples to show it");
  }

  // Self time subtracts the children's share of a span.
  {
    SpanRecorder spans;
    {
      SpanRecorder::Scope parent(&spans, "parent", 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      SpanRecorder::Scope child(&spans, "child", 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto self = spans.SelfMs();
    const double parent_total = spans.InclusiveMs("parent");
    expect(spans.spans().size() == 2 && spans.spans()[1].parent == 0,
           "a nested span records its parent");
    expect(std::abs(self.at("parent") + self.at("child") - parent_total) <
               1e-6,
           "self times of a parent and its child sum to the parent");
    expect(self.at("child") >= 2.0 && self.at("parent") >= 2.0,
           "each span keeps the time spent in it");
  }
  return failures;
}

}  // namespace perfbench
