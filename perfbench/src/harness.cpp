#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <unordered_map>

namespace perfbench {

std::size_t PercentileRank(std::size_t n, unsigned per_mille) {
  // ceil(per_mille * n / 1000) in integers, at least rank 1.
  const std::size_t rank = (per_mille * n + 999) / 1000;
  return std::max<std::size_t>(rank, 1);
}

std::size_t SamplesBeyond(std::size_t n, unsigned per_mille) {
  return n == 0 ? 0 : n - PercentileRank(n, per_mille);
}

bool PercentileSupported(std::size_t n, unsigned per_mille) {
  if (n == 0) {
    return false;
  }
  return per_mille <= 500 || SamplesBeyond(n, per_mille) >= kMinSamplesBeyond;
}

unsigned HighestSupportedPercentile(std::size_t n) {
  unsigned best = 0;
  for (const unsigned q : {500u, 900u, 990u, 999u}) {
    if (PercentileSupported(n, q)) {
      best = q;
    }
  }
  return best;
}

double Percentile(std::vector<double>& samples, unsigned per_mille) {
  std::sort(samples.begin(), samples.end());
  return samples[PercentileRank(samples.size(), per_mille) - 1];
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Percentile(values, 500);
}

bool MeetsP99Limit(std::vector<double> limit_latencies_ms, double limit_ms) {
  if (!PercentileSupported(limit_latencies_ms.size(), 990)) {
    return false;
  }
  return Percentile(limit_latencies_ms, 990) <= limit_ms;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           std::uint64_t op)
    : recorder_(recorder) {
  if (recorder_ == nullptr) {
    return;
  }
  index_ = recorder_->spans_.size();
  Span span;
  span.name = name;
  span.op = op;
  span.parent = recorder_->open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(recorder_->open_.back());
  recorder_->spans_.push_back(std::move(span));
  recorder_->open_.push_back(index_);
  // Last, so the bookkeeping above is not charged to the span.
  recorder_->spans_[index_].start = Clock::now();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) {
    return;
  }
  recorder_->spans_[index_].end = Clock::now();
  recorder_->open_.pop_back();
}

void SpanRecorder::AddRoot(const char* name, std::uint64_t op,
                           Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, op, -1, start, end});
}

std::map<std::string, double> SpanRecorder::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = MsBetween(spans_[i].start, spans_[i].end);
  }
  // Children of one span run one after another on the recording thread,
  // so their durations never overlap and subtract directly.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          MsBetween(span.start, span.end);
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

double SpanRecorder::InclusiveMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += MsBetween(span.start, span.end);
    }
  }
  return total;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"parent\":%lld,\"op\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i, static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.op), span.name.c_str(),
                  MsBetween(origin, span.start) * 1000.0,
                  MsBetween(origin, span.end) * 1000.0);
    out << line;
  }
  return static_cast<bool>(out);
}

double ReferenceKernelMs() {
  constexpr std::size_t kItems = 1 << 14;
  constexpr std::size_t kChase = 1 << 18;
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint32_t> values(kItems);
  for (std::uint32_t& value : values) {
    value = static_cast<std::uint32_t>(next());
  }
  std::sort(values.begin(), values.end());
  std::unordered_map<std::uint32_t, std::uint32_t> map;
  for (std::size_t i = 0; i < kItems / 4; ++i) {
    map[values[(i * 7919) % kItems]] += static_cast<std::uint32_t>(i);
  }
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < kItems; ++i) {
    const auto found = map.find(values[i]);
    sink += found == map.end() ? 1 : found->second;
  }
  // A single cycle over kChase slots (Sattolo's shuffle), walked once.
  std::vector<std::uint32_t> chase(kChase);
  std::iota(chase.begin(), chase.end(), 0u);
  for (std::size_t i = kChase - 1; i > 0; --i) {
    std::swap(chase[i], chase[next() % i]);
  }
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < kChase / 4; ++i) {
    at = chase[at];
  }
  sink += at;
  // Keeps the work observable, so it is not optimized away.
  static std::atomic<std::uint64_t> observed{0};
  observed.store(sink, std::memory_order_relaxed);
  return MsSince(start);
}

void PhaseResult::Record(Outcome outcome, const std::string& what) {
  ++attempted;
  if (CountsAsFailed(outcome)) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(what);
    }
  }
}

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    return;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) {
      last = cpu;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

OneCpu::~OneCpu() {
  if (pinned_) {
    sched_setaffinity(0, sizeof(saved_), &saved_);
  }
}

void PhaseResult::SampleHostSpeed(int times) {
  for (int i = 0; i < times; ++i) {
    reference_ms.push_back(ReferenceKernelMs());
  }
}

double PhaseResult::SpeedScale() const {
  const double median = Median(reference_ms);
  return scale_to_reference && median > 0.0 ? kReferenceKernelMs / median
                                            : 1.0;
}

}  // namespace perfbench
