// The benchmark's own arithmetic and instruments: percentile selection,
// open-loop timing, outcome accounting, spans recorded around calls into
// the library, and the result record every workload fills.
//
// Everything here is measured from outside the library: the spans wrap
// calls to its public functions, and nothing under src/ is instrumented
// for the benchmark.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

inline double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

// ------------------------------------------------------------ percentiles

/// Percentiles are given in per-mille (500 = median, 990 = p99) so the
/// rank arithmetic stays in integers.
///
/// Nearest-rank percentile: the sample at 1-based rank ceil(q * n).
std::size_t PercentileRank(std::size_t n, unsigned per_mille);

/// Samples strictly above the nearest-rank position: n - ceil(q * n).
std::size_t SamplesBeyond(std::size_t n, unsigned per_mille);

/// A tail percentile is reported only where at least this many samples
/// lie beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// True when \p n samples support the percentile: the median always
/// (given any sample), a tail only with kMinSamplesBeyond samples beyond.
bool PercentileSupported(std::size_t n, unsigned per_mille);

/// The highest of {p50, p90, p99, p99.9} that \p n samples support;
/// 0 when there are no samples.
unsigned HighestSupportedPercentile(std::size_t n);

/// Nearest-rank percentile of \p samples (sorted in place). Requires a
/// non-empty vector.
double Percentile(std::vector<double>& samples, unsigned per_mille);

/// Median of \p values (copied); 0 for an empty vector.
double Median(std::vector<double> values);

// ------------------------------------------------------- operation outcome

enum class Outcome {
  kOk,       // answered and every correctness check passed
  kRefused,  // overloaded / session_limit: the service said no
  kError,    // an error response or an exception
  kWrong,    // answered, but a correctness check failed
};

/// Every outcome but kOk counts against failed_fraction.
inline bool CountsAsFailed(Outcome outcome) { return outcome != Outcome::kOk; }

/// Latency an operation contributes to a latency-limit check: a refused
/// or failed operation misses any limit, so it counts as infinitely late.
inline double LimitLatencyMs(Outcome outcome, double latency_ms) {
  return outcome == Outcome::kOk ? latency_ms
                                 : std::numeric_limits<double>::infinity();
}

/// Open-loop latency: from the time the request was due, not the time it
/// was sent, so a generator or client stall is charged to every request
/// it delayed.
inline double OpenLoopLatencyMs(Clock::time_point due,
                                Clock::time_point done) {
  return MsBetween(due, done);
}

/// True when the p99 of \p limit_latencies_ms (from LimitLatencyMs)
/// meets \p limit_ms. False without enough samples for a p99.
bool MeetsP99Limit(std::vector<double> limit_latencies_ms, double limit_ms);

// ------------------------------------------------------------------ spans

/// One timed call into a layer: name, interval, the span that caused it
/// (-1 for a root) and the operation it belongs to.
struct Span {
  std::string name;
  std::uint64_t op = 0;
  std::int64_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans kept in memory for the whole run and written once at exit.
/// Single-threaded: traced phases record from one thread.
class SpanRecorder {
 public:
  /// RAII span: opens on construction under the innermost open span,
  /// closes on destruction. A null recorder records nothing.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
  };

  /// Records an already finished root span (an entry-point call timed
  /// on another thread, added after the fact).
  void AddRoot(const char* name, std::uint64_t op, Clock::time_point start,
               Clock::time_point end);

  /// Self time per span name in milliseconds: each span's duration minus
  /// the part of its interval its direct children cover.
  [[nodiscard]] std::map<std::string, double> SelfMs() const;

  /// Summed duration (children included) of every span named \p name.
  [[nodiscard]] double InclusiveMs(const std::string& name) const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span; false when the file cannot be
  /// written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// ------------------------------------------------------------ host speed

/// The shared host's speed drifts by up to 2x within minutes: a fixed
/// compute loop took 25 to 50 ms per call over three minutes on a 4-vCPU
/// host, with nothing else running in the machine. So every workload runs
/// a fixed reference kernel between its operations, outside every timed
/// window, and reports its end-to-end times at the reference speed: a
/// wall time is multiplied by kReferenceKernelMs over the kernel's median
/// time in the same run (PhaseResult::SpeedScale).
///
/// Wall time of one run of the reference kernel: sorting, hashing,
/// pointer chasing and small allocations over about 1 MiB, like the
/// library's inner loops. It is benchmark code, so a change to the
/// library does not change it.
double ReferenceKernelMs();

/// The kernel's time at the reference speed: about its median on the
/// 4-vCPU host the benchmark was tuned on, so scaled times read close to
/// that host's wall times.
inline constexpr double kReferenceKernelMs = 4.0;

/// Kernel runs before each set-up repetition.
inline constexpr int kSetupSpeedSamples = 4;

/// Fewest kernel runs a phase must have taken for SpeedScale to count.
inline constexpr std::size_t kMinSpeedSamples = 20;

// ------------------------------------------------------------------ CPUs

/// Keeps the calling thread, and every thread it starts, on one CPU (the
/// last of its affinity mask) while in scope, then restores the mask.
///
/// The host gave the process between one and two CPUs' worth of time,
/// changing from minute to minute. warm_open's two clients and compute
/// pool, the only threads of any workload that run at the same time,
/// completed from 3,900 to 5,700 req/s past capacity over eight runs
/// (0.24 of the median between quartiles; 0.05 on one CPU), and a
/// closed-loop client's hand-off to the compute pool could wait for an
/// idle CPU to wake. On one CPU the threads time-share, overlapping
/// requests still overlap, and the reference kernel runs on the CPU the
/// operations run on.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ---------------------------------------------------------------- results

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 for a count or a ratio of counts).
  std::size_t samples = 0;
};

/// What one workload phase measured.
struct PhaseResult {
  /// Set-up time of each repetition, in seconds.
  std::vector<double> setup_s;
  /// Per-operation latency samples behind latency_p50_ms/latency_p90_ms.
  std::vector<double> latencies_ms;
  /// Entry-point time per operation, in operation order; the traced run
  /// compares these between its untraced and traced phases.
  std::vector<double> entry_ms;
  /// Operations completed and the time they took, for throughput_rps.
  std::uint64_t completed = 0;
  double throughput_window_s = 0.0;

  /// Reference-kernel times taken between operations.
  std::vector<double> reference_ms;
  /// Whether SpeedScale applies the kernel's times. warm_open's open loop
  /// cannot pause for the kernel, so its samples fall between the rate
  /// steps rather than between the operations, and over eight runs its
  /// latencies spread twice as much scaled as in wall time: it reports
  /// wall times and keeps its samples for the record.
  bool scale_to_reference = true;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few correctness failures, for the log.
  std::vector<std::string> errors;

  /// Workload-level figures beyond the shared end-to-end set
  /// (latency_p99_ms, sustained_rps, sim_flits_per_s, ...), and the
  /// per-layer metrics of a traced phase.
  std::map<std::string, Metric> figures;

  void Record(Outcome outcome, const std::string& what);

  /// Runs the reference kernel \p times times and keeps each time.
  void SampleHostSpeed(int times = 1);

  /// kReferenceKernelMs over the median kernel time: a wall time of this
  /// phase times this is the time at the reference speed (a rate divides
  /// by it). 1 without samples or without scale_to_reference.
  [[nodiscard]] double SpeedScale() const;
};

}  // namespace perfbench
