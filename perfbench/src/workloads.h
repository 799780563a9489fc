// The four workloads. Each builds its inputs from the seed, sets up
// kSetupRepeats times (timing each), measures for the given number of
// seconds (cold_ladder: a fixed number of passes sized to them), and
// checks every output outside the timed window.
//
// A traced phase (spans != nullptr) runs the same inputs and, per
// operation, also calls each layer's public function in the order the
// program does, one span each, then reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct WorkloadArgs {
  std::uint64_t seed = 1;
  double seconds = 1.0;
  /// Directory for files a workload writes (the disk cache tier).
  std::string work_dir;
  /// Non-null in the traced phase.
  SpanRecorder* spans = nullptr;
};

/// Set-up repetitions per phase; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Compute-pool width of every CertificationService the benchmark
/// builds, pinned because ServiceConfig::threads = 0 means hardware
/// concurrency.
inline constexpr std::size_t kComputeThreads = 1;
/// Client threads of warm_open; the closed-loop workloads use one.
inline constexpr std::size_t kOpenLoopClients = 2;

PhaseResult RunColdLadder(const WorkloadArgs& args);
PhaseResult RunWarmOpen(const WorkloadArgs& args);
PhaseResult RunFaultStream(const WorkloadArgs& args);
PhaseResult RunSimSaturate(const WorkloadArgs& args);

/// Mixes \p a and \p b into a seed for a derived input stream.
std::uint64_t DeriveSeed(std::uint64_t a, std::uint64_t b);

}  // namespace perfbench
