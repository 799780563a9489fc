// Packet workload generation for the wormhole simulator.
//
// Two modes:
//   * kFixedCount — every flow injects a fixed number of packets as fast
//     as flow control allows; the aggressive mode used to provoke
//     deadlocks on cyclic-CDG designs;
//   * kBernoulli  — per-cycle injection probability scaled from the
//     flow's bandwidth demand; the steady-state mode for latency and
//     throughput measurements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "noc/design.h"
#include "util/rng.h"

namespace nocdr {

enum class InjectionMode {
  kFixedCount,
  kBernoulli,
};

struct TrafficConfig {
  InjectionMode mode = InjectionMode::kFixedCount;
  /// Packets per flow in kFixedCount mode.
  std::uint32_t packets_per_flow = 8;
  /// Flits per packet (head + body + tail).
  std::uint16_t packet_length = 5;
  /// Bernoulli mode: injection probability per cycle for a flow with
  /// bandwidth `reference_bandwidth`; other flows scale linearly.
  double reference_injection_rate = 0.02;
  double reference_bandwidth = 100.0;
  std::uint64_t seed = 1;
};

/// Per-flow packet schedule: for each flow, the cycle at which each
/// packet becomes ready for injection (non-decreasing).
class TrafficSchedule {
 public:
  TrafficSchedule(const NocDesign& design, const TrafficConfig& config,
                  std::uint64_t horizon_cycles);

  /// The cycle at which each packet of flow \p f becomes ready, in
  /// packet order; its size is the number of packets the flow injects.
  [[nodiscard]] std::span<const std::uint64_t> ReadyCycles(FlowId f) const;

  [[nodiscard]] std::uint64_t TotalPackets() const { return total_; }

  /// Number of flows the schedule was built for.
  [[nodiscard]] std::size_t FlowCount() const { return ready_.size(); }

 private:
  std::vector<std::vector<std::uint64_t>> ready_;  // per flow
  std::uint64_t total_ = 0;
};

}  // namespace nocdr
