#include "sim/traffic_gen.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "util/error.h"

namespace nocdr {

TrafficSchedule::TrafficSchedule(const NocDesign& design,
                                 const TrafficConfig& config,
                                 std::uint64_t horizon_cycles) {
  const std::size_t flows = design.traffic.FlowCount();
  ready_.resize(flows);
  Rng rng(config.seed);
  std::array<std::uint64_t, 1024> block{};
  for (std::size_t i = 0; i < flows; ++i) {
    Rng flow_rng = rng.Fork();
    auto& schedule = ready_[i];
    if (config.mode == InjectionMode::kFixedCount) {
      schedule.assign(config.packets_per_flow, 0);
    } else {
      const Flow& flow = design.traffic.FlowAt(FlowId(i));
      const double rate = config.reference_injection_rate *
                          (flow.bandwidth_mbps / config.reference_bandwidth);
      if (rate >= 1.0) {
        // NextBool(rate) succeeds without a draw.
        schedule.resize(horizon_cycles);
        std::iota(schedule.begin(), schedule.end(), std::uint64_t{0});
      } else if (rate > 0.0) {
        // One NextBool(rate) per cycle, taken in integers and without a
        // branch: NextDouble() is k * 2^-53 for k = Next() >> 11, so
        // NextDouble() < rate exactly when k < ceil(rate * 2^53).
        const auto threshold =
            static_cast<std::uint64_t>(std::ceil(rate * 0x1.0p53));
        for (std::uint64_t base = 0; base < horizon_cycles;
             base += block.size()) {
          const std::uint64_t end =
              std::min<std::uint64_t>(horizon_cycles, base + block.size());
          std::size_t hits = 0;
          for (std::uint64_t cycle = base; cycle < end; ++cycle) {
            block[hits] = cycle;
            hits += (flow_rng.Next() >> 11) < threshold ? 1 : 0;
          }
          schedule.insert(schedule.end(), block.begin(),
                          block.begin() + static_cast<std::ptrdiff_t>(hits));
        }
      }
    }
    total_ += schedule.size();
  }
}

std::span<const std::uint64_t> TrafficSchedule::ReadyCycles(FlowId f) const {
  Require(f.valid() && f.value() < ready_.size(),
          "ReadyCycles: unknown flow");
  return ready_[f.value()];
}

}  // namespace nocdr
