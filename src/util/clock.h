// Wall-clock helpers for the timing fields rows and responses carry.
#pragma once

#include <chrono>

namespace nocdr {

/// Milliseconds elapsed since \p start on the steady clock.
inline double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace nocdr
