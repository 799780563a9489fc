#include "util/rng.h"

namespace nocdr {

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias; the loop terminates quickly
  // because the acceptance region covers at least half the range.
  const std::uint64_t limit = bound * (~0ULL / bound);
  std::uint64_t v = Next();
  while (v >= limit) {
    v = Next();
  }
  return v % bound;
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace nocdr
