// FNV-1a field digesting shared by the deterministic batch engines.
//
// SweepRunner and the validation campaign both summarize their rows as
// one 64-bit digest so "byte-identical across thread counts" is a
// single comparison. Both must keep using the same primitive — a drift
// between two private copies would silently change one digest format —
// so the helpers live here.
#pragma once

#include <cstdint>
#include <string_view>

namespace nocdr {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Mixes the 8 bytes of \p value into \p h (FNV-1a).
inline void DigestField(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

/// Mixes the bytes of \p value plus its length (so "ab","c" and
/// "a","bc" digest differently).
inline void DigestField(std::uint64_t& h, std::string_view value) {
  for (const char c : value) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  DigestField(h, value.size());
}

}  // namespace nocdr
