// Dense bitset worklist for the simulator's step machinery.
//
// The worklist engines keep "channels with a non-empty buffer" and
// "flows with a ready packet" as bitsets rather than sorted id lists:
// joining or leaving the set is one bit flip, so there is no per-cycle
// merge or compaction. A cycle visits the members in the rotating
// round-robin order every engine shares — ascending ids from a pivot,
// wrapping around to the ids below it — which is exactly the order a
// sorted list split at lower_bound(pivot) gives.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nocdr {

class WorkSet {
 public:
  /// Resizes to \p n ids, all absent.
  void Reset(std::size_t n) { words_.assign((n + 63) / 64, 0); }

  /// Removes every id, keeping the size.
  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  void Insert(std::uint32_t i) { words_[i >> 6] |= Bit(i); }
  void Erase(std::uint32_t i) { words_[i >> 6] &= ~Bit(i); }

  /// Calls \p visit(id) for every id in *this and not in \p skip (a set
  /// of the same size), in ascending order starting at \p pivot and
  /// wrapping around to the ids below it. \p visit may insert or erase
  /// the id it is given; the visit works on a word at a time, so it
  /// must not change other ids.
  template <typename F>
  void VisitFrom(std::size_t pivot, const WorkSet& skip, F&& visit) const {
    const std::size_t pivot_word = pivot >> 6;
    if (pivot_word >= words_.size()) {
      return;
    }
    const std::uint64_t below = Bit(pivot) - 1;
    const std::uint64_t first = Live(skip, pivot_word);
    VisitWord(pivot_word, first & ~below, visit);
    for (std::size_t w = pivot_word + 1; w < words_.size(); ++w) {
      VisitWord(w, Live(skip, w), visit);
    }
    for (std::size_t w = 0; w < pivot_word; ++w) {
      VisitWord(w, Live(skip, w), visit);
    }
    VisitWord(pivot_word, first & below, visit);
  }

  /// Calls \p visit(id) for every id, ascending.
  template <typename F>
  void ForEach(F&& visit) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      VisitWord(w, words_[w], visit);
    }
  }

 private:
  static std::uint64_t Bit(std::size_t i) {
    return std::uint64_t{1} << (i & 63);
  }

  [[nodiscard]] std::uint64_t Live(const WorkSet& skip,
                                   std::size_t w) const {
    return words_[w] & ~skip.words_[w];
  }

  template <typename F>
  static void VisitWord(std::size_t w, std::uint64_t bits, F& visit) {
    while (bits != 0) {
      visit(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }

  std::vector<std::uint64_t> words_;
};

}  // namespace nocdr
