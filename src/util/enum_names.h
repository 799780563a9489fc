// Table-driven enum names: an enum with stable names declares one
// table, and its Name / Parse / All functions derive from it.
//
//   inline constexpr auto kColorNames = MakeEnumTable<Color>({
//       {Color::kRed, "red"},
//       {Color::kGreen, "green"},
//   });
//
// Table order is the All() order, which may differ from declaration
// order. Name() indexes a by-value array. MakeEnumTable is consteval:
// a table that misses an enumerator, repeats one or holds a value
// outside 0..N-1 does not compile — the guarantee -Wswitch gave the
// hand-written switches.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

namespace nocdr {

template <typename E>
struct EnumName {
  E value{};
  const char* name = nullptr;
};

namespace enum_detail {

constexpr bool IsIdentifierChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// True iff \p V is a declared enumerator: GCC and clang print a
/// declared enumerator template argument by name ("V = ns::E::kRed")
/// and any other value as a cast ("V = (ns::E)3"), so the trailing
/// identifier of the signature starts with a digit exactly when V has
/// no enumerator.
template <auto V>
constexpr bool IsEnumerator() {
  const std::string_view signature = __PRETTY_FUNCTION__;
  std::size_t end = signature.size();
  while (end > 0 && !IsIdentifierChar(signature[end - 1])) {
    --end;
  }
  std::size_t begin = end;
  while (begin > 0 && IsIdentifierChar(signature[begin - 1])) {
    --begin;
  }
  return begin < end && !(signature[begin] >= '0' && signature[begin] <= '9');
}

}  // namespace enum_detail

template <typename E, std::size_t N>
class EnumTable {
 public:
  consteval explicit EnumTable(const EnumName<E> (&entries)[N]) {
    std::array<bool, N> seen{};
    for (std::size_t i = 0; i < N; ++i) {
      const auto index = static_cast<std::size_t>(entries[i].value);
      if (index >= N || seen[index]) {
        throw "enum table: duplicate value or value outside 0..N-1";
      }
      seen[index] = true;
      entries_[i] = entries[i];
      names_[index] = entries[i].name;
    }
    if (enum_detail::IsEnumerator<static_cast<E>(N)>()) {
      throw "enum table: an enumerator has no name";
    }
  }

  /// The name of \p value; "unknown" for a value no enumerator has.
  [[nodiscard]] constexpr const char* Name(E value) const {
    const auto index = static_cast<std::size_t>(value);
    return index < N ? names_[index] : "unknown";
  }

  /// Inverse of Name; nullopt for a name no entry carries.
  [[nodiscard]] constexpr std::optional<E> Parse(std::string_view name) const {
    for (const EnumName<E>& entry : entries_) {
      if (name == entry.name) {
        return entry.value;
      }
    }
    return std::nullopt;
  }

  /// Every value, in table order.
  [[nodiscard]] std::vector<E> All() const {
    std::vector<E> values;
    for (const EnumName<E>& entry : entries_) {
      values.push_back(entry.value);
    }
    return values;
  }

 private:
  std::array<EnumName<E>, N> entries_{};
  std::array<const char*, N> names_{};
};

/// The checked table of \p entries: MakeEnumTable<Color>({...}).
template <typename E, std::size_t N>
consteval EnumTable<E, N> MakeEnumTable(const EnumName<E> (&entries)[N]) {
  return EnumTable<E, N>(entries);
}

}  // namespace nocdr
