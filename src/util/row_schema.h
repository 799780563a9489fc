// Row schemas: a result-row type lists each field once, in a
// VisitFields member, and its digest, JSON rendering and outcome
// comparison all derive from that list:
//
//   template <typename Visitor>
//   void VisitFields(Visitor& v) const {
//     v("trial", trial_index);                 // JSON key, value
//     v("source", source, kSourceNames);       // enum rendered by name
//     v("cycles", cycles, schema::kOutcome);   // with flags
//     v("mismatch", mismatch, schema::kFailureText);
//   }
//
// Fields are visited in digest order. Integers, bools and unnamed enums
// digest as integers, strings as bytes plus length (util/digest.h),
// named enums as their name unless flagged kDigestCode. Floating-point
// fields are wall-clock timings: rendered in JSON, never digested.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/digest.h"
#include "util/enum_names.h"
#include "util/json.h"

namespace nocdr::schema {

enum FieldFlag : unsigned {
  kPlain = 0,
  /// Digested but not rendered in JSON.
  kDigestOnly = 1u << 0,
  /// Rendered in JSON only when the row failed (non-empty kFailureText
  /// field), in a trailing block the failure text leads.
  kIfFailed = 1u << 1,
  /// The row's failure text.
  kFailureText = (1u << 2) | kIfFailed,
  /// Compared by FirstOutcomeDifference.
  kOutcome = 1u << 3,
  /// A named enum digested as its integer value, not its name.
  kDigestCode = 1u << 4,
};

namespace detail {

/// Turns every VisitFields call form into fn(key, value, flags, names),
/// names being the field's enum table or nullptr.
template <typename Fn>
struct FieldVisitor {
  Fn& fn;

  template <typename T>
  void operator()(const char* key, const T& value, unsigned flags = kPlain) {
    fn(key, value, flags, nullptr);
  }
  template <typename E, std::size_t N>
  void operator()(const char* key, const E& value,
                  const EnumTable<E, N>& names, unsigned flags = kPlain) {
    fn(key, value, flags, names);
  }
};

template <typename T>
inline constexpr bool kIsString = std::is_same_v<T, std::string>;

/// Fields with an integer encoding: not strings, not timings.
template <typename T>
inline constexpr bool kHasCode = !kIsString<T> && !std::is_floating_point_v<T>;

template <typename Names>
inline constexpr bool kNamed = !std::is_null_pointer_v<Names>;

}  // namespace detail

/// Calls fn(key, value, flags, names) for every field of \p row.
template <typename Row, typename Fn>
void ForEachField(const Row& row, Fn&& fn) {
  detail::FieldVisitor<Fn> visitor{fn};
  row.VisitFields(visitor);
}

/// FNV-1a digest over the deterministic fields of \p rows, in row order.
template <typename Row>
std::uint64_t RowsDigest(const std::vector<Row>& rows) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const Row& row : rows) {
    ForEachField(row, [&h](const char*, const auto& value, unsigned flags,
                           const auto& names) {
      using T = std::decay_t<decltype(value)>;
      if constexpr (detail::kIsString<T>) {
        DigestField(h, value);
      } else if constexpr (detail::kNamed<std::decay_t<decltype(names)>>) {
        if ((flags & kDigestCode) == 0) {
          DigestField(h, names.Name(value));
        } else {
          DigestField(h, static_cast<std::uint64_t>(value));
        }
      } else if constexpr (detail::kHasCode<T>) {
        DigestField(h, static_cast<std::uint64_t>(value));
      }
    });
  }
  return h;
}

/// Renders \p row as a flat JSON object: the fields in visit order
/// except kDigestOnly ones, then — when the failure text is non-empty —
/// the failure text and the other kIfFailed fields.
template <typename Row>
JsonObject RowJson(const Row& row) {
  bool failed = false;
  ForEachField(row, [&failed](const char*, const auto& value, unsigned flags,
                              const auto&) {
    if constexpr (detail::kIsString<std::decay_t<decltype(value)>>) {
      failed = failed ||
               ((flags & kFailureText) == kFailureText && !value.empty());
    }
  });
  JsonObject json;
  const auto render = [&](unsigned block) {
    ForEachField(row, [&](const char* key, const auto& value, unsigned flags,
                          const auto& names) {
      if ((flags & kDigestOnly) != 0 || (flags & kFailureText) != block) {
        return;
      }
      if constexpr (detail::kNamed<std::decay_t<decltype(names)>>) {
        json.Set(key, names.Name(value));
      } else if constexpr (std::is_enum_v<std::decay_t<decltype(value)>>) {
        json.Set(key, static_cast<std::uint64_t>(value));
      } else {
        json.Set(key, value);
      }
    });
  };
  render(kPlain);
  if (failed) {
    render(kFailureText);
    render(kIfFailed);
  }
  return json;
}

/// The first kOutcome field on which \p a and \p b differ, as
/// "key (a vs b)" with integer values; empty when they agree.
template <typename Row>
std::string FirstOutcomeDifference(const Row& a, const Row& b) {
  const auto outcomes = [](const Row& row) {
    std::vector<std::pair<const char*, std::uint64_t>> fields;
    ForEachField(row, [&fields](const char* key, const auto& value,
                                unsigned flags, const auto&) {
      if constexpr (detail::kHasCode<std::decay_t<decltype(value)>>) {
        if ((flags & kOutcome) != 0) {
          fields.emplace_back(key, static_cast<std::uint64_t>(value));
        }
      }
    });
    return fields;
  };
  const auto lhs = outcomes(a);
  const auto rhs = outcomes(b);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i].second != rhs[i].second) {
      return std::string(lhs[i].first) + " (" +
             std::to_string(lhs[i].second) + " vs " +
             std::to_string(rhs[i].second) + ")";
    }
  }
  return {};
}

}  // namespace nocdr::schema
