// Minimal JSON emission and parsing.
//
// Emission: every experiment harness appends flat rows to a
// BENCH_<name>.json file (JSON Lines: one object per line) so the perf
// trajectory of the repo can be tracked across PRs by dumb tooling — no
// nesting. Only the value shapes the benches need are supported:
// strings, bools, integers and doubles.
//
// Parsing: JsonValue is a small recursive-descent reader for the
// documents this library itself writes — deadlock certificates and
// validation-campaign repro dumps (src/valid/). Numbers keep their
// source token so full-range 64-bit seeds round-trip exactly instead of
// being squeezed through a double.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace nocdr {

/// Escapes \p raw for use inside a JSON string literal (quotes excluded).
std::string JsonEscape(const std::string& raw);

/// Renders \p items, each an already-rendered JSON value, as an array.
std::string JsonArray(const std::vector<std::string>& items);

/// One flat JSON object; keys keep insertion order.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& value);
  JsonObject& Set(const std::string& key, const char* value);
  JsonObject& Set(const std::string& key, bool value);
  JsonObject& Set(const std::string& key, double value);
  JsonObject& Set(const std::string& key, std::uint64_t value);
  JsonObject& Set(const std::string& key, std::int64_t value);
  /// Catch-all for the zoo of integer types (std::size_t, int, ...).
  template <typename Int>
    requires std::is_integral_v<Int>
  JsonObject& Set(const std::string& key, Int value) {
    if constexpr (std::is_signed_v<Int>) {
      return Set(key, static_cast<std::int64_t>(value));
    } else {
      return Set(key, static_cast<std::uint64_t>(value));
    }
  }

  /// Splices \p json_fragment in verbatim as the value of \p key — the
  /// one escape hatch from the flat-rows-only rule, for embedding a
  /// document this library itself rendered (e.g. a certificate object
  /// inside a serve response). The caller owns the fragment's validity.
  JsonObject& SetRaw(const std::string& key, const std::string& json_fragment);

  /// Renders {"k":v,...}.
  [[nodiscard]] std::string Dump() const;

 private:
  /// Pre-rendered key/value fragments.
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// A parsed JSON value.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (surrounding whitespace allowed). Throws
  /// InvalidModelError with an offset-annotated message on malformed
  /// input or trailing garbage.
  static JsonValue Parse(const std::string& text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool IsNull() const { return kind_ == Kind::kNull; }

  /// Scalar accessors; each throws InvalidModelError when the value has
  /// the wrong kind (or, for the integer readers, does not fit).
  [[nodiscard]] bool AsBool() const;
  [[nodiscard]] double AsDouble() const;
  [[nodiscard]] std::uint64_t AsUint() const;
  [[nodiscard]] std::int64_t AsInt() const;
  [[nodiscard]] const std::string& AsString() const;

  /// Array elements; throws unless kind() == kArray.
  [[nodiscard]] const std::vector<JsonValue>& Items() const;

  /// Object member lookup: Find returns nullptr when absent, At throws.
  /// Both throw unless kind() == kObject.
  [[nodiscard]] const JsonValue* Find(const std::string& key) const;
  [[nodiscard]] const JsonValue& At(const std::string& key) const;

  /// Object members in source order; throws unless kind() == kObject.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  Members() const;

 private:
  class Parser;

  Kind kind_ = Kind::kNull;
  /// Decoded string for kString, source token for kNumber.
  std::string scalar_;
  bool bool_ = false;
  std::vector<JsonValue> items_;                          // kArray
  std::vector<std::pair<std::string, JsonValue>> members_;  // kObject
};

/// Accumulates rows for one bench and writes them as BENCH_<name>.json
/// (JSON Lines) in the current working directory.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name);

  void AddRow(JsonObject row);

  [[nodiscard]] std::size_t RowCount() const { return rows_.size(); }

  /// Writes the file; returns its path, or an empty string on I/O error.
  std::string Write() const;

 private:
  std::string bench_name_;
  std::vector<std::string> rows_;  // pre-rendered lines
};

}  // namespace nocdr
