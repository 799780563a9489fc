// nocdr_docs_check: keeps the protocol and observability docs honest
// against the code.
//
// docs/PROTOCOL.md promises that every fenced block tagged `jsonl` is
// machine-checked, and docs/OBSERVABILITY.md promises the same for
// blocks tagged `trace-jsonl`. This tool is that check: it extracts
// each line of every tagged block and validates it against the *real*
// implementation, so the documentation cannot drift from the code:
//
//   * a `jsonl` line without a "status" field is a request: it must
//     parse via serve::ParseMessageLine (the exact entry point
//     nocdr_serve uses);
//   * a `jsonl` line with a "status" field is a response: it must be
//     valid JSON, its status one of "ok" / "overloaded" / "error", any
//     non-ok line must carry an {code, message} error object whose
//     code serve::ParseErrorCode accepts, and a v2 "type" must be a
//     known message type;
//   * a `trace-jsonl` line is a trace-file header (validated by
//     obs::ParseTraceHeaderLine) or a span (obs::ParseSpanLine — the
//     same schema checker tools/nocdr_trace uses).
//
// Blocks tagged anything else (json, text, sh) are prose and skipped.
// A minimum checked-line count guards against the failure mode where a
// fence tag is renamed and the gate silently checks nothing.
//
// Two markdown tables are checked against the codec's enum tables in
// both directions — every name the codec accepts is documented, and
// every documented name is accepted: the `options` value table (header
// `| Field | Values |`; rows `cycle_policy`, `direction`, `engine`,
// `duplication`) and the error-code table (header `| Code | ... |`).
// Each must appear in at least one of the checked files.
//
//   ./nocdr_docs_check ../docs/PROTOCOL.md ../docs/OBSERVABILITY.md
//
// Exit code: 0 all examples valid, 1 any drift (each offender printed
// with its file:line), 2 usage/IO error. Registered as the docs_drift
// CTest test and run by the docs job in CI.
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/json.h"

using namespace nocdr;

namespace {

struct ExampleLine {
  std::size_t line_number = 0;
  std::string text;
  bool is_trace = false;  // from a ```trace-jsonl fence
};

/// The names one documented table lists for one enum, and where
/// ("file:line" of its first row).
struct DocumentedNames {
  std::string where;
  std::set<std::string> names;
};

/// The `backticked` spans of \p text.
std::vector<std::string> CodeSpans(const std::string& text) {
  std::vector<std::string> spans;
  std::size_t open = text.find('`');
  while (open != std::string::npos) {
    const std::size_t close = text.find('`', open + 1);
    if (close == std::string::npos) {
      break;
    }
    spans.push_back(text.substr(open + 1, close - open - 1));
    open = text.find('`', close + 1);
  }
  return spans;
}

/// The options fields whose values the `| Field | Values |` table lists.
const std::set<std::string> kOptionFields = {"cycle_policy", "direction",
                                             "engine", "duplication"};

/// Records the names one row of a checked table documents, given the
/// table's \p header line: an error-code row names one code, an options
/// row names its field and then the field's values. Rows whose first
/// cell is not a `name` (separators, prose) document nothing.
void CollectTableRow(const std::string& header, const std::string& row,
                     const std::string& where,
                     std::map<std::string, DocumentedNames>& tables) {
  const std::vector<std::string> spans = CodeSpans(row);
  if (row.rfind("| `", 0) != 0 || spans.empty()) {
    return;
  }
  std::string table;
  std::vector<std::string> names;
  if (header.rfind("| Code ", 0) == 0) {
    table = "error code";
    names = {spans[0]};
  } else if (header.rfind("| Field ", 0) == 0 &&
             header.find("| Values ") != std::string::npos &&
             kOptionFields.count(spans[0]) != 0) {
    table = "options." + spans[0];
    names.assign(spans.begin() + 1, spans.end());
  } else {
    return;
  }
  DocumentedNames& documented = tables[table];
  if (documented.where.empty()) {
    documented.where = where;
  }
  documented.names.insert(names.begin(), names.end());
}

/// Pulls every line of every ```jsonl and ```trace-jsonl fenced block
/// out of \p markdown (read from \p path), and the names of its checked
/// tables into \p tables.
std::vector<ExampleLine> ExtractExamples(
    std::istream& markdown, const std::string& path,
    std::map<std::string, DocumentedNames>& tables) {
  std::vector<ExampleLine> examples;
  std::string line;
  std::size_t line_number = 0;
  bool in_block = false;
  bool block_is_trace = false;
  std::string header;  // of the markdown table being read
  while (std::getline(markdown, line)) {
    ++line_number;
    if (line.rfind("```", 0) == 0) {
      const std::string tag = line.substr(3);
      in_block = !in_block && (tag == "jsonl" || tag == "trace-jsonl");
      block_is_trace = in_block && tag == "trace-jsonl";
      continue;
    }
    if (in_block && !line.empty()) {
      examples.push_back({line_number, line, block_is_trace});
    } else if (!in_block && line.rfind('|', 0) == 0) {
      if (header.empty()) {
        header = line;
      } else {
        CollectTableRow(header, line,
                        path + ":" + std::to_string(line_number), tables);
      }
    } else {
      header.clear();
    }
  }
  return examples;
}

/// The name set of \p table.
template <typename E, std::size_t N>
std::set<std::string> NameSet(const EnumTable<E, N>& table) {
  std::set<std::string> names;
  for (const E value : table.All()) {
    names.insert(table.Name(value));
  }
  return names;
}

/// Compares the documented tables with the codec's enum tables in both
/// directions; returns the number of drifted names and missing tables.
std::size_t CheckTables(const std::map<std::string, DocumentedNames>& tables) {
  const std::map<std::string, std::set<std::string>> codec = {
      {"error code", NameSet(serve::kErrorCodeNames)},
      {"options.cycle_policy", NameSet(serve::kCyclePolicyNames)},
      {"options.direction", NameSet(serve::kDirectionNames)},
      {"options.engine", NameSet(serve::kRemovalEngineNames)},
      {"options.duplication", NameSet(serve::kDuplicationNames)},
  };
  std::size_t failures = 0;
  for (const auto& [table, accepted] : codec) {
    const auto documented = tables.find(table);
    if (documented == tables.end()) {
      ++failures;
      std::cerr << "nocdr_docs_check: no documented " << table
                << " table\n";
      continue;
    }
    for (const std::string& name : accepted) {
      if (documented->second.names.count(name) == 0) {
        ++failures;
        std::cerr << documented->second.where << ": " << table << " \""
                  << name << "\" is accepted by the codec but not documented\n";
      }
    }
    for (const std::string& name : documented->second.names) {
      if (accepted.count(name) == 0) {
        ++failures;
        std::cerr << documented->second.where << ": documented " << table
                  << " \"" << name << "\" is not accepted by the codec\n";
      }
    }
  }
  return failures;
}

/// A documented response line: shape-checked against the protocol's
/// stable names (the request side goes through the full parser).
void CheckResponseLine(const JsonValue& json) {
  const std::string& status = json.At("status").AsString();
  const auto parsed_status = serve::kStatusNames.Parse(status);
  if (!parsed_status.has_value()) {
    throw serve::ProtocolError(serve::ErrorCode::kInvalidRequest,
                               "unknown response status \"" + status + "\"");
  }
  if (*parsed_status != serve::ServeStatus::kOk) {
    const JsonValue& error = json.At("error");
    serve::ParseErrorCode(error.At("code").AsString());
    if (error.At("message").kind() != JsonValue::Kind::kString) {
      throw serve::ProtocolError(serve::ErrorCode::kInvalidRequest,
                                 "error.message must be a string");
    }
  }
  if (const JsonValue* version = json.Find("protocol_version")) {
    const std::uint64_t v = version->AsUint();
    if (v != static_cast<std::uint64_t>(serve::kProtocolV1) &&
        v != static_cast<std::uint64_t>(serve::kProtocolV2)) {
      throw serve::ProtocolError(
          serve::ErrorCode::kUnsupportedVersion,
          "documented response claims protocol_version " + std::to_string(v));
    }
  }
  if (const JsonValue* type = json.Find("type")) {
    const std::string& name = type->AsString();
    const bool known = name == "certify" || name == "stats" ||
                       name == "metrics" ||
                       serve::kSessionOpNames.Parse(name).has_value();
    if (!known) {
      throw serve::ProtocolError(serve::ErrorCode::kUnknownType,
                                 "unknown response type \"" + name + "\"");
    }
  }
}

/// A documented trace-jsonl line: a header or a span, through the same
/// validators tools/nocdr_trace uses.
void CheckTraceLine(const std::string& text) {
  if (obs::IsTraceHeaderLine(text)) {
    obs::ParseTraceHeaderLine(text);
  } else {
    obs::ParseSpanLine(text);
  }
}

/// Checks one markdown file; returns its number of failed lines, adds
/// its checked-line counts into the totals and its checked tables into
/// \p tables.
std::size_t CheckFile(const std::string& path, std::size_t& requests,
                      std::size_t& responses, std::size_t& trace_lines,
                      std::size_t& total,
                      std::map<std::string, DocumentedNames>& tables) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "nocdr_docs_check: cannot open " << path << "\n";
    std::exit(2);
  }
  const std::vector<ExampleLine> examples = ExtractExamples(file, path, tables);
  std::size_t failures = 0;
  for (const ExampleLine& example : examples) {
    try {
      if (example.is_trace) {
        CheckTraceLine(example.text);
        ++trace_lines;
      } else {
        const JsonValue json = JsonValue::Parse(example.text);
        if (json.Find("status") != nullptr) {
          CheckResponseLine(json);
          ++responses;
        } else {
          serve::ParseMessageLine(example.text);
          ++requests;
        }
      }
    } catch (const std::exception& e) {
      ++failures;
      std::cerr << path << ":" << example.line_number
                << ": documented example does not survive the codec: "
                << e.what() << "\n";
    }
  }
  total += examples.size();
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  // A fence tag rename must not silently turn the gate into a no-op:
  // the real documents carry well over this many checked lines.
  constexpr std::size_t kMinimumExamples = 10;

  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    paths.emplace_back(argv[i]);
  }
  if (paths.empty()) {
    paths.emplace_back("docs/PROTOCOL.md");
  }

  std::size_t requests = 0;
  std::size_t responses = 0;
  std::size_t trace_lines = 0;
  std::size_t total = 0;
  std::size_t failures = 0;
  std::map<std::string, DocumentedNames> tables;
  for (const std::string& path : paths) {
    failures +=
        CheckFile(path, requests, responses, trace_lines, total, tables);
  }

  if (failures != 0) {
    std::cerr << "nocdr_docs_check: " << failures << " of " << total
              << " documented example line(s) drifted from the "
                 "implementation\n";
    return 1;
  }
  const std::size_t table_failures = CheckTables(tables);
  if (table_failures != 0) {
    std::cerr << "nocdr_docs_check: " << table_failures
              << " documented name(s) or table(s) drifted from the codec\n";
    return 1;
  }
  if (total < kMinimumExamples) {
    std::cerr << "nocdr_docs_check: only " << total
              << " example line(s) found across " << paths.size()
              << " file(s) (expected at least " << kMinimumExamples
              << ") — were the fences retagged?\n";
    return 1;
  }
  std::cout << "nocdr_docs_check: " << requests << " request, " << responses
            << " response and " << trace_lines
            << " trace example line(s) and " << tables.size()
            << " name table(s) validated across " << paths.size()
            << " file(s)\n";
  return 0;
}
