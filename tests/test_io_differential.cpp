// Differential tests of the design text codec against the std::iostream
// codec it replaced, kept here as the oracle.
//
// The oracle reader accepts two inputs the string reader rejects on
// purpose: a negative VC count ("-1" wrapped to SIZE_MAX and allocated
// channels until memory ran out) and a hop VC beyond uint32_t (wrapped
// silently onto a real channel). The oracle is never run on the first;
// both are checked against the fixed error messages instead. On every
// other input the two readers must agree on accept/reject, the error
// type and message, and on the DesignText of the accepted design.
#include "noc/io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "test_helpers.h"
#include "util/canonical.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"
#include "valid/campaign.h"

namespace nocdr {
namespace {

// ---------------------------------------------------------------- oracle
// The iostream codec as it stood before the string codec replaced it.

void OracleWriteDesign(std::ostream& os, const NocDesign& design) {
  os << "noc " << (design.name.empty() ? "unnamed" : design.name) << "\n";
  const TopologyGraph& topo = design.topology;
  for (std::size_t s = 0; s < topo.SwitchCount(); ++s) {
    os << "switch " << topo.SwitchName(SwitchId(s)) << "\n";
  }
  for (std::size_t l = 0; l < topo.LinkCount(); ++l) {
    const Link& link = topo.LinkAt(LinkId(l));
    os << "link " << topo.SwitchName(link.src) << " "
       << topo.SwitchName(link.dst);
    const std::size_t vcs = topo.VcCount(LinkId(l));
    if (vcs != 1) {
      os << " " << vcs;
    }
    os << "\n";
  }
  const CommunicationGraph& traffic = design.traffic;
  for (std::size_t c = 0; c < traffic.CoreCount(); ++c) {
    os << "core " << traffic.CoreName(CoreId(c)) << " "
       << topo.SwitchName(design.SwitchOf(CoreId(c))) << "\n";
  }
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    const Flow& flow = traffic.FlowAt(FlowId(f));
    os << "flow " << traffic.CoreName(flow.src) << " "
       << traffic.CoreName(flow.dst) << " " << flow.bandwidth_mbps << "\n";
  }
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    os << "route " << f;
    for (ChannelId c : design.routes.RouteOf(FlowId(f))) {
      const Channel& ch = topo.ChannelAt(c);
      os << " " << ch.link.value() << ":" << ch.vc;
    }
    os << "\n";
  }
}

[[noreturn]] void OracleFail(std::size_t line, const std::string& message) {
  throw DesignParseError("line " + std::to_string(line) + ": " + message);
}

NocDesign OracleReadDesign(std::istream& is) {
  NocDesign design;
  std::map<std::string, SwitchId> switch_by_name;
  std::map<std::string, CoreId> core_by_name;
  std::size_t routes_seen = 0;

  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(is, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) {
      raw.erase(hash);
    }
    std::istringstream line(raw);
    std::string keyword;
    if (!(line >> keyword)) {
      continue;  // blank or comment-only
    }
    if (keyword == "noc") {
      if (!(line >> design.name)) {
        OracleFail(line_no, "noc: missing name");
      }
    } else if (keyword == "switch") {
      std::string name;
      if (!(line >> name)) {
        OracleFail(line_no, "switch: missing name");
      }
      if (switch_by_name.contains(name)) {
        OracleFail(line_no, "switch: duplicate name '" + name + "'");
      }
      switch_by_name.emplace(name, design.topology.AddSwitch(name));
    } else if (keyword == "link") {
      std::string src, dst;
      if (!(line >> src >> dst)) {
        OracleFail(line_no, "link: expected two switch names");
      }
      const auto si = switch_by_name.find(src);
      const auto di = switch_by_name.find(dst);
      if (si == switch_by_name.end() || di == switch_by_name.end()) {
        OracleFail(line_no, "link: unknown switch");
      }
      const LinkId l = design.topology.AddLink(si->second, di->second);
      std::size_t vcs = 1;
      if (line >> vcs) {
        if (vcs < 1) {
          OracleFail(line_no, "link: vc count must be >= 1");
        }
        for (std::size_t v = 1; v < vcs; ++v) {
          design.topology.AddVirtualChannel(l);
        }
      }
    } else if (keyword == "core") {
      std::string name, sw;
      if (!(line >> name >> sw)) {
        OracleFail(line_no, "core: expected name and switch");
      }
      const auto si = switch_by_name.find(sw);
      if (si == switch_by_name.end()) {
        OracleFail(line_no, "core: unknown switch '" + sw + "'");
      }
      if (core_by_name.contains(name)) {
        OracleFail(line_no, "core: duplicate name '" + name + "'");
      }
      core_by_name.emplace(name, design.traffic.AddCore(name));
      design.attachment.push_back(si->second);
    } else if (keyword == "flow") {
      std::string src, dst;
      double bandwidth = 0.0;
      if (!(line >> src >> dst >> bandwidth)) {
        OracleFail(line_no, "flow: expected two cores and a bandwidth");
      }
      const auto si = core_by_name.find(src);
      const auto di = core_by_name.find(dst);
      if (si == core_by_name.end() || di == core_by_name.end()) {
        OracleFail(line_no, "flow: unknown core");
      }
      design.traffic.AddFlow(si->second, di->second, bandwidth);
      design.routes.Resize(design.traffic.FlowCount());
    } else if (keyword == "route") {
      std::size_t flow_index = 0;
      if (!(line >> flow_index) ||
          flow_index >= design.traffic.FlowCount()) {
        OracleFail(line_no, "route: bad flow index");
      }
      Route route;
      std::string hop;
      while (line >> hop) {
        const auto colon = hop.find(':');
        if (colon == std::string::npos) {
          OracleFail(line_no, "route: hop must be <link>:<vc>");
        }
        std::size_t link_index = 0, vc = 0;
        try {
          link_index = std::stoul(hop.substr(0, colon));
          vc = std::stoul(hop.substr(colon + 1));
        } catch (const std::exception&) {
          OracleFail(line_no, "route: malformed hop '" + hop + "'");
        }
        if (link_index >= design.topology.LinkCount()) {
          OracleFail(line_no,
                     "route: unknown link " + std::to_string(link_index));
        }
        const auto channel = design.topology.FindChannel(
            LinkId(link_index), static_cast<std::uint32_t>(vc));
        if (!channel) {
          OracleFail(line_no, "route: link " + std::to_string(link_index) +
                                  " has no vc " + std::to_string(vc));
        }
        route.push_back(*channel);
      }
      design.routes.SetRoute(FlowId(flow_index), std::move(route));
      ++routes_seen;
    } else {
      OracleFail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (routes_seen != design.traffic.FlowCount()) {
    throw DesignParseError("missing route lines: " +
                           std::to_string(routes_seen) + " of " +
                           std::to_string(design.traffic.FlowCount()));
  }
  design.Validate();
  return design;
}

std::string OracleText(const NocDesign& design) {
  std::ostringstream out;
  OracleWriteDesign(out, design);
  return out.str();
}

// --------------------------------------------------------------- outcome

/// What one reader made of one input: the DesignText of the accepted
/// design, or the exception type and message.
struct Outcome {
  std::string kind;  // "ok", "parse", "model" or "other"
  std::string detail;
  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << o.kind << ": " << o.detail;
}

template <typename Read>
Outcome Run(Read read) {
  try {
    return {"ok", DesignText(read())};
  } catch (const DesignParseError& e) {
    return {"parse", e.what()};
  } catch (const InvalidModelError& e) {
    return {"model", e.what()};
  } catch (const std::exception& e) {
    return {"other", e.what()};
  }
}

Outcome RunNew(const std::string& text) {
  return Run([&] { return ReadDesign(text); });
}

Outcome RunOracle(const std::string& text) {
  return Run([&] {
    std::istringstream in(text);
    return OracleReadDesign(in);
  });
}

// --------------------------------------------------- the two fixed inputs

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

/// Whitespace tokens of one line (comment stripped), with their offsets.
std::vector<std::pair<std::size_t, std::string>> Tokens(
    const std::string& line) {
  std::vector<std::pair<std::size_t, std::string>> tokens;
  const std::size_t end = std::min(line.find('#'), line.size());
  std::size_t i = 0;
  while (i < end) {
    while (i < end && IsSpace(line[i])) {
      ++i;
    }
    const std::size_t start = i;
    while (i < end && !IsSpace(line[i])) {
      ++i;
    }
    if (i > start) {
      tokens.emplace_back(start, line.substr(start, i - start));
    }
  }
  return tokens;
}

/// std::stoul's reading of a hop field, nullopt where stoul throws.
std::optional<unsigned long> Stoul(const std::string& field) {
  try {
    return std::stoul(field);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool DigitAt(const std::string& s, std::size_t i) {
  return i < s.size() && s[i] >= '0' && s[i] <= '9';
}

/// An input the two readers treat differently on purpose: what the
/// string reader reports at its first such token, and the same input
/// with every such token neutralized.
struct Hazard {
  std::string message;
  std::string sanitized;
};

/// Finds negative link VC counts and hop VCs beyond uint32_t, the way
/// the string reader tokenizes them. Also reports (via \p too_large)
/// link counts too big to materialize in a test.
std::optional<Hazard> FindHazards(const std::string& text, bool& too_large) {
  std::optional<Hazard> first;
  std::vector<std::string> lines = SplitLines(text);
  too_large = false;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    std::string& line = lines[n];
    const auto tokens = Tokens(line);
    std::optional<std::string> message;
    if (tokens.size() >= 4 && tokens[0].second == "link") {
      const std::string& count = tokens[3].second;
      if (count[0] == '-' && DigitAt(count, 1)) {
        message = "link: vc count must be >= 1";
        line.replace(tokens[3].first, count.size(), "1");
      } else if (DigitAt(count, count[0] == '+' ? 1 : 0)) {
        errno = 0;
        const unsigned long long v = std::strtoull(count.c_str(), nullptr, 10);
        too_large = too_large || (errno == 0 && v > 100000);
      }
    } else if (tokens.size() >= 2 && tokens[0].second == "route") {
      // The flow index takes the [sign]digits prefix of the second
      // token; what is left of it is the first hop.
      const std::string& index = tokens[1].second;
      const std::size_t sign = index[0] == '+' || index[0] == '-' ? 1 : 0;
      std::size_t end = sign;
      while (DigitAt(index, end)) {
        ++end;
      }
      if (end == sign) {
        continue;  // bad flow index: no hop is read
      }
      std::vector<std::pair<std::size_t, std::string>> hops;
      if (end < index.size()) {
        hops.emplace_back(tokens[1].first + end, index.substr(end));
      }
      hops.insert(hops.end(), tokens.begin() + 2, tokens.end());
      // Back to front, so offsets stay valid and the first hazard's
      // message is the one kept.
      for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
        const auto& [offset, hop] = *it;
        const std::size_t colon = hop.find(':');
        if (colon == std::string::npos) {
          continue;
        }
        const auto vc = Stoul(hop.substr(colon + 1));
        if (Stoul(hop.substr(0, colon)) && vc && *vc > 0xffffffffull) {
          message = "route: malformed hop '" + hop + "'";
          line.replace(offset + colon + 1, hop.size() - colon - 1, "0");
        }
      }
    }
    if (message && !first) {
      first = Hazard{"line " + std::to_string(n + 1) + ": " + *message, ""};
    }
  }
  if (first) {
    for (const std::string& line : lines) {
      first->sanitized += line + "\n";
    }
  }
  return first;
}

/// Checks one input; returns false when it was skipped as too large.
bool CheckInput(const std::string& text) {
  bool too_large = false;
  const auto hazard = FindHazards(text, too_large);
  if (too_large) {
    return false;
  }
  if (!hazard) {
    EXPECT_EQ(RunNew(text), RunOracle(text)) << "input:\n" << text;
    return true;
  }
  // The sanitized input is an ordinary one; on the original, the string
  // reader stops at the first hazard unless an earlier error, or one on
  // the same line, stops it first (then it behaves as on the sanitized).
  EXPECT_EQ(RunNew(hazard->sanitized), RunOracle(hazard->sanitized))
      << "input:\n" << hazard->sanitized;
  const Outcome got = RunNew(text);
  const Outcome fixed{"parse", hazard->message};
  if (got != fixed) {
    EXPECT_EQ(got, RunNew(hazard->sanitized)) << "input:\n" << text;
  }
  return true;
}

// -------------------------------------------------------------- mutation

const char* const kBytes[] = {"0", "1", "9", "-", "+", ":", "#", " ", "\n",
                              "\t", "\r", ".", "e", "x", "a", "_", "\v"};
const char* const kTokens[] = {
    "-1", "0", "+5", "5abc", "nan", "inf", "1e400", "1e-400", "-0", "2",
    "x", "0:0", "1:1", ":0", "0:", "0:-1", "0:4294967296", "-1:0", "+1:0",
    "0:0:0", "5.", ".5", "1e", "1e+", "0e", "-.5", "99999999999999999999",
    "4294967295", "-18446744073709551615", "1.5e3x", "0x10", "00", "3.25.1",
    "noc", "link", "flow", "route", "core", "switch"};

std::vector<std::string> WhitespaceTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

/// One seeded byte, token or line edit of \p text.
std::string Mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  const std::size_t pos = out.empty() ? 0 : rng.NextBelow(out.size());
  // The token under `pos`: [start, end), empty when `pos` is a space.
  std::size_t start = pos;
  while (start > 0 && !IsSpace(out[start - 1])) {
    --start;
  }
  std::size_t end = pos;
  while (end < out.size() && !IsSpace(out[end])) {
    ++end;
  }
  switch (rng.NextBelow(9)) {
    case 0:  // replace a byte
      if (!out.empty()) {
        out.replace(pos, 1, kBytes[rng.NextBelow(std::size(kBytes))]);
      }
      break;
    case 1:  // insert a byte
      out.insert(pos, kBytes[rng.NextBelow(std::size(kBytes))]);
      break;
    case 2:  // delete a byte
      if (!out.empty()) {
        out.erase(pos, 1);
      }
      break;
    case 3:    // replace the token under a byte
    case 4: {  // or insert a token after it
      const std::string token = kTokens[rng.NextBelow(std::size(kTokens))];
      if (rng.NextBelow(2) == 0 && start < end) {
        out.replace(start, end - start, token);
      } else {
        out.insert(end, " " + token);
      }
      break;
    }
    case 5: {  // copy a token of the text over another
      const auto tokens = WhitespaceTokens(out);
      if (!tokens.empty() && start < end) {
        out.replace(start, end - start,
                    tokens[rng.NextBelow(tokens.size())]);
      }
      break;
    }
    default: {  // delete, duplicate or swap lines
      std::vector<std::string> lines = SplitLines(out);
      if (lines.empty()) {
        break;
      }
      const std::size_t a = rng.NextBelow(lines.size());
      const std::size_t b = rng.NextBelow(lines.size());
      switch (rng.NextBelow(3)) {
        case 0:
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a));
          break;
        case 1:
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b),
                       lines[a]);
          break;
        default:
          std::swap(lines[a], lines[b]);
          break;
      }
      out.clear();
      for (const std::string& line : lines) {
        out += line + "\n";
      }
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------- corpus

std::vector<std::string> ExampleDesignTexts() {
  std::vector<std::string> texts;
  for (const char* name : {"serve_requests.jsonl",
                           "serve_session_requests.jsonl"}) {
    std::ifstream in(std::string(NOCDR_SOURCE_DIR) + "/examples/" + name);
    EXPECT_TRUE(in) << name;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      const JsonValue request = JsonValue::Parse(line);
      if (const JsonValue* design = request.Find("design")) {
        texts.push_back(design->AsString());
      }
    }
  }
  return texts;
}

/// Small designs of every source, untreated and treated (extra VCs).
std::vector<std::string> CorpusTexts() {
  std::vector<std::string> texts = ExampleDesignTexts();
  EXPECT_FALSE(texts.empty());
  std::vector<NocDesign> designs;
  designs.push_back(testing::MakePaperExample().design);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    designs.push_back(testing::MakeRandomDesign(seed, 5, 8, 10));
  }
  for (const valid::DesignSource source : valid::AllSources()) {
    valid::DesignEnvelope envelope;
    envelope.min_cores = 6;
    envelope.max_cores = 10;
    designs.push_back(valid::GenerateTrialDesign(source, 3, envelope));
  }
  gen::GeneratorSpec ring;
  ring.family = gen::TopologyFamily::kRing;
  ring.ring_nodes = 5;
  designs.push_back(gen::GenerateStandardDesign(ring));
  const std::size_t untreated = designs.size();
  for (std::size_t i = 0; i < untreated; ++i) {
    NocDesign treated = designs[i];
    RemoveDeadlocks(treated);
    designs.push_back(std::move(treated));
  }
  for (const NocDesign& design : designs) {
    texts.push_back(DesignText(design));
  }
  return texts;
}

// ----------------------------------------------------------------- tests

TEST(IoDifferentialTest, CorpusParsesIdentically) {
  for (const std::string& text : CorpusTexts()) {
    EXPECT_TRUE(CheckInput(text));
    EXPECT_EQ(RunNew(text).kind, "ok") << text;
  }
}

TEST(IoDifferentialTest, SeededMutationsParseIdentically) {
  const std::vector<std::string> corpus = CorpusTexts();
  Rng rng(20240613);
  std::size_t checked = 0, skipped = 0, accepted = 0;
  for (int trial = 0; trial < 8000; ++trial) {
    std::string text = corpus[rng.NextBelow(corpus.size())];
    const std::size_t edits = 1 + rng.NextBelow(2);
    for (std::size_t e = 0; e < edits; ++e) {
      text = Mutate(text, rng);
    }
    if (!CheckInput(text)) {
      ++skipped;
      continue;
    }
    ++checked;
    accepted += RunNew(text).kind == "ok" ? 1 : 0;
  }
  EXPECT_LT(skipped, 30u);
  // Both sides of the comparison must be exercised.
  EXPECT_GT(accepted, checked / 20);
  EXPECT_LT(accepted, checked * 9 / 10);
}

/// A minimal valid design whose flow line is `flow x y <bandwidth>`.
std::string FlowDesign(const std::string& bandwidth) {
  return "noc t\nswitch A\nswitch B\nlink A B\ncore x A\ncore y B\n"
         "flow x y " +
         bandwidth + "\nroute 0 0:0\n";
}

TEST(IoDifferentialTest, StreamQuirksAreKept) {
  const std::string base =
      "noc t extra\nswitch A extra\nswitch B\nlink A B 2 extra\n"
      "link B A x\ncore x A extra\ncore y B\nflow x y 5 extra\n"
      "route 0 0:1\n";
  // Trailing tokens are ignored; `link B A x` has one VC.
  const NocDesign d = ReadDesign(base);
  EXPECT_EQ(d.name, "t");
  EXPECT_EQ(d.topology.VcCount(LinkId(0u)), 2u);
  EXPECT_EQ(d.topology.VcCount(LinkId(1u)), 1u);
  EXPECT_EQ(RunNew(base), RunOracle(base));

  for (const auto& [bandwidth, value] :
       std::vector<std::pair<std::string, double>>{{"+5", 5.0},
                                                   {"5abc", 5.0},
                                                   {"5.", 5.0},
                                                   {".5", 0.5},
                                                   {"1.5e3x", 1500.0},
                                                   {"1e-400", 0.0},
                                                   {"-0", -0.0},
                                                   {"0x10", 0.0},
                                                   {"3.25.1", 3.25}}) {
    const std::string text = FlowDesign(bandwidth);
    EXPECT_EQ(ReadDesign(text).traffic.FlowAt(FlowId(0u)).bandwidth_mbps,
              value)
        << bandwidth;
    EXPECT_EQ(RunNew(text), RunOracle(text)) << bandwidth;
  }
  // from_chars alone would accept "nan" and "inf"; the stream did not.
  for (const char* bandwidth :
       {"nan", "inf", "-inf", "NAN", "1e400", "-1e400", "1e", "1e+", "0e",
        ".", "-", "+", "e5", "x"}) {
    const std::string text = FlowDesign(bandwidth);
    const Outcome got = RunNew(text);
    EXPECT_EQ(got, (Outcome{"parse",
                            "line 7: flow: expected two cores and a "
                            "bandwidth"}))
        << bandwidth;
    EXPECT_EQ(got, RunOracle(text)) << bandwidth;
  }
  // A negative bandwidth parses and is refused by the model.
  EXPECT_EQ(RunNew(FlowDesign("-5")).kind, "model");
  EXPECT_EQ(RunNew(FlowDesign("-5")), RunOracle(FlowDesign("-5")));

  // Integers keep the stream's sign handling: "-0" is flow 0, "+1" a
  // VC count, and a count that overflows is ignored.
  for (const std::string& text :
       {std::string("noc t\nswitch A\nswitch B\nlink A B +2\ncore x A\n"
                    "core y B\nflow x y 1\nroute -0 0:+1\n"),
        std::string("noc t\nswitch A\nswitch B\nlink A B "
                    "99999999999999999999\ncore x A\ncore y B\n"
                    "flow x y 1\nroute 0 0:0\n"),
        std::string("noc t\nswitch A\nswitch B\nlink A B\ncore x A\n"
                    "core y B\nflow x y 1\nroute 0x 0:0\n"),
        std::string("noc t\nswitch A\nswitch B\nlink A B\ncore x A\n"
                    "core y B\nflow x y 1\nroute 0 0abc:0zz\n")}) {
    EXPECT_EQ(RunNew(text), RunOracle(text)) << text;
  }
}

TEST(IoDifferentialTest, FixedInputsAreRejected) {
  bool too_large = false;
  const std::string negative = "noc x\nswitch a\nswitch b\nlink a b -1\n";
  // Never handed to the oracle: it would allocate until memory ran out.
  ASSERT_TRUE(FindHazards(negative, too_large));
  EXPECT_EQ(RunNew(negative),
            (Outcome{"parse", "line 4: link: vc count must be >= 1"}));
  EXPECT_TRUE(CheckInput(negative));

  const std::string wide =
      "noc t\nswitch A\nswitch B\nlink A B\ncore x A\ncore y B\n"
      "flow x y 1\nroute 0 0:4294967296\n";
  // The oracle wraps the VC onto channel 0 and accepts.
  EXPECT_EQ(RunOracle(wide).kind, "ok");
  EXPECT_EQ(RunNew(wide),
            (Outcome{"parse", "line 8: route: malformed hop '0:4294967296'"}));
  EXPECT_TRUE(CheckInput(wide));
  EXPECT_TRUE(CheckInput(
      "noc t\nswitch A\nswitch B\nlink A B\ncore x A\ncore y B\n"
      "flow x y 1\nroute 0 0:-1\n"));
}

TEST(IoDifferentialTest, WriterMatchesStreamWriter) {
  for (const std::string& text : CorpusTexts()) {
    const NocDesign design = ReadDesign(text);
    EXPECT_EQ(DesignText(design), OracleText(design));
  }
  // Bandwidths that need rounding to six significant digits, exponent
  // forms and signed zero.
  NocDesign design = ReadDesign(FlowDesign("1"));
  Rng rng(7);
  std::vector<double> values = {123456.789, 1234567.0, 0.1234565, 1e-7,
                                99999.95,   999999.5,  0.3,       2.5e10,
                                100.0,      1e6,       -0.0,      1e-310,
                                0.0001,     0.00001,   123456.5,  1e21,
                                0.0};
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.NextDouble() *
                     std::pow(10.0, static_cast<double>(rng.NextBelow(20)) -
                                        8.0));
  }
  for (const double value : values) {
    design.traffic = CommunicationGraph();
    design.traffic.AddCore("x");
    design.traffic.AddCore("y");
    design.traffic.AddFlow(CoreId(0u), CoreId(1u), value);
    EXPECT_EQ(DesignText(design), OracleText(design)) << value;
  }
}

}  // namespace
}  // namespace nocdr
