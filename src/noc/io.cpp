#include "noc/io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <unordered_map>

#include "cdg/cdg.h"
#include "util/error.h"
#include "util/text.h"

namespace nocdr {

namespace {

/// Appends \p value as `std::ostream <<` renders it with default flags
/// (printf "%g": six significant digits).
void AppendBandwidth(std::string& out, double value) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, value,
                                 std::chars_format::general, 6)
                       .ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace

void AppendDesignText(std::string& out, const NocDesign& design) {
  const TopologyGraph& topo = design.topology;
  const CommunicationGraph& traffic = design.traffic;
  // A rough size, so that `out` grows once rather than line by line.
  std::size_t hops = 0;
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    hops += design.routes.RouteOf(FlowId(f)).size();
  }
  out.reserve(out.size() + 24 * (topo.SwitchCount() + topo.LinkCount()) +
              32 * (traffic.CoreCount() + traffic.FlowCount()) + 8 * hops);

  out += "noc ";
  out += design.name.empty() ? "unnamed" : design.name;
  out += '\n';
  for (std::size_t s = 0; s < topo.SwitchCount(); ++s) {
    out += "switch ";
    out += topo.SwitchName(SwitchId(s));
    out += '\n';
  }
  for (std::size_t l = 0; l < topo.LinkCount(); ++l) {
    const Link& link = topo.LinkAt(LinkId(l));
    out += "link ";
    out += topo.SwitchName(link.src);
    out += ' ';
    out += topo.SwitchName(link.dst);
    const std::size_t vcs = topo.VcCount(LinkId(l));
    if (vcs != 1) {
      out += ' ';
      AppendUnsigned(out, vcs);
    }
    out += '\n';
  }
  for (std::size_t c = 0; c < traffic.CoreCount(); ++c) {
    out += "core ";
    out += traffic.CoreName(CoreId(c));
    out += ' ';
    out += topo.SwitchName(design.SwitchOf(CoreId(c)));
    out += '\n';
  }
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    const Flow& flow = traffic.FlowAt(FlowId(f));
    out += "flow ";
    out += traffic.CoreName(flow.src);
    out += ' ';
    out += traffic.CoreName(flow.dst);
    out += ' ';
    AppendBandwidth(out, flow.bandwidth_mbps);
    out += '\n';
  }
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    out += "route ";
    AppendUnsigned(out, f);
    for (ChannelId c : design.routes.RouteOf(FlowId(f))) {
      const Channel& ch = topo.ChannelAt(c);
      out += ' ';
      AppendUnsigned(out, ch.link.value());
      out += ':';
      AppendUnsigned(out, ch.vc);
    }
    out += '\n';
  }
}

void WriteDesign(std::ostream& os, const NocDesign& design) {
  std::string text;
  AppendDesignText(text, design);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

namespace {

[[noreturn]] void Fail(std::size_t line, const std::string& message) {
  throw DesignParseError("line " + std::to_string(line) + ": " + message);
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// An unsigned decimal as `std::istream >>` and `std::stoul` read it:
/// an optional sign, then digits. A '-' negates in the unsigned type.
struct UnsignedText {
  std::uint64_t magnitude = 0;
  bool negative = false;
  bool overflow = false;
  std::size_t length = 0;  // characters consumed, sign included
  [[nodiscard]] std::uint64_t Wrapped() const {
    return negative ? 0 - magnitude : magnitude;
  }
};

/// Scans the longest [sign] digits prefix of \p text; nullopt when no
/// digit follows the optional sign.
std::optional<UnsignedText> ScanUnsigned(std::string_view text) {
  UnsignedText out;
  std::size_t pos = 0;
  if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) {
    out.negative = text[pos] == '-';
    ++pos;
  }
  const std::size_t first_digit = pos;
  for (; pos < text.size() && IsDigit(text[pos]); ++pos) {
    const auto digit = static_cast<std::uint64_t>(text[pos] - '0');
    if (out.magnitude > (std::numeric_limits<std::uint64_t>::max() - digit) /
                            10) {
      out.overflow = true;
    } else {
      out.magnitude = out.magnitude * 10 + digit;
    }
  }
  if (pos == first_digit) {
    return std::nullopt;
  }
  out.length = pos;
  return out;
}

/// A decimal number as `std::istream >> double` scans it.
struct DecimalText {
  std::string_view digits;  // mantissa and exponent, no leading sign
  std::string_view mantissa;
  std::int64_t exponent = 0;  // saturates well past any double's range
  bool negative = false;
};

/// Scans what `std::istream >> double` collects from \p text: [sign]
/// mantissa digits with at most one '.', then optionally e/E [sign]
/// digits. Nullopt where the stream then fails: no mantissa digit, or an
/// exponent marker without digits.
std::optional<DecimalText> ScanDecimal(std::string_view text) {
  DecimalText out;
  std::size_t pos = 0;
  if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) {
    out.negative = text[pos] == '-';
    ++pos;
  }
  const std::size_t start = pos;
  bool found_digit = false;
  bool found_point = false;
  for (; pos < text.size(); ++pos) {
    if (IsDigit(text[pos])) {
      found_digit = true;
    } else if (text[pos] == '.' && !found_point) {
      found_point = true;
    } else {
      break;
    }
  }
  if (!found_digit) {
    return std::nullopt;
  }
  out.mantissa = text.substr(start, pos - start);
  if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
    ++pos;
    bool exponent_negative = false;
    if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) {
      exponent_negative = text[pos] == '-';
      ++pos;
    }
    const std::size_t exponent_start = pos;
    for (; pos < text.size() && IsDigit(text[pos]); ++pos) {
      if (out.exponent < (std::int64_t{1} << 40)) {
        out.exponent = out.exponent * 10 + (text[pos] - '0');
      }
    }
    if (pos == exponent_start) {
      return std::nullopt;
    }
    if (exponent_negative) {
      out.exponent = -out.exponent;
    }
  }
  out.digits = text.substr(start, pos - start);
  return out;
}

/// Decimal exponent of the leading nonzero digit of a value whose
/// conversion left the double range: positive means it overflowed.
std::int64_t LeadingExponent(const DecimalText& value) {
  const std::string_view m = value.mantissa;
  const std::size_t point = std::min(m.find('.'), m.size());
  const std::size_t lead = m.find_first_not_of("0.");
  const auto offset = lead < point
                          ? static_cast<std::int64_t>(point - lead) - 1
                          : static_cast<std::int64_t>(point) -
                                static_cast<std::int64_t>(lead);
  return offset + value.exponent;
}

/// `std::istream >> double` on a token prefix: nullopt where the stream
/// sets failbit (no number, or a magnitude beyond the double range).
/// An underflow reads as zero, as strtod gives it. "nan" and "inf"
/// never scan, although std::from_chars alone would accept them.
std::optional<double> ParseBandwidth(std::string_view text) {
  const auto scanned = ScanDecimal(text);
  if (!scanned) {
    return std::nullopt;
  }
  const std::string_view digits = scanned->digits;
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value,
                      std::chars_format::general);
  if (end != digits.data() + digits.size()) {
    return std::nullopt;
  }
  if (ec == std::errc::result_out_of_range) {
    if (LeadingExponent(*scanned) > 0) {
      return std::nullopt;
    }
    value = 0.0;
  } else if (ec != std::errc()) {
    return std::nullopt;
  }
  return scanned->negative ? -value : value;
}

/// Tokens of one line, read the way `std::istringstream >>` reads them:
/// whitespace-separated, where a numeric extraction may take only a
/// prefix of a token and leave the rest as the next token.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line) : rest_(line) {}

  bool Token(std::string_view& out) {
    SkipSpace();
    std::size_t end = 0;
    while (end < rest_.size() && !IsSpace(rest_[end])) {
      ++end;
    }
    if (end == 0) {
      return false;
    }
    out = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return true;
  }

  /// `>> std::size_t`; nullopt when no digit follows the sign. The
  /// stream's failbit on overflow is left to the caller (`overflow`).
  std::optional<UnsignedText> Unsigned() {
    SkipSpace();
    const auto value = ScanUnsigned(rest_);
    if (value) {
      rest_.remove_prefix(value->length);
    }
    return value;
  }

  /// `>> double`; the line's remaining text is never read after it.
  std::optional<double> Double() {
    SkipSpace();
    return ParseBandwidth(rest_);
  }

 private:
  void SkipSpace() {
    std::size_t n = 0;
    while (n < rest_.size() && IsSpace(rest_[n])) {
      ++n;
    }
    rest_.remove_prefix(n);
  }

  std::string_view rest_;
};

/// One `std::stoul` of a hop field: nullopt where stoul throws (no
/// digits, or out of range); a '-' wraps in the unsigned type.
std::optional<std::uint64_t> ParseHopField(std::string_view text) {
  const auto value = ScanUnsigned(text);
  if (!value || value->overflow) {
    return std::nullopt;
  }
  return value->Wrapped();
}

}  // namespace

NocDesign ReadDesign(std::string_view text) {
  NocDesign design;
  // Keys view into `text`, which outlives the parse.
  std::unordered_map<std::string_view, SwitchId> switch_by_name;
  std::unordered_map<std::string_view, CoreId> core_by_name;
  std::size_t routes_seen = 0;

  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t newline = text.find('\n');
    std::string_view raw = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    raw = raw.substr(0, raw.find('#'));
    LineScanner line(raw);
    std::string_view keyword;
    if (!line.Token(keyword)) {
      continue;  // blank or comment-only
    }
    if (keyword == "noc") {
      std::string_view name;
      if (!line.Token(name)) {
        Fail(line_no, "noc: missing name");
      }
      design.name = name;
    } else if (keyword == "switch") {
      std::string_view name;
      if (!line.Token(name)) {
        Fail(line_no, "switch: missing name");
      }
      const SwitchId id(design.topology.SwitchCount());
      if (!switch_by_name.emplace(name, id).second) {
        Fail(line_no, "switch: duplicate name '" + std::string(name) + "'");
      }
      design.topology.AddSwitch(std::string(name));
    } else if (keyword == "link") {
      std::string_view src, dst;
      if (!line.Token(src) || !line.Token(dst)) {
        Fail(line_no, "link: expected two switch names");
      }
      const auto si = switch_by_name.find(src);
      const auto di = switch_by_name.find(dst);
      if (si == switch_by_name.end() || di == switch_by_name.end()) {
        Fail(line_no, "link: unknown switch");
      }
      const LinkId l = design.topology.AddLink(si->second, di->second);
      if (const auto vcs = line.Unsigned()) {
        // A signed count is rejected, not wrapped ("-1" would ask for
        // SIZE_MAX channels); an overflowing one is ignored, as the
        // stream's failbit ignored it.
        if (vcs->negative || vcs->magnitude == 0) {
          Fail(line_no, "link: vc count must be >= 1");
        }
        const std::uint64_t count = vcs->overflow ? 1 : vcs->magnitude;
        for (std::uint64_t v = 1; v < count; ++v) {
          design.topology.AddVirtualChannel(l);
        }
      }
    } else if (keyword == "core") {
      std::string_view name, sw;
      if (!line.Token(name) || !line.Token(sw)) {
        Fail(line_no, "core: expected name and switch");
      }
      const auto si = switch_by_name.find(sw);
      if (si == switch_by_name.end()) {
        Fail(line_no, "core: unknown switch '" + std::string(sw) + "'");
      }
      const CoreId id(design.traffic.CoreCount());
      if (!core_by_name.emplace(name, id).second) {
        Fail(line_no, "core: duplicate name '" + std::string(name) + "'");
      }
      design.traffic.AddCore(std::string(name));
      design.attachment.push_back(si->second);
    } else if (keyword == "flow") {
      std::string_view src, dst;
      std::optional<double> bandwidth;
      if (!line.Token(src) || !line.Token(dst) ||
          !(bandwidth = line.Double())) {
        Fail(line_no, "flow: expected two cores and a bandwidth");
      }
      const auto si = core_by_name.find(src);
      const auto di = core_by_name.find(dst);
      if (si == core_by_name.end() || di == core_by_name.end()) {
        Fail(line_no, "flow: unknown core");
      }
      design.traffic.AddFlow(si->second, di->second, *bandwidth);
      design.routes.Resize(design.traffic.FlowCount());
    } else if (keyword == "route") {
      const auto flow_index = line.Unsigned();
      if (!flow_index || flow_index->overflow ||
          flow_index->Wrapped() >= design.traffic.FlowCount()) {
        Fail(line_no, "route: bad flow index");
      }
      Route route;
      route.reserve(static_cast<std::size_t>(
          std::count(raw.begin(), raw.end(), ':')));
      std::string_view hop;
      while (line.Token(hop)) {
        const auto colon = hop.find(':');
        if (colon == std::string_view::npos) {
          Fail(line_no, "route: hop must be <link>:<vc>");
        }
        const auto link_index = ParseHopField(hop.substr(0, colon));
        const auto vc = ParseHopField(hop.substr(colon + 1));
        // A vc beyond uint32_t would otherwise wrap onto a real channel.
        if (!link_index || !vc ||
            *vc > std::numeric_limits<std::uint32_t>::max()) {
          Fail(line_no, "route: malformed hop '" + std::string(hop) + "'");
        }
        if (*link_index >= design.topology.LinkCount()) {
          Fail(line_no, "route: unknown link " + std::to_string(*link_index));
        }
        const auto channel = design.topology.FindChannel(
            LinkId(*link_index), static_cast<std::uint32_t>(*vc));
        if (!channel) {
          Fail(line_no, "route: link " + std::to_string(*link_index) +
                            " has no vc " + std::to_string(*vc));
        }
        route.push_back(*channel);
      }
      design.routes.SetRoute(FlowId(flow_index->Wrapped()), std::move(route));
      ++routes_seen;
    } else {
      Fail(line_no, "unknown keyword '" + std::string(keyword) + "'");
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

NocDesign ReadDesign(std::istream& is) {
  const std::string text{std::istreambuf_iterator<char>(is),
                         std::istreambuf_iterator<char>()};
  return ReadDesign(std::string_view(text));
}

std::string_view TextToken(std::string_view name) {
  name = name.substr(0, name.find('#'));
  const auto begin = std::find_if_not(name.begin(), name.end(), IsSpace);
  return {begin, std::find_if(begin, name.end(), IsSpace)};
}

std::optional<double> TextBandwidth(double value) {
  std::string text;
  AppendBandwidth(text, value);
  return ParseBandwidth(text);
}

void WriteTopologyDot(std::ostream& os, const NocDesign& design) {
  const TopologyGraph& topo = design.topology;
  os << "digraph topology {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::size_t s = 0; s < topo.SwitchCount(); ++s) {
    os << "  s" << s << " [label=\"" << topo.SwitchName(SwitchId(s))
       << "\"];\n";
  }
  for (std::size_t l = 0; l < topo.LinkCount(); ++l) {
    const Link& link = topo.LinkAt(LinkId(l));
    os << "  s" << link.src.value() << " -> s" << link.dst.value()
       << " [label=\"x" << topo.VcCount(LinkId(l)) << "\"];\n";
  }
  os << "}\n";
}

void WriteCdgDot(std::ostream& os, const NocDesign& design) {
  const auto cdg = ChannelDependencyGraph::Build(design);
  os << "digraph cdg {\n  node [shape=ellipse];\n";
  for (std::size_t c = 0; c < design.topology.ChannelCount(); ++c) {
    os << "  c" << c << " [label=\""
       << design.topology.ChannelLabel(ChannelId(c)) << "\"];\n";
  }
  for (const CdgEdge& e : cdg.Edges()) {
    os << "  c" << e.from.value() << " -> c" << e.to.value()
       << " [label=\"";
    for (std::size_t i = 0; i < e.flows.size(); ++i) {
      os << (i ? "," : "") << "F" << e.flows[i].value();
    }
    os << "\"];\n";
  }
  os << "}\n";
}

}  // namespace nocdr
