// Serialization: a line-oriented text format for complete designs, plus
// Graphviz exports for topologies and channel dependency graphs.
//
// The text format makes the library usable as a standalone tool — a
// designer can describe a hand-made irregular topology with its routes in
// a file, run the deadlock remover, and write the repaired design back.
//
//   noc <name>
//   switch <name>                      # index order = declaration order
//   link <src_switch> <dst_switch> [vc_count]
//   core <name> <switch_name>
//   flow <src_core> <dst_core> <bandwidth_mbps>
//   route <flow_index> <link_index>:<vc> ...
//
// '#' starts a comment; blank lines are ignored. Every flow must receive
// exactly one route line (possibly with zero hops).
//
// The codec works on plain strings: AppendDesignText renders with
// std::to_chars into one buffer, and ReadDesign(std::string_view) is the
// one parser, scanning tokens as views into its input. The std::ostream
// and std::istream forms are adapters over these two. The reader keeps
// the token rules of the `std::istream >>` parser it replaced: a
// trailing token is ignored, a number may be followed by junk in the
// same token ("5abc" reads 5), `link a b x` has one VC, and a bandwidth
// must be a finite decimal ("nan", "inf" and "1e400" are rejected). A
// negative VC count and a VC index beyond uint32_t are errors.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "noc/design.h"

namespace nocdr {

/// Raised on malformed input to ReadDesign.
class DesignParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends \p design in the text format above (stable, diff-friendly)
/// to \p out. Bandwidths keep six significant digits.
void AppendDesignText(std::string& out, const NocDesign& design);

/// AppendDesignText to a stream.
void WriteDesign(std::ostream& os, const NocDesign& design);

/// Parses a design written by AppendDesignText (or by hand). The result
/// is fully validated. Throws DesignParseError with line information on
/// malformed input, InvalidModelError on structurally bad designs.
NocDesign ReadDesign(std::string_view text);

/// ReadDesign of the rest of \p is.
NocDesign ReadDesign(std::istream& is);

/// What ReadDesign keeps of a name AppendDesignText rendered: its first
/// whitespace-delimited token before any '#'. A switch or core name
/// survives the text iff this equals it.
std::string_view TextToken(std::string_view name);

/// What ReadDesign reads back for a flow bandwidth AppendDesignText
/// rendered from \p value (six significant digits); nullopt where it
/// reads nothing (an infinite value).
std::optional<double> TextBandwidth(double value);

/// Graphviz (dot) rendering of the switch topology: switches as nodes,
/// links as edges labelled with their VC count.
void WriteTopologyDot(std::ostream& os, const NocDesign& design);

/// Graphviz rendering of the channel dependency graph: channels as
/// nodes, dependencies as edges labelled with the flows creating them.
void WriteCdgDot(std::ostream& os, const NocDesign& design);

}  // namespace nocdr
