// Canonical design rendering and content-addressed digesting.
//
// Several subsystems need one answer to "are these two designs the same
// certification problem?": the validation campaign's shrinker must dump
// repros that parse back to exactly the design it validated, and the
// certification service (src/serve) keys its cache by design content.
// Both go through the noc/io text format, which is the only
// representation that is independent of in-memory construction order —
// routes are stored as link:vc pairs, so channel numbering (which
// depends on the order VCs were added) never leaks into the text.
//
// Two canonicalization strengths live here:
//
//   * IoCanonicalize — the text round trip alone. Preserves flow order
//     (and therefore round-robin arbitration order), which is what a
//     simulation repro must keep. Hoisted from valid/shrink.
//   * CanonicalizeDesign — a canonical flow sort, built directly into
//     the design a parse of its text would give. Certification (CDG
//     acyclicity, the topological-order certificate) is a property of
//     the route *set*, not the flow declaration order, so designs
//     differing only in flow order are the same problem and must digest
//     identically. This is the cache key form. It renders the text once
//     and never parses it: channels are numbered link-major (the
//     numbering ReadDesign gives) and bandwidths carry the six
//     significant digits the text keeps. tests/test_canonical.cpp keeps
//     the former render → parse → re-render fixpoint loop as the oracle
//     this direct build must match.
//
// CanonicalDesignDigest hashes the canonical text together with the
// semantically relevant removal options, so one primitive defines the
// cache identity for valid/ and serve/ alike.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deadlock/removal.h"
#include "noc/design.h"

namespace nocdr {

/// Stable, diff-friendly rendering of a whole design (noc/io format).
std::string DesignText(const NocDesign& design);

/// Text round trip through noc/io: the parsed-back design is what a
/// dump consumer will actually reconstruct. Channel ids may be
/// renumbered by the round trip; flow order is preserved.
NocDesign IoCanonicalize(const NocDesign& design);

/// True when the io round trip reproduces \p design exactly (identical
/// text implies identical channel numbering, so identical simulation).
bool IsIoStable(const NocDesign& design);

/// A design in canonical form: flows sorted by (src, dst, bandwidth,
/// route as link:vc pairs), with the channel numbering and bandwidths
/// any consumer parsing \p text reconstructs. The sort never changes the
/// route set, so the certificate of \p design is the certificate of the
/// original up to flow renaming and channel renumbering.
struct CanonicalDesign {
  NocDesign design;
  std::string text;
};

/// Canonicalizes \p design (flow sort + direct build). Deterministic;
/// DesignText(result.design) == result.text, and ReadDesign(result.text)
/// gives result.design back. Idempotent, except where two flows of one
/// (src, dst) pair differ in bandwidth only past the sixth significant
/// digit: the sort reads the unrounded values. Throws InvalidModelError
/// when the design is invalid or names something the text format
/// cannot carry: a switch or core name that is not one whitespace- and
/// '#'-free token, a duplicate name, a design name without a token, or
/// a non-finite bandwidth.
CanonicalDesign CanonicalizeDesign(const NocDesign& design);

/// The link-major channel numbering of \p topology: ids[c] is the id
/// channel c has in CanonicalizeDesign's result (and in any design
/// ReadDesign parses): channels ordered by (link, vc). Link and switch
/// ids are unchanged by canonicalization.
std::vector<std::uint32_t> CanonicalChannelIds(const TopologyGraph& topology);

/// Mixes the semantically relevant removal options into \p h:
/// cycle_policy, direction_policy, duplication and max_iterations.
/// RemovalEngine is deliberately excluded — the incremental and rebuild
/// engines produce bit-identical designs and certificates (the contract
/// property-tested by test_cdg_incremental), so both may share one
/// cache entry.
void DigestRemovalOptions(std::uint64_t& h, const RemovalOptions& options);

/// Content-addressed identity of one certification problem: FNV-1a over
/// the canonical text of \p design plus the semantically relevant
/// fields of \p options and whether treatment runs at all. Stable under
/// flow reordering, io round trips, comments/whitespace in the source
/// text and channel renumbering; distinct for distinct route sets,
/// topologies, bandwidths or option values.
std::uint64_t CanonicalDesignDigest(const NocDesign& design,
                                    const RemovalOptions& options,
                                    bool treat = true);

/// As above, but over an already-canonicalized text (avoids repeating
/// the canonicalization when the caller holds a CanonicalDesign).
std::uint64_t CanonicalTextDigest(const std::string& canonical_text,
                                  const RemovalOptions& options,
                                  bool treat = true);

}  // namespace nocdr
