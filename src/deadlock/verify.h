// Independent deadlock-freedom verification with certificates.
//
// RemoveDeadlocks and ApplyResourceOrdering both end by making the CDG
// acyclic. This module produces and checks the *evidence*: a topological
// order of the channels such that every dependency edge goes forward.
// The checker shares no code with the cycle search, so a bug in one is
// caught by the other — the belt-and-braces style hardware sign-off
// flows expect.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdg/cycle.h"
#include "noc/design.h"
#include "util/ids.h"

namespace nocdr {

/// Evidence for (or against) deadlock freedom of a design.
struct DeadlockCertificate {
  bool deadlock_free = false;
  /// When deadlock_free: every channel, ordered so that all CDG edges
  /// point forward (a topological order of the CDG).
  std::vector<ChannelId> topological_order;
  /// When not deadlock_free: one CDG cycle as the counterexample.
  CdgCycle counterexample;
};

/// Analyzes \p design and returns either a topological order of its CDG
/// (deadlock-free) or a concrete dependency cycle (deadlock-prone).
DeadlockCertificate CertifyDeadlockFreedom(const NocDesign& design);

/// CertifyDeadlockFreedom computed from an already-maintained CDG
/// instead of re-deriving one from the design — the fault pipeline's
/// fast path: Kahn's algorithm is O(V+E), while a from-scratch Build
/// pays a hash-map insert per route hop. The CDG representation is
/// canonical, so the certificate is identical to the from-scratch one
/// *provided* \p cdg is in sync with \p design (vertex count must match
/// the design's channel count; Require-checked). Sign-off still rests
/// on CheckCertificate, which re-validates the order against the routes
/// directly and trusts no CDG at all.
DeadlockCertificate CertifyFromCdg(const NocDesign& design,
                                   const ChannelDependencyGraph& cdg);

/// Kahn's order of \p cdg as the certificates above emit it, on the
/// graph with channel c renumbered to renumber[c] (a permutation of the
/// vertex ids; empty keeps the ids): ready vertices and each vertex's
/// successors are taken by ascending new id, so the order equals the
/// topological_order CertifyDeadlockFreedom gives on the renumbered
/// design, in new ids. A session proves its live graph acyclic this way
/// and certifies the canonical design (util/canonical) at the same
/// time. Nullopt when the graph has a cycle.
std::optional<std::vector<ChannelId>> TopologicalOrder(
    const ChannelDependencyGraph& cdg,
    const std::vector<std::uint32_t>& renumber = {});

/// Re-validates a positive certificate against the design from scratch:
/// the order must contain every channel exactly once and every
/// consecutive channel pair of every route must step strictly forward in
/// the order. Returns false for negative certificates.
bool CheckCertificate(const NocDesign& design,
                      const DeadlockCertificate& certificate);

/// Serializes \p certificate as one JSON object, e.g.
/// {"deadlock_free":true,"topological_order":[2,0,1],"counterexample":[]}.
/// Certificates are sign-off evidence, so they must survive storage and
/// transport; CertificateFromJson is the exact inverse.
std::string CertificateToJson(const DeadlockCertificate& certificate);

/// Parses a certificate written by CertificateToJson. Throws
/// InvalidModelError on malformed input. The result still has to pass
/// CheckCertificate against the design it claims to describe — parsing
/// performs no semantic validation.
DeadlockCertificate CertificateFromJson(const std::string& json);

}  // namespace nocdr
