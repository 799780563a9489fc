#include "deadlock/verify.h"

#include <algorithm>
#include <numeric>

#include "cdg/cdg.h"
#include "util/error.h"
#include "util/json.h"

namespace nocdr {

DeadlockCertificate CertifyDeadlockFreedom(const NocDesign& design) {
  return CertifyFromCdg(design, ChannelDependencyGraph::Build(design));
}

DeadlockCertificate CertifyFromCdg(const NocDesign& design,
                                   const ChannelDependencyGraph& cdg) {
  Require(cdg.VertexCount() == design.topology.ChannelCount(),
          "CertifyFromCdg: CDG vertex count does not match the design's "
          "channel count (graph out of sync)");
  DeadlockCertificate cert;
  if (auto order = TopologicalOrder(cdg)) {
    cert.deadlock_free = true;
    cert.topological_order = std::move(*order);
  } else if (auto cycle = SmallestCycle(cdg)) {
    cert.counterexample = std::move(*cycle);
  }
  return cert;
}

std::optional<std::vector<ChannelId>> TopologicalOrder(
    const ChannelDependencyGraph& cdg,
    const std::vector<std::uint32_t>& renumber) {
  const std::size_t n = cdg.VertexCount();
  std::vector<std::uint32_t> identity;
  if (renumber.empty()) {
    identity.resize(n);
    std::iota(identity.begin(), identity.end(), 0);
  }
  const std::vector<std::uint32_t>& id = renumber.empty() ? identity : renumber;
  Require(id.size() == n,
          "TopologicalOrder: the renumbering does not cover the graph");
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> vertex_of(n, kUnset);
  for (std::size_t v = 0; v < n; ++v) {
    Require(id[v] < n && vertex_of[id[v]] == kUnset,
            "TopologicalOrder: the renumbering is not a permutation");
    vertex_of[id[v]] = static_cast<std::uint32_t>(v);
  }
  std::vector<std::uint32_t> in_degree(n, 0);
  for (const CdgEdge& e : cdg.Edges()) {
    ++in_degree[e.to.value()];
  }
  // Kahn's algorithm with a FIFO queue; the queue's pop order is the
  // emission order, so `order` is the queue.
  std::vector<ChannelId> order;
  order.reserve(n);
  for (const std::uint32_t v : vertex_of) {
    if (in_degree[v] == 0) {
      order.emplace_back(v);
    }
  }
  std::vector<ChannelId> successors;
  for (std::size_t head = 0; head < order.size(); ++head) {
    successors.clear();
    for (const auto& ref : cdg.OutEdges(order[head])) {
      successors.push_back(ref.to);
    }
    std::sort(successors.begin(), successors.end(),
              [&](ChannelId a, ChannelId b) {
                return id[a.value()] < id[b.value()];
              });
    for (const ChannelId w : successors) {
      if (--in_degree[w.value()] == 0) {
        order.push_back(w);
      }
    }
  }
  if (order.size() != n) {
    return std::nullopt;
  }
  for (ChannelId& c : order) {
    c = ChannelId(id[c.value()]);
  }
  return order;
}

bool CheckCertificate(const NocDesign& design,
                      const DeadlockCertificate& certificate) {
  if (!certificate.deadlock_free) {
    return false;
  }
  const std::size_t n = design.topology.ChannelCount();
  if (certificate.topological_order.size() != n) {
    return false;
  }
  // rank[channel] = position in the claimed order; also detects
  // duplicates and out-of-range entries.
  constexpr std::size_t kUnranked = static_cast<std::size_t>(-1);
  std::vector<std::size_t> rank(n, kUnranked);
  for (std::size_t i = 0; i < n; ++i) {
    const ChannelId c = certificate.topological_order[i];
    if (!c.valid() || c.value() >= n || rank[c.value()] != kUnranked) {
      return false;
    }
    rank[c.value()] = i;
  }
  // Every consecutive pair of every route must step forward. This checks
  // the routes directly rather than trusting any CDG construction.
  for (std::size_t fi = 0; fi < design.traffic.FlowCount(); ++fi) {
    const Route& route = design.routes.RouteOf(FlowId(fi));
    for (std::size_t h = 0; h + 1 < route.size(); ++h) {
      if (rank[route[h].value()] >= rank[route[h + 1].value()]) {
        return false;
      }
    }
  }
  return true;
}

namespace {

void AppendChannelArray(std::string& out, const char* key,
                        const std::vector<ChannelId>& channels) {
  out += '"';
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(channels[i].value());
  }
  out += ']';
}

std::vector<ChannelId> ReadChannelArray(const JsonValue& value) {
  std::vector<ChannelId> channels;
  channels.reserve(value.Items().size());
  for (const JsonValue& item : value.Items()) {
    channels.emplace_back(item.AsUint());
  }
  return channels;
}

}  // namespace

std::string CertificateToJson(const DeadlockCertificate& certificate) {
  std::string out = "{\"deadlock_free\":";
  out += certificate.deadlock_free ? "true" : "false";
  out += ',';
  AppendChannelArray(out, "topological_order",
                     certificate.topological_order);
  out += ',';
  AppendChannelArray(out, "counterexample", certificate.counterexample);
  out += '}';
  return out;
}

DeadlockCertificate CertificateFromJson(const std::string& json) {
  const JsonValue value = JsonValue::Parse(json);
  DeadlockCertificate cert;
  cert.deadlock_free = value.At("deadlock_free").AsBool();
  cert.topological_order = ReadChannelArray(value.At("topological_order"));
  cert.counterexample = ReadChannelArray(value.At("counterexample"));
  return cert;
}

}  // namespace nocdr
