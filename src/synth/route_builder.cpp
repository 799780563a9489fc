#include "synth/route_builder.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>

#include "util/error.h"

namespace nocdr {

namespace {

struct QueueEntry {
  double dist;
  std::uint32_t node;

  bool operator>(const QueueEntry& other) const {
    if (dist != other.dist) {
      return dist > other.dist;
    }
    return node > other.node;  // deterministic tie-break
  }
};

}  // namespace

RouteSet BuildRoutes(const TopologyGraph& topology,
                     const CommunicationGraph& traffic,
                     const std::vector<SwitchId>& attachment,
                     const RouteBuildOptions& options) {
  Require(attachment.size() == traffic.CoreCount(),
          "BuildRoutes: attachment incomplete");
  RouteSet routes(traffic.FlowCount());
  std::vector<double> committed(topology.LinkCount(), 0.0);

  // Heaviest flows first: they get the short paths, lighter flows detour.
  std::vector<std::size_t> order(traffic.FlowCount());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return traffic.FlowAt(FlowId(a)).bandwidth_mbps >
                            traffic.FlowAt(FlowId(b)).bandwidth_mbps;
                   });

  const std::size_t n = topology.SwitchCount();
  for (std::size_t fi : order) {
    const FlowId f(fi);
    const Flow& flow = traffic.FlowAt(f);
    const SwitchId src = attachment[flow.src.value()];
    const SwitchId dst = attachment[flow.dst.value()];
    if (src == dst) {
      routes.SetRoute(f, {});  // local to one switch; no channels used
      continue;
    }

    // Dijkstra from src to dst over physical links.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(n, kInf);
    std::vector<LinkId> via(n);  // incoming link on the best path
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        queue;
    dist[src.value()] = 0.0;
    queue.push(QueueEntry{0.0, src.value()});
    while (!queue.empty()) {
      const QueueEntry top = queue.top();
      queue.pop();
      if (top.dist > dist[top.node]) {
        continue;
      }
      if (SwitchId(top.node) == dst) {
        break;
      }
      for (LinkId l : topology.OutLinks(SwitchId(top.node))) {
        const Link& link = topology.LinkAt(l);
        const double penalty =
            options.congestion_weight *
            (committed[l.value()] / options.link_capacity_mbps);
        const double candidate = top.dist + 1.0 + penalty;
        if (candidate + 1e-12 < dist[link.dst.value()]) {
          dist[link.dst.value()] = candidate;
          via[link.dst.value()] = l;
          queue.push(QueueEntry{candidate, link.dst.value()});
        }
      }
    }
    Require(dist[dst.value()] != kInf, [&] {
      return "BuildRoutes: no path between switches of flow " +
             std::to_string(fi);
    });

    // Walk back along `via`, emitting the VC-0 channel of each link.
    Route route;
    for (SwitchId cur = dst; cur != src;) {
      const LinkId l = via[cur.value()];
      auto channel = topology.FindChannel(l, 0);
      Require(channel.has_value(), "BuildRoutes: link missing VC 0");
      route.push_back(*channel);
      committed[l.value()] += flow.bandwidth_mbps;
      cur = topology.LinkAt(l).src;
    }
    std::reverse(route.begin(), route.end());
    routes.SetRoute(f, std::move(route));
  }
  return routes;
}

void ValidateNextHopTable(const TopologyGraph& topology,
                          const NextHopTable& table) {
  const std::size_t n = topology.SwitchCount();
  Require(table.size() == n, "NextHopTable: row count != switch count");
  for (std::size_t s = 0; s < n; ++s) {
    Require(table[s].size() == n, [&] {
      return "NextHopTable: row " + std::to_string(s) +
             " column count != switch count";
    });
    for (std::size_t d = 0; d < n; ++d) {
      const LinkId l = table[s][d];
      if (!l.valid()) {
        continue;
      }
      Require(s != d, [&] {
        return "NextHopTable: self entry on switch " + std::to_string(s);
      });
      Require(topology.IsValidLink(l), [&] {
        return "NextHopTable: invalid link on (" + std::to_string(s) + "," +
               std::to_string(d) + ")";
      });
      Require(topology.LinkAt(l).src == SwitchId(s), [&] {
        return "NextHopTable: link on (" + std::to_string(s) + "," +
               std::to_string(d) + ") does not leave switch " +
               std::to_string(s);
      });
    }
  }
  // Every filled pair must reach its destination without revisiting a
  // switch. Per destination the table is a functional graph, so one
  // memoized walk suffices: each switch is unvisited, on the chain being
  // walked (meeting it again is a loop), or known to reach d. Every
  // switch joins one chain per destination, so the pass is O(S^2).
  enum : std::uint8_t { kUnvisited, kOnChain, kReaches };
  std::vector<std::uint8_t> state(n);
  std::vector<std::size_t> chain;
  for (std::size_t d = 0; d < n; ++d) {
    std::fill(state.begin(), state.end(), kUnvisited);
    state[d] = kReaches;
    for (std::size_t s = 0; s < n; ++s) {
      if (state[s] != kUnvisited || !table[s][d].valid()) {
        continue;
      }
      chain.clear();
      std::size_t cur = s;
      while (state[cur] == kUnvisited) {
        state[cur] = kOnChain;
        chain.push_back(cur);
        const LinkId l = table[cur][d];
        Require(l.valid(), [&] {
          return "NextHopTable: hole at (" + std::to_string(cur) + "," +
                 std::to_string(d) + ") on the walk from " +
                 std::to_string(s);
        });
        cur = topology.LinkAt(l).dst.value();
      }
      Require(state[cur] == kReaches, [&] {
        return "NextHopTable: routing loop from " + std::to_string(s) +
               " to " + std::to_string(d);
      });
      for (const std::size_t v : chain) {
        state[v] = kReaches;
      }
    }
  }
}

std::optional<Route> WalkTableRoute(const TopologyGraph& topology,
                                    const NextHopTable& table, SwitchId src,
                                    SwitchId dst) {
  Require(topology.IsValidSwitch(src) && topology.IsValidSwitch(dst),
          "WalkTableRoute: invalid endpoint switch");
  Require(table.size() == topology.SwitchCount(),
          "WalkTableRoute: table row count != switch count");
  const std::size_t n = topology.SwitchCount();
  Route route;
  SwitchId cur = src;
  while (cur != dst) {
    const auto& row = table[cur.value()];
    if (row.size() != n || !row[dst.value()].valid()) {
      return std::nullopt;  // hole: this pair needs the rip-up fallback
    }
    const LinkId l = row[dst.value()];
    Require(topology.IsValidLink(l) && topology.LinkAt(l).src == cur, [&] {
      return "WalkTableRoute: table entry does not leave switch " +
             std::to_string(cur.value());
    });
    const auto channel = topology.FindChannel(l, 0);
    Require(channel.has_value(), "WalkTableRoute: link missing VC 0");
    route.push_back(*channel);
    cur = topology.LinkAt(l).dst;
    if (route.size() > n) {
      return std::nullopt;  // routing loop (possible mid-patch)
    }
  }
  return route;
}

namespace {

/// True when \p l cannot carry traffic under the failure masks: its own
/// entry is set, or either endpoint switch has failed. Empty masks mean
/// nothing failed.
bool LinkDown(const TopologyGraph& topology, LinkId l,
              const std::vector<char>& failed_links,
              const std::vector<char>& failed_switches) {
  if (!failed_links.empty() && failed_links[l.value()]) {
    return true;
  }
  if (failed_switches.empty()) {
    return false;
  }
  const Link& link = topology.LinkAt(l);
  return failed_switches[link.src.value()] ||
         failed_switches[link.dst.value()];
}

bool SwitchDown(SwitchId s, const std::vector<char>& failed_switches) {
  return !failed_switches.empty() && failed_switches[s.value()];
}

/// The failure state as the per-destination repair reads it, built once
/// per patch: a down flag per link, and each switch's surviving in-links
/// (with their source switches) in InLinks order, ascending link id.
struct Survivors {
  Survivors(const TopologyGraph& topology,
            const std::vector<char>& failed_links,
            const std::vector<char>& failed_switches)
      : link_down(topology.LinkCount()),
        in_begin(topology.SwitchCount() + 1) {
    for (std::size_t l = 0; l < link_down.size(); ++l) {
      link_down[l] =
          LinkDown(topology, LinkId(l), failed_links, failed_switches) ? 1 : 0;
    }
    for (std::size_t v = 0; v < topology.SwitchCount(); ++v) {
      in_begin[v] = static_cast<std::uint32_t>(in_link.size());
      for (const LinkId l : topology.InLinks(SwitchId(v))) {
        if (!link_down[l.value()]) {
          in_link.push_back(l);
          in_src.push_back(topology.LinkAt(l).src.value());
        }
      }
    }
    in_begin.back() = static_cast<std::uint32_t>(in_link.size());
  }

  std::vector<char> link_down;
  std::vector<std::uint32_t> in_begin;
  std::vector<LinkId> in_link;
  std::vector<std::uint32_t> in_src;
};

/// Scratch space of the per-destination repair, reused across columns.
struct ColumnScratch {
  explicit ColumnScratch(std::size_t n) : status(n), dist(n), via(n) {}

  /// Walk status per source: 0 unknown, 1 survives, 2 broken.
  std::vector<std::uint8_t> status;
  std::vector<std::uint32_t> dist;
  std::vector<LinkId> via;
  std::vector<std::uint32_t> queue;
  std::vector<std::uint32_t> chain;
};

/// Repairs the entries toward the surviving switch \p d: re-points every
/// source whose walk crosses a failed link or switch (or a hole, or a
/// loop) along a shortest surviving path, and invalidates the ones the
/// failures disconnected. Returns how many previously routable sources
/// it disconnected.
std::size_t PatchColumn(const TopologyGraph& topology, NextHopTable& table,
                        std::size_t d, const std::vector<char>& failed_switches,
                        const Survivors& survivors, ColumnScratch& scratch) {
  constexpr std::uint32_t kUnreached =
      std::numeric_limits<std::uint32_t>::max();
  const std::size_t n = topology.SwitchCount();
  std::vector<std::uint8_t>& status = scratch.status;
  std::vector<std::uint32_t>& chain = scratch.chain;
  // Classify each source's current walk toward d by pointer chasing
  // with memoization: broken iff it crosses a failed link/switch or a
  // hole before reaching d.
  std::fill(status.begin(), status.end(), std::uint8_t{0});
  status[d] = 1;
  for (std::size_t s = 0; s < n; ++s) {
    if (status[s] != 0 || !table[s][d].valid()) {
      continue;
    }
    chain.clear();
    std::size_t cur = s;
    std::uint8_t verdict = 0;
    while (verdict == 0) {
      if (status[cur] != 0) {
        verdict = status[cur];
        break;
      }
      chain.push_back(static_cast<std::uint32_t>(cur));
      if (chain.size() > n) {
        verdict = 2;  // routing loop: the walk never reaches d
        break;
      }
      if (SwitchDown(SwitchId(cur), failed_switches)) {
        verdict = 2;
        break;
      }
      const LinkId l = table[cur][d];
      if (!l.valid() || survivors.link_down[l.value()]) {
        verdict = 2;
        break;
      }
      cur = topology.LinkAt(l).dst.value();
    }
    for (const std::uint32_t v : chain) {
      status[v] = verdict;
    }
  }
  // Broken entries of failed switches are dropped; the others need a
  // surviving path.
  std::size_t pending = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (status[s] == 2 && SwitchDown(SwitchId(s), failed_switches)) {
      table[s][d] = LinkId();
      status[s] = 0;
    } else if (status[s] == 2) {
      ++pending;
    }
  }
  if (pending == 0) {
    return 0;
  }
  // Backward BFS from d over surviving links: dist[s] = surviving hops
  // from s to d, via[s] = the first link of one such shortest path.
  // Incoming links are scanned in ascending id order, so ties break
  // deterministically toward the lowest link id. A switch's via is
  // fixed when it is discovered, so the search stops once every broken
  // source is.
  std::vector<std::uint32_t>& dist = scratch.dist;
  std::fill(dist.begin(), dist.end(), kUnreached);
  dist[d] = 0;
  scratch.queue.assign(1, static_cast<std::uint32_t>(d));
  for (std::size_t head = 0; head < scratch.queue.size() && pending > 0;
       ++head) {
    const std::uint32_t v = scratch.queue[head];
    for (std::uint32_t k = survivors.in_begin[v];
         k < survivors.in_begin[v + 1] && pending > 0; ++k) {
      const std::uint32_t u = survivors.in_src[k];
      if (dist[u] != kUnreached) {
        continue;
      }
      dist[u] = dist[v] + 1;
      scratch.via[u] = survivors.in_link[k];
      scratch.queue.push_back(u);
      pending -= status[u] == 2 ? 1 : 0;
    }
  }
  std::size_t disconnected = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (s == d || status[s] != 2) {
      continue;
    }
    if (dist[s] == kUnreached) {
      table[s][d] = LinkId();
      ++disconnected;
      continue;
    }
    table[s][d] = scratch.via[s];
  }
  return disconnected;
}

}  // namespace

std::size_t PatchNextHopTable(
    const TopologyGraph& topology, NextHopTable& table,
    const std::vector<char>& failed_links,
    const std::vector<char>& failed_switches,
    const std::vector<char>& previous_failed_links,
    const std::vector<char>& previous_failed_switches) {
  const std::size_t n = topology.SwitchCount();
  Require(table.size() == n, "PatchNextHopTable: row count != switch count");
  for (const std::vector<char>* links :
       {&failed_links, &previous_failed_links}) {
    Require(links->empty() || links->size() == topology.LinkCount(),
            "PatchNextHopTable: failed-link mask size mismatch");
  }
  for (const std::vector<char>* switches :
       {&failed_switches, &previous_failed_switches}) {
    Require(switches->empty() || switches->size() == n,
            "PatchNextHopTable: failed-switch mask size mismatch");
  }
  for (std::size_t d = 0; d < n; ++d) {
    Require(table[d].size() == n, [&] {
      return "PatchNextHopTable: malformed row " + std::to_string(d);
    });
  }

  // A switch that failed since loses its column (nothing routes to it)
  // and its row (it forwards nothing).
  for (std::size_t w = 0; w < n; ++w) {
    if (SwitchDown(SwitchId(w), failed_switches) &&
        !SwitchDown(SwitchId(w), previous_failed_switches)) {
      for (std::vector<LinkId>& row : table) {
        row[w] = LinkId();
      }
      std::fill(table[w].begin(), table[w].end(), LinkId());
    }
  }
  // Every walk toward d survived the previous failures, so it breaks
  // now exactly when a surviving switch on it forwards over a link that
  // went down since: only those columns need the repair.
  const Survivors survivors(topology, failed_links, failed_switches);
  std::vector<char> dirty(n, 0);
  for (std::size_t l = 0; l < topology.LinkCount(); ++l) {
    const LinkId link(l);
    const SwitchId src = topology.LinkAt(link).src;
    if (!survivors.link_down[l] || SwitchDown(src, failed_switches) ||
        LinkDown(topology, link, previous_failed_links,
                 previous_failed_switches)) {
      continue;
    }
    const std::vector<LinkId>& row = table[src.value()];
    for (std::size_t d = 0; d < n; ++d) {
      dirty[d] = dirty[d] || row[d] == link;
    }
  }
  std::size_t disconnected = 0;
  ColumnScratch scratch(n);
  for (std::size_t d = 0; d < n; ++d) {
    if (dirty[d] && !SwitchDown(SwitchId(d), failed_switches)) {
      disconnected +=
          PatchColumn(topology, table, d, failed_switches, survivors, scratch);
    }
  }
  return disconnected;
}

void RerouteFlows(NocDesign& design, const std::vector<FlowId>& flows,
                  const std::vector<char>& failed_links,
                  const std::vector<char>& failed_switches,
                  const RouteBuildOptions& options) {
  const TopologyGraph& topology = design.topology;
  Require(failed_links.empty() || failed_links.size() == topology.LinkCount(),
          "RerouteFlows: failed-link mask size mismatch");
  Require(failed_switches.empty() ||
              failed_switches.size() == topology.SwitchCount(),
          "RerouteFlows: failed-switch mask size mismatch");

  // Rip up: congestion committed by every flow except the re-routed set.
  std::vector<char> ripped(design.traffic.FlowCount(), 0);
  for (const FlowId f : flows) {
    Require(f.valid() && f.value() < design.traffic.FlowCount(),
            "RerouteFlows: invalid flow id");
    ripped[f.value()] = 1;
  }
  std::vector<double> committed(topology.LinkCount(), 0.0);
  for (std::size_t fi = 0; fi < design.traffic.FlowCount(); ++fi) {
    if (ripped[fi]) {
      continue;
    }
    const double bw = design.traffic.FlowAt(FlowId(fi)).bandwidth_mbps;
    for (const ChannelId c : design.routes.RouteOf(FlowId(fi))) {
      committed[topology.ChannelAt(c).link.value()] += bw;
    }
  }

  // Heaviest first, stable by flow id — the same discipline BuildRoutes
  // applies to a from-scratch route set.
  std::vector<FlowId> order = flows;
  std::stable_sort(order.begin(), order.end(), [&](FlowId a, FlowId b) {
    return design.traffic.FlowAt(a).bandwidth_mbps >
           design.traffic.FlowAt(b).bandwidth_mbps;
  });

  const std::size_t n = topology.SwitchCount();
  for (const FlowId f : order) {
    const Flow& flow = design.traffic.FlowAt(f);
    const SwitchId src = design.attachment[flow.src.value()];
    const SwitchId dst = design.attachment[flow.dst.value()];
    Require(!SwitchDown(src, failed_switches) &&
                !SwitchDown(dst, failed_switches),
            [&] {
              return "RerouteFlows: endpoint switch of flow " +
                     std::to_string(f.value()) + " has failed";
            });
    if (src == dst) {
      design.routes.SetRoute(f, {});
      continue;
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(n, kInf);
    std::vector<LinkId> via(n);
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        queue;
    dist[src.value()] = 0.0;
    queue.push(QueueEntry{0.0, src.value()});
    while (!queue.empty()) {
      const QueueEntry top = queue.top();
      queue.pop();
      if (top.dist > dist[top.node]) {
        continue;
      }
      if (SwitchId(top.node) == dst) {
        break;
      }
      for (LinkId l : topology.OutLinks(SwitchId(top.node))) {
        if (LinkDown(topology, l, failed_links, failed_switches)) {
          continue;
        }
        const Link& link = topology.LinkAt(l);
        const double penalty =
            options.congestion_weight *
            (committed[l.value()] / options.link_capacity_mbps);
        const double candidate = top.dist + 1.0 + penalty;
        if (candidate + 1e-12 < dist[link.dst.value()]) {
          dist[link.dst.value()] = candidate;
          via[link.dst.value()] = l;
          queue.push(QueueEntry{candidate, link.dst.value()});
        }
      }
    }
    Require(dist[dst.value()] != kInf, [&] {
      return "RerouteFlows: no surviving path for flow " +
             std::to_string(f.value());
    });
    Route route;
    for (SwitchId cur = dst; cur != src;) {
      const LinkId l = via[cur.value()];
      auto channel = topology.FindChannel(l, 0);
      Require(channel.has_value(), "RerouteFlows: link missing VC 0");
      route.push_back(*channel);
      committed[l.value()] += flow.bandwidth_mbps;
      cur = topology.LinkAt(l).src;
    }
    std::reverse(route.begin(), route.end());
    design.routes.SetRoute(f, std::move(route));
  }
}

RouteSet BuildTableRoutes(const TopologyGraph& topology,
                          const CommunicationGraph& traffic,
                          const std::vector<SwitchId>& attachment,
                          const NextHopTable& table) {
  Require(attachment.size() == traffic.CoreCount(),
          "BuildTableRoutes: attachment incomplete");
  Require(table.size() == topology.SwitchCount(),
          "BuildTableRoutes: table row count != switch count");
  RouteSet routes(traffic.FlowCount());
  const std::size_t n = topology.SwitchCount();
  for (std::size_t fi = 0; fi < traffic.FlowCount(); ++fi) {
    const FlowId f(fi);
    const Flow& flow = traffic.FlowAt(f);
    const SwitchId src = attachment[flow.src.value()];
    const SwitchId dst = attachment[flow.dst.value()];
    Route route;
    SwitchId cur = src;
    while (cur != dst) {
      Require(table[cur.value()].size() == n, [&] {
        return "BuildTableRoutes: malformed table row " +
               std::to_string(cur.value());
      });
      const LinkId l = table[cur.value()][dst.value()];
      Require(l.valid(), [&] {
        return "BuildTableRoutes: no next hop from switch " +
               std::to_string(cur.value()) + " to switch " +
               std::to_string(dst.value()) + " for flow " +
               std::to_string(fi);
      });
      Require(topology.IsValidLink(l) && topology.LinkAt(l).src == cur, [&] {
        return "BuildTableRoutes: table entry does not leave switch " +
               std::to_string(cur.value());
      });
      const auto channel = topology.FindChannel(l, 0);
      Require(channel.has_value(), "BuildTableRoutes: link missing VC 0");
      route.push_back(*channel);
      cur = topology.LinkAt(l).dst;
      Require(route.size() <= n, [&] {
        return "BuildTableRoutes: routing loop for flow " +
               std::to_string(fi);
      });
    }
    routes.SetRoute(f, std::move(route));
  }
  return routes;
}

}  // namespace nocdr
