#include "noc/routing.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/error.h"

namespace nocdr {

const Route& RouteSet::RouteOf(FlowId f) const {
  Require(f.valid() && f.value() < routes_.size(),
          "RouteOf: no route for flow");
  return routes_[f.value()];
}

Route& RouteSet::MutableRouteOf(FlowId f) {
  Require(f.valid() && f.value() < routes_.size(),
          "MutableRouteOf: no route for flow");
  return routes_[f.value()];
}

void RouteSet::SetRoute(FlowId f, Route route) {
  Require(f.valid() && f.value() < routes_.size(),
          "SetRoute: no slot for flow");
  routes_[f.value()] = std::move(route);
}

namespace {

/// Index of the first hop of route[0, end) that repeats an earlier hop,
/// or \p end. Routes are short, so most take the allocation-free
/// quadratic scan; long ones sort (channel, index) pairs instead.
std::size_t FirstRepeat(const Route& route, std::size_t end) {
  constexpr std::size_t kScanLimit = 32;
  if (end <= kScanLimit) {
    for (std::size_t i = 1; i < end; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (route[j] == route[i]) {
          return i;
        }
      }
    }
    return end;
  }
  std::vector<std::pair<ChannelId, std::size_t>> hops(end);
  for (std::size_t i = 0; i < end; ++i) {
    hops[i] = {route[i], i};
  }
  std::sort(hops.begin(), hops.end());
  std::size_t first = end;
  for (std::size_t k = 1; k < end; ++k) {
    if (hops[k].first == hops[k - 1].first) {
      first = std::min(first, hops[k].second);
    }
  }
  return first;
}

}  // namespace

void ValidateRoute(const TopologyGraph& topology, const Route& route,
                   SwitchId src_switch, SwitchId dst_switch,
                   const std::string& what) {
  if (route.empty()) {
    Require(src_switch == dst_switch, [&] {
      return what + ": empty route between distinct switches";
    });
    return;
  }
  // The first hop that is unknown or repeats an earlier one names the
  // error: a repeat inside the known prefix, else the unknown hop.
  std::size_t known = 0;
  while (known < route.size() && topology.IsValidChannel(route[known])) {
    ++known;
  }
  Require(FirstRepeat(route, known) == known,
          [&] { return what + ": route repeats a channel (routing loop)"; });
  Require(known == route.size(),
          [&] { return what + ": route references unknown channel"; });
  const Link& first = topology.LinkAt(topology.ChannelAt(route.front()).link);
  Require(first.src == src_switch, [&] {
    return what + ": route does not start at the source switch";
  });
  const Link& last = topology.LinkAt(topology.ChannelAt(route.back()).link);
  Require(last.dst == dst_switch, [&] {
    return what + ": route does not end at the destination switch";
  });
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const Link& a = topology.LinkAt(topology.ChannelAt(route[i]).link);
    const Link& b = topology.LinkAt(topology.ChannelAt(route[i + 1]).link);
    Require(a.dst == b.src, [&] {
      return what + ": discontiguous route at hop " + std::to_string(i);
    });
  }
}

}  // namespace nocdr
