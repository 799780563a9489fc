#include "util/canonical.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "noc/io.h"
#include "util/digest.h"
#include "util/error.h"

namespace nocdr {

namespace {

/// Checks that the switch or core names of one namespace read back as
/// themselves and are distinct, so that the text names the same
/// elements the design holds.
class NameCheck {
 public:
  explicit NameCheck(const char* what) : what_(what) {}

  void Add(const std::string& name) {
    Require(TextToken(name) == name, [&] {
      return std::string("CanonicalizeDesign: ") + what_ + " name \"" + name +
             "\" is not a text token";
    });
    Require(seen_.insert(name).second, [&] {
      return std::string("CanonicalizeDesign: duplicate ") + what_ +
             " name \"" + name + "\"";
    });
  }

 private:
  const char* what_;
  std::unordered_set<std::string_view> seen_;
};

/// \p value as the text reads it back once its rendering is stable: a
/// subnormal value can need a second rounding. The rounding is
/// monotone, so the loop ends.
double CanonicalBandwidth(double value) {
  for (;;) {
    const std::optional<double> rounded = TextBandwidth(value);
    Require(rounded.has_value(),
            "CanonicalizeDesign: a flow bandwidth is not finite");
    if (*rounded == value) {
      return value;
    }
    value = *rounded;
  }
}

}  // namespace

std::string DesignText(const NocDesign& design) {
  std::string text;
  AppendDesignText(text, design);
  return text;
}

NocDesign IoCanonicalize(const NocDesign& design) {
  return ReadDesign(DesignText(design));
}

bool IsIoStable(const NocDesign& design) {
  return DesignText(IoCanonicalize(design)) == DesignText(design);
}

std::vector<std::uint32_t> CanonicalChannelIds(const TopologyGraph& topology) {
  std::vector<std::uint32_t> first(topology.LinkCount());
  std::uint32_t next = 0;
  for (std::size_t l = 0; l < first.size(); ++l) {
    first[l] = next;
    next += static_cast<std::uint32_t>(topology.VcCount(LinkId(l)));
  }
  std::vector<std::uint32_t> ids(topology.ChannelCount());
  for (std::size_t c = 0; c < ids.size(); ++c) {
    const Channel& channel = topology.ChannelAt(ChannelId(c));
    ids[c] = first[channel.link.value()] + channel.vc;
  }
  return ids;
}

CanonicalDesign CanonicalizeDesign(const NocDesign& design) {
  const TopologyGraph& topology = design.topology;
  const CommunicationGraph& traffic = design.traffic;
  const std::size_t flow_count = traffic.FlowCount();

  // Each route's sort key, (link, vc) per hop packed into one word,
  // computed once into one flat array.
  std::vector<std::uint64_t> hops;
  std::vector<std::size_t> first_hop(flow_count + 1);
  for (std::size_t f = 0; f < flow_count; ++f) {
    first_hop[f] = hops.size();
    for (const ChannelId c : design.routes.RouteOf(FlowId(f))) {
      const Channel& channel = topology.ChannelAt(c);
      hops.push_back(std::uint64_t{channel.link.value()} << 32 | channel.vc);
    }
  }
  first_hop[flow_count] = hops.size();

  // Canonical flow order: ascending (src, dst, bandwidth, route).
  std::vector<std::size_t> order(flow_count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    const Flow& fa = traffic.FlowAt(FlowId(a));
    const Flow& fb = traffic.FlowAt(FlowId(b));
    if (fa.src != fb.src) {
      return fa.src.value() < fb.src.value();
    }
    if (fa.dst != fb.dst) {
      return fa.dst.value() < fb.dst.value();
    }
    if (fa.bandwidth_mbps != fb.bandwidth_mbps) {
      return fa.bandwidth_mbps < fb.bandwidth_mbps;
    }
    return std::lexicographical_compare(
        hops.begin() + first_hop[a], hops.begin() + first_hop[a + 1],
        hops.begin() + first_hop[b], hops.begin() + first_hop[b + 1]);
  });

  // Build the design the text describes: names and bandwidths as the
  // text reads them back, links with their VCs appended in place (so
  // channel ids come out link-major), flows in canonical order.
  CanonicalDesign out;
  NocDesign& canonical = out.design;
  const std::string_view name =
      design.name.empty() ? std::string_view("unnamed") : design.name;
  Require(name.find('\n') == std::string_view::npos &&
              !TextToken(name).empty(),
          [&] {
            return "CanonicalizeDesign: design name \"" + design.name +
                   "\" has no text token";
          });
  canonical.name = TextToken(name);

  NameCheck switch_names("switch");
  for (std::size_t s = 0; s < topology.SwitchCount(); ++s) {
    const std::string& switch_name = topology.SwitchName(SwitchId(s));
    switch_names.Add(switch_name);
    canonical.topology.AddSwitch(switch_name);
  }
  for (std::size_t l = 0; l < topology.LinkCount(); ++l) {
    const Link& link = topology.LinkAt(LinkId(l));
    const LinkId added = canonical.topology.AddLink(link.src, link.dst);
    for (std::size_t vc = 1; vc < topology.VcCount(LinkId(l)); ++vc) {
      canonical.topology.AddVirtualChannel(added);
    }
  }
  NameCheck core_names("core");
  for (std::size_t c = 0; c < traffic.CoreCount(); ++c) {
    const std::string& core_name = traffic.CoreName(CoreId(c));
    core_names.Add(core_name);
    canonical.traffic.AddCore(core_name);
    canonical.attachment.push_back(design.SwitchOf(CoreId(c)));
  }

  const std::vector<std::uint32_t> ids = CanonicalChannelIds(topology);
  canonical.routes.Resize(flow_count);
  for (const std::size_t original : order) {
    const Flow& flow = traffic.FlowAt(FlowId(original));
    const FlowId f = canonical.traffic.AddFlow(
        flow.src, flow.dst, CanonicalBandwidth(flow.bandwidth_mbps));
    const Route& source = design.routes.RouteOf(FlowId(original));
    Route& route = canonical.routes.MutableRouteOf(f);
    route.reserve(source.size());
    for (const ChannelId c : source) {
      route.emplace_back(ids[c.value()]);
    }
  }
  canonical.Validate();
  AppendDesignText(out.text, canonical);
  return out;
}

void DigestRemovalOptions(std::uint64_t& h, const RemovalOptions& options) {
  DigestField(h, static_cast<std::uint64_t>(options.cycle_policy));
  DigestField(h, static_cast<std::uint64_t>(options.direction_policy));
  DigestField(h, static_cast<std::uint64_t>(options.duplication));
  DigestField(h, static_cast<std::uint64_t>(options.max_iterations));
}

std::uint64_t CanonicalDesignDigest(const NocDesign& design,
                                    const RemovalOptions& options,
                                    bool treat) {
  return CanonicalTextDigest(CanonicalizeDesign(design).text, options,
                             treat);
}

std::uint64_t CanonicalTextDigest(const std::string& canonical_text,
                                  const RemovalOptions& options,
                                  bool treat) {
  std::uint64_t h = kFnvOffsetBasis;
  DigestField(h, canonical_text);
  DigestRemovalOptions(h, options);
  DigestField(h, static_cast<std::uint64_t>(treat));
  return h;
}

}  // namespace nocdr
