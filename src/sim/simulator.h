// Cycle-accurate flit-level wormhole network simulator.
//
// Validates the library's whole premise end to end: designs whose CDG has
// a cycle really do freeze under load, and designs processed by the
// removal algorithm (or resource ordering) run the same workload to
// completion.
//
// Model:
//   * source routing — every packet follows its flow's static route, a
//     list of (link, VC) channels taken verbatim from the design;
//   * wormhole switching — the head flit acquires each channel buffer for
//     the whole packet, the tail flit releases it; body flits may only
//     enter channels their packet owns;
//   * credit/occupancy flow control — a flit advances only into a buffer
//     slot that exists; each physical link carries one flit per cycle;
//     each buffer pops at most one flit per cycle;
//   * rotating round-robin arbitration for links, buffers and injection,
//     making every run deterministic for a given seed;
//   * deadlock detection — a progress watchdog plus an exact circular-
//     wait check on the channel wait-for graph (a cycle of full or
//     foreign-owned channels each blocking the next is a deadlock by
//     definition: no preemption, no timeout in wormhole switching).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "noc/design.h"
#include "sim/flit.h"
#include "sim/traffic_gen.h"
#include "util/enum_names.h"

namespace nocdr {

/// How the engine finds work each cycle. All three engines simulate the
/// same cycle-level semantics and produce bit-identical SimResults
/// (property-tested three ways across the corpus); they differ only in
/// what a cycle — or the absence of one — costs.
enum class SimEngine {
  /// Bitset worklists of non-empty channels and armed flows, plus
  /// parked blocked heads: a channel head or flow whose claim failed on
  /// a channel that is full or held by another worm sleeps on that
  /// channel until it pops a flit (the only way it can free a slot or
  /// release its owner). Idle channels and flows cost nothing, and under
  /// saturating load a cycle costs only the claims that can succeed —
  /// what makes million-packet validation campaigns tractable on large
  /// designs.
  kWorklist,
  /// The reference formulation: scan every channel and every flow each
  /// cycle, retrying every blocked claim. Kept as the oracle the other
  /// engines are differential-tested and benchmarked against.
  kFullScan,
  /// Discrete-event core: the worklist step machinery driven by a
  /// binary-heap EventQueue (sim/event_queue.h) of flit-injection,
  /// credit-return, worm-completion and arbitration-wake events keyed
  /// by (cycle, deterministic tie-break). Time advances heap-to-heap:
  /// cycles in which provably nothing can move — no flit in flight that
  /// moved last cycle, no armed flow, no pending event, no transition
  /// window, no deadlock-check deadline — are skipped outright, so idle
  /// time on large sparse designs costs nothing. Wakes land on exactly
  /// the cycles the cycle-accurate engines would have acted on, which
  /// is what keeps the results bit-identical.
  kEvent,
};

/// Stable lowercase engine names, in the fixed differential-test order
/// (reference first).
inline constexpr auto kSimEngineNames = MakeEnumTable<SimEngine>({
    {SimEngine::kFullScan, "fullscan"},
    {SimEngine::kWorklist, "worklist"},
    {SimEngine::kEvent, "event"},
});

inline std::vector<SimEngine> AllEngines() { return kSimEngineNames.All(); }
inline std::string EngineName(SimEngine engine) {
  return kSimEngineNames.Name(engine);
}
inline std::optional<SimEngine> ParseEngine(const std::string& name) {
  return kSimEngineNames.Parse(name);
}

struct SimConfig {
  SimEngine engine = SimEngine::kWorklist;
  /// Arbitrate injections before in-network traversals instead of after.
  /// Both orders are legal router arbitrations; the default favors
  /// in-network traffic (the common switch allocator policy), which can
  /// phase-lock some statically unsafe designs into a live steady state
  /// — a freed channel is always re-taken by the parked waiter it would
  /// have starved. Injection-first is the adversarial order validation
  /// campaigns use to detonate such designs (src/valid/).
  bool inject_first = false;
  /// Buffer depth of every channel (flits).
  std::uint16_t buffer_depth = 4;
  /// Hard cap on simulated cycles.
  std::uint64_t max_cycles = 200000;
  /// Declare no-progress after this many cycles without any flit motion
  /// while flits are in flight.
  std::uint64_t stall_threshold = 2000;
  /// How often to run the exact circular-wait check.
  std::uint64_t deadlock_check_interval = 256;
  TrafficConfig traffic;
};

/// Per-flow delivery statistics.
struct FlowStats {
  std::uint64_t packets_delivered = 0;
  double avg_latency = 0.0;
  std::uint64_t max_latency = 0;
};

/// Outcome of one simulation run.
struct SimResult {
  std::uint64_t cycles = 0;
  std::uint64_t packets_offered = 0;    // per the traffic schedule
  std::uint64_t packets_injected = 0;   // entered the network (or local)
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_delivered = 0;
  bool deadlocked = false;
  /// Channels participating in the detected circular wait (empty unless
  /// deadlocked).
  std::vector<ChannelId> deadlock_cycle;
  std::uint64_t stuck_flits = 0;
  double avg_packet_latency = 0.0;
  std::uint64_t max_packet_latency = 0;
  /// Per-flow breakdown, indexed by FlowId.
  std::vector<FlowStats> flows;
  /// Flits forwarded out of each channel buffer, indexed by ChannelId;
  /// divided by cycles this is the channel utilization.
  std::vector<std::uint64_t> channel_flits;

  [[nodiscard]] bool AllDelivered() const {
    return packets_delivered == packets_offered;
  }

  /// Utilization of a channel in [0, 1] (flits forwarded per cycle).
  [[nodiscard]] double ChannelUtilization(ChannelId c) const {
    if (cycles == 0 || c.value() >= channel_flits.size()) {
      return 0.0;
    }
    return static_cast<double>(channel_flits[c.value()]) /
           static_cast<double>(cycles);
  }
};

/// Runs the workload described by \p config.traffic on \p design.
/// The design must satisfy Validate().
SimResult SimulateWorkload(const NocDesign& design, const SimConfig& config);

/// As above, but injects from \p schedule instead of synthesizing one
/// from config.traffic. The schedule must have been built for this
/// design (one entry list per flow). Lets engine benchmarks share one
/// schedule across engines and time the simulation alone — Bernoulli
/// schedule synthesis is O(flows x horizon) and identical for every
/// engine, so folding it into the measurement would mask the engine
/// difference it exists to expose.
SimResult SimulateWorkload(const NocDesign& design, const SimConfig& config,
                           const TrafficSchedule& schedule);

}  // namespace nocdr
