#include "sim/simulator.h"

#include <algorithm>
#include <array>
#include <optional>
#include <queue>
#include <span>

#include "sim/event_queue.h"
#include "sim/transition.h"
#include "sim/work_set.h"
#include "util/error.h"

namespace nocdr {

namespace {

/// Internal description of a reconfiguration transition (see
/// sim/transition.h). Null for plain SimulateWorkload runs, whose
/// behavior must stay bit-identical.
struct TransitionSpec {
  const RouteSet* pre_routes = nullptr;
  const std::vector<char>* dead_channels = nullptr;  // may be empty
  std::uint64_t cycle = 0;
  bool midflight = false;
};

/// Wormhole ownership of a channel as one comparable word: the owning
/// packet's flow in the high half, its sequence number in the low half.
using OwnerKey = std::uint64_t;
constexpr OwnerKey kNoOwner = ~OwnerKey{0};

OwnerKey KeyOf(const PacketKey& packet) {
  return (static_cast<OwnerKey>(packet.flow.value()) << 32) |
         packet.sequence;
}

/// End of a waiter list.
constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};

/// Injection state of one flow.
struct SourceState {
  std::uint32_t next_packet = 0;   // next schedule entry to inject
  std::uint16_t next_flit = 0;     // 0 = must inject the head
  std::uint64_t head_injected_at = 0;
  /// Route epoch the in-progress packet's head was injected under; body
  /// flits must inherit it so a worm straddling a mid-flight transition
  /// stays on one route.
  std::uint8_t packet_epoch = 0;
};

class Engine {
 public:
  Engine(const NocDesign& design, const SimConfig& config,
         const TrafficSchedule& schedule,
         const TransitionSpec* transition = nullptr)
      : config_(config),
        transition_(transition),
        depth_(config.buffer_depth),
        // A buffer only ever holds flits of the worm that owns it (a head
        // may enter only an unowned channel, and the owner is released
        // when its tail leaves), so a ring never needs more slots than a
        // packet has flits.
        ring_(std::min<std::uint32_t>(config.buffer_depth,
                                      config.traffic.packet_length)),
        sources_(design.traffic.FlowCount()) {
    const std::size_t channels = design.topology.ChannelCount();
    const std::size_t flows = sources_.size();
    result_.packets_offered = schedule.TotalPackets();
    result_.flows.resize(flows);
    result_.channel_flits.assign(channels, 0);
    flow_latency_sum_.assign(flows, 0);

    slots_.resize(channels * ring_);
    head_.assign(channels, 0);
    size_.assign(channels, 0);
    owner_.assign(channels, kNoOwner);
    link_of_.resize(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      link_of_[c] = design.topology.ChannelAt(ChannelId(c)).link.value();
    }
    const RouteSet& first_routes =
        transition != nullptr ? *transition->pre_routes : design.routes;
    ready_.resize(flows);
    routes_[0].resize(flows);
    routes_[1].resize(flows);
    for (std::size_t f = 0; f < flows; ++f) {
      ready_[f] = schedule.ReadyCycles(FlowId(f));
      routes_[0][f] = first_routes.RouteOf(FlowId(f));
      routes_[1][f] = design.routes.RouteOf(FlowId(f));
    }

    link_stamp_.assign(design.topology.LinkCount(), 0);
    claim_stamp_.assign(channels, 0);
    slot_stamp_.assign(channels, 0);
    free_slots_.assign(channels, 0);
    active_.Reset(channels);
    parked_channels_.Reset(channels);
    armed_.Reset(flows);
    parked_flows_.Reset(flows);
    slot_waiters_.assign(channels, kNoWaiter);
    owner_waiters_.assign(channels, kNoWaiter);
    wait_next_.assign(channels + flows, kNoWaiter);
    for (std::size_t f = 0; f < flows; ++f) {
      const auto id = static_cast<std::uint32_t>(f);
      if (ready_[f].empty()) {
        ++drained_sources_;
      } else if (ready_[f][0] == 0) {
        Arm(id);
      } else {
        DeferFlow(id, ready_[f][0]);
      }
    }
  }

  SimResult Run() {
    std::uint64_t last_progress = 0;
    cycle_ = 0;
    while (cycle_ < config_.max_cycles) {
      if (transition_ != nullptr && !epoch_switched_) {
        MaybeTransition();
      }
      const bool moved = Step();
      if (moved) {
        last_progress = cycle_;
      }
      if (result_.packets_delivered + packets_dropped_ ==
              result_.packets_offered &&
          AllSourcesDrained()) {
        ++cycle_;
        break;
      }
      // Early exact detection: a cycle of hard waits is permanent.
      if (cycle_ % config_.deadlock_check_interval == 0 && FlitsInFlight() &&
          DetectCircularWait()) {
        result_.deadlocked = true;
        break;
      }
      // Watchdog: arbitration is work-conserving, so a total stall with
      // flits in flight means no flit is movable — every buffer front is
      // hard-blocked, which in a finite network implies a circular wait
      // even when it hides behind empty-but-owned channels that the
      // channel-level detector cannot chain through.
      if (cycle_ - last_progress >= config_.stall_threshold &&
          FlitsInFlight()) {
        result_.deadlocked = true;
        DetectCircularWait();  // best effort: attach a certificate
        break;
      }
      if (EventDriven() && moved) {
        // The cycle changed state, so the very next cycle may act on the
        // freed credits / released ownerships / fresh flits; announce it
        // with the most specific event kind the cycle produced.
        EventKind kind = EventKind::kArbitrationWake;
        if (tail_ejected_) {
          kind = EventKind::kWormCompletion;
        } else if (!ejects_.empty() || !moves_.empty()) {
          kind = EventKind::kCreditReturn;
        }
        events_.Push({cycle_ + 1, kind, 0});
      }
      if (EventDriven() && !moved) {
        // Nothing moved, so the network state is a fixed point until an
        // external event: jump heap-to-heap instead of grinding through
        // idle cycles. NextWakeCycle never skips a cycle the
        // cycle-accurate engines could have acted on.
        cycle_ = NextWakeCycle(last_progress);
      } else {
        ++cycle_;
      }
    }
    result_.cycles = cycle_;
    for (const std::uint32_t size : size_) {
      result_.stuck_flits += size;
    }
    if (result_.flits_delivered > 0 && result_.packets_delivered > 0) {
      result_.avg_packet_latency =
          static_cast<double>(latency_sum_) /
          static_cast<double>(result_.packets_delivered);
    }
    for (std::size_t f = 0; f < result_.flows.size(); ++f) {
      FlowStats& stats = result_.flows[f];
      if (stats.packets_delivered > 0) {
        stats.avg_latency = static_cast<double>(flow_latency_sum_[f]) /
                            static_cast<double>(stats.packets_delivered);
      }
    }
    return result_;
  }

 private:
  /// True for the engines that maintain the active/armed worklists and
  /// park blocked heads (the event engine is the worklist step machinery
  /// under an event-driven clock); false only for the full-scan
  /// reference.
  [[nodiscard]] bool Worklist() const {
    return config_.engine != SimEngine::kFullScan;
  }

  [[nodiscard]] bool EventDriven() const {
    return config_.engine == SimEngine::kEvent;
  }

  /// Defers flow \p f until \p ready: an injection event for the event
  /// engine, a ready-heap entry for the worklist engine. (The full-scan
  /// engine re-polls every flow each cycle and ignores both, but
  /// deferring is harmless and keeps the constructor engine-agnostic.)
  void DeferFlow(std::uint32_t f, std::uint64_t ready) {
    if (EventDriven()) {
      events_.Push({ready, EventKind::kFlitInjection, f});
    } else {
      ready_heap_.push({ready, f});
    }
  }

  void Arm(std::uint32_t f) {
    armed_.Insert(f);
    ++armed_count_;
  }

  void Disarm(std::uint32_t f) {
    armed_.Erase(f);
    --armed_count_;
  }

  /// Earliest future cycle at which anything observable can happen,
  /// given that the just-simulated cycle moved nothing (so the network
  /// state is frozen until then). Candidates: the next queued event
  /// (flit injection or wake), the transition window (which must tick
  /// cycle-by-cycle to count drain cycles exactly), the next periodic
  /// deadlock-check boundary, and the stall watchdog's expiry. Clamped
  /// to max_cycles, which ends the run just like the cycle-accurate
  /// engines spinning out their budget.
  [[nodiscard]] std::uint64_t NextWakeCycle(std::uint64_t last_progress) {
    while (!events_.Empty() && events_.Top().cycle <= cycle_) {
      events_.PopTop();  // already handled by this cycle's step
    }
    std::uint64_t next = config_.max_cycles;
    if (transition_ != nullptr && !epoch_switched_) {
      if (cycle_ + 1 >= transition_->cycle) {
        return cycle_ + 1;  // inside the pre-switch window: tick
      }
      next = std::min(next, transition_->cycle);
    }
    if (!events_.Empty()) {
      next = std::min(next, events_.Top().cycle);
    }
    if (FlitsInFlight()) {
      const std::uint64_t interval = config_.deadlock_check_interval;
      next = std::min(next, (cycle_ / interval + 1) * interval);
      next = std::min(next, last_progress + config_.stall_threshold);
    }
    return std::max(next, cycle_ + 1);
  }

  [[nodiscard]] bool FlitsInFlight() const {
    if (Worklist()) {
      return flits_in_network_ > 0;
    }
    return std::any_of(size_.begin(), size_.end(),
                       [](std::uint32_t size) { return size != 0; });
  }

  [[nodiscard]] bool AllSourcesDrained() const {
    if (Worklist()) {
      return drained_sources_ == sources_.size();
    }
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i].next_packet < ready_[i].size()) {
        return false;
      }
    }
    return true;
  }

  /// Route a flit is bound to: in a transition run, packets injected
  /// before the switch (epoch 0) follow the pre-fault routes, everything
  /// else the design's routes. Outside transitions both epochs hold the
  /// design's routes.
  [[nodiscard]] std::span<const ChannelId> RouteFor(const Flit& flit) const {
    return routes_[flit.route_epoch][flit.packet.flow.value()];
  }

  [[nodiscard]] Flit& Slot(std::uint32_t c, std::uint32_t i) {
    std::uint32_t pos = head_[c] + i;
    if (pos >= ring_) {
      pos -= ring_;
    }
    return slots_[static_cast<std::size_t>(c) * ring_ + pos];
  }

  [[nodiscard]] const Flit& Front(std::uint32_t c) const {
    return slots_[static_cast<std::size_t>(c) * ring_ + head_[c]];
  }

  Flit PopFront(std::uint32_t c) {
    const Flit flit = Front(c);
    head_[c] = head_[c] + 1 == ring_ ? 0 : head_[c] + 1;
    if (--size_[c] == 0) {
      active_.Erase(c);
    }
    Wake(slot_waiters_[c]);
    if (flit.is_tail) {
      Wake(owner_waiters_[c]);  // the tail releases c's owner
    }
    return flit;
  }

  void PushBack(std::uint32_t c, const Flit& flit) {
    Slot(c, size_[c]) = flit;
    if (size_[c]++ == 0) {
      active_.Insert(c);
    }
  }

  [[nodiscard]] bool ForeignOwned(std::uint32_t t, OwnerKey packet) const {
    return owner_[t] != kNoOwner && owner_[t] != packet;
  }

  /// True when channel \p t refuses every flit of \p packet until it
  /// pops one: it is full, or another worm owns it. This is the hard
  /// wait of the circular-wait check.
  [[nodiscard]] bool Blocks(std::uint32_t t, OwnerKey packet) const {
    return size_[t] >= depth_ || ForeignOwned(t, packet);
  }

  /// Parked blocked heads. Called after a failed claim on \p t by
  /// \p waiter (channel c as waiter c, flow f as waiter channels + f) for
  /// a flit of \p packet. If t blocks the claim at cycle start (buffers
  /// and owners change only in Commit), the claim fails, without side
  /// effects, on every cycle until t pops a flit: a pop is the only way
  /// t frees a slot or releases its owner. The waiter then sleeps on one
  /// of t's intrusive waiter lists and is masked out of the visits until
  /// that pop wakes it: a foreign owner holds t until its tail leaves, so
  /// its waiters wait for the tail; a full buffer of the waiter's own
  /// worm frees a slot on any pop.
  void ParkIfBlocked(std::uint32_t waiter, std::uint32_t t, OwnerKey packet) {
    std::uint32_t* list = nullptr;
    if (ForeignOwned(t, packet)) {
      list = &owner_waiters_[t];
    } else if (size_[t] >= depth_) {
      list = &slot_waiters_[t];
    } else {
      return;  // lost to another claim this cycle: retry next cycle
    }
    wait_next_[waiter] = *list;
    *list = waiter;
    const auto channels = static_cast<std::uint32_t>(size_.size());
    if (waiter < channels) {
      parked_channels_.Insert(waiter);
    } else {
      parked_flows_.Insert(waiter - channels);
    }
  }

  /// Unmasks every waiter of \p list and empties it.
  void Wake(std::uint32_t& list) {
    const auto channels = static_cast<std::uint32_t>(size_.size());
    for (std::uint32_t w = list; w != kNoWaiter; w = wait_next_[w]) {
      if (w < channels) {
        parked_channels_.Erase(w);
      } else {
        parked_flows_.Erase(w - channels);
      }
    }
    list = kNoWaiter;
  }

  void WakeAll() {
    parked_channels_.Clear();
    parked_flows_.Clear();
    std::fill(slot_waiters_.begin(), slot_waiters_.end(), kNoWaiter);
    std::fill(owner_waiters_.begin(), owner_waiters_.end(), kNoWaiter);
  }

  [[nodiscard]] bool NoSourceMidPacket() const {
    for (const SourceState& src : sources_) {
      if (src.next_flit != 0) {
        return false;
      }
    }
    return true;
  }

  /// Runs once per cycle from the transition cycle until the route
  /// generations are swapped. Mid-flight: destroy the packets the fault
  /// caught, swap immediately. Drain-and-restart: suspend new packets,
  /// swap once the network is empty.
  void MaybeTransition() {
    if (cycle_ < transition_->cycle) {
      return;
    }
    if (transition_->midflight) {
      KillDeadPackets();
      SwitchEpoch();
      return;
    }
    inject_suspended_ = true;
    if (!FlitsInFlight() && NoSourceMidPacket()) {
      inject_suspended_ = false;
      SwitchEpoch();
    } else {
      ++drain_cycles_;
    }
  }

  /// New packets take the post-fault routes from here on. A parked
  /// injection waits on its pre-fault first channel and a drain ends its
  /// suspension, so every waiter is woken to re-evaluate.
  void SwitchEpoch() {
    epoch_switched_ = true;
    WakeAll();
  }

  /// Destroys every packet that occupies a dead channel or whose
  /// remaining route needs one: flits vanish from the buffers, channel
  /// ownerships are released, mid-worm sources skip the rest of the
  /// packet. The survivors keep flowing on their pre-fault routes.
  void KillDeadPackets() {
    const std::vector<char>* dead = transition_->dead_channels;
    if (dead == nullptr || dead->empty()) {
      return;
    }
    const auto channels = static_cast<std::uint32_t>(size_.size());
    // A flit in flight sits on channel route[hop], so scanning the route
    // from `hop` covers both "on a dead channel" and "needs one later".
    std::vector<OwnerKey> doomed;
    const auto needs_dead = [&](std::span<const ChannelId> route,
                                std::size_t from) {
      return std::any_of(route.begin() + static_cast<std::ptrdiff_t>(from),
                         route.end(),
                         [&](ChannelId c) { return (*dead)[c.value()]; });
    };
    for (std::uint32_t c = 0; c < channels; ++c) {
      for (std::uint32_t i = 0; i < size_[c]; ++i) {
        const Flit& flit = Slot(c, i);
        if (needs_dead(RouteFor(flit), flit.hop)) {
          doomed.push_back(KeyOf(flit.packet));
        }
      }
    }
    for (std::size_t f = 0; f < sources_.size(); ++f) {
      const SourceState& src = sources_[f];
      // Not mid-worm: future packets take the new routes. Mid-worm
      // packets were all injected before the switch, under epoch 0.
      if (src.next_flit != 0 && needs_dead(routes_[0][f], 0)) {
        doomed.push_back(KeyOf(PacketKey{FlowId(f), src.next_packet}));
      }
    }
    if (doomed.empty()) {
      return;
    }
    std::sort(doomed.begin(), doomed.end());
    doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
    const auto is_doomed = [&](OwnerKey key) {
      return std::binary_search(doomed.begin(), doomed.end(), key);
    };
    for (std::uint32_t c = 0; c < channels; ++c) {
      // Compact the survivors towards the ring head, in order: slot
      // `kept` was already read when slot `i` >= kept is.
      std::uint32_t kept = 0;
      for (std::uint32_t i = 0; i < size_[c]; ++i) {
        const Flit flit = Slot(c, i);
        if (!is_doomed(KeyOf(flit.packet))) {
          Slot(c, kept++) = flit;
        }
      }
      flits_in_network_ -= size_[c] - kept;
      size_[c] = kept;
      if (kept == 0) {
        active_.Erase(c);
      }
      if (owner_[c] != kNoOwner && is_doomed(owner_[c])) {
        owner_[c] = kNoOwner;
      }
    }
    for (std::size_t f = 0; f < sources_.size(); ++f) {
      SourceState& src = sources_[f];
      if (src.next_flit != 0 &&
          is_doomed(KeyOf(PacketKey{FlowId(f), src.next_packet}))) {
        src.next_flit = 0;
        ++src.next_packet;
        NotePacketInjected(FlowId(f));
      }
    }
    packets_dropped_ += doomed.size();
  }

  /// One simulated cycle; returns true when at least one flit moved.
  ///
  /// Every engine visits channels in ascending id order starting at
  /// (cycle mod channel count) with wraparound, then flows likewise —
  /// the rotating round-robin. Channels with empty buffers, drained
  /// flows and parked claimants are no-ops under that scan, so the
  /// worklist engine skipping them is semantics-preserving, and the
  /// event engine additionally skipping whole cycles in which nothing
  /// could move (see NextWakeCycle) preserves the cycle numbering those
  /// pivots depend on. All three engines therefore stay bit-identical.
  bool Step() {
    stamp_ = cycle_ + 1;  // distinct from the 0 the scratch stamps start at
    moves_.clear();
    ejects_.clear();
    injections_.clear();
    tail_ejected_ = false;

    bool moved = false;
    if (config_.inject_first) {
      moved |= PlanInjections();
      moved |= PlanForwards();
    } else {
      moved |= PlanForwards();
      moved |= PlanInjections();
    }
    Commit();
    return moved;
  }

  /// Plans every possible channel traversal this cycle, in rotating
  /// round-robin order over channel ids.
  bool PlanForwards() {
    bool moved = false;
    const std::size_t n = size_.size();
    if (Worklist()) {
      if (flits_in_network_ > 0) {
        active_.VisitFrom(cycle_ % n, parked_channels_, [&](std::uint32_t c) {
          moved |= TryForwardFrom(c);
        });
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        moved |= TryForwardFrom(static_cast<std::uint32_t>((k + cycle_) % n));
      }
    }
    return moved;
  }

  /// Plans every possible injection this cycle, in rotating round-robin
  /// order over flow ids.
  bool PlanInjections() {
    bool moved = false;
    const std::size_t flows = sources_.size();
    if (Worklist()) {
      ArmReadyFlows();
      if (armed_count_ > 0) {
        armed_.VisitFrom(cycle_ % flows, parked_flows_, [&](std::uint32_t f) {
          moved |= TryInject(f);
        });
      }
    } else {
      for (std::size_t k = 0; k < flows; ++k) {
        moved |= TryInject(static_cast<std::uint32_t>((k + cycle_) % flows));
      }
    }
    return moved;
  }

  /// Arms the flows whose next packet became ready by now. The armed set
  /// is a bitset, so the order equal ready times pop in (heap order, or
  /// the event queue's tie-break) does not matter.
  void ArmReadyFlows() {
    if (EventDriven()) {
      // Drain every event due this cycle: injection events arm their
      // flow; credit-return / worm-completion / arbitration wakes exist
      // to pull the clock here and are consumed by the step itself.
      while (!events_.Empty() && events_.Top().cycle <= cycle_) {
        const SimEvent event = events_.PopTop();
        if (event.kind == EventKind::kFlitInjection) {
          Arm(event.id);
        }
      }
    } else {
      while (!ready_heap_.empty() && ready_heap_.top().first <= cycle_) {
        Arm(ready_heap_.top().second);
        ready_heap_.pop();
      }
    }
  }

  /// Plans the move of the head flit of channel \p c, if possible.
  bool TryForwardFrom(std::uint32_t c) {
    if (size_[c] == 0) {
      return false;
    }
    const Flit& flit = Front(c);
    const std::span<const ChannelId> route = RouteFor(flit);
    if (flit.hop + 1u == route.size()) {
      // Last channel: eject into the destination NI (ideal sink).
      ejects_.push_back(c);
      return true;
    }
    const std::uint32_t t = route[flit.hop + 1].value();
    if (!ClaimTransfer(t, flit)) {
      if (Worklist()) {
        ParkIfBlocked(c, t, KeyOf(flit.packet));
      }
      return false;
    }
    moves_.push_back({c, t});
    return true;
  }

  /// Plans injecting the next flit of flow \p f, if one is ready.
  bool TryInject(std::uint32_t f) {
    SourceState& src = sources_[f];
    const std::span<const std::uint64_t> ready = ready_[f];
    if (src.next_packet >= ready.size() || ready[src.next_packet] > cycle_) {
      return false;
    }
    // A drain suspends new packets only; a worm already under way keeps
    // injecting so it can leave the network whole.
    if (inject_suspended_ && src.next_flit == 0) {
      return false;
    }
    if (src.next_flit == 0) {
      src.packet_epoch =
          (transition_ != nullptr && epoch_switched_) ? 1 : 0;
    }
    const std::span<const ChannelId> route = routes_[src.packet_epoch][f];
    if (route.empty()) {
      // Core-local flow: delivered through the switch's local crossbar
      // turnaround without using any network channel.
      ++src.next_packet;
      ++result_.packets_injected;
      ++result_.packets_delivered;
      result_.flits_delivered += config_.traffic.packet_length;
      latency_sum_ += 1;
      result_.max_packet_latency = std::max<std::uint64_t>(
          result_.max_packet_latency, 1);
      FlowStats& stats = result_.flows[f];
      ++stats.packets_delivered;
      stats.max_latency = std::max<std::uint64_t>(stats.max_latency, 1);
      flow_latency_sum_[f] += 1;
      NotePacketInjected(FlowId(f));
      return true;
    }
    Flit flit;
    flit.packet = PacketKey{FlowId(f), src.next_packet};
    flit.index = src.next_flit;
    flit.is_head = src.next_flit == 0;
    flit.is_tail = src.next_flit + 1u == config_.traffic.packet_length;
    flit.hop = 0;
    flit.injected_at = flit.is_head ? cycle_ : src.head_injected_at;
    flit.route_epoch = src.packet_epoch;
    const std::uint32_t t = route.front().value();
    if (!ClaimTransfer(t, flit)) {
      if (Worklist()) {
        ParkIfBlocked(static_cast<std::uint32_t>(size_.size()) + f, t,
                      KeyOf(flit.packet));
      }
      return false;
    }
    injections_.push_back({t, flit});
    if (flit.is_head) {
      src.head_injected_at = cycle_;
      ++result_.packets_injected;
    }
    if (flit.is_tail) {
      ++src.next_packet;
      src.next_flit = 0;
      NotePacketInjected(FlowId(f));
    } else {
      ++src.next_flit;
    }
    return true;
  }

  /// Bookkeeping after a packet finished injecting (tail planned, or a
  /// core-local delivery) in the worklist engines: the flow either
  /// drained, stays armed (next packet already ready), or is deferred
  /// until its next packet's ready cycle. The full scan re-polls every
  /// flow and keeps no such state.
  void NotePacketInjected(FlowId f) {
    if (!Worklist()) {
      return;
    }
    const std::uint32_t id = f.value();
    const std::uint32_t next = sources_[id].next_packet;
    if (next >= ready_[id].size()) {
      ++drained_sources_;
      Disarm(id);
    } else if (ready_[id][next] > cycle_) {
      Disarm(id);
      DeferFlow(id, ready_[id][next]);
    }
  }

  /// Claimable free slots of channel \p t this cycle, lazily initialized
  /// from the buffer occupancy at cycle start (buffers only change in
  /// Commit, after all planning).
  int& FreeSlots(std::uint32_t t) {
    if (slot_stamp_[t] != stamp_) {
      slot_stamp_[t] = stamp_;
      free_slots_[t] =
          static_cast<int>(depth_) - static_cast<int>(size_[t]);
    }
    return free_slots_[t];
  }

  /// Claims buffer space, link bandwidth and wormhole ownership for
  /// moving \p flit into channel \p t. Returns false (claiming nothing)
  /// if any resource is unavailable this cycle.
  bool ClaimTransfer(std::uint32_t t, const Flit& flit) {
    const std::uint32_t link = link_of_[t];
    if (link_stamp_[link] == stamp_) {
      return false;
    }
    if (FreeSlots(t) <= 0) {
      return false;
    }
    if (owner_[t] != kNoOwner) {
      if (owner_[t] != KeyOf(flit.packet)) {
        return false;  // channel held by another worm
      }
    } else {
      // Only a head flit may allocate a free channel, and only one head
      // per channel per cycle.
      if (!flit.is_head || claim_stamp_[t] == stamp_) {
        return false;
      }
      claim_stamp_[t] = stamp_;
    }
    link_stamp_[link] = stamp_;
    --FreeSlots(t);
    return true;
  }

  /// Applies the planned ejections, forwards and injections. Every pop
  /// wakes the claimants parked on the popped channel.
  void Commit() {
    for (const std::uint32_t c : ejects_) {
      const Flit flit = PopFront(c);
      --flits_in_network_;
      ++result_.flits_delivered;
      ++result_.channel_flits[c];
      if (flit.is_tail) {
        owner_[c] = kNoOwner;
        tail_ejected_ = true;
        ++result_.packets_delivered;
        const std::uint64_t latency = cycle_ - flit.injected_at + 1;
        latency_sum_ += latency;
        result_.max_packet_latency =
            std::max(result_.max_packet_latency, latency);
        FlowStats& stats = result_.flows[flit.packet.flow.value()];
        ++stats.packets_delivered;
        stats.max_latency = std::max(stats.max_latency, latency);
        flow_latency_sum_[flit.packet.flow.value()] += latency;
      }
    }
    for (const auto& [from, to] : moves_) {
      Flit flit = PopFront(from);
      ++result_.channel_flits[from];
      if (flit.is_head) {
        owner_[to] = KeyOf(flit.packet);
      }
      if (flit.is_tail) {
        owner_[from] = kNoOwner;
      }
      ++flit.hop;
      PushBack(to, flit);
    }
    for (const auto& [to, flit] : injections_) {
      if (flit.is_head) {
        owner_[to] = KeyOf(flit.packet);
      }
      PushBack(to, flit);
      ++flits_in_network_;
    }
  }

  /// Exact circular-wait detection. Build the wait-for graph restricted
  /// to *hard* waits: the head flit of channel c needs channel t, and t
  /// is either owned by a different packet or has no free slot. A
  /// directed cycle of hard waits can never resolve (wormhole channels
  /// are non-preemptible), so it is a deadlock certificate.
  bool DetectCircularWait() {
    const std::size_t n = size_.size();
    waits_on_.assign(n, -1);
    const auto consider = [&](std::uint32_t c) {
      if (size_[c] == 0) {
        return;
      }
      const Flit& flit = Front(c);
      const std::span<const ChannelId> route = RouteFor(flit);
      if (flit.hop + 1u == route.size()) {
        return;  // ejection never blocks
      }
      const std::uint32_t t = route[flit.hop + 1].value();
      if (Blocks(t, KeyOf(flit.packet))) {
        waits_on_[c] = static_cast<std::int32_t>(t);
      }
    };
    if (Worklist()) {
      active_.ForEach(consider);
    } else {
      for (std::size_t c = 0; c < n; ++c) {
        consider(static_cast<std::uint32_t>(c));
      }
    }
    // Functional graph (out-degree <= 1): cycle detection by pointer
    // chasing with a visit stamp.
    visit_mark_.assign(n, 0);
    for (std::size_t start = 0; start < n; ++start) {
      if (waits_on_[start] < 0 || visit_mark_[start] != 0) {
        continue;
      }
      std::size_t cur = start;
      const std::uint32_t mark = static_cast<std::uint32_t>(start) + 1;
      while (waits_on_[cur] >= 0 && visit_mark_[cur] == 0) {
        visit_mark_[cur] = mark;
        cur = static_cast<std::size_t>(waits_on_[cur]);
      }
      if (waits_on_[cur] >= 0 && visit_mark_[cur] == mark) {
        // Found a cycle through `cur`; record it for the report.
        std::size_t walker = cur;
        do {
          result_.deadlock_cycle.push_back(ChannelId(walker));
          walker = static_cast<std::size_t>(waits_on_[walker]);
        } while (walker != cur);
        return true;
      }
    }
    return false;
  }

  SimConfig config_;
  const TransitionSpec* transition_;
  std::uint32_t depth_;  // buffer depth: the slots flow control grants
  std::uint32_t ring_;   // ring slots per channel actually stored
  std::vector<SourceState> sources_;
  SimResult result_;
  std::uint64_t cycle_ = 0;
  std::uint64_t latency_sum_ = 0;
  std::vector<std::uint64_t> flow_latency_sum_;

  // Flat network state. Channel c's buffer is the ring
  // slots_[c * ring_ .. (c + 1) * ring_) holding size_[c] flits from
  // head_[c] on; owner_[c] is its wormhole owner. Routes and ready
  // cycles are views into the design and the schedule; routes_[e][f] is
  // flow f's route under epoch e.
  std::vector<Flit> slots_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> size_;
  std::vector<OwnerKey> owner_;
  std::vector<std::uint32_t> link_of_;
  std::array<std::vector<std::span<const ChannelId>>, 2> routes_;
  std::vector<std::span<const std::uint64_t>> ready_;

  // Per-cycle planning scratch, epoch-stamped so no O(channels) clearing
  // is needed between cycles (stamp == cycle + 1 means "set this cycle").
  std::uint64_t stamp_ = 0;
  std::vector<std::uint64_t> link_stamp_;
  std::vector<std::uint64_t> claim_stamp_;
  std::vector<std::uint64_t> slot_stamp_;
  std::vector<int> free_slots_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> moves_;
  std::vector<std::uint32_t> ejects_;
  std::vector<std::pair<std::uint32_t, Flit>> injections_;

  // Circular-wait scratch, kept across checks.
  std::vector<std::int32_t> waits_on_;
  std::vector<std::uint32_t> visit_mark_;

  // Worklist-engine state. `active_` holds the channels with a non-empty
  // buffer, `armed_` the flows with a ready packet pending injection
  // (armed_count_ of them). Flows whose next packet lies in the future
  // wait in ready_heap_, a min-heap on the ready cycle, so lightly
  // loaded flows cost nothing per cycle. Parked claimants (see
  // ParkIfBlocked) stay in their set and are masked out by
  // parked_channels_ / parked_flows_; slot_waiters_[t] and
  // owner_waiters_[t] head channel t's two intrusive waiter lists,
  // threaded through wait_next_.
  WorkSet active_;
  WorkSet parked_channels_;
  WorkSet armed_;
  WorkSet parked_flows_;
  std::size_t armed_count_ = 0;
  std::vector<std::uint32_t> slot_waiters_;
  std::vector<std::uint32_t> owner_waiters_;
  std::vector<std::uint32_t> wait_next_;
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                      std::greater<>>
      ready_heap_;
  std::uint64_t flits_in_network_ = 0;
  std::size_t drained_sources_ = 0;

  // Event-engine state: the discrete-event queue (flit-injection events
  // replace the ready heap; wake events record why time stopped at a
  // cycle) and the per-cycle worm-completion marker that picks the wake
  // kind.
  EventQueue events_;
  bool tail_ejected_ = false;

  // Transition-run state; inert for plain SimulateWorkload runs.
  bool epoch_switched_ = false;
  bool inject_suspended_ = false;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t drain_cycles_ = 0;

 public:
  [[nodiscard]] std::uint64_t packets_dropped() const {
    return packets_dropped_;
  }
  [[nodiscard]] std::uint64_t drain_cycles() const { return drain_cycles_; }
};

}  // namespace

SimResult SimulateWorkload(const NocDesign& design, const SimConfig& config) {
  Require(config.traffic.packet_length >= 1,
          "SimulateWorkload: packets need at least one flit");
  Require(config.buffer_depth >= 1,
          "SimulateWorkload: buffers need at least one slot");
  const TrafficSchedule schedule(design, config.traffic, config.max_cycles);
  Engine engine(design, config, schedule);
  return engine.Run();
}

SimResult SimulateWorkload(const NocDesign& design, const SimConfig& config,
                           const TrafficSchedule& schedule) {
  Require(config.traffic.packet_length >= 1,
          "SimulateWorkload: packets need at least one flit");
  Require(config.buffer_depth >= 1,
          "SimulateWorkload: buffers need at least one slot");
  Require(schedule.FlowCount() == design.traffic.FlowCount(),
          "SimulateWorkload: schedule not sized for the design's flows");
  Engine engine(design, config, schedule);
  return engine.Run();
}

TransitionResult SimulateTransition(const NocDesign& post_design,
                                    const RouteSet& pre_routes,
                                    const std::vector<char>& dead_channels,
                                    const TransitionConfig& config) {
  Require(config.sim.traffic.packet_length >= 1,
          "SimulateTransition: packets need at least one flit");
  Require(config.sim.buffer_depth >= 1,
          "SimulateTransition: buffers need at least one slot");
  Require(pre_routes.FlowCount() == post_design.traffic.FlowCount(),
          "SimulateTransition: pre-fault routes not sized for the design");
  Require(dead_channels.empty() ||
              dead_channels.size() == post_design.topology.ChannelCount(),
          "SimulateTransition: dead-channel mask not sized for the design");

  TransitionSpec spec;
  spec.pre_routes = &pre_routes;
  spec.dead_channels = &dead_channels;
  spec.cycle = config.transition_cycle;
  spec.midflight = config.policy == TransitionPolicy::kMidFlight;

  const TrafficSchedule schedule(post_design, config.sim.traffic,
                                 config.sim.max_cycles);
  Engine engine(post_design, config.sim, schedule, &spec);
  TransitionResult result;
  result.sim = engine.Run();
  result.packets_dropped = engine.packets_dropped();
  result.drain_cycles = engine.drain_cycles();
  return result;
}

}  // namespace nocdr
