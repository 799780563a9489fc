// Open-loop load generation for the certification service, on
// deterministic virtual time.
//
// bench_serve (PR 5) drives *closed-loop* mixes: the next request is
// only sent when the previous response is back, so the service can
// never fall behind. Real services face *open-loop* arrivals — requests
// land when the world decides, queues grow when service is slower than
// arrival, and tail latency (p99) is the number operators actually
// watch. This module provides that workload model:
//
//   * GenerateTrace — seeded arrival traces: Poisson (exponential
//     inter-arrival) or bursty MMPP-2 (a two-state Markov-modulated
//     Poisson process alternating seeded high-rate bursts and quiet
//     spells), each item stamped with a virtual arrival time in
//     microseconds, a work-item index and a priority class drawn from
//     a configured mix.
//
//   * ReplayTrace — a discrete-event simulation of the serving loop in
//     *virtual time*: S virtual servers, a bounded sched::ReadyQueue
//     with the configured discipline, token-budget admission
//     (sched::AdmissionController) in front. Service time is the
//     deterministic cost model (sched::EstimateCost) scaled by
//     cost_us_per_unit — never a wall clock — so a given (trace,
//     config) pair replays to a bit-identical per-event timeline,
//     latency distribution and digest on every platform, at any thread
//     count. Queue-full and token rejections are the same "overloaded"
//     verdict the live service answers.
//
//   * RunOpenLoop — the virtual replay plus a *real* serving pass: the
//     served events are executed against a live CertificationService
//     (stateless certify items batched over N client threads) and
//     SessionService (fault_burst items applied in deterministic
//     completion order), folding the payload digests into the replay
//     digest. The combined digest is identical for any client thread
//     count: virtual time fixes the schedule, the service's
//     determinism contract fixes the payloads.
//
// bench_serve_load turns these into the p50/p90/p99 + goodput +
// fairness rows the CI perf gate pins (docs/OPERATIONS.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/sched.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/enum_names.h"

namespace nocdr::serve::load {

enum class ArrivalKind {
  kPoisson,  // memoryless exponential inter-arrival
  kBursty,   // MMPP-2: seeded burst / idle phases
};

inline constexpr auto kArrivalKindNames = MakeEnumTable<ArrivalKind>({
    {ArrivalKind::kPoisson, "poisson"},
    {ArrivalKind::kBursty, "bursty"},
});

inline std::string ArrivalKindName(ArrivalKind kind) {
  return kArrivalKindNames.Name(kind);
}
inline std::optional<ArrivalKind> ParseArrivalKind(const std::string& name) {
  return kArrivalKindNames.Parse(name);
}
inline std::vector<ArrivalKind> AllArrivalKinds() {
  return kArrivalKindNames.All();
}

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Long-run mean arrival rate, requests per virtual second.
  double rate_per_sec = 200.0;

  // ---- kBursty (MMPP-2) ----
  /// Burst-state rate multiplier over rate_per_sec.
  double burst_factor = 6.0;
  /// Idle-state rate multiplier (usually < 1).
  double idle_factor = 0.25;
  /// Mean dwell in the burst state, virtual milliseconds.
  double mean_burst_ms = 40.0;
  /// Mean dwell in the idle state, virtual milliseconds.
  double mean_idle_ms = 160.0;
};

/// One priority class of a trace mix. `share`s are normalized over the
/// mix; rank feeds the kPriority discipline (lower = more urgent).
struct TraceClassMix {
  std::string name = sched::kDefaultClass;
  int rank = 0;
  double share = 1.0;
};

/// One open-loop arrival.
struct TraceItem {
  std::uint64_t arrival_us = 0;
  /// Index into the caller's work-item corpus.
  std::size_t work_index = 0;
  std::string class_name;
  int rank = 0;
};

/// Draws \p count arrivals over \p corpus_size work items. Work-item
/// choice is repeat-heavy like real traffic: with probability
/// \p hot_fraction the item comes from the hot fifth of the corpus.
/// Byte-identical for identical arguments on every platform.
std::vector<TraceItem> GenerateTrace(const ArrivalConfig& arrival,
                                     std::size_t count,
                                     std::size_t corpus_size,
                                     const std::vector<TraceClassMix>& mix,
                                     std::uint64_t seed,
                                     double hot_fraction = 0.8);

struct ReplayConfig {
  sched::Discipline discipline = sched::Discipline::kFifo;
  /// Virtual service slots (the modeled compute width).
  std::size_t servers = 4;
  /// Ready-queue bound; arrivals beyond it are rejected "overloaded".
  std::size_t queue_capacity = 64;
  /// Virtual service time per cost unit (sched::EstimateCost).
  double cost_us_per_unit = 1.0;
  /// SJF tie-break seed (sched::ReadyQueue).
  std::uint64_t seed = 1;
  /// Token-budget admission in front of the queue; disabled = admit
  /// everything the queue can hold.
  sched::AdmissionConfig admission;
};

enum class Verdict {
  kServed,
  kRejectedTokens,  // token budget exhausted at arrival
  kRejectedQueue,   // no free server and the ready queue was full
};

inline constexpr auto kVerdictNames = MakeEnumTable<Verdict>({
    {Verdict::kServed, "served"},
    {Verdict::kRejectedTokens, "rejected_tokens"},
    {Verdict::kRejectedQueue, "rejected_queue"},
});

inline std::string VerdictName(Verdict verdict) {
  return kVerdictNames.Name(verdict);
}

/// What happened to one trace item, on the virtual timeline. Latency
/// (done - arrival) and wait (start - arrival) are derived.
struct EventOutcome {
  Verdict verdict = Verdict::kServed;
  std::uint64_t arrival_us = 0;
  std::uint64_t start_us = 0;  // service start; == arrival when no wait
  std::uint64_t done_us = 0;
  std::uint64_t cost = 0;
  std::size_t trace_index = 0;

  [[nodiscard]] std::uint64_t LatencyUs() const {
    return done_us - arrival_us;
  }
  [[nodiscard]] std::uint64_t WaitUs() const { return start_us - arrival_us; }
};

/// Latency distribution over the served events, virtual microseconds.
struct LatencySummary {
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
};

/// Per-class fairness counters of one replay.
struct ClassLoadStats {
  std::string name;
  int rank = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected_tokens = 0;
  std::uint64_t rejected_queue = 0;
  std::uint64_t cost_served = 0;
  std::uint64_t total_wait_us = 0;
  std::uint64_t max_wait_us = 0;
};

struct LoadReport {
  /// Trace order (events[i] is trace[i]'s outcome).
  std::vector<EventOutcome> events;
  /// Mix order, classes seen only in the trace appended.
  std::vector<ClassLoadStats> classes;
  LatencySummary latency;
  std::size_t served = 0;
  std::size_t rejected_tokens = 0;
  std::size_t rejected_queue = 0;
  /// Last virtual completion time.
  std::uint64_t makespan_us = 0;
  /// Served requests per virtual second.
  double goodput_per_sec = 0.0;
  /// Busy server-time over servers * makespan.
  double utilization = 0.0;
  /// FNV-1a over every event's (verdict, times, cost, class), trace
  /// order — the bit-identical-replay witness.
  std::uint64_t digest = 0;
};

/// Pure virtual-time replay: deterministic, no service involved.
/// \p costs[i] is the cost of work item i (sched::EstimateCost of its
/// design); trace items index into it.
LoadReport ReplayTrace(const std::vector<TraceItem>& trace,
                       const std::vector<std::uint64_t>& costs,
                       const ReplayConfig& config);

/// One entry of the work-item corpus an open-loop run serves: a
/// stateless certify request, or a fault_burst applied to a live
/// session (burst.session_id must name a session open on the
/// SessionService passed to RunOpenLoop).
struct WorkItem {
  bool is_session = false;
  CertRequest certify;    // valid iff !is_session
  SessionRequest burst;   // valid iff is_session
  /// sched::EstimateCost of the materialized design (callers compute it
  /// once at corpus build).
  std::uint64_t cost = 1;
};

struct OpenLoopOutcome {
  LoadReport report;
  /// ResponseDigest over the stateless responses, completion order.
  std::uint64_t response_digest = 0;
  /// SessionResponseDigest over the burst responses, completion order.
  std::uint64_t session_digest = 0;
  /// FNV-1a over (report.digest, response_digest, session_digest) —
  /// identical for any client_threads.
  std::uint64_t combined_digest = 0;
  /// Responses that were not kOk (0 on a healthy run).
  std::size_t bad_responses = 0;
};

/// Virtual replay + real serving pass (see the header comment).
/// \p sessions may be null when the corpus has no session items.
OpenLoopOutcome RunOpenLoop(CertificationService& service,
                            SessionService* sessions,
                            const std::vector<WorkItem>& corpus,
                            const std::vector<TraceItem>& trace,
                            const ReplayConfig& config,
                            std::size_t client_threads = 0);

}  // namespace nocdr::serve::load
