#include "serve/load_gen.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace nocdr::serve::load {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void FoldU64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  }
}

void FoldString(std::uint64_t& h, const std::string& s) {
  FoldU64(h, s.size());
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
}

/// One exponential inter-arrival draw in virtual microseconds.
/// glibc/libc++ std::log is correctly rounded for doubles, so the draw
/// is bit-identical across the CI compilers.
double ExpDraw(Rng& rng, double rate_per_us) {
  const double u = rng.NextDouble();
  return -std::log(1.0 - u) / rate_per_us;
}

}  // namespace

std::vector<TraceItem> GenerateTrace(const ArrivalConfig& arrival,
                                     std::size_t count,
                                     std::size_t corpus_size,
                                     const std::vector<TraceClassMix>& mix,
                                     std::uint64_t seed,
                                     double hot_fraction) {
  if (corpus_size == 0) {
    throw std::invalid_argument("GenerateTrace: empty corpus");
  }
  if (arrival.rate_per_sec <= 0.0) {
    throw std::invalid_argument("GenerateTrace: rate_per_sec must be > 0");
  }
  std::vector<TraceClassMix> classes = mix;
  if (classes.empty()) {
    classes.push_back(TraceClassMix{});
  }
  double total_share = 0.0;
  for (const TraceClassMix& c : classes) {
    total_share += std::max(0.0, c.share);
  }
  if (total_share <= 0.0) {
    total_share = 1.0;
  }

  // Independent sub-streams so e.g. changing the class mix never
  // perturbs the arrival-time sequence.
  Rng rng(seed);
  Rng time_rng = rng.Fork();
  Rng item_rng = rng.Fork();
  Rng class_rng = rng.Fork();

  const double base_rate_us = arrival.rate_per_sec / 1e6;
  // MMPP-2 state; ignored for kPoisson.
  bool in_burst = false;
  double phase_end_us = 0.0;
  if (arrival.kind == ArrivalKind::kBursty) {
    phase_end_us = ExpDraw(time_rng, 1.0 / (arrival.mean_idle_ms * 1000.0));
  }

  const std::size_t hot = std::max<std::size_t>(1, corpus_size / 5);

  std::vector<TraceItem> trace;
  trace.reserve(count);
  double now_us = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (arrival.kind == ArrivalKind::kPoisson) {
      now_us += ExpDraw(time_rng, base_rate_us);
    } else {
      // Draw the next arrival of the modulated process: while the
      // candidate falls past the current phase, advance to the phase
      // boundary, toggle the state, and redraw at the new rate.
      for (;;) {
        const double rate =
            base_rate_us *
            (in_burst ? arrival.burst_factor : arrival.idle_factor);
        const double candidate = now_us + ExpDraw(time_rng, rate);
        if (candidate <= phase_end_us) {
          now_us = candidate;
          break;
        }
        now_us = phase_end_us;
        in_burst = !in_burst;
        const double mean_ms =
            in_burst ? arrival.mean_burst_ms : arrival.mean_idle_ms;
        phase_end_us = now_us + ExpDraw(time_rng, 1.0 / (mean_ms * 1000.0));
      }
    }

    TraceItem item;
    item.arrival_us = static_cast<std::uint64_t>(now_us);
    item.work_index = item_rng.NextBool(hot_fraction)
                          ? static_cast<std::size_t>(item_rng.NextBelow(hot))
                          : static_cast<std::size_t>(
                                item_rng.NextBelow(corpus_size));
    double pick = class_rng.NextDouble() * total_share;
    const TraceClassMix* chosen = &classes.back();
    for (const TraceClassMix& c : classes) {
      pick -= std::max(0.0, c.share);
      if (pick < 0.0) {
        chosen = &c;
        break;
      }
    }
    item.class_name = chosen->name;
    item.rank = chosen->rank;
    trace.push_back(std::move(item));
  }
  return trace;
}

LoadReport ReplayTrace(const std::vector<TraceItem>& trace,
                       const std::vector<std::uint64_t>& costs,
                       const ReplayConfig& config) {
  if (config.servers == 0) {
    throw std::invalid_argument("ReplayTrace: servers must be > 0");
  }
  LoadReport report;
  report.events.resize(trace.size());

  sched::AdmissionController admission(config.admission,
                                       trace.empty() ? 0
                                                     : trace.front().arrival_us);
  sched::ReadyQueue queue(config.discipline, config.seed,
                          config.queue_capacity);
  // Busy virtual servers, as a min-heap of completion times.
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<std::uint64_t>>
      busy;

  const auto service_us = [&](std::uint64_t cost) {
    const double us = static_cast<double>(cost) * config.cost_us_per_unit;
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(us)));
  };

  const auto start_job = [&](const sched::Job& job, std::uint64_t start) {
    EventOutcome& event = report.events[job.payload];
    event.verdict = Verdict::kServed;
    event.arrival_us = job.arrival_us;
    event.start_us = start;
    event.done_us = start + service_us(job.cost);
    event.cost = job.cost;
    event.trace_index = job.payload;
    busy.push(event.done_us);
  };

  // Frees servers whose jobs complete at or before `horizon`, handing
  // each freed slot to the best queued job. A handed-off job's own
  // completion lands back in the heap, so one drain can cascade.
  const auto drain = [&](std::uint64_t horizon) {
    while (!busy.empty() && busy.top() <= horizon) {
      const std::uint64_t freed = busy.top();
      busy.pop();
      if (std::optional<sched::Job> job = queue.Pop()) {
        start_job(*job, freed);
      }
    }
  };

  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceItem& item = trace[i];
    const std::uint64_t cost =
        item.work_index < costs.size() ? costs[item.work_index] : 1;
    drain(item.arrival_us);

    EventOutcome& event = report.events[i];
    event.arrival_us = item.arrival_us;
    event.start_us = item.arrival_us;
    event.done_us = item.arrival_us;
    event.cost = cost;
    event.trace_index = i;

    if (!admission.TryAdmit(item.class_name, cost, item.arrival_us)) {
      event.verdict = Verdict::kRejectedTokens;
      continue;
    }
    sched::Job job;
    job.seq = seq++;
    job.cost = cost;
    job.rank = item.rank;
    job.arrival_us = item.arrival_us;
    job.payload = i;
    if (busy.size() < config.servers) {
      start_job(job, item.arrival_us);
    } else if (!queue.Push(job)) {
      event.verdict = Verdict::kRejectedQueue;
    }
    // Queued jobs get their outcome when a server frees up.
  }
  // End of arrivals: let the backlog run dry.
  while (!busy.empty()) {
    drain(busy.top());
  }

  // ---- summarize, in trace order ----
  std::vector<ClassLoadStats> classes;
  for (const sched::ClassConfig& c : config.admission.classes) {
    ClassLoadStats stats;
    stats.name = c.name;
    stats.rank = c.rank;
    classes.push_back(stats);
  }
  const auto class_stats = [&](const std::string& name,
                               int rank) -> ClassLoadStats& {
    const std::string& key = name.empty() ? sched::kDefaultClass : name;
    for (ClassLoadStats& c : classes) {
      if (c.name == key) {
        return c;
      }
    }
    ClassLoadStats stats;
    stats.name = key;
    stats.rank = rank;
    classes.push_back(stats);
    return classes.back();
  };

  std::vector<std::uint64_t> latencies;
  latencies.reserve(trace.size());
  std::uint64_t busy_us = 0;
  std::uint64_t digest = kFnvOffset;
  double latency_sum = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const EventOutcome& event = report.events[i];
    ClassLoadStats& stats = class_stats(trace[i].class_name, trace[i].rank);
    ++stats.arrivals;
    switch (event.verdict) {
      case Verdict::kServed: {
        ++report.served;
        ++stats.served;
        stats.cost_served += event.cost;
        const std::uint64_t wait = event.WaitUs();
        stats.total_wait_us += wait;
        stats.max_wait_us = std::max(stats.max_wait_us, wait);
        latencies.push_back(event.LatencyUs());
        latency_sum += static_cast<double>(event.LatencyUs());
        busy_us += event.done_us - event.start_us;
        report.makespan_us = std::max(report.makespan_us, event.done_us);
        break;
      }
      case Verdict::kRejectedTokens:
        ++report.rejected_tokens;
        ++stats.rejected_tokens;
        break;
      case Verdict::kRejectedQueue:
        ++report.rejected_queue;
        ++stats.rejected_queue;
        break;
    }
    report.makespan_us = std::max(report.makespan_us, event.arrival_us);
    FoldU64(digest, static_cast<std::uint64_t>(event.verdict));
    FoldU64(digest, event.arrival_us);
    FoldU64(digest, event.start_us);
    FoldU64(digest, event.done_us);
    FoldU64(digest, event.cost);
    FoldString(digest, trace[i].class_name);
  }
  report.classes = std::move(classes);
  report.digest = digest;

  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto pct = [&](double p) {
      const std::size_t idx = std::min(
          latencies.size() - 1,
          static_cast<std::size_t>(p * static_cast<double>(latencies.size())));
      return latencies[idx];
    };
    report.latency.p50 = pct(0.50);
    report.latency.p90 = pct(0.90);
    report.latency.p99 = pct(0.99);
    report.latency.max = latencies.back();
    report.latency.mean = latency_sum / static_cast<double>(latencies.size());
  }
  if (report.makespan_us > 0) {
    report.goodput_per_sec = static_cast<double>(report.served) /
                             (static_cast<double>(report.makespan_us) / 1e6);
    report.utilization =
        static_cast<double>(busy_us) /
        (static_cast<double>(config.servers) *
         static_cast<double>(report.makespan_us));
  }
  return report;
}

OpenLoopOutcome RunOpenLoop(CertificationService& service,
                            SessionService* sessions,
                            const std::vector<WorkItem>& corpus,
                            const std::vector<TraceItem>& trace,
                            const ReplayConfig& config,
                            std::size_t client_threads) {
  OpenLoopOutcome outcome;
  std::vector<std::uint64_t> costs;
  costs.reserve(corpus.size());
  for (const WorkItem& item : corpus) {
    costs.push_back(item.cost);
  }
  outcome.report = ReplayTrace(trace, costs, config);

  // Served events in virtual completion order — the deterministic
  // sequence the real pass executes.
  std::vector<std::size_t> served;
  for (const EventOutcome& event : outcome.report.events) {
    if (event.verdict == Verdict::kServed) {
      served.push_back(event.trace_index);
    }
  }
  std::sort(served.begin(), served.end(), [&](std::size_t a, std::size_t b) {
    const EventOutcome& ea = outcome.report.events[a];
    const EventOutcome& eb = outcome.report.events[b];
    if (ea.done_us != eb.done_us) {
      return ea.done_us < eb.done_us;
    }
    return a < b;
  });

  // Stateless certify items go wide through ServeBatch (payloads are
  // deterministic for any thread count); session bursts mutate live
  // session state, so they apply sequentially in completion order.
  std::vector<CertRequest> requests;
  std::vector<const WorkItem*> session_items;
  for (const std::size_t trace_index : served) {
    const WorkItem& item = corpus[trace[trace_index].work_index];
    if (item.is_session) {
      session_items.push_back(&item);
    } else {
      requests.push_back(item.certify);
    }
  }

  const std::vector<CertResponse> responses =
      service.ServeBatch(requests, client_threads);
  for (const CertResponse& response : responses) {
    if (response.status != ServeStatus::kOk) {
      ++outcome.bad_responses;
    }
  }
  outcome.response_digest = ResponseDigest(responses);

  std::vector<SessionResponse> session_responses;
  if (!session_items.empty()) {
    if (sessions == nullptr) {
      throw std::invalid_argument(
          "RunOpenLoop: corpus has session items but no SessionService");
    }
    session_responses.reserve(session_items.size());
    for (const WorkItem* item : session_items) {
      session_responses.push_back(sessions->Handle(item->burst));
      if (session_responses.back().status != ServeStatus::kOk) {
        ++outcome.bad_responses;
      }
    }
  }
  outcome.session_digest = SessionResponseDigest(session_responses);

  std::uint64_t combined = kFnvOffset;
  FoldU64(combined, outcome.report.digest);
  FoldU64(combined, outcome.response_digest);
  FoldU64(combined, outcome.session_digest);
  outcome.combined_digest = combined;
  return outcome;
}

}  // namespace nocdr::serve::load
