// warm_open: seeded Poisson arrivals at a fixed ladder of offered rates
// against a warm service, sent on schedule by two client threads (an
// open loop).
//
// The corpus is 200 small designs named three ways (generator specs,
// source+seed draws, inline text). 80% of arrivals pick the hot fifth of
// the corpus; one in five is an inline re-rendering of a corpus design
// (shuffled flow order, a comment), which misses the front memo but hits
// the canonical cache; one in a hundred is a never-seen design, sent
// twice back to back, which misses every tier and may coalesce. The
// memory tier holds fewer entries than the corpus, so cold draws come
// from the disk tier.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "gen/generators.h"
#include "layers.h"
#include "serve/service.h"
#include "util/canonical.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = nocdr::serve;
namespace gen = nocdr::gen;

constexpr std::size_t kCorpusSize = 200;
constexpr std::size_t kHotItems = kCorpusSize / 5;
constexpr double kHotShare = 0.8;
constexpr double kReRenderShare = 0.2;
constexpr double kNovelShare = 0.01;
/// Seed of the corpus draws. The corpus is the same in every run, like
/// the fixed designs of fault_stream and sim_saturate: which designs
/// landed in the hot fifth set the cost of a hit and of a re-rendering,
/// and with a corpus drawn from the workload seed latency_p50_ms moved
/// by a fifth between seeds. The workload seed draws the arrivals: their
/// times, which items they pick, the re-renderings' flow orders and the
/// never-seen designs.
constexpr std::uint64_t kCorpusSeed = 0x636f72707573ull;
/// Memory-tier entries: below the corpus, so the disk tier serves.
constexpr std::size_t kMemoryEntries = 64;

/// The offered-rate ladder, in requests per second, a quarter of the run
/// each: a light step, about 1/3 and 2/3 of the warm path's capacity, and
/// past it, far enough that the service and not the offered rate sets the
/// top step's completions. The capacity on one CPU (RunOnOneCpu) was about
/// 3,500 req/s at the reference speed on a 4-vCPU host. Fixed, so a
/// faster service shows as lower latency at the same rates.
constexpr double kRates[] = {300.0, 1100.0, 2300.0, 8000.0};
/// The nominal rate: latency_p50_ms and latency_p90_ms, timed from send
/// to response, and latency_p99_ms and loadgen.lag_p99_ms, timed from the
/// due time. Timed from the due time, the median at this rate moved from
/// 0.15 to 1.8 ms between runs with the same cache behaviour, because one
/// stall of the shared machine queues hundreds of requests; send to
/// response it is the warm path's own cost. At the light step it moved by
/// twice as much between seeds as at 6,000 req/s on an earlier, unpinned
/// ladder: its 1,100 requests were a twentieth as many, and each one
/// starts on a client just woken from a sleep.
constexpr std::size_t kNominalStep = 2;
/// The step past capacity: throughput_rps, completions per second while
/// the clients are behind the schedule, so the service sets the pace.
constexpr std::size_t kTopStep = 3;
/// Token budget of the admission policy, one token per cache miss: far
/// above the misses any step sends (about 1% of arrivals, some 40 a
/// second past capacity), so every miss passes the token bucket and none
/// is refused. A refusal would count as a failed operation.
constexpr double kAdmissionTokensPerSec = 2000.0;
/// p99 limit at every rate; see perfbench/README.md for the choice.
constexpr double kLatencyLimitMs = 50.0;
/// Host-speed samples before, between and after the rate steps.
constexpr int kSpeedSamplesPerStep = 25;

serve::CertRequest CorpusRequest(std::uint64_t seed, std::size_t index,
                                 nocdr::NocDesign* design) {
  serve::CertRequest request;
  nocdr::Rng rng(DeriveSeed(seed, index));
  const std::uint64_t item_seed = rng.Next();
  gen::GeneratorSpec spec;
  spec.seed = item_seed;
  switch (rng.NextBelow(4)) {
    case 0:
      spec.family = gen::TopologyFamily::kMesh2D;
      spec.width = 3 + rng.NextBelow(4);
      spec.height = 3 + rng.NextBelow(4);
      break;
    case 1:
      spec.family = gen::TopologyFamily::kTorus2D;
      spec.width = 3 + rng.NextBelow(3);
      spec.height = 3 + rng.NextBelow(3);
      break;
    case 2:
      spec.family = gen::TopologyFamily::kRing;
      spec.ring_nodes = 6 + rng.NextBelow(11);
      break;
    default:
      spec.family = gen::TopologyFamily::kFatTree;
      spec.tree_arity = 2;
      spec.tree_levels = 2 + rng.NextBelow(2);
      break;
  }
  switch (index % 3) {
    case 0:
      request.kind = serve::RequestKind::kGeneratorSpec;
      request.generator = spec;
      break;
    case 1: {
      request.kind = serve::RequestKind::kSourceSeed;
      const auto sources = nocdr::valid::AllSources();
      request.source = sources[rng.NextBelow(sources.size())];
      request.seed = item_seed;
      break;
    }
    default:
      request.kind = serve::RequestKind::kDesignText;
      request.design_text =
          nocdr::DesignText(gen::GenerateStandardDesign(spec));
      break;
  }
  *design = serve::MaterializeDesign(request, nocdr::valid::DesignEnvelope{});
  request.id = "c" + std::to_string(index);
  return request;
}

/// \p design as inline text with its flows in a shuffled order and a
/// comment line: a different request for the same canonical problem.
std::string ReRender(const nocdr::NocDesign& design, std::uint64_t seed,
                     std::uint64_t tag) {
  std::istringstream in(nocdr::DesignText(design));
  std::string head = "# re-rendered " + std::to_string(tag) + "\n";
  std::vector<std::string> flows;
  std::vector<std::string> routes;  // hops after "route <flow>"
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("flow ", 0) == 0) {
      flows.push_back(line);
    } else if (line.rfind("route ", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t flow = 0;
      fields >> flow;
      std::string hops;
      std::getline(fields, hops);
      if (routes.size() <= flow) {
        routes.resize(flow + 1);
      }
      routes[flow] = hops;
    } else {
      head += line + "\n";
    }
  }
  std::vector<std::size_t> order(flows.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  nocdr::Rng(DeriveSeed(seed, tag)).Shuffle(order);
  std::string text = head;
  for (const std::size_t flow : order) {
    text += flows[flow] + "\n";
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    text += "route " + std::to_string(i) + routes[order[i]] + "\n";
  }
  return text;
}

enum class ArrivalKind { kCorpus, kReRender, kNovel };

struct Arrival {
  double due_ms = 0.0;  // from the start of its rate step
  std::size_t step = 0;
  ArrivalKind kind = ArrivalKind::kCorpus;
  std::size_t item = 0;   // corpus item (kCorpus, kReRender)
  std::uint64_t tag = 0;  // distinguishes kReRender and kNovel requests
};

/// The workload's generated inputs: the corpus and the arrival schedule,
/// sorted by due time. Re-rendered and novel requests are built when
/// needed (Request) rather than held for the whole run.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<serve::CertRequest> corpus;
  std::vector<nocdr::NocDesign> designs;
  std::vector<Arrival> arrivals;

  Inputs(std::uint64_t workload_seed, double seconds) : seed(workload_seed) {
    designs.resize(kCorpusSize);
    for (std::size_t i = 0; i < kCorpusSize; ++i) {
      corpus.push_back(CorpusRequest(kCorpusSeed, i, &designs[i]));
    }
    nocdr::Rng rng(DeriveSeed(seed, 0x6f70656eull));
    const double step_ms = seconds * 1000.0 / std::size(kRates);
    std::uint64_t tag = 0;
    for (std::size_t step = 0; step < std::size(kRates); ++step) {
      double t = 0.0;
      const double mean_gap_ms = 1000.0 / kRates[step];
      while (true) {
        t += -std::log(1.0 - rng.NextDouble()) * mean_gap_ms;
        if (t >= step_ms) {
          break;
        }
        Arrival arrival;
        arrival.due_ms = t;
        arrival.step = step;
        if (rng.NextDouble() < kNovelShare) {
          // A never-seen design, sent twice back to back.
          arrival.kind = ArrivalKind::kNovel;
          arrival.tag = tag++;
          arrivals.push_back(arrival);
          arrivals.push_back(arrival);
          continue;
        }
        arrival.item = rng.NextDouble() < kHotShare
                           ? rng.NextBelow(kHotItems)
                           : kHotItems + rng.NextBelow(kCorpusSize - kHotItems);
        if (rng.NextDouble() < kReRenderShare) {
          arrival.kind = ArrivalKind::kReRender;
          arrival.tag = tag++;
        }
        arrivals.push_back(arrival);
      }
    }
  }

  /// The request arrival \p index sends, built into \p scratch unless it
  /// is a corpus request.
  const serve::CertRequest& Request(std::size_t index,
                                    serve::CertRequest& scratch) const {
    const Arrival& arrival = arrivals[index];
    switch (arrival.kind) {
      case ArrivalKind::kCorpus:
        return corpus[arrival.item];
      case ArrivalKind::kReRender:
        scratch = serve::CertRequest{};
        scratch.kind = serve::RequestKind::kDesignText;
        scratch.design_text = ReRender(designs[arrival.item], seed, arrival.tag);
        scratch.id = "r" + std::to_string(arrival.tag);
        return scratch;
      case ArrivalKind::kNovel:
        scratch = serve::CertRequest{};
        scratch.kind = serve::RequestKind::kGeneratorSpec;
        scratch.generator.family = gen::TopologyFamily::kTorus2D;
        scratch.generator.width = 4;
        scratch.generator.height = 4;
        scratch.generator.seed = DeriveSeed(seed, 1'000'000 + arrival.tag);
        scratch.id = "n" + std::to_string(arrival.tag);
        return scratch;
    }
    return scratch;
  }
};

struct Served {
  Clock::time_point start;  // sent
  Clock::time_point end;
  ServedPayload payload;
};

/// Mean of \p values[from, to); 0 when empty.
double MeanOf(const std::vector<double>& values, std::size_t from,
              std::size_t to) {
  double sum = 0.0;
  for (std::size_t i = from; i < to; ++i) {
    sum += values[i];
  }
  return to > from ? sum / static_cast<double>(to - from) : 0.0;
}

}  // namespace

PhaseResult RunWarmOpen(const WorkloadArgs& args) {
  PhaseResult result;
  result.scale_to_reference = false;
  const std::string cache_dir = args.work_dir + "/disk";
  std::unique_ptr<serve::CertificationService> service;
  std::unique_ptr<Inputs> inputs;
  std::vector<double> open_ms;
  // The first repetition fills the disk tier; the later ones are warm
  // restarts on it, which is what the measured service starts from.
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    service.reset();
    inputs.reset();
    result.SampleHostSpeed(kSetupSpeedSamples);
    const Clock::time_point start = Clock::now();
    inputs = std::make_unique<Inputs>(args.seed, args.seconds);
    serve::ServiceConfig config;
    config.threads = kComputeThreads;
    config.cache.max_entries = kMemoryEntries;
    // One LRU over all entries: with 16 shards of 4 entries, whether the
    // hot fifth fits depended on how its keys hashed, which flipped the
    // hit latency between seeds.
    config.cache.shards = 1;
    config.admission.enabled = true;
    config.admission.tokens_per_sec = kAdmissionTokensPerSec;
    config.cache_dir = cache_dir;
    std::filesystem::create_directories(cache_dir);
    const Clock::time_point open = Clock::now();
    service = std::make_unique<serve::CertificationService>(config);
    open_ms.push_back(MsSince(open));
    // Warm-up: the whole corpus, then the hot fifth again, so the memory
    // tier starts out holding what most arrivals ask for.
    for (const serve::CertRequest& request : inputs->corpus) {
      service->Serve(request);
    }
    for (std::size_t i = 0; i < kHotItems; ++i) {
      service->Serve(inputs->corpus[i]);
    }
    result.setup_s.push_back(MsSince(start) / 1000.0);
  }
  const std::vector<Arrival>& arrivals = inputs->arrivals;

  // The arrivals of each rate step, [first, last) in schedule order.
  std::vector<std::pair<std::size_t, std::size_t>> steps(std::size(kRates));
  for (std::size_t step = 0, first = 0; step < steps.size(); ++step) {
    std::size_t last = first;
    while (last < arrivals.size() && arrivals[last].step == step) {
      ++last;
    }
    steps[step] = {first, last};
    first = last;
  }

  const HistogramDelta histograms;
  std::vector<Served> served(arrivals.size());
  std::vector<Clock::time_point> due(arrivals.size());
  std::atomic<std::size_t> next{0};
  std::size_t step_last = 0;
  // Each client takes the next arrival in schedule order, waits for its
  // due time if it is early, and serves it: an open loop whose queue is
  // the schedule itself, with no hand-off between a generator thread and
  // the clients. A client that is late sends at once; the wait counts in
  // the latency, which runs from the due time, and in the lag.
  const auto client = [&] {
    // Each client keeps the payload text of the first response per key
    // it sees; arrivals are taken in order, so the first arrival of every
    // key keeps its text.
    std::unordered_set<std::uint64_t> kept;
    serve::CertRequest scratch;
    // Wake at the due time rather than up to the default 50 us timer
    // slack after it: at the light rate that slack was most of the
    // median latency from the due time.
    prctl(PR_SET_TIMERSLACK, 1000UL);
    while (true) {
      const std::size_t index = next.fetch_add(1);
      if (index >= step_last) {
        break;
      }
      Served& slot = served[index];
      const serve::CertRequest& request = inputs->Request(index, scratch);
      std::this_thread::sleep_until(due[index]);
      slot.start = Clock::now();
      serve::CertResponse response = service->Serve(request);
      slot.end = Clock::now();
      const bool keep = kept.insert(response.key).second;
      slot.payload = ServedPayload(std::move(response), keep);
    }
  };
  // The steps run one after another, each on its own schedule from its
  // own start, with host-speed samples before, between and after them.
  for (const auto& [first, last] : steps) {
    result.SampleHostSpeed(kSpeedSamplesPerStep);
    const Clock::time_point origin = Clock::now();
    for (std::size_t i = first; i < last; ++i) {
      due[i] = origin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                arrivals[i].due_ms));
    }
    next = first;
    step_last = last;
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < kOpenLoopClients; ++i) {
      clients.emplace_back(client);
    }
    for (std::thread& thread : clients) {
      thread.join();
    }
  }
  result.SampleHostSpeed(kSpeedSamplesPerStep);

  // Correctness, outside the timed window. The first response of each
  // canonical key is checked against a recomputation of its design.
  PayloadChecker checker;
  std::vector<Outcome> outcomes(arrivals.size());
  const nocdr::valid::DesignEnvelope envelope = service->config().envelope;
  serve::CertRequest scratch;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const serve::CertRequest& request = inputs->Request(i, scratch);
    std::string why;
    outcomes[i] = checker.Check(
        served[i].payload,
        [&] {
          return ReplayServePath(nullptr, i, request, envelope, true, nullptr);
        },
        &why);
    result.Record(outcomes[i], request.id + ": " + why);
    result.entry_ms.push_back(MsBetween(served[i].start, served[i].end));
  }

  // Per-step latency from the due time, and backlog growth: the mean
  // backlog over the last third of a step against the first third.
  double sustained = 0.0;
  for (std::size_t step = 0; step < std::size(kRates); ++step) {
    const auto [first_index, last_index] = steps[step];
    // The backlog when a request was sent: arrivals of its step already
    // due minus requests of its step already answered.
    std::vector<Clock::time_point> ends;
    for (std::size_t i = first_index; i < last_index; ++i) {
      ends.push_back(served[i].end);
    }
    std::sort(ends.begin(), ends.end());
    const auto backlog_at_send = [&](std::size_t i) {
      const Clock::time_point sent = served[i].start;
      const auto due_by = std::upper_bound(due.begin() + first_index,
                                           due.begin() + last_index, sent);
      const auto answered_by = std::upper_bound(ends.begin(), ends.end(), sent);
      return static_cast<double>(due_by - (due.begin() + first_index)) -
             static_cast<double>(answered_by - ends.begin());
    };

    std::vector<double> latencies;
    std::vector<double> limit_latencies;
    std::vector<double> outstanding;
    std::vector<double> lag_ms;
    std::vector<double> service_ms;
    Clock::time_point step_begin = Clock::time_point::max();
    Clock::time_point step_end = Clock::time_point::min();
    std::uint64_t step_completed = 0;
    for (std::size_t i = first_index; i < last_index; ++i) {
      const double latency = OpenLoopLatencyMs(due[i], served[i].end);
      limit_latencies.push_back(LimitLatencyMs(outcomes[i], latency));
      if (outcomes[i] == Outcome::kOk) {
        latencies.push_back(latency);
        service_ms.push_back(MsBetween(served[i].start, served[i].end));
        ++step_completed;
      }
      outstanding.push_back(backlog_at_send(i));
      lag_ms.push_back(MsBetween(due[i], served[i].start));
      step_begin = std::min(step_begin, due[i]);
      step_end = std::max(step_end, served[i].end);
    }
    const std::size_t n = outstanding.size();
    const double first = MeanOf(outstanding, 0, n / 3);
    const double last = MeanOf(outstanding, n - n / 3, n);
    const bool growing = last > 2.0 * first + 2.0;
    const bool meets = MeetsP99Limit(limit_latencies, kLatencyLimitMs);
    if (meets && !growing) {
      sustained = kRates[step];
    }
    const std::string prefix = "warm_open.rate" + std::to_string(step) + ".";
    result.figures[prefix + "offered_rps"] = {kRates[step], "req/s", n};
    result.figures[prefix + "backlog_growing"] = {growing ? 1.0 : 0.0, "bool",
                                                  n};
    if (!latencies.empty()) {
      std::vector<double> copy = latencies;
      result.figures[prefix + "latency_p50_ms"] = {Percentile(copy, 500), "ms",
                                                   copy.size()};
      const unsigned tail = HighestSupportedPercentile(copy.size());
      result.figures[prefix + "latency_p" + std::to_string(tail / 10) +
                     "_ms"] = {Percentile(copy, tail), "ms", copy.size()};
      result.figures[prefix + "service_p50_ms"] = {
          Percentile(service_ms, 500), "ms", service_ms.size()};
      result.figures[prefix + "service_p90_ms"] = {
          Percentile(service_ms, 900), "ms", service_ms.size()};
      result.figures[prefix + "lag_p50_ms"] = {Percentile(lag_ms, 500), "ms",
                                               lag_ms.size()};
    }
    result.figures[prefix + "completed_rps"] = {
        static_cast<double>(step_completed) * 1000.0 /
            MsBetween(step_begin, step_end),
        "req/s", step_completed};
    if (step == kTopStep) {
      // Past capacity the clients send each request as soon as the last
      // one is answered, so this is the service's capacity (capped at the
      // offered rate, should it ever keep up).
      result.completed = step_completed;
      result.throughput_window_s = MsBetween(step_begin, step_end) / 1000.0;
    }
    if (step == kNominalStep) {
      result.latencies_ms = service_ms;
      if (PercentileSupported(latencies.size(), 990)) {
        std::vector<double> copy = latencies;
        result.figures["latency_p99_ms"] = {Percentile(copy, 990), "ms",
                                            copy.size()};
      }
      // How late requests went out at the nominal rate; past capacity
      // they are late by design.
      if (PercentileSupported(lag_ms.size(), 990)) {
        result.figures["loadgen.lag_p99_ms"] = {Percentile(lag_ms, 990), "ms",
                                                lag_ms.size()};
      }
    }
  }
  result.figures["sustained_rps"] = {sustained, "req/s", arrivals.size()};
  result.figures["loadgen.sent"] = {static_cast<double>(arrivals.size()),
                                    "count", arrivals.size()};
  result.figures["serve.disk_open_ms"] = {Median(open_ms), "ms",
                                          open_ms.size()};

  if (args.spans != nullptr) {
    // The layers each request ran, by how it was served: a computation
    // ran the whole miss path; a coalesced join and a re-rendering that
    // hit the canonical cache materialized and canonicalized; an exact
    // repeat resolved in the front memo and ran no span-timed layer.
    SpanRecorder& spans = *args.spans;
    RemovalTally tally;
    std::uint64_t serialized_bytes = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const serve::CacheOutcome outcome = served[i].payload.cache_outcome;
      spans.AddRoot("serve", i, served[i].start, served[i].end);
      const bool computed = outcome == serve::CacheOutcome::kComputed;
      if (computed || outcome == serve::CacheOutcome::kCoalesced ||
          arrivals[i].kind == ArrivalKind::kReRender) {
        const Replay replay =
            ReplayServePath(&spans, i, inputs->Request(i, scratch), envelope,
                            computed, &tally);
        serialized_bytes +=
            replay.certificate_json.size() + replay.design_text.size();
      }
    }
    ReportLayerTimes(spans, arrivals.size(), result);
    ReportCoverage(spans, "serve", result);
    tally.Report(result);
    ReportRemovalStages(histograms, result);
    ReportServiceStats(service->Stats(), histograms, result);
    result.figures["serialize.bytes"] = {
        static_cast<double>(serialized_bytes) /
            static_cast<double>(std::max<std::size_t>(arrivals.size(), 1)),
        "bytes", arrivals.size()};
  }
  return result;
}

}  // namespace perfbench
