// cold_ladder: one closed-loop client sends a seeded ladder of generator
// and source+seed requests, a fresh traffic seed every pass, so every
// request misses every cache and runs the whole miss path once.
#include <algorithm>
#include <cmath>
#include <memory>

#include "layers.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = nocdr::serve;
namespace gen = nocdr::gen;

/// Pass number of the set-up warm-up pass; measured passes count from 0.
constexpr std::uint64_t kWarmupPass = ~0ull;
/// Seed of the source draws' stream (see LadderPass).
constexpr std::uint64_t kSourceSeed = 0x736f75726365ull;
/// Seed of the generator points' traffic (see LadderPass).
constexpr std::uint64_t kTrafficSeed = 0x74726166666963ull;
/// Memory-tier entries. Every request is a new key that is never read
/// again, so the tier holds only the latest answer rather than a set of
/// large ones that changes with the request order.
constexpr std::size_t kCachedEntries = 1;
/// A pass takes about this long on a 4-vCPU host giving about one
/// effective CPU; a run measures --seconds worth of passes at that pace.
constexpr double kNominalPassSeconds = 7.5;
/// The fewest passes a run measures.
constexpr std::uint64_t kMinPasses = 2;

serve::CertRequest GeneratorRequest(gen::TopologyFamily family,
                                    std::size_t width, std::size_t ring,
                                    std::uint64_t traffic_seed) {
  serve::CertRequest request;
  request.kind = serve::RequestKind::kGeneratorSpec;
  request.generator.family = family;
  request.generator.width = width;
  request.generator.height = width;
  request.generator.ring_nodes = ring;
  request.generator.seed = traffic_seed;
  return request;
}

/// One pass of the ladder, in a seeded order: mesh and torus from 8x8 to
/// 24x24, rings of 32 to 256 nodes and six draws of each of the five
/// campaign sources. 53 requests, of which the two 24x24 points and the
/// 256-node ring take about half of a pass. Over two passes p90 is the
/// 11th largest of 106 requests, just below the 20x20 points.
///
/// The source draws and the small generator points set the median, and
/// their costs spread widely with their draws and traffic: with draws
/// taken from the workload seed the median moved by a fifth between seeds,
/// and with seeded traffic on the points up to 16x16 it ranged from 5 to
/// 8.5 ms over ten seeds. A 192-node ring's cost moved by a seventh with
/// its traffic. Two passes are too few to average that out, so the draws
/// and the traffic come from the pass number alone, like the fixed designs
/// of fault_stream and sim_saturate, and the workload seed draws the
/// request order.
std::vector<serve::CertRequest> LadderPass(std::uint64_t seed,
                                           std::uint64_t pass) {
  const std::uint64_t traffic = DeriveSeed(kTrafficSeed, pass);
  const std::uint64_t sources = DeriveSeed(kSourceSeed, pass);
  std::vector<serve::CertRequest> requests;
  for (const gen::TopologyFamily family :
       {gen::TopologyFamily::kMesh2D, gen::TopologyFamily::kTorus2D}) {
    for (const std::size_t width : {8, 10, 12, 14, 16, 18, 20, 24}) {
      requests.push_back(GeneratorRequest(family, width, 0, traffic));
    }
  }
  for (const std::size_t ring : {32, 48, 64, 96, 128, 192, 256}) {
    requests.push_back(
        GeneratorRequest(gen::TopologyFamily::kRing, 0, ring, traffic));
  }
  std::uint64_t index = 0;
  for (int draw = 0; draw < 6; ++draw) {
    for (const nocdr::valid::DesignSource source :
         nocdr::valid::AllSources()) {
      serve::CertRequest request;
      request.kind = serve::RequestKind::kSourceSeed;
      request.source = source;
      request.seed = DeriveSeed(sources, index++);
      requests.push_back(request);
    }
  }
  nocdr::Rng(DeriveSeed(seed, pass)).Shuffle(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = std::to_string(pass) + "." + std::to_string(i);
    requests[i].return_design = true;
  }
  return requests;
}

/// The warm-up points: mesh and torus up to 16x16 and rings up to 128
/// nodes. A warm-up of only the smallest points took about 0.2 s, and its
/// median over a run's set-ups moved by half between runs.
bool IsSmall(const serve::CertRequest& request) {
  if (request.kind != serve::RequestKind::kGeneratorSpec) {
    return false;
  }
  return request.generator.family == gen::TopologyFamily::kRing
             ? request.generator.ring_nodes <= 128
             : request.generator.width <= 16;
}

}  // namespace

PhaseResult RunColdLadder(const WorkloadArgs& args) {
  PhaseResult result;
  std::unique_ptr<serve::CertificationService> service;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    service.reset();
    result.SampleHostSpeed(kSetupSpeedSamples);
    const Clock::time_point start = Clock::now();
    serve::ServiceConfig config;
    config.threads = kComputeThreads;
    config.cache.max_entries = kCachedEntries;
    config.cache.shards = 1;
    service = std::make_unique<serve::CertificationService>(config);
    for (const serve::CertRequest& request : LadderPass(args.seed, kWarmupPass)) {
      if (IsSmall(request)) {
        service->Serve(request);
      }
    }
    result.setup_s.push_back(MsSince(start) / 1000.0);
  }

  SpanRecorder* spans = args.spans;
  const HistogramDelta histograms;
  RemovalTally tally;
  PayloadChecker checker;
  std::uint64_t serialized_bytes = 0;
  // A fixed number of whole passes, so every run does the same work
  // whatever the host's speed: the same mix of ladder points, and the same
  // on both sides of a comparison, where a faster build measured for a
  // fixed time would fit in a different mix.
  const std::uint64_t passes = std::max<std::uint64_t>(
      kMinPasses, std::llround(args.seconds / kNominalPassSeconds));
  double measured_ms = 0.0;
  std::uint64_t op = 0;
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (const serve::CertRequest& request : LadderPass(args.seed, pass)) {
      result.SampleHostSpeed();
      // The traced phase replays the layers before the request, and the
      // check reuses that replay; the untraced phase replays them
      // untimed, after the request.
      Replay replay;
      if (spans != nullptr) {
        replay = ReplayServePath(spans, op, request,
                                 service->config().envelope, true, &tally);
        serialized_bytes +=
            replay.certificate_json.size() + replay.design_text.size();
      }
      const Clock::time_point start = Clock::now();
      serve::CertResponse response = service->Serve(request);
      const Clock::time_point end = Clock::now();
      const double ms = MsBetween(start, end);
      measured_ms += ms;
      result.entry_ms.push_back(ms);
      result.latencies_ms.push_back(ms);
      if (spans != nullptr) {
        spans->AddRoot("serve", op, start, end);
      }

      const ServedPayload payload(std::move(response), true);
      std::string why;
      Outcome outcome = checker.Check(
          payload,
          [&] {
            return spans != nullptr
                       ? replay
                       : ReplayServePath(nullptr, op, request,
                                         service->config().envelope, true,
                                         nullptr);
          },
          &why);
      if (outcome == Outcome::kOk &&
          payload.cache_outcome != serve::CacheOutcome::kComputed) {
        outcome = Outcome::kWrong;
        why = "a cold request was not computed";
      }
      result.Record(outcome, request.id + ": " + why);
      if (outcome == Outcome::kOk) {
        ++result.completed;
      }
      ++op;
    }
  }
  result.throughput_window_s = measured_ms / 1000.0;

  if (spans != nullptr) {
    ReportLayerTimes(*spans, op, result);
    ReportCoverage(*spans, "serve", result);
    tally.Report(result);
    ReportRemovalStages(histograms, result);
    ReportServiceStats(service->Stats(), histograms, result);
    result.figures["serialize.bytes"] = {
        op == 0 ? 0.0
                : static_cast<double>(serialized_bytes) /
                      static_cast<double>(op),
        "bytes", op};
  }
  return result;
}

}  // namespace perfbench
