// sim_saturate: Bernoulli traffic above saturation on treated torus 8x8,
// torus 12x12 and mesh 16x16 designs, for a fixed cycle horizon, on the
// simulator's default engine. One operation is one design simulated
// once, with a fresh traffic seed; the designs take turns.
#include <optional>
#include <stdexcept>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "layers.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Simulated cycles per operation.
constexpr std::uint64_t kHorizon = 1000;
/// Packets per cycle of a 100 MB/s flow; the generators' 10-200 MB/s
/// flows then offer several times what these networks deliver.
constexpr double kInjectionRate = 0.1;

/// The three designs, with fixed traffic: the workload seed draws the
/// Bernoulli injections, and three flow sets are too few to average out
/// across seeds.
std::vector<nocdr::NocDesign> TreatedDesigns() {
  std::vector<nocdr::NocDesign> designs;
  const struct {
    nocdr::gen::TopologyFamily family;
    std::size_t width;
  } shapes[] = {{nocdr::gen::TopologyFamily::kTorus2D, 8},
                {nocdr::gen::TopologyFamily::kTorus2D, 12},
                {nocdr::gen::TopologyFamily::kMesh2D, 16}};
  for (const auto& shape : shapes) {
    nocdr::gen::GeneratorSpec spec;
    spec.family = shape.family;
    spec.width = shape.width;
    spec.height = shape.width;
    spec.seed = 1;
    nocdr::NocDesign design = nocdr::gen::GenerateStandardDesign(spec);
    nocdr::RemoveDeadlocks(design);
    designs.push_back(std::move(design));
  }
  return designs;
}

nocdr::SimConfig Config(std::uint64_t traffic_seed) {
  nocdr::SimConfig config;
  config.max_cycles = kHorizon;
  config.traffic.mode = nocdr::InjectionMode::kBernoulli;
  config.traffic.reference_injection_rate = kInjectionRate;
  config.traffic.seed = traffic_seed;
  return config;
}

bool SameResult(const nocdr::SimResult& a, const nocdr::SimResult& b) {
  if (a.flows.size() != b.flows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    if (a.flows[i].packets_delivered != b.flows[i].packets_delivered ||
        a.flows[i].avg_latency != b.flows[i].avg_latency ||
        a.flows[i].max_latency != b.flows[i].max_latency) {
      return false;
    }
  }
  return a.cycles == b.cycles && a.packets_offered == b.packets_offered &&
         a.packets_injected == b.packets_injected &&
         a.packets_delivered == b.packets_delivered &&
         a.flits_delivered == b.flits_delivered &&
         a.deadlocked == b.deadlocked && a.deadlock_cycle == b.deadlock_cycle &&
         a.stuck_flits == b.stuck_flits &&
         a.avg_packet_latency == b.avg_packet_latency &&
         a.max_packet_latency == b.max_packet_latency &&
         a.channel_flits == b.channel_flits;
}

}  // namespace

PhaseResult RunSimSaturate(const WorkloadArgs& args) {
  PhaseResult result;
  std::vector<nocdr::NocDesign> designs;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    designs.clear();
    result.SampleHostSpeed(kSetupSpeedSamples);
    const Clock::time_point start = Clock::now();
    designs = TreatedDesigns();
    // Warm-up: one operation on the smallest design.
    nocdr::SimulateWorkload(designs[0], Config(DeriveSeed(args.seed, ~0ull)));
    result.setup_s.push_back(MsSince(start) / 1000.0);
  }

  SpanRecorder* spans = args.spans;
  const double budget_ms = args.seconds * 1000.0;
  double measured_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t flits = 0;
  std::uint64_t op = 0;
  for (; measured_ms < budget_ms; ++op) {
    const nocdr::NocDesign& design = designs[op % designs.size()];
    const nocdr::SimConfig config = Config(DeriveSeed(args.seed, op));
    result.SampleHostSpeed();

    // The traced phase runs the two layers of SimulateWorkload first:
    // the traffic schedule, then the simulation on it.
    nocdr::SimResult replayed;
    if (spans != nullptr) {
      std::optional<nocdr::TrafficSchedule> schedule;
      {
        SpanRecorder::Scope span(spans, "sim.schedule", op);
        schedule.emplace(design, config.traffic, config.max_cycles);
      }
      const Clock::time_point run_start = Clock::now();
      {
        SpanRecorder::Scope span(spans, "sim.run", op);
        replayed = nocdr::SimulateWorkload(design, config, *schedule);
      }
      run_ms += MsSince(run_start);
    }

    const Clock::time_point start = Clock::now();
    const nocdr::SimResult sim = nocdr::SimulateWorkload(design, config);
    const Clock::time_point end = Clock::now();
    const double ms = MsBetween(start, end);
    measured_ms += ms;
    result.latencies_ms.push_back(ms);
    result.entry_ms.push_back(ms);
    flits += sim.flits_delivered;
    if (spans != nullptr) {
      spans->AddRoot("simulate", op, start, end);
    }

    Outcome outcome = Outcome::kOk;
    std::string why;
    if (sim.deadlocked) {
      outcome = Outcome::kWrong;
      why = "a treated design deadlocked";
    } else if (sim.flits_delivered == 0) {
      outcome = Outcome::kWrong;
      why = "nothing was delivered";
    } else if (spans != nullptr && !SameResult(sim, replayed)) {
      outcome = Outcome::kWrong;
      why = "a pre-built schedule changed the result";
    }
    result.Record(outcome, "op " + std::to_string(op) + ": " + why);
    if (outcome == Outcome::kOk) {
      ++result.completed;
    }
  }
  result.throughput_window_s = measured_ms / 1000.0;
  result.figures["sim_flits_per_s"] = {
      static_cast<double>(flits) / result.throughput_window_s, "flits/s", op};

  // The three engines must agree exactly on one design per run.
  {
    nocdr::SimConfig config = Config(DeriveSeed(args.seed, 0));
    std::vector<nocdr::SimResult> results;
    for (const nocdr::SimEngine engine : nocdr::AllEngines()) {
      config.engine = engine;
      results.push_back(nocdr::SimulateWorkload(designs[0], config));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      result.Record(SameResult(results[0], results[i]) ? Outcome::kOk
                                                       : Outcome::kWrong,
                    "engine " + nocdr::EngineName(nocdr::AllEngines()[i]) +
                        " differs from " +
                        nocdr::EngineName(nocdr::AllEngines()[0]));
    }
  }

  if (spans != nullptr) {
    ReportLayerTimes(*spans, op, result);
    ReportCoverage(*spans, "simulate", result);
    result.figures["sim.ns_per_flit"] = {
        flits == 0 ? 0.0 : run_ms * 1e6 / static_cast<double>(flits), "ns",
        op};
  }
  return result;
}

}  // namespace perfbench
