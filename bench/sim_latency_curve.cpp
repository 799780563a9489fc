// Extension experiment E9 — latency vs. offered load in simulation,
// plus the engine speedup gates at light and at saturating load.
//
// Part 1 is classic NoC evaluation the paper's venue expects around its
// method: after deadlock handling, how does the network behave under
// increasing load? Sweeps the Bernoulli injection rate on D36_8 @ 14
// switches for both deadlock-free designs (removal algorithm vs.
// resource ordering) and reports average packet latency and delivery
// rate. The removal design has fewer VCs (cheaper) yet — since both run
// the same physical routes — serves comparable latency until
// saturation.
//
// Part 2 gates the discrete-event engine's reason to exist: on the
// largest generated mesh designs under light steady-state Bernoulli
// traffic over a long horizon, SimEngine::kEvent must beat the worklist
// engine by >= 10x wall clock while producing bit-identical results.
// Both engines consume the same pre-built TrafficSchedule so the shared
// O(flows x horizon) schedule synthesis stays out of the measurement.
// Rows land in BENCH_sim_latency_curve.json (section
// "event_engine_speedup") for the tools/bench_compare.py perf gate.
//
// Part 3 measures the other end of the load range: a treated torus
// 12x12 far above saturation, where most heads are blocked. The worklist
// engine parks blocked heads and injections, so a saturated cycle costs
// only the flits that can move, while the full-scan reference retries
// every blocked claim. The fullscan/worklist wall-clock ratio is gated
// as "saturated_engine_speedup" (the perf gate's 40% speedup floor, no
// wall-clock bound), together with the exact delivered counts.
//
// Flags:
//   --repeats N    best-of-N wall clock per engine point (default 3)
//   --no-speedup   latency curve only: skip parts 2 and 3 and write no
//                  BENCH rows (quick local iteration; not for gated runs)
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "deadlock/removal.h"
#include "deadlock/resource_ordering.h"
#include "gen/generators.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/table.h"

using namespace nocdr;

namespace {

using bench::MillisSince;

SimResult RunAt(const NocDesign& design, double rate) {
  SimConfig cfg;
  cfg.traffic.mode = InjectionMode::kBernoulli;
  cfg.traffic.packet_length = 5;
  cfg.traffic.reference_injection_rate = rate;
  cfg.traffic.seed = 7;
  cfg.buffer_depth = 4;
  cfg.max_cycles = 30000;
  cfg.stall_threshold = 5000;
  return SimulateWorkload(design, cfg);
}

/// Best-of-N wall clock of one engine over a pre-built schedule; the
/// result of the last repetition is handed back for cross-checking.
double TimeEngine(const NocDesign& design, SimConfig config,
                  const TrafficSchedule& schedule, SimEngine engine,
                  std::size_t repeats, SimResult* result_out) {
  config.engine = engine;
  double best = 0.0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    SimResult result = SimulateWorkload(design, config, schedule);
    const double ms = MillisSince(t0);
    if (rep == 0 || ms < best) {
      best = ms;
    }
    *result_out = std::move(result);
  }
  return best;
}

/// Light steady-state traffic on the largest generated meshes: the idle
/// cycles between packets are exactly what the event engine skips.
/// Returns the smallest per-design event-vs-worklist speedup.
double MeasureEventEngineSpeedup(BenchJsonWriter& json,
                                 std::size_t repeats) {
  std::cout << "\n=== event engine vs worklist, light steady-state "
               "Bernoulli, 1M-cycle horizon ===\n\n";
  SimConfig cfg;
  cfg.traffic.mode = InjectionMode::kBernoulli;
  cfg.traffic.reference_injection_rate = 0.0000001;
  cfg.traffic.packet_length = 4;
  cfg.traffic.seed = 11;
  cfg.buffer_depth = 4;
  cfg.max_cycles = 1000000;
  cfg.stall_threshold = 2000;

  double min_speedup = 0.0;
  TextTable table;
  table.SetHeader({"design", "channels", "flows", "packets",
                   "worklist (ms)", "event (ms)", "speedup"});
  for (const std::size_t extent : {std::size_t{16}, std::size_t{20}}) {
    gen::GeneratorSpec spec;
    spec.family = gen::TopologyFamily::kMesh2D;
    spec.width = extent;
    spec.height = extent;
    spec.cores_per_switch = 1;
    spec.pattern = gen::TrafficPattern::kUniform;
    spec.uniform_fanout = 2;
    spec.seed = 21;
    NocDesign design = gen::GenerateStandardDesign(spec);
    RemoveDeadlocks(design);

    const TrafficSchedule schedule(design, cfg.traffic, cfg.max_cycles);
    SimResult worklist_result, event_result;
    const double worklist_ms = TimeEngine(design, cfg, schedule,
                                          SimEngine::kWorklist, repeats,
                                          &worklist_result);
    const double event_ms = TimeEngine(design, cfg, schedule,
                                       SimEngine::kEvent, repeats,
                                       &event_result);
    if (worklist_result.deadlocked || event_result.deadlocked ||
        worklist_result.cycles != event_result.cycles ||
        worklist_result.packets_delivered !=
            event_result.packets_delivered ||
        worklist_result.flits_delivered != event_result.flits_delivered) {
      std::cout << "ENGINE DISAGREEMENT on " << design.name
                << " (worklist " << worklist_result.packets_delivered
                << " pkts / " << worklist_result.cycles << " cyc, event "
                << event_result.packets_delivered << " pkts / "
                << event_result.cycles << " cyc)\n";
      return 0.0;
    }
    const double speedup = event_ms > 0.0 ? worklist_ms / event_ms : 0.0;
    min_speedup =
        min_speedup == 0.0 ? speedup : std::min(min_speedup, speedup);
    table.AddRow({design.name,
                  std::to_string(design.topology.ChannelCount()),
                  std::to_string(design.traffic.FlowCount()),
                  std::to_string(event_result.packets_delivered),
                  FormatDouble(worklist_ms, 2), FormatDouble(event_ms, 2),
                  FormatDouble(speedup, 1) + "x"});
    json.AddRow(JsonObject()
                    .Set("section", "event_engine_speedup")
                    .Set("design", design.name)
                    .Set("channels", design.topology.ChannelCount())
                    .Set("flows", design.traffic.FlowCount())
                    .Set("packets_delivered",
                         event_result.packets_delivered)
                    .Set("cycles", event_result.cycles)
                    .Set("worklist_ms", worklist_ms)
                    .Set("event_ms", event_ms)
                    .Set("event_engine_speedup", speedup));
  }
  table.Print(std::cout);
  std::cout << "minimum event engine speedup "
            << FormatDouble(min_speedup, 1) << "x (target >= 10x)\n";
  return min_speedup;
}

/// Bernoulli traffic far above saturation on a treated torus 12x12:
/// full-scan vs worklist, on one shared schedule, with identical
/// results required. Returns false on an engine disagreement.
bool MeasureSaturatedEngineSpeedup(BenchJsonWriter& json,
                                   std::size_t repeats) {
  std::cout << "\n=== worklist vs full scan, treated torus 12x12 above "
               "saturation ===\n\n";
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kTorus2D;
  spec.width = 12;
  spec.height = 12;
  spec.seed = 1;
  NocDesign design = gen::GenerateStandardDesign(spec);
  RemoveDeadlocks(design);

  SimConfig cfg;
  cfg.traffic.mode = InjectionMode::kBernoulli;
  cfg.traffic.reference_injection_rate = 0.1;
  cfg.traffic.packet_length = 5;
  cfg.traffic.seed = 7;
  cfg.buffer_depth = 4;
  cfg.max_cycles = 2000;
  const TrafficSchedule schedule(design, cfg.traffic, cfg.max_cycles);
  SimResult fullscan_result, worklist_result;
  const double fullscan_ms = TimeEngine(design, cfg, schedule,
                                        SimEngine::kFullScan, repeats,
                                        &fullscan_result);
  const double worklist_ms = TimeEngine(design, cfg, schedule,
                                        SimEngine::kWorklist, repeats,
                                        &worklist_result);
  if (fullscan_result.deadlocked || worklist_result.deadlocked ||
      fullscan_result.cycles != worklist_result.cycles ||
      fullscan_result.packets_delivered !=
          worklist_result.packets_delivered ||
      fullscan_result.flits_delivered != worklist_result.flits_delivered ||
      fullscan_result.channel_flits != worklist_result.channel_flits) {
    std::cout << "ENGINE DISAGREEMENT on " << design.name << " (fullscan "
              << fullscan_result.flits_delivered << " flits, worklist "
              << worklist_result.flits_delivered << " flits)\n";
    return false;
  }
  const double speedup =
      worklist_ms > 0.0 ? fullscan_ms / worklist_ms : 0.0;
  TextTable table;
  table.SetHeader({"design", "channels", "flows", "packets", "flits",
                   "fullscan (ms)", "worklist (ms)", "speedup"});
  table.AddRow({design.name, std::to_string(design.topology.ChannelCount()),
                std::to_string(design.traffic.FlowCount()),
                std::to_string(worklist_result.packets_delivered),
                std::to_string(worklist_result.flits_delivered),
                FormatDouble(fullscan_ms, 2), FormatDouble(worklist_ms, 2),
                FormatDouble(speedup, 2) + "x"});
  table.Print(std::cout);
  json.AddRow(JsonObject()
                  .Set("section", "saturated_engine_speedup")
                  .Set("design", design.name)
                  .Set("channels", design.topology.ChannelCount())
                  .Set("flows", design.traffic.FlowCount())
                  .Set("packets_delivered", worklist_result.packets_delivered)
                  .Set("flits_delivered", worklist_result.flits_delivered)
                  .Set("cycles", worklist_result.cycles)
                  .Set("fullscan_ms", fullscan_ms)
                  .Set("worklist_ms", worklist_ms)
                  .Set("saturated_engine_speedup", speedup));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t repeats = 3;
  bool no_speedup = false;
  bench::FlagParser flags("bench_sim_latency_curve");
  flags.AddSize("--repeats", &repeats);
  flags.AddSwitch("--no-speedup", &no_speedup);
  flags.Parse(argc, argv);
  if (repeats == 0) {
    flags.Fail("--repeats must be >= 1");
  }

  std::cout << "=== E9: latency vs offered load, D36_8 @ 14 switches "
               "(5-flit packets, Bernoulli) ===\n\n";
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_8);
  const auto base = SynthesizeDesign(b.traffic, b.name, 14);
  auto removal_design = base;
  auto ordering_design = base;
  RemoveDeadlocks(removal_design);
  ApplyResourceOrdering(ordering_design);
  std::cout << "removal design: " << removal_design.topology.ExtraVcCount()
            << " extra VCs; ordering design: "
            << ordering_design.topology.ExtraVcCount() << " extra VCs\n\n";

  TextTable table;
  table.SetHeader({"inj. rate", "removal: latency", "delivered",
                   "ordering: latency", "delivered"});
  for (double rate : {0.0005, 0.001, 0.002, 0.004, 0.008, 0.016}) {
    const auto rm = RunAt(removal_design, rate);
    const auto ro = RunAt(ordering_design, rate);
    auto delivered = [](const SimResult& r) {
      return r.packets_offered == 0
                 ? std::string("-")
                 : FormatDouble(100.0 *
                                    static_cast<double>(r.packets_delivered) /
                                    static_cast<double>(r.packets_offered),
                                1) +
                       "%";
    };
    table.AddRow({FormatDouble(rate, 4),
                  FormatDouble(rm.avg_packet_latency, 1) + " cyc",
                  delivered(rm),
                  FormatDouble(ro.avg_packet_latency, 1) + " cyc",
                  delivered(ro)});
    if (rm.deadlocked || ro.deadlocked) {
      std::cout << "UNEXPECTED DEADLOCK at rate " << rate << "\n";
      return 1;
    }
  }
  table.Print(std::cout);
  std::cout << "\nNeither design may ever deadlock (both CDGs are "
               "acyclic); the delivery-rate drop at high load is\n"
               "saturation, not deadlock. The removal design achieves "
               "this with a fraction of the ordering design's VCs.\n";

  if (no_speedup) {
    // Latency-curve-only run for quick local iteration; no BENCH rows
    // are written, so a baseline compare against this run would fail
    // loudly instead of silently passing on missing coverage.
    return 0;
  }
  BenchJsonWriter json("sim_latency_curve");
  const double min_speedup = MeasureEventEngineSpeedup(json, repeats);
  const bool saturated_agree = MeasureSaturatedEngineSpeedup(json, repeats);
  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  if (!saturated_agree) {
    return 1;
  }
  if (min_speedup < 10.0) {
    std::cout << "FAIL: event engine speedup " << FormatDouble(min_speedup, 1)
              << "x below the 10x target\n";
    return 1;
  }
  return 0;
}
