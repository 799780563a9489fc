// nocdr_perfbench: the repository benchmark's workload runner.
//
//   nocdr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//
// --trace 0 runs the workload untraced and reports the end-to-end
// metrics. --trace 1 runs it twice on the same inputs, untraced and then
// with a span around every layer call, and reports the per-layer
// metrics plus trace.coverage and trace.overhead. Human-readable metric
// lines (value, unit, sample count) come first; the last line of stdout
// is one JSON object. A results file with the run's provenance is
// written under --out-dir. Exit 1 on a wrong output, 2 on bad usage.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "util/build_info.h"
#include "util/json.h"
#include "workloads.h"

#ifndef NOCDR_SOURCE_SHA256
#define NOCDR_SOURCE_SHA256 "unknown"
#endif

namespace perfbench {

std::vector<std::string> RunSelfTests();

namespace {

struct WorkloadEntry {
  const char* name;
  PhaseResult (*run)(const WorkloadArgs&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"cold_ladder", RunColdLadder},
    {"warm_open", RunWarmOpen},
    {"fault_stream", RunFaultStream},
    {"sim_saturate", RunSimSaturate},
};

struct MetricName {
  const char* name;
  const char* unit;
};

/// Reported by every --trace 0 run, on every workload.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_rps", "ops/s"},
    {"peak_rss_mb", "MB"},
};

/// Reported by every --trace 1 run; a layer a workload does not run
/// reads 0. latency_p99_ms to failed_fraction are workload-level figures
/// that exist only on some workloads (taken from the traced run's
/// untraced phase); host.reference_ms is the reference kernel's median
/// time in the untraced phase, by which the per-layer times, which are
/// wall-clock times, can be read at the reference speed.
constexpr MetricName kPerLayer[] = {
    {"gen.ms", "ms"},
    {"valid.ms", "ms"},
    {"noc.parse_ms", "ms"},
    {"canonical.ms", "ms"},
    {"serve.front_hit_ratio", "ratio"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.lookup_us", "us"},
    {"serve.disk_hits", "count"},
    {"serve.disk_lookup_us", "us"},
    {"serve.disk_open_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.coalesced", "count"},
    {"serve.wait_ms", "ms"},
    {"deadlock.removal_ms", "ms"},
    {"deadlock.iterations", "count"},
    {"deadlock.vcs_added", "count"},
    {"deadlock.cycle_search_us", "us"},
    {"deadlock.score_us", "us"},
    {"deadlock.apply_us", "us"},
    {"deadlock.invalidate_us", "us"},
    {"cdg.bfs_runs", "count"},
    {"cdg.bfs_per_iteration", "ratio"},
    {"deadlock.certify_ms", "ms"},
    {"serialize.ms", "ms"},
    {"serialize.bytes", "bytes"},
    {"fault.ms", "ms"},
    {"fault.affected_flows", "count"},
    {"fault.ripup_share", "ratio"},
    {"session.publish_ms", "ms"},
    {"sim.schedule_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.ns_per_flit", "ns"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.sent", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"latency_p99_ms", "ms"},
    {"sustained_rps", "req/s"},
    {"sim_flits_per_s", "flits/s"},
    {"failed_fraction", "ratio"},
    {"host.reference_ms", "ms"},
};

[[noreturn]] void Usage(const std::string& message) {
  std::cerr << "nocdr_perfbench: " << message
            << "\nusage: nocdr_perfbench --workload "
               "<cold_ladder|warm_open|fault_stream|sim_saturate> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
  std::exit(2);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Wall time of \p threads threads each spinning the same fixed loop.
double SpinMs(unsigned threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back(spin);
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  return MsSince(start);
}

nocdr::JsonObject Provenance(const std::string& workload, std::uint64_t seed,
                             double seconds, bool traced) {
  nocdr::JsonObject json = nocdr::BuildProvenanceJson();
  json.Set("source_sha256", std::string(NOCDR_SOURCE_SHA256));
  const unsigned nproc = std::thread::hardware_concurrency();
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const int affinity =
      sched_getaffinity(0, sizeof(mask), &mask) == 0 ? CPU_COUNT(&mask) : 0;
  // Four threads spinning the same loop as one: on N effective CPUs they
  // take about 4/N as long, whatever nproc and the affinity mask claim.
  const double one = SpinMs(1);
  const double four = SpinMs(4);
  json.Set("nproc", static_cast<std::uint64_t>(nproc))
      .Set("affinity_cpus", static_cast<std::uint64_t>(affinity))
      .Set("spin_ratio_4_over_1", four / one)
      .Set("effective_cpus", 4.0 * one / four)
      .Set("workload_cpus", static_cast<std::uint64_t>(1))
      .Set("compute_pool_threads", static_cast<std::uint64_t>(kComputeThreads))
      .Set("client_threads",
           static_cast<std::uint64_t>(workload == "warm_open" ? kOpenLoopClients
                                                              : 1))
      .Set("workload", workload)
      .Set("seed", seed)
      .Set("seconds", seconds)
      .Set("trace", static_cast<std::uint64_t>(traced ? 1 : 0));
  return json;
}

/// One phase of \p entry, with every thread of it on one CPU (OneCpu).
PhaseResult RunOnOneCpu(const WorkloadEntry& entry, const WorkloadArgs& args) {
  const OneCpu one_cpu;
  return entry.run(args);
}

double EntrySum(const std::vector<double>& entry, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += entry[i];
  }
  return sum;
}

/// The shared end-to-end set, its times at the reference host speed
/// (see ReferenceKernelMs), plus the wall-clock values behind them;
/// false (with \p why) when the run cannot support one of them.
bool EndToEnd(const PhaseResult& phase, std::map<std::string, Metric>& out,
              std::string* why) {
  std::vector<double> latencies = phase.latencies_ms;
  const std::size_t n = latencies.size();
  if (!PercentileSupported(n, 900)) {
    *why = "only " + std::to_string(n) +
           " latency samples: p90 needs 10 beyond it";
    return false;
  }
  if (phase.throughput_window_s <= 0.0) {
    *why = "empty throughput window";
    return false;
  }
  const std::size_t speed_samples = phase.reference_ms.size();
  if (speed_samples < kMinSpeedSamples) {
    *why = "only " + std::to_string(speed_samples) + " host-speed samples";
    return false;
  }
  const double scale = phase.SpeedScale();
  const Metric setup = {Median(phase.setup_s), "s", phase.setup_s.size()};
  const Metric p50 = {Percentile(latencies, 500), "ms", n};
  const Metric p90 = {Percentile(latencies, 900), "ms", n};
  const Metric throughput = {
      static_cast<double>(phase.completed) / phase.throughput_window_s,
      "ops/s", phase.completed};
  out["setup_s"] = {setup.value * scale, setup.unit, setup.samples};
  out["latency_p50_ms"] = {p50.value * scale, p50.unit, n};
  out["latency_p90_ms"] = {p90.value * scale, p90.unit, n};
  out["throughput_rps"] = {throughput.value / scale, throughput.unit,
                           throughput.samples};
  out["peak_rss_mb"] = {PeakRssMb(), "MB", 0};
  out["wall.setup_s"] = setup;
  out["wall.latency_p50_ms"] = p50;
  out["wall.latency_p90_ms"] = p90;
  out["wall.throughput_rps"] = throughput;
  out["host.reference_ms"] = {Median(phase.reference_ms), "ms", speed_samples};
  return true;
}

/// {"name": {"value": v, "unit": u}, ...} over \p names, in order; with
/// \p samples also each metric's sample count.
std::string MetricsJson(const std::map<std::string, Metric>& metrics,
                        const std::vector<std::string>& names, bool samples) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric& metric = metrics.at(names[i]);
    out << (i == 0 ? "" : ", ") << "\"" << names[i]
        << "\": {\"value\": " << metric.value << ", \"unit\": \""
        << metric.unit << "\"";
    if (samples) {
      out << ", \"samples\": " << metric.samples;
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

template <std::size_t N>
std::vector<std::string> Names(const MetricName (&table)[N]) {
  std::vector<std::string> names;
  for (const MetricName& metric : table) {
    names.push_back(metric.name);
  }
  return names;
}

int Run(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_build/perfbench";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else if (flag == "--out-dir") {
        out_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }

  const std::vector<std::string> self_failures = RunSelfTests();
  for (const std::string& failure : self_failures) {
    std::cerr << "self-test failed: " << failure << "\n";
  }
  if (!self_failures.empty()) {
    return 1;
  }

  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& candidate : kWorkloads) {
    if (workload == candidate.name) {
      entry = &candidate;
    }
  }
  if (entry == nullptr) {
    Usage("unknown workload \"" + workload + "\"");
  }
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) {
    Usage("--seconds must be positive and --trace 0 or 1");
  }
  std::filesystem::create_directories(out_dir);
  const std::string stem = out_dir + "/" + workload + "-seed" +
                           std::to_string(seed) + "-trace" +
                           std::to_string(trace);

  WorkloadArgs args;
  args.seed = seed;
  args.seconds = seconds;
  args.work_dir = stem + ".work";
  std::filesystem::remove_all(args.work_dir);

  PhaseResult untraced = RunOnOneCpu(*entry, args);
  std::uint64_t attempted = untraced.attempted;
  std::uint64_t failed = untraced.failed;
  std::vector<std::string> errors = untraced.errors;

  std::map<std::string, Metric> metrics;
  std::string why;
  if (!EndToEnd(untraced, metrics, &why)) {
    std::cerr << "nocdr_perfbench: " << why << "\n";
    return 1;
  }
  // Workload-level figures measured untraced (latency_p99_ms, ...).
  for (const auto& [name, metric] : untraced.figures) {
    metrics[name] = metric;
  }

  SpanRecorder spans;
  if (trace == 1) {
    args.spans = &spans;
    std::filesystem::remove_all(args.work_dir);
    PhaseResult traced = RunOnOneCpu(*entry, args);
    attempted += traced.attempted;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    // Figures both phases measure keep their untraced value.
    for (const auto& [name, metric] : traced.figures) {
      metrics.emplace(name, metric);
    }
    // Same inputs in the same order: compare the entry-point time of the
    // operations both phases completed.
    const std::size_t n =
        std::min(untraced.entry_ms.size(), traced.entry_ms.size());
    const double base = EntrySum(untraced.entry_ms, n);
    metrics["trace.overhead"] = {
        base <= 0.0 ? 0.0 : EntrySum(traced.entry_ms, n) / base, "ratio", n};
    spans.WriteJsonl(stem + ".spans.jsonl");
  }
  std::filesystem::remove_all(args.work_dir);
  metrics["failed_fraction"] = {
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted),
      "ratio", attempted};

  // Every listed per-layer metric is reported; a layer the workload does
  // not run reads 0.
  for (const MetricName& name : kPerLayer) {
    if (metrics.find(name.name) == metrics.end()) {
      metrics[name.name] = {0.0, name.unit, 0};
    }
  }

  // Taken after the workload: its spin test keeps four threads busy, and
  // on a host with a CPU quota the throttling that follows would fall on
  // the set-up.
  const nocdr::JsonObject provenance =
      Provenance(workload, seed, seconds, trace == 1);
  std::cout << "provenance " << provenance.Dump() << "\n";
  for (const auto& [name, metric] : metrics) {
    std::printf("metric %-26s %14.6g %-8s samples=%zu\n", name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples);
  }
  for (const std::string& error : errors) {
    std::cout << "failure " << error << "\n";
  }

  const std::vector<std::string> reported =
      trace == 0 ? Names(kEndToEnd) : Names(kPerLayer);
  for (const std::string& name : reported) {
    if (!std::isfinite(metrics.at(name).value)) {
      std::cerr << "nocdr_perfbench: " << name << " is not finite\n";
      return 1;
    }
  }
  const bool correct = failed == 0;
  const std::string selected = MetricsJson(metrics, reported, false);
  // The results file keeps every figure the run measured, with its
  // sample count, beside the provenance.
  std::vector<std::string> all;
  for (const auto& [name, metric] : metrics) {
    if (std::isfinite(metric.value)) {
      all.push_back(name);
    }
  }
  std::ofstream results(stem + ".json");
  results << "{\"provenance\": " << provenance.Dump()
          << ", \"correct\": " << (correct ? "true" : "false")
          << ", \"attempted\": " << attempted << ", \"failed\": " << failed
          << ", \"metrics\": " << selected
          << ", \"figures\": " << MetricsJson(metrics, all, true) << "}\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << selected << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The kernel carries a process's peak RSS across exec, so a process
  // started from a large launcher (python3 perfbench/run.py) would report
  // the launcher's peak as its own. A forked child starts from its own.
  std::cout.flush();
  const pid_t child = fork();
  if (child > 0) {
    int status = 0;
    while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  }
  if (child == 0) {
    // Do not outlive a parent killed on timeout.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
  }
  int code = 1;
  try {
    code = perfbench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "nocdr_perfbench: " << e.what() << "\n";
  }
  std::cout.flush();
  return code;
}
