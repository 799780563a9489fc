// Build provenance: which exact binary produced this artifact?
//
// Every durable artifact the repo emits — BENCH_*.json baselines, v2
// stats/metrics responses, `nocdr_serve --version` — carries the same
// fields, stamped once here so the answers cannot drift between
// surfaces. The build fields are burned in at compile time via definitions
// CMake scopes to build_info.cpp (see CMakeLists.txt): the git sha is
// read at *configure* time, so an incremental rebuild after new
// commits can lag until the next configure — acceptable for
// provenance, which only needs to identify the build, not the
// worktree. The one run-time field, the effective CPU count, records
// the machine a number was measured on.
#pragma once

#include <string>

#include "util/json.h"

namespace nocdr {

struct BuildInfo {
  std::string git_sha;    // short sha, or "unknown" outside a checkout
  std::string compiler;   // e.g. "GNU 12.2.0"
  std::string compiler_flags;
  std::string build_type;  // e.g. "Release"; empty when unset
  /// CPUs this process can run on: the sched_getaffinity count, capped
  /// by the cgroup v2 cpu.max quota where that file is readable. Read
  /// once, at the first GetBuildInfo() call.
  unsigned effective_cpu_count = 1;
};

/// The process's burned-in build info (immutable, never destroyed).
const BuildInfo& GetBuildInfo();

/// {"git_sha":...,"compiler":...,"compiler_flags":...,"build_type":...,
///  "effective_cpu_count":...} — the fragment spliced into bench headers
/// and serve responses.
JsonObject BuildProvenanceJson();

/// One-line human rendering for --version flags:
///   "<tool> <sha> (<compiler>, <build_type>, <n> effective CPUs)".
std::string BuildInfoLine(const std::string& tool_name);

/// \p affinity_cpus capped by a cgroup v2 `cpu.max` line, "<quota>
/// <period>" in microseconds: at most ceil(quota / period) CPUs, and at
/// least 1. "max" (no quota) or an unparseable line leaves the count.
unsigned CapCpusByQuota(unsigned affinity_cpus, const std::string& cpu_max);

}  // namespace nocdr
