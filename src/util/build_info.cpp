#include "util/build_info.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

// CMake defines these for this translation unit only
// (set_source_files_properties in CMakeLists.txt). The fallbacks keep
// the file compiling under any other build driver.
#ifndef NOCDR_GIT_SHA
#define NOCDR_GIT_SHA "unknown"
#endif
#ifndef NOCDR_COMPILER_ID
#define NOCDR_COMPILER_ID "unknown"
#endif
#ifndef NOCDR_CXX_FLAGS
#define NOCDR_CXX_FLAGS ""
#endif
#ifndef NOCDR_BUILD_TYPE
#define NOCDR_BUILD_TYPE ""
#endif

namespace nocdr {

namespace {

unsigned EffectiveCpuCount() {
  unsigned cpus = std::thread::hardware_concurrency();
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    cpus = static_cast<unsigned>(CPU_COUNT(&mask));
  }
#endif
  std::ifstream cpu_max("/sys/fs/cgroup/cpu.max");
  std::string line;
  if (std::getline(cpu_max, line)) {
    cpus = CapCpusByQuota(cpus, line);
  }
  return cpus == 0 ? 1 : cpus;
}

}  // namespace

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info{
      NOCDR_GIT_SHA,
      NOCDR_COMPILER_ID,
      NOCDR_CXX_FLAGS,
      NOCDR_BUILD_TYPE,
      EffectiveCpuCount(),
  };
  return info;
}

unsigned CapCpusByQuota(unsigned affinity_cpus, const std::string& cpu_max) {
  std::istringstream in(cpu_max);
  unsigned long long quota = 0;
  unsigned long long period = 0;
  if (!(in >> quota >> period) || period == 0) {
    return affinity_cpus;  // "max <period>" or unreadable: no quota
  }
  const unsigned long long quota_cpus =
      std::max(1ULL, (quota + period - 1) / period);
  return static_cast<unsigned>(
      std::min<unsigned long long>(quota_cpus, affinity_cpus));
}

JsonObject BuildProvenanceJson() {
  const BuildInfo& info = GetBuildInfo();
  JsonObject json;
  json.Set("git_sha", info.git_sha)
      .Set("compiler", info.compiler)
      .Set("compiler_flags", info.compiler_flags)
      .Set("build_type", info.build_type)
      .Set("effective_cpu_count", info.effective_cpu_count);
  return json;
}

std::string BuildInfoLine(const std::string& tool_name) {
  const BuildInfo& info = GetBuildInfo();
  std::string line = tool_name + " " + info.git_sha + " (" + info.compiler;
  if (!info.build_type.empty()) {
    line += ", " + info.build_type;
  }
  line += ", " + std::to_string(info.effective_cpu_count) + " effective CPUs)";
  return line;
}

}  // namespace nocdr
