/// The HARVEST host benchmark program.
///
///   perfbench --workload <plant_online|crsa_realtime|agri_lm|des_study>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--commit <id>] [--source-digest <hex>] [--out-dir <dir>]
///
/// Prints a host fingerprint, one line per phase with the operations it
/// attempted and failed, every output check, and as the last line one
/// JSON object {"correct", "attempted", "failed", "metrics"}. An
/// untraced run (--trace 0) reports the end-to-end metrics; a traced
/// run (--trace 1) the per-layer ones and a Chrome trace in --out-dir.
/// Which metrics, and their units, come from BENCHMARK.json in the
/// working directory (the repository root, where run.py starts it).
/// See perfbench/README.md.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

using MetricName = std::pair<std::string, std::string>;

/// The metric names and units of one list of BENCHMARK.json ("end_to_end"
/// or "per_layer"), the single place they are declared.
std::vector<MetricName> declared_metrics(const std::string& list) {
  const std::string path = "BENCHMARK.json";
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  auto spec = harvest::core::Json::parse(text.str());
  if (!in || !spec.is_ok() || spec.value().find(list) == nullptr) {
    throw std::runtime_error("cannot read \"" + list + "\" from " + path);
  }
  std::vector<MetricName> names;
  for (const harvest::core::Json& m : spec.value().find(list)->as_array()) {
    names.emplace_back(m.get_string("name", ""), m.get_string("unit", ""));
  }
  return names;
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(" \t"));
        return value;
      }
    }
  }
  return "unknown";
}

/// The ISA extensions the kernels can dispatch on, as the CPU reports them.
std::string isa_flags() {
  const std::set<std::string> wanted = {
      "sse4_2", "avx", "avx2", "fma", "f16c", "avx512f", "avx512bw",
      "avx512vl", "avx512_vnni", "avx_vnni", "amx_int8", "neon", "asimd"};
  std::istringstream flags(cpuinfo_field(cpuinfo_field("flags") == "unknown"
                                             ? "Features"
                                             : "flags"));
  std::string flag, out;
  while (flags >> flag) {
    if (wanted.count(flag) != 0) out += (out.empty() ? "" : " ") + flag;
  }
  return out.empty() ? "none" : out;
}

void print_fingerprint(const Options& options, const std::string& commit,
                       const std::string& digest) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::printf("host cpu      %s\n", cpuinfo_field("model name").c_str());
  std::printf("host isa      %s\n", isa_flags().c_str());
  std::printf("host nproc    %ld online, %d usable\n",
              sysconf(_SC_NPROCESSORS_ONLN), usable);
  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::printf("omp threads   %s\n", omp != nullptr ? omp : "(default)");
  std::printf("compiler      %s\n", PERFBENCH_COMPILER);
  std::printf("build type    %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("commit        %s\n", commit.c_str());
  std::printf("source digest %s\n", digest.c_str());
  std::printf("workload      %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--source-digest <hex>] [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  std::string digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value != "0";
    } else if (key == "--commit") {
      commit = value;
    } else if (key == "--source-digest") {
      digest = value;
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  using Runner = void (*)(const Options&, Result&);
  Runner runner = nullptr;
  if (options.workload == "plant_online") runner = perfbench::run_plant_online;
  if (options.workload == "crsa_realtime") {
    runner = perfbench::run_crsa_realtime;
  }
  if (options.workload == "agri_lm") runner = perfbench::run_agri_lm;
  if (options.workload == "des_study") runner = perfbench::run_des_study;
  if (runner == nullptr) return usage("unknown --workload");

  print_fingerprint(options, commit, digest);
  std::fflush(stdout);

  Result result;
  std::vector<MetricName> reported;
  try {
    reported = declared_metrics(options.trace ? "per_layer" : "end_to_end");
    runner(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  // A traced run reports every per-layer metric; a layer the workload
  // never enters reads 0.
  const std::vector<std::string> missing =
      result.select(reported, options.trace);
  for (const std::string& name : missing) {
    std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                 options.workload.c_str(), name.c_str());
  }
  if (!missing.empty()) return 1;
  result.print();
  return result.correct() ? 0 : 1;
}
