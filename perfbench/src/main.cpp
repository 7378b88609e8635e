// irf_perfbench: one benchmark run of one workload.
//
//   irf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --model CHECKPOINT --work-dir DIR [--smoke] [--inject FAULT]
//   irf_perfbench --prepare-model CHECKPOINT
//   irf_perfbench --list-metrics
//
// The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it records
// the environment. A detailed report (per-phase tallies, sample counts) is
// written to DIR/report_<workload>.json. Exit status is 1 when any
// operation failed its correctness check, 2 on a usage or set-up error.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "inputs.hpp"
#include "par/par.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

#ifndef IRF_PERFBENCH_BUILD_TYPE
#define IRF_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of a table. A per-layer metric of a
// layer the workload never calls reads 0: that workload spends nothing there.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"cpu_ms_per_op", "ms"},  {"mae_1e4v", "1e-4V"},
    {"mirde_1e4v", "1e-4V"},  {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"spice.parse_ms", "ms"},
    {"spice.parse_mb_s", "MB/s"},
    {"pg.solver_build_ms", "ms"},
    {"pg.mna_ms", "ms"},
    {"solver.amg_setup_ms", "ms"},
    {"solver.amg_levels", "count"},
    {"solver.rough_pcg_ms", "ms"},
    {"linalg.spmv_us", "us"},
    {"linalg.spmv_gbs_computed", "GB/s"},
    {"solver.golden_ms", "ms"},
    {"solver.golden_iterations", "count"},
    {"features.extract_ms", "ms"},
    {"pg.delta_classify_ms", "ms"},
    {"pg.rebind_ms", "ms"},
    {"solver.warm_pcg_ms", "ms"},
    {"solver.warm_iterations", "count"},
    {"features.refresh_ms", "ms"},
    {"nn.forward_b1_ms", "ms"},
    {"nn.forward_b8_ms", "ms"},
    {"nn.train_step_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"serve.warm_hit_ratio", "ratio"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.evictions", "count"},
    {"serve.cache_bytes", "bytes"},
    {"serve.batch_size_mean", "count"},
    {"serve.inference_ms", "ms"},
    {"serve.content_hash_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"harness.gen_lag_p99_ms", "ms"},
    {"harness.backlog_at_end", "count"},
    {"cold_signoff.p50_ms", "ms"},
    {"cold_signoff.p90_ms", "ms"},
    {"cold_signoff.throughput_ops_s", "1/s"},
    {"serve_mix.p50_ms", "ms"},
    {"serve_mix.p90_ms", "ms"},
    {"serve_mix.throughput_ops_s", "1/s"},
    {"train_fit.p50_ms", "ms"},
    {"train_fit.throughput_ops_s", "1/s"},
    {"cold_signoff.trace_overhead_pct", "%"},
    {"cold_signoff.unattributed_pct", "%"},
    {"serve_mix.trace_overhead_pct", "%"},
    {"serve_mix.unattributed_pct", "%"},
    {"train_fit.trace_overhead_pct", "%"},
    {"train_fit.unattributed_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "irf_perfbench: " << why << "\n";
  std::exit(2);
}

/// The environment every result is recorded with, as a JSON object.
std::string env_json(const RunConfig& config) {
  const char* threads_env = std::getenv("IRF_THREADS");
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"IRF_THREADS\": " + json_string(threads_env ? threads_env : "");
  out += ", \"par_threads\": " + std::to_string(irf::par::num_threads());
  out += ", \"simd.tier\": " +
         json_string(irf::simd::tier_name(irf::simd::active_tier()));
  out += ", \"build_type\": " + json_string(IRF_PERFBENCH_BUILD_TYPE);
  out += ", \"workload\": " + json_string(config.workload);
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"seconds\": " + json_number(config.seconds);
  out += ", \"trace\": " + std::to_string(config.trace ? 1 : 0);
  out += "}";
  return out;
}

std::string metrics_json(const Metrics& values, const MetricSpec* begin,
                         const MetricSpec* end, bool fill_zero) {
  std::string out = "{";
  for (const MetricSpec* m = begin; m != end; ++m) {
    const auto it = values.find(m->name);
    if (it == values.end() && !fill_zero) {
      throw std::logic_error(std::string("workload did not set metric ") + m->name);
    }
    const double v = it == values.end() ? 0.0 : it->second.value;
    if (m != begin) out += ", ";
    out += json_string(m->name) + ": {\"value\": " + json_number(v) +
           ", \"unit\": " + json_string(m->unit) + "}";
  }
  return out + "}";
}

int run(const RunConfig& config) {
  WorkloadResult result;
  if (config.workload == "cold_signoff") {
    result = run_cold_signoff(config);
  } else if (config.workload == "serve_mix") {
    result = run_serve_mix(config);
  } else if (config.workload == "train_fit") {
    result = run_train_fit(config);
  } else {
    usage("unknown workload '" + config.workload + "'");
  }
  result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const bool correct = result.tally.failed() == 0;
  std::string metrics = "{}";
  if (correct) {
    metrics = config.trace
                  ? metrics_json(result.per_layer, std::begin(kPerLayer), std::end(kPerLayer), true)
                  : metrics_json(result.end_to_end, std::begin(kEndToEnd), std::end(kEndToEnd),
                                 false);
  } else {
    std::cerr << "irf_perfbench: correctness check failed (" << result.tally.failed() << " of "
              << result.tally.attempted() << "; first: " << result.tally.first_reason()
              << ")\n";
  }

  std::string notes = "{";
  for (const auto& [k, v] : result.notes) {
    notes += (notes.size() > 1 ? ", " : "") + json_string(k) + ": " + json_number(v);
  }
  notes += "}";
  const std::string env = env_json(config);
  {
    std::ofstream report(config.work_dir + "/report_" + config.workload + ".json");
    report << "{\"env\": " << env << ", \"phases\": "
           << result.tally.json() << ", \"notes\": " << notes
           << ", \"end_to_end\": " << metrics_json(result.end_to_end, std::begin(kEndToEnd),
                                                    std::end(kEndToEnd), true)
           << ", \"per_layer\": "
           << metrics_json(result.per_layer, std::begin(kPerLayer), std::end(kPerLayer), true)
           << "}\n";
  }
  std::cout << "{\"env\": " << env << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.tally.attempted()
            << ", \"failed\": " << result.tally.failed() << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string prepare;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") config.workload = value();
      else if (arg == "--seed") config.seed = std::stoull(value());
      else if (arg == "--seconds") config.seconds = std::stod(value());
      else if (arg == "--trace") config.trace = value() == "1";
      else if (arg == "--model") config.model_path = value();
      else if (arg == "--work-dir") config.work_dir = value();
      else if (arg == "--inject") config.inject = value();
      else if (arg == "--smoke") config.smoke = true;
      else if (arg == "--prepare-model") prepare = value();
      else if (arg == "--list-metrics") list = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (list) {
    for (const MetricSpec& m : kEndToEnd) std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
    for (const MetricSpec& m : kPerLayer) std::cout << "per_layer " << m.name << " " << m.unit << "\n";
    return 0;
  }
  try {
    if (!prepare.empty()) {
      prepare_model(prepare);
      return 0;
    }
    if (config.workload.empty() || config.model_path.empty() || config.work_dir.empty()) {
      usage("--workload, --model and --work-dir are required");
    }
    if (!(config.seconds > 0.0)) usage("--seconds must be positive");
    std::filesystem::create_directories(config.work_dir);
    return run(config);
  } catch (const std::exception& e) {
    std::cerr << "irf_perfbench: " << e.what() << "\n";
    return 2;
  }
}
