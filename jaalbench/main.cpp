// jaalbench: the Jaal benchmark binary (run it through run.py, which
// builds it first).
//
//   jaalbench --workload isp_steady|edge_fanout|retro_replay --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--epochs E]
//             [--git-sha SHA] [--corrupt-reference]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Every metric is printed as "metric <name> <value> <unit> n=<samples>";
// the last line is one JSON object {correct, attempted, failed, metrics}.
// A failed output check prints correct=false with no metrics and exits 1.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "linalg/simd.hpp"

namespace {

using namespace jaalbench;

/// The end-to-end metrics every --trace 0 run reports (BENCHMARK.json).
const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> kNames = {
      "pkts_per_cpu_s",         "epoch_close_cpu_ms_p50",
      "epoch_close_cpu_ms_p95", "epoch_close_path_cpu_ms_p50",
      "query_cpu_ms_p50",       "query_cpu_ms_p95",
      "summary_bytes_per_pkt",  "store_bytes_per_epoch",
      "detect_tpr",             "setup_s",
      "peak_rss_mb"};
  return kNames;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "jaalbench: %s\nusage: jaalbench --workload W --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--epochs E] "
               "[--git-sha SHA] [--corrupt-reference]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--workdir") {
      opt.workdir = value();
    } else if (a == "--epochs") {
      opt.epochs = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--git-sha") {
      git_sha = value();
    } else if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  const auto spec = workload_spec(opt.workload, opt.epochs);
  if (!spec) return usage(("unknown workload " + opt.workload).c_str());
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");
  std::filesystem::create_directories(opt.workdir);

  // Host context, recorded with every result: numbers from hosts with a
  // different core count or SIMD level are not comparable.
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string simd(
      linalg::simd::level_name(linalg::simd::active()));
  std::printf(
      "host {\"nproc\": %u, \"simd\": \"%s\", \"git_sha\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"threads\": %zu, \"monitors\": %zu, \"epochs\": %zu}\n",
      nproc, simd.c_str(), git_sha.c_str(), spec->name.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, spec->threads, spec->monitors, spec->epochs);

  OpCount ops;
  std::vector<Metric> metrics = spec->replay ? run_replay(*spec, opt, ops)
                                             : run_live(*spec, opt, ops);
  if (opt.trace) metrics = complete_per_layer(metrics);

  for (const Metric& m : metrics) {
    std::printf("metric %s %s %s n=%zu\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  std::printf("failed_frac %s (%llu of %llu operations)\n",
              json_number(static_cast<double>(ops.failed) /
                          static_cast<double>(std::max<std::uint64_t>(
                              ops.attempted, 1)))
                  .c_str(),
              static_cast<unsigned long long>(ops.failed),
              static_cast<unsigned long long>(ops.attempted));
  for (const std::string& why : ops.failures) {
    std::printf("FAILED: %s\n", why.c_str());
  }

  const bool correct = ops.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  if (correct) {
    std::vector<std::string> wanted;
    if (opt.trace) {
      for (const auto& [name, unit] : per_layer_metric_units()) {
        wanted.push_back(name);
      }
    } else {
      wanted = end_to_end_names();
    }
    bool first = true;
    for (const std::string& name : wanted) {
      const Metric* found = nullptr;
      for (const Metric& m : metrics) {
        if (m.name == name) found = &m;
      }
      if (found == nullptr) {
        std::fprintf(stderr, "jaalbench: metric %s not measured\n",
                     name.c_str());
        return 1;
      }
      json += first ? "" : ", ";
      first = false;
      json += "\"" + name + "\": {\"value\": " + json_number(found->value) +
              ", \"unit\": \"" + found->unit + "\"}";
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
