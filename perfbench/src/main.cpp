// The repository's end-to-end benchmark.
//
//   perfbench --workload ask_rag|triage_mixed|finetune --seed N
//             --seconds S --trace 0|1 [--git-sha SHA]
//
// --trace 0 measures the workload untraced and reports its end-to-end
// metrics; --trace 1 is the separate traced run that reports the
// per-layer metrics. Both print a fingerprint line, per-phase operation
// counts, every metric with its unit, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. A failed output check
// exits 1; an invalid open-loop measurement exits 3 without a result.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/json/json.hpp"
#include "hpcgpt/tensor/kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"latency_p50_s", "s"},
    {"latency_tail_s", "s"},    {"slo_met_share", "share"},
    {"offline_rps", "1/s"},     {"tok_per_s", "tok/s"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"text.encode_s", "s"},
    {"retrieval.top_k_s", "s"},
    {"retrieval.add_s", "s"},
    {"retrieval.build_s", "s"},
    {"retrieval.postings_decoded_per_query", "count"},
    {"retrieval.blocks_skipped_per_query", "count"},
    {"retrieval.context_used_share", "share"},
    {"retrieval.index_bytes", "B"},
    {"nn.prefill_s", "s"},
    {"nn.decode_step_s", "s"},
    {"nn.prefill_tokens_per_op", "count"},
    {"nn.train.step_s", "s"},
    {"nn.train.tokens", "count"},
    {"nn.train.loss_last", "nats"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.gemm_flops_per_token", "FLOP"},
    {"serve.busy_share", "share"},
    {"serve.round_s", "s"},
    {"serve.batch_occupancy", "lanes"},
    {"serve.prefix_hit_rate", "share"},
    {"serve.prefix_reused_share", "share"},
    {"serve.queue_depth_max", "count"},
    {"serve.kv_pages_peak", "pages"},
    {"serve.shed", "count"},
    {"serve.rejected", "count"},
    {"serve.gen_lateness_p99_s", "s"},
    {"analysis.verify_s", "s"},
    {"analysis.cache_hit_rate", "share"},
    {"analysis.functions_per_s", "1/s"},
    {"trace.coverage_share", "share"},
    {"trace.dropped_events", "count"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_share", "share"},
    {"trace.self_share.core", "share"},
    {"trace.self_share.retrieval", "share"},
    {"trace.self_share.nn", "share"},
    {"trace.self_share.tensor", "share"},
    {"trace.self_share.serve", "share"},
    {"trace.self_share.analysis", "share"},
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    return brand;
  }
#endif
  return "unknown";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ask_rag|triage_mixed|finetune "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA]\n");
  return 2;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"ask_rag", run_ask_rag},
      {"triage_mixed", run_triage_mixed},
      {"finetune", run_finetune},
  };
  return all;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string name, git_sha = "unknown";
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
      have_seconds = config.seconds > 0.0;
    } else if (flag == "--trace") {
      config.traced = std::strcmp(value, "1") == 0;
      have_trace = config.traced || std::strcmp(value, "0") == 0;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace ||
      argc % 2 == 0) {
    return usage();
  }

  Outcome out = workload->run(config);

  hpcgpt::json::Object fingerprint;
  fingerprint["cpu"] = cpu_model();
  fingerprint["nproc"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  fingerprint["isa_tier"] = hpcgpt::tensor::kernels::tier_name(
      hpcgpt::tensor::kernels::active().tier);
  fingerprint["build_type"] = PERFBENCH_BUILD_TYPE;
  fingerprint["build_flags"] = PERFBENCH_BUILD_FLAGS;
  fingerprint["git_sha"] = git_sha;
  fingerprint["workload"] = name;
  fingerprint["seed"] = std::to_string(config.seed);
  fingerprint["seconds"] = config.seconds;
  fingerprint["trace"] = config.traced;
  for (const auto& [key, value] : out.facts) fingerprint[key] = value;
  std::printf("fingerprint %s\n",
              hpcgpt::json::Value(std::move(fingerprint)).dump().c_str());
  for (const PhaseCount& p : out.phases) {
    std::printf("phase %-28s sent %7zu  succeeded %7zu  failed %5zu\n",
                p.name.c_str(), p.sent, p.succeeded, p.failed);
  }
  if (!out.invalid.empty()) {
    std::printf("INVALID: %s; not scored\n", out.invalid.c_str());
    std::fprintf(stderr, "INVALID: %s\n", out.invalid.c_str());
    return 3;
  }

  hpcgpt::json::Object metrics;
  // A metric the workload does not report is a layer it bypasses (the
  // traced run of the workload that exercises it measures it); nullopt is
  // a counter or span missing from this build. Both print as 0.
  const auto emit = [&](const MetricSpec& spec, bool reported,
                        std::optional<double> value) {
    if (!reported) {
      std::printf("metric %-40s n/a (this workload bypasses the layer)\n",
                  spec.name);
      value = 0.0;
    } else if (!value) {
      std::printf("metric %-40s absent (no such counter or span in this "
                  "build)\n", spec.name);
      value = 0.0;
    } else if (!std::isfinite(*value)) {
      out.problems.push_back(std::string("metric ") + spec.name +
                             " is not finite");
      value = 0.0;
    } else {
      std::printf("metric %-40s %.9g %s\n", spec.name, *value, spec.unit);
    }
    hpcgpt::json::Object entry;
    entry["value"] = *value;
    entry["unit"] = spec.unit;
    metrics[spec.name] = std::move(entry);
  };
  if (config.traced) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = out.layers.find(spec.name);
      const bool reported = it != out.layers.end();
      emit(spec, reported, reported ? it->second : std::nullopt);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = out.e2e.find(spec.name);
      const bool reported = it != out.e2e.end();
      emit(spec, true, reported ? std::optional<double>(it->second)
                                : std::nullopt);
    }
  }
  for (const std::string& problem : out.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }

  hpcgpt::json::Object result;
  result["correct"] = out.problems.empty();
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", hpcgpt::json::Value(std::move(result)).dump().c_str());
  std::fflush(stdout);
  return out.problems.empty() ? 0 : 1;
}
