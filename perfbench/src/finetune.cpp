// finetune: the `hpcgpt train` batch job — repeated HpcGpt::finetune calls,
// each adapting a fresh base model to a fixed-size slice of the collected
// instruction records. The only workload that runs backward GEMMs, the
// trainer's shard/reduce and AdamW.

#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/datagen/pipeline.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = hpcgpt::core;

constexpr std::size_t kSliceRecords = 16;
constexpr int kSetups = 12;
/// ≈200 calls per run, each slice a different length: per-window figures
/// would mostly sample which slices a window got, so this workload reports
/// its median and throughput over the whole run (its p90 keeps ≈20 calls
/// beyond it).
constexpr std::size_t kWindows = 1;
constexpr LatencySpec kLatency{0.90, 0.160, kWindows};

/// The explicit training options of every call (recorded in the
/// fingerprint line and the benchmark's README).
core::FinetuneOptions finetune_options(std::uint64_t seed) {
  core::FinetuneOptions options;
  options.epochs = 2;
  options.learning_rate = 2e-3f;
  options.max_records = 0;
  options.shuffle_seed = seed;
  options.train.workers = 4;
  options.train.micro_batch = 4;
  options.train.pack_sequences = false;
  return options;
}

core::ModelOptions base_spec() {
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  return spec;
}

struct Finetune {
  explicit Finetune(std::uint64_t seed)
      : tokenizer(core::build_shared_tokenizer()),
        options(finetune_options(seed)) {
    std::vector<hpcgpt::datagen::InstructionRecord> records =
        hpcgpt::datagen::collect_all(seed).records;
    hpcgpt::Rng rng(seed);
    for (std::size_t i = records.size(); i > 1; --i) {
      std::swap(records[i - 1], records[rng.next_below(i)]);
    }
    for (std::size_t i = 0; i + kSliceRecords <= records.size();
         i += kSliceRecords) {
      slices.emplace_back(records.begin() + static_cast<std::ptrdiff_t>(i),
                          records.begin() +
                              static_cast<std::ptrdiff_t>(i + kSliceRecords));
    }
    core::HpcGpt warm(base_spec(), tokenizer);
    (void)warm.finetune(slices.back(), options);
  }

  hpcgpt::text::BpeTokenizer tokenizer;
  core::FinetuneOptions options;
  std::vector<std::vector<hpcgpt::datagen::InstructionRecord>> slices;
  std::size_t next_slice = 0;
};

struct Phase {
  double wall = 0.0;
  std::vector<double> latencies;  // +inf for failed calls
  std::vector<double> ends;       // completion, seconds since phase start
  std::vector<double> tokens;     // trained tokens per call
  std::vector<double> step_seconds;
  std::size_t failed = 0;
  double last_loss = 0.0;
};

Phase run_phase(Finetune& w, Outcome& out, double seconds) {
  Phase p;
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    const auto& slice = w.slices[w.next_slice++ % w.slices.size()];
    core::HpcGpt model(base_spec(), w.tokenizer);
    const Clock::time_point t0 = Clock::now();
    try {
      hpcgpt::obs::Span op("bench.finetune");
      const core::FinetuneReport report = model.finetune(slice, w.options);
      const double wall = seconds_between(t0, Clock::now());
      const bool learned = std::isfinite(report.first_epoch_loss) &&
                           std::isfinite(report.last_epoch_loss) &&
                           report.last_epoch_loss < report.first_epoch_loss;
      out.check(learned, "finetune call did not lower its loss (first " +
                             std::to_string(report.first_epoch_loss) +
                             ", last " +
                             std::to_string(report.last_epoch_loss) + ")");
      p.latencies.push_back(learned ? wall : HUGE_VAL);
      p.failed += learned ? 0 : 1;
      p.tokens.push_back(static_cast<double>(report.tokens));
      p.last_loss = report.last_epoch_loss;
      if (report.steps > 0) {
        p.step_seconds.push_back(wall / static_cast<double>(report.steps));
      }
    } catch (const std::exception& e) {
      out.check(false, std::string("finetune threw: ") + e.what());
      p.latencies.push_back(HUGE_VAL);
      p.tokens.push_back(0.0);
      ++p.failed;
    }
    p.ends.push_back(seconds_between(start, Clock::now()));
  }
  p.wall = seconds_between(start, Clock::now());
  return p;
}

void score(Outcome& out, const Phase& p, const char* name) {
  out.phase({name, p.latencies.size(), p.latencies.size() - p.failed,
             p.failed});
  latency_metrics(out, p.latencies, kLatency);
  out.e2e["offline_rps"] = windowed_rate(
      p.ends, std::vector<double>(p.ends.size(), 1.0), kWindows);
  out.e2e["tok_per_s"] = windowed_rate(p.ends, p.tokens, kWindows);
}

}  // namespace

Outcome run_finetune(const RunConfig& config) {
  Outcome out;
  std::unique_ptr<Finetune> w =
      repeated_setup(out, config.traced ? 0 : kSetups,
                     [&] { return std::make_unique<Finetune>(config.seed); });
  const core::FinetuneOptions& o = w->options;
  out.facts.emplace_back(
      "train_options",
      "epochs=" + std::to_string(o.epochs) +
          " lr=" + std::to_string(o.learning_rate) +
          " workers=" + std::to_string(o.train.workers) +
          " micro_batch=" + std::to_string(o.train.micro_batch) +
          " pack_sequences=" + (o.train.pack_sequences ? "1" : "0") +
          " slice_records=" + std::to_string(kSliceRecords));

  if (!config.traced) {
    score(out, run_phase(*w, out, config.seconds), "batch");
  } else {
    const Phase base = run_phase(*w, out, config.seconds / 2);
    const RegistryView before(hpcgpt::obs::MetricsRegistry::global());
    arm_trace(1 << 21);
    const double t0 = hpcgpt::obs::TraceSink::global().now_seconds();
    const Phase p = run_phase(*w, out, config.seconds / 2);
    const double t1 = hpcgpt::obs::TraceSink::global().now_seconds();
    const TraceSummary trace = collect_trace(t0, t1);
    const RegistryView after(hpcgpt::obs::MetricsRegistry::global());
    score(out, p, "batch_traced");
    trace_metrics(out, trace, median(base.latencies), median(p.latencies));

    const auto flops = delta(after.counter("tensor.gemm.flops"),
                             before.counter("tensor.gemm.flops"));
    out.layers["nn.train.step_s"] = median(p.step_seconds);
    const double tokens = std::accumulate(p.tokens.begin(), p.tokens.end(), 0.0);
    out.layers["nn.train.tokens"] = tokens;
    out.layers["nn.train.loss_last"] = p.last_loss;
    out.layers["tensor.gemm_gflops"] = ratio(flops, p.wall * 1e9);
    out.layers["tensor.gemm_flops_per_token"] =
        ratio(flops, tokens);
  }
  out.e2e["peak_rss_mib"] = peak_rss_mib();
  return out;
}

}  // namespace perfbench
