// triage_mixed: an open loop of independent users against one
// InferenceServer — Poisson arrivals at a fixed rate, submitted by one
// generator thread (this one), mixing Task-2 classification prompts, unshared
// Task-1 questions and CI verification units — followed by a burst phase
// that measures offline throughput. Queueing, admission, prefix reuse and
// batched decode set its latency; verification fan-out shares the global
// pool with the GEMMs.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/analysis/diagnostic.hpp"
#include "hpcgpt/analysis/service.hpp"
#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/datagen/pipeline.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = hpcgpt::core;
namespace serve = hpcgpt::serve;
namespace analysis = hpcgpt::analysis;

/// Poisson arrival rate of the open loop. Higher rates raise the scheduler's
/// busy share but let queueing amplify host jitter: at 200/s and 250/s the
/// p95 spread 12% and 30% across runs, at 150/s about 3%.
constexpr double kArrivalsPerSecond = 150.0;
constexpr std::size_t kLanes = 8;
constexpr std::size_t kBudget = 32;
/// Share of --seconds spent in the open loop; the burst phase follows.
constexpr double kOpenShare = 0.6;
constexpr double kBurstPerSecond = 300.0;  // burst size per --seconds
constexpr std::size_t kBurstChunks = 12;
constexpr std::size_t kPool = 2048;        // distinct inputs per kind
/// Request mix. Nothing in the repository or the cited papers measures how
/// often CI verification calls a serving endpoint next to chat traffic, so
/// its share is an assumption: one request in four. The generation requests
/// split between Task-2 classification and Task-1 questions in the
/// proportion of the paper's instruction dataset (Table 3 race records
/// against Table 2 PLP + MLPerf records, see task2_share()). A verification
/// unit is also an assumption: one of 16 units of 4 functions, one of them
/// edited, the shape of a small CI change.
constexpr double kVerifyShare = 0.25;
constexpr std::size_t kUnits = 16;
constexpr std::size_t kUnitFunctions = 4;
/// Fresh set-ups per run (one takes ≈0.12 s).
constexpr int kSetups = 12;
/// ≈110 open-loop requests per window of the median.
constexpr LatencySpec kLatency{0.90, 0.006, 16};
/// A run whose generator submitted a tenth of its requests more than one
/// mean inter-arrival gap late fell behind its schedule, and is invalid. A
/// rarer stall is host jitter whose cost the due-time latencies already
/// carry.
constexpr double kMaxLatenessSeconds = 1.0 / kArrivalsPerSecond;
constexpr auto kPollInterval = std::chrono::microseconds(200);

enum class Kind { Classify, Question, Verify };

/// Task-2 records as a share of the paper's instruction dataset: the
/// Table 3 counts (both languages) against those plus the Table 2 counts.
double task2_share() {
  double task1 = 0.0, task2 = 0.0;
  for (const hpcgpt::datagen::Table2Row& row : hpcgpt::datagen::table2_rows()) {
    task1 += static_cast<double>(row.paper_count);
  }
  for (const auto flavor :
       {hpcgpt::minilang::Flavor::C, hpcgpt::minilang::Flavor::Fortran}) {
    for (const std::size_t n : hpcgpt::drb::table3_counts(flavor)) {
      task2 += static_cast<double>(n);
    }
  }
  return task2 / (task1 + task2);
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::Classify: return "classify";
    case Kind::Question: return "question";
    case Kind::Verify: return "verify";
  }
  return "?";
}

/// Seeded request inputs: distinct DRB snippets wrapped in the Task-2
/// instruction, unshared Task-1 questions, and CI units whose one edited
/// function changes on every submission.
struct Inputs {
  explicit Inputs(std::uint64_t seed) {
    hpcgpt::Rng rng(seed ^ 0x747269616765ULL);
    const auto& categories = hpcgpt::drb::all_categories();
    const auto drb_source = [&] {
      const auto category = categories[rng.next_below(categories.size())];
      return hpcgpt::drb::generate_case(category, hpcgpt::minilang::Flavor::C,
                                        rng);
    };
    for (std::size_t i = 0; i < kPool; ++i) {
      const hpcgpt::drb::TestCase tc = drb_source();
      classify.push_back(core::HpcGpt::race_instruction(
          hpcgpt::minilang::render_snippet(tc.program, tc.flavor)));
    }
    const std::vector<std::string> records =
        hpcgpt::kb::synthetic_retrieval_corpus(kPool, seed);
    for (const std::string& record : records) {
      // Each record opens with its unique system id, so no two questions
      // share a prefix page.
      questions.push_back(record.substr(0, record.find('.')) +
                          ": which accelerator and software does it use?");
    }
    for (std::size_t u = 0; u < kUnits; ++u) {
      analysis::VerifyRequest unit;
      unit.unit = "unit" + std::to_string(u);
      unit.explain = true;
      for (std::size_t f = 0; f < kUnitFunctions; ++f) {
        unit.functions.push_back(
            {"fn" + std::to_string(f), drb_source().source});
      }
      units.push_back(std::move(unit));
    }
    for (std::size_t i = 0; i < kPool; ++i) edits.push_back(drb_source().source);
  }

  analysis::VerifyRequest verify_request(std::size_t n, hpcgpt::Rng& rng) const {
    analysis::VerifyRequest request = units[rng.next_below(units.size())];
    request.functions[rng.next_below(kUnitFunctions)].source =
        edits[n % edits.size()];
    return request;
  }

  std::vector<std::string> classify;
  std::vector<std::string> questions;
  std::vector<analysis::VerifyRequest> units;
  std::vector<std::string> edits;
};

serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.max_batch = kLanes;
  config.max_new_tokens = kBudget;
  config.kv.prefix_cache = true;
  return config;
}

struct Triage {
  explicit Triage(std::uint64_t seed)
      : model([] {
          core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
          spec.pretrain_steps = 0;
          return core::HpcGpt(spec, core::build_shared_tokenizer());
        }()),
        server(std::make_unique<serve::InferenceServer>(model, serve_config())),
        inputs(seed),
        rng(seed) {
    // Warm-up: one request of each kind through the live server.
    core::GenerationRequest warm;
    warm.prompt = inputs.classify.back();
    (void)server->submit(std::move(warm)).get();
    warm.prompt = inputs.questions.back();
    (void)server->submit(std::move(warm)).get();
    (void)server->submit(inputs.units.front()).get();
  }

  core::HpcGpt model;
  std::unique_ptr<serve::InferenceServer> server;
  Inputs inputs;
  hpcgpt::Rng rng;
  std::size_t next[3] = {0, 0, 0};
  std::uint64_t next_id = 0;
};

/// One submitted operation and what came back.
struct Op {
  Kind kind = Kind::Classify;
  std::size_t input = 0;  // index into the kind's pool (verify: edit index)
  analysis::VerifyRequest verify;
  Clock::time_point due;
  Clock::time_point submitted;
  Clock::time_point done;  // verify: first poll that saw it ready
  std::future<core::GenerationResult> generation;
  std::future<analysis::VerifyResponse> verification;
  core::GenerationResult result;
  analysis::VerifyResponse response;
  bool complete = false;
  bool ok = false;
};

void submit(Triage& w, Op& op) {
  static const double classify_share = (1.0 - kVerifyShare) * task2_share();
  const double r = w.rng.next_double();
  op.kind = r < kVerifyShare                  ? Kind::Verify
            : r < kVerifyShare + classify_share ? Kind::Classify
                                                : Kind::Question;
  op.input = w.next[static_cast<int>(op.kind)]++;
  op.submitted = Clock::now();
  if (op.kind == Kind::Verify) {
    op.verify = w.inputs.verify_request(op.input, w.rng);
    op.verification = w.server->submit(op.verify);
    return;
  }
  core::GenerationRequest request;
  request.id = ++w.next_id;
  request.prompt = op.kind == Kind::Classify
                       ? w.inputs.classify[op.input % kPool]
                       : w.inputs.questions[op.input % kPool];
  op.generation = w.server->submit(std::move(request));
}

/// Marks every verification that has resolved since the last poll.
void poll(std::vector<Op>& ops, std::size_t& first_open) {
  const Clock::time_point now = Clock::now();
  for (std::size_t i = first_open; i < ops.size(); ++i) {
    Op& op = ops[i];
    if (op.complete || op.kind != Kind::Verify) continue;
    if (op.verification.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      op.done = now;
      op.response = op.verification.get();
      op.ok = op.response.accepted;
      op.complete = true;
    }
  }
  while (first_open < ops.size() &&
         (ops[first_open].complete || ops[first_open].kind != Kind::Verify)) {
    ++first_open;
  }
}

void finish(Op& op) {
  if (op.complete) return;
  if (op.kind == Kind::Verify) {
    op.response = op.verification.get();
    op.done = Clock::now();
    op.ok = op.response.accepted;
  } else {
    op.result = op.generation.get();
    op.ok = op.result.ok();
  }
  op.complete = true;
}

/// Due → completion. Generation requests carry the server's own
/// submit → result latency; verifications the poll that saw them done.
double latency(const Op& op) {
  if (!op.ok) return HUGE_VAL;
  if (op.kind == Kind::Verify) return seconds_between(op.due, op.done);
  return seconds_between(op.due, op.submitted) + op.result.latency_seconds;
}

std::size_t thread_count() {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    (void)entry;
    ++n;
  }
  return n;
}

struct OpenLoop {
  double wall = 0.0;
  std::vector<Op> ops;
  std::vector<double> lateness;
  std::size_t threads = 0;
  serve::ServerStats before, after;
};

OpenLoop run_open_loop(Triage& w, double seconds, bool traced) {
  OpenLoop loop;
  loop.before = w.server->stats();
  loop.ops.reserve(static_cast<std::size_t>(kArrivalsPerSecond * seconds * 2) + 16);
  hpcgpt::Rng arrivals(w.rng());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point due = start;
  std::size_t first_open = 0;
  while (true) {
    const double gap =
        -std::log(1.0 - arrivals.next_double()) / kArrivalsPerSecond;
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap));
    if (due >= end) break;
    for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
      poll(loop.ops, first_open);
      std::this_thread::sleep_until(std::min(due, now + kPollInterval));
    }
    Op& op = loop.ops.emplace_back();
    op.due = due;
    submit(w, op);
    loop.lateness.push_back(seconds_between(op.due, op.submitted));
  }
  loop.threads = thread_count();
  while (first_open < loop.ops.size()) {
    poll(loop.ops, first_open);
    std::this_thread::sleep_for(kPollInterval);
  }
  for (Op& op : loop.ops) finish(op);
  loop.wall = seconds_between(start, Clock::now());
  loop.after = w.server->stats();
  if (traced) {
    const double epoch_now = hpcgpt::obs::TraceSink::global().now_seconds();
    const Clock::time_point now = Clock::now();
    for (const Op& op : loop.ops) {
      const double l = latency(op);
      if (!std::isfinite(l)) continue;
      record_span(op.kind == Kind::Verify ? "bench.verify" : "bench.generate",
                  epoch_now - seconds_between(op.due, now), l,
                  hpcgpt::obs::next_trace_id());
    }
  }
  return loop;
}

void score_open_loop(Outcome& out, const OpenLoop& loop, const char* name,
                     bool traced) {
  std::vector<double> latencies;
  std::size_t failed = 0;
  for (const Op& op : loop.ops) {
    latencies.push_back(latency(op));
    failed += op.ok ? 0 : 1;
  }
  out.phase({name, loop.ops.size(), loop.ops.size() - failed, failed});
  latency_metrics(out, latencies, kLatency);
  const double late = quantile(loop.lateness, 0.90);
  out.facts.emplace_back("generator_lateness_p90_s", std::to_string(late));
  out.facts.emplace_back("generator_lateness_p99_s",
                         std::to_string(quantile(loop.lateness, 0.99)));
  out.facts.emplace_back("threads", std::to_string(loop.threads));
  // Tracing slows the generator too; only the scored run must keep pace.
  if (!traced && late > kMaxLatenessSeconds) {
    out.invalid = "open-loop generator fell behind its schedule (p90 "
                  "lateness " + std::to_string(late) + " s)";
  }
}

/// Per-layer serve / analysis / tensor numbers of one open-loop phase.
void layer_metrics(Outcome& out, const Triage& w, const OpenLoop& loop,
                   const RegistryView& process_before,
                   const RegistryView& process_after) {
  const serve::ServerStats& a = loop.before;
  const serve::ServerStats& b = loop.after;
  const auto d = [](std::size_t x, std::size_t y) {
    return static_cast<double>(y - x);
  };
  const double busy = b.busy_seconds - a.busy_seconds;
  const double rounds = d(a.batch_rounds, b.batch_rounds);
  const double hits = d(a.prefix_hits, b.prefix_hits);
  const double lookups = hits + d(a.prefix_misses, b.prefix_misses);
  const double prompt = d(a.prompt_tokens, b.prompt_tokens);
  const double reused = d(a.prefix_tokens_reused, b.prefix_tokens_reused);
  out.layers["serve.busy_share"] = busy / loop.wall;
  out.layers["serve.round_s"] = ratio(busy, rounds);
  out.layers["serve.prefix_hit_rate"] = ratio(hits, lookups);
  out.layers["serve.prefix_reused_share"] = ratio(reused, prompt);
  out.layers["serve.queue_depth_max"] = static_cast<double>(b.max_queue_depth);
  out.layers["serve.kv_pages_peak"] =
      RegistryView(w.server->metrics()).gauge_max("serve.kv.pages_in_use");
  out.layers["serve.gen_lateness_p99_s"] = quantile(loop.lateness, 0.99);

  std::vector<double> verify_seconds;
  double cache_hits = 0.0, cache_lookups = 0.0, functions = 0.0;
  for (const Op& op : loop.ops) {
    if (op.kind != Kind::Verify || !op.ok) continue;
    verify_seconds.push_back(seconds_between(op.submitted, op.done));
    cache_hits += static_cast<double>(op.response.cache_hits);
    cache_lookups +=
        static_cast<double>(op.response.cache_hits + op.response.cache_misses);
    functions += static_cast<double>(op.response.functions.size());
  }
  out.layers["analysis.verify_s"] = median(verify_seconds);
  out.layers["analysis.cache_hit_rate"] = ratio(cache_hits, cache_lookups);
  out.layers["analysis.functions_per_s"] = functions / loop.wall;

  const auto flops = delta(process_after.counter("tensor.gemm.flops"),
                           process_before.counter("tensor.gemm.flops"));
  out.layers["tensor.gemm_gflops"] = ratio(flops, loop.wall * 1e9);
  out.layers["tensor.gemm_flops_per_token"] =
      ratio(flops, prompt + d(a.generated_tokens, b.generated_tokens));
}

/// Output checks: served text equals HpcGpt::generate on the same prompt
/// and budget (prefix-cache hits included), and warm verify reports equal
/// a fresh service's cold verify.
void check_outputs(Outcome& out, Triage& w, const std::vector<const Op*>& ops) {
  std::size_t checked_generation = 0, checked_verify = 0;
  analysis::VerificationService cold(w.server->config().verification);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = *ops[i];
    if (!op.ok || i % 16 != 0) continue;
    if (op.kind == Kind::Verify) {
      if (op.response.cache_hits == 0) continue;
      ++checked_verify;
      cold.clear_cache();
      const analysis::VerifyResponse fresh = cold.verify(op.verify);
      bool same = fresh.functions.size() == op.response.functions.size();
      for (std::size_t f = 0; same && f < fresh.functions.size(); ++f) {
        const auto& x = fresh.functions[f];
        const auto& y = op.response.functions[f];
        same = x.name == y.name && x.parsed == y.parsed &&
               analysis::fingerprint(x.report) ==
                   analysis::fingerprint(y.report) &&
               x.rationale == y.rationale && x.grounding == y.grounding;
      }
      out.check(same, "warm verify differs from a cold verify of " +
                          op.verify.unit);
      continue;
    }
    ++checked_generation;
    core::GenerationRequest request;
    request.prompt = op.kind == Kind::Classify
                         ? w.inputs.classify[op.input % kPool]
                         : w.inputs.questions[op.input % kPool];
    request.max_new_tokens = kBudget;
    const core::GenerationResult direct = w.model.generate(request);
    out.check(direct.text == op.result.text,
              std::string("served ") + kind_name(op.kind) +
                  " text differs from HpcGpt::generate");
  }
  out.check(checked_generation > 0 && checked_verify > 0,
            "no generation or warm verification was sampled for checks");
  out.facts.emplace_back("checked", std::to_string(checked_generation) +
                                        " generations, " +
                                        std::to_string(checked_verify) +
                                        " warm verifications");
}

}  // namespace

Outcome run_triage_mixed(const RunConfig& config) {
  Outcome out;
  std::unique_ptr<Triage> w =
      repeated_setup(out, config.traced ? 0 : kSetups,
                     [&] { return std::make_unique<Triage>(config.seed); });
  out.facts.emplace_back("arrival_rate_per_s",
                         std::to_string(kArrivalsPerSecond));
  out.facts.emplace_back("lanes", std::to_string(kLanes));
  out.facts.emplace_back(
      "mix", "verify " + std::to_string(kVerifyShare) + ", classify " +
                 std::to_string((1.0 - kVerifyShare) * task2_share()) +
                 ", question " +
                 std::to_string((1.0 - kVerifyShare) * (1.0 - task2_share())));
  out.facts.emplace_back("pool_threads",
                         std::to_string(hpcgpt::ThreadPool::global().size()));

  const double open_seconds = config.seconds * kOpenShare;
  std::vector<const Op*> checked;
  OpenLoop base, loop;
  if (!config.traced) {
    loop = run_open_loop(*w, open_seconds, false);
    score_open_loop(out, loop, "open_loop", false);
  } else {
    base = run_open_loop(*w, open_seconds / 2, false);
    std::vector<double> base_latencies;
    for (const Op& op : base.ops) base_latencies.push_back(latency(op));
    const RegistryView before(hpcgpt::obs::MetricsRegistry::global());
    arm_trace(1 << 21);
    const double t0 = hpcgpt::obs::TraceSink::global().now_seconds();
    loop = run_open_loop(*w, open_seconds / 2, true);
    const double t1 = hpcgpt::obs::TraceSink::global().now_seconds();
    const TraceSummary trace = collect_trace(t0, t1);
    const RegistryView after(hpcgpt::obs::MetricsRegistry::global());
    score_open_loop(out, loop, "open_loop_traced", true);
    std::vector<double> latencies;
    for (const Op& op : loop.ops) latencies.push_back(latency(op));
    trace_metrics(out, trace, median(base_latencies), median(latencies));
    layer_metrics(out, *w, loop, before, after);
    for (const Op& op : base.ops) checked.push_back(&op);
  }
  for (const Op& op : loop.ops) checked.push_back(&op);

  // Burst: the same request mix submitted in kBurstChunks chunks, each at
  // once; offline throughput is the upper decile over the chunks.
  const serve::ServerStats burst_before = w->server->stats();
  const auto chunk = static_cast<std::size_t>(
      std::lround(kBurstPerSecond * config.seconds / kBurstChunks));
  std::vector<Op> burst(chunk * kBurstChunks);
  std::vector<double> chunk_rps, chunk_tps;
  std::size_t failed = 0;
  for (std::size_t c = 0; c < kBurstChunks; ++c) {
    const auto first = burst.begin() + static_cast<std::ptrdiff_t>(c * chunk);
    const auto last = first + static_cast<std::ptrdiff_t>(chunk);
    const Clock::time_point start = Clock::now();
    for (auto op = first; op != last; ++op) {
      op->due = Clock::now();
      submit(*w, *op);
    }
    std::size_t tokens = 0;
    for (auto op = first; op != last; ++op) {
      finish(*op);
      failed += op->ok ? 0 : 1;
      if (op->kind != Kind::Verify) tokens += op->result.generated_tokens;
    }
    const double wall = seconds_between(start, Clock::now());
    chunk_rps.push_back(static_cast<double>(chunk) / wall);
    chunk_tps.push_back(static_cast<double>(tokens) / wall);
  }
  w->server->shutdown();
  const serve::ServerStats stats = w->server->stats();
  out.phase({"burst", burst.size(), burst.size() - failed, failed});
  out.e2e["offline_rps"] = quantile(chunk_rps, 1.0 - kSteadyShare);
  out.e2e["tok_per_s"] = quantile(chunk_tps, 1.0 - kSteadyShare);
  std::string rps;
  for (double r : chunk_rps) rps += std::to_string(static_cast<int>(r)) + " ";
  out.facts.emplace_back("burst_chunk_rps", rps);
  if (config.traced) {
    out.layers["serve.batch_occupancy"] =
        ratio(static_cast<double>(stats.batch_occupancy_sum -
                                  burst_before.batch_occupancy_sum),
              static_cast<double>(stats.batch_rounds -
                                  burst_before.batch_rounds));
    out.layers["serve.shed"] = static_cast<double>(stats.requests_shed);
    out.layers["serve.rejected"] = static_cast<double>(stats.requests_rejected);
  }
  for (const Op& op : burst) checked.push_back(&op);
  check_outputs(out, *w, checked);
  out.e2e["peak_rss_mib"] = peak_rss_mib();
  return out;
}

}  // namespace perfbench
