// ask_rag: the `hpcgpt ask --rag` path as one user drives it — a closed
// loop where each question goes through core::rag_ask (tokenize, retrieve,
// prompt, prefill, decode, detokenize) over an indexed SearchEngine, and
// every kAddEvery-th question first adds a fresh record (the paper's §5
// "update facts without retraining").

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/core/rag.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/retrieval/engine.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/support/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = hpcgpt::core;
namespace retrieval = hpcgpt::retrieval;

constexpr std::size_t kSyntheticRecords = 20000;
constexpr std::size_t kFreshRecords = 4096;
constexpr std::size_t kQuestions = 4096;
constexpr std::size_t kAddEvery = 8;
constexpr std::size_t kCheckSample = 64;
constexpr int kSetups = 6;
/// ≈250 questions per half-second window.
constexpr std::size_t kWindows = 40;
constexpr LatencySpec kLatency{0.95, 0.005, kWindows};

/// The record's words, longest first, normalised the way the embedder
/// does: a record's content sits in its long tokens (system id,
/// accelerator, software, benchmark), its template glue in short ones.
std::vector<std::string> content_words(const std::string& record) {
  std::vector<std::string> words = hpcgpt::strings::normalized_words(record);
  std::stable_sort(words.begin(), words.end(),
                   [](const std::string& a, const std::string& b) {
                     return a.size() > b.size();
                   });
  return words;
}

/// 3/4 needle questions naming one system by its unique id, 1/4 naming an
/// accelerator/software/benchmark combination shared by many records.
std::vector<std::string> make_questions(const std::vector<std::string>& records,
                                        hpcgpt::Rng& rng) {
  std::vector<std::string> questions;
  questions.reserve(kQuestions);
  for (std::size_t q = 0; q < kQuestions; ++q) {
    std::vector<std::string> words =
        content_words(records[rng.next_below(records.size())]);
    const auto id = std::find_if(words.begin(), words.end(),
                                 [](const std::string& w) {
                                   return w.rfind("sys", 0) == 0 &&
                                          w.size() > 3;
                                 });
    std::string question;
    if (q % 4 != 3 && id != words.end()) {
      question = "tell me about " + *id;
    } else {
      if (id != words.end()) words.erase(id);
      question = "which mlperf system uses";
      for (std::size_t w = 0; w < words.size() && w < 4; ++w) {
        question += " " + words[w];
      }
    }
    questions.push_back(std::move(question));
  }
  return questions;
}

struct AskRag {
  explicit AskRag(std::uint64_t seed)
      : model([] {
          core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
          spec.pretrain_steps = 0;
          return core::HpcGpt(spec, core::build_shared_tokenizer());
        }()) {
    // The CLI's --rag corpus (unstructured paragraphs plus every flattened
    // PLP/MLPerf record) widened with synthetic MLPerf records.
    std::vector<std::string> chunks = hpcgpt::kb::unstructured_corpus();
    const hpcgpt::kb::KnowledgeBase& base =
        hpcgpt::kb::KnowledgeBase::expanded();
    for (const auto& entry : base.plp) chunks.push_back(hpcgpt::kb::flatten(entry));
    for (const auto& entry : base.mlperf) {
      chunks.push_back(hpcgpt::kb::flatten(entry));
    }
    std::vector<std::string> synthetic = hpcgpt::kb::synthetic_retrieval_corpus(
        kSyntheticRecords + kFreshRecords, seed);
    fresh.assign(synthetic.begin() + kSyntheticRecords, synthetic.end());
    synthetic.resize(kSyntheticRecords);
    chunks.insert(chunks.end(), synthetic.begin(), synthetic.end());

    const Clock::time_point t0 = Clock::now();
    retrieval::TfidfEmbedder embedder;
    embedder.fit(chunks);
    engine = std::make_unique<retrieval::SearchEngine>(std::move(embedder));
    engine->add_all(chunks);
    build_seconds = seconds_between(t0, Clock::now());

    hpcgpt::Rng rng(seed ^ 0x61736b5f726167ULL);
    questions = make_questions(synthetic, rng);
    for (std::size_t i = 0; i < 4; ++i) {  // warm-up
      (void)core::rag_ask(model, *engine, questions[i], options);
    }
  }

  core::HpcGpt model;
  std::unique_ptr<retrieval::SearchEngine> engine;
  core::RagOptions options;
  std::vector<std::string> questions;
  std::vector<std::string> fresh;
  std::size_t next_question = 0;
  std::size_t next_fresh = 0;
  double build_seconds = 0.0;
};

struct Phase {
  double wall = 0.0;
  std::vector<double> latencies;  // +inf for failed operations
  std::vector<double> ends;       // completion, seconds since phase start
  std::vector<double> add_seconds;
  std::vector<std::string> answers;
  std::size_t failed = 0;
  std::size_t used_context = 0;
};

Phase run_phase(AskRag& w, double seconds) {
  Phase p;
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    const std::string& question =
        w.questions[w.next_question++ % w.questions.size()];
    const bool add = w.next_question % kAddEvery == 0;
    const Clock::time_point t0 = Clock::now();
    try {
      hpcgpt::obs::Span op("bench.ask");
      if (add) {
        hpcgpt::obs::Span span("bench.retrieval.add");
        w.engine->add(w.fresh[w.next_fresh++ % w.fresh.size()]);
        p.add_seconds.push_back(seconds_between(t0, Clock::now()));
      }
      hpcgpt::obs::Span span("bench.core.rag_ask");
      core::RagAnswer answer =
          core::rag_ask(w.model, *w.engine, question, w.options);
      p.latencies.push_back(seconds_between(t0, Clock::now()));
      p.used_context += answer.used_context ? 1 : 0;
      p.answers.push_back(std::move(answer.text));
    } catch (const std::exception&) {
      p.latencies.push_back(HUGE_VAL);
      p.answers.emplace_back();
      ++p.failed;
    }
    p.ends.push_back(seconds_between(start, Clock::now()));
  }
  p.wall = seconds_between(start, Clock::now());
  return p;
}

void score(Outcome& out, const AskRag& w, const Phase& p, const char* name) {
  std::vector<double> tokens;
  for (const std::string& a : p.answers) {
    tokens.push_back(
        static_cast<double>(w.model.tokenizer().encode(a).size()));
  }
  out.phase({name, p.latencies.size(), p.latencies.size() - p.failed,
             p.failed});
  latency_metrics(out, p.latencies, kLatency);
  out.e2e["offline_rps"] = windowed_rate(
      p.ends, std::vector<double>(p.ends.size(), 1.0), kWindows);
  out.e2e["tok_per_s"] = windowed_rate(p.ends, tokens, kWindows);
}

}  // namespace

Outcome run_ask_rag(const RunConfig& config) {
  Outcome out;
  std::unique_ptr<AskRag> w =
      repeated_setup(out, config.traced ? 0 : kSetups,
                     [&] { return std::make_unique<AskRag>(config.seed); });
  out.facts.emplace_back("index_records", std::to_string(w->engine->size()));
  out.facts.emplace_back("add_every", std::to_string(kAddEvery));

  if (!config.traced) {
    const Phase p = run_phase(*w, config.seconds);
    score(out, *w, p, "closed_loop");
  } else {
    const Phase base = run_phase(*w, config.seconds / 2);
    const double untraced_p50 = median(base.latencies);
    const RegistryView before(hpcgpt::obs::MetricsRegistry::global());
    arm_trace(1 << 20);
    const double t0 = hpcgpt::obs::TraceSink::global().now_seconds();
    const Phase p = run_phase(*w, config.seconds / 2);
    const double t1 = hpcgpt::obs::TraceSink::global().now_seconds();
    const TraceSummary trace = collect_trace(t0, t1);
    const RegistryView after(hpcgpt::obs::MetricsRegistry::global());
    score(out, *w, p, "closed_loop_traced");
    trace_metrics(out, trace, untraced_p50, median(p.latencies));

    const auto asks = static_cast<double>(p.latencies.size());
    const auto counter = [&](const char* name) {
      return delta(after.counter(name), before.counter(name));
    };
    out.layers["retrieval.add_s"] = median(p.add_seconds);
    out.layers["retrieval.build_s"] = w->build_seconds;
    out.layers["retrieval.postings_decoded_per_query"] =
        ratio(counter("retrieval.query.postings_decoded"), asks);
    out.layers["retrieval.blocks_skipped_per_query"] =
        ratio(counter("retrieval.query.blocks_skipped"), asks);
    out.layers["retrieval.context_used_share"] =
        static_cast<double>(p.used_context) / asks;
    out.layers["retrieval.index_bytes"] =
        static_cast<double>(w->engine->stats().compressed_bytes);
    out.layers["nn.prefill_s"] = span_p50(trace, "nn.prefill");
    const auto span_sum = [&](const char* name) -> std::optional<double> {
      const auto it = trace.durations.find(name);
      if (it == trace.durations.end()) return std::nullopt;
      double sum = 0.0;
      for (double d : it->second) sum += d;
      return sum;
    };
    const auto decode_steps = counter("nn.decode.steps");
    out.layers["nn.decode_step_s"] =
        ratio(delta(span_sum("core.generate"), span_sum("nn.prefill")),
              decode_steps);
    const auto prefill_tokens = counter("nn.prefill.tokens");
    out.layers["nn.prefill_tokens_per_op"] =
        ratio(prefill_tokens, counter("nn.prefill.calls"));
    const auto flops = counter("tensor.gemm.flops");
    out.layers["tensor.gemm_gflops"] = ratio(flops, p.wall * 1e9);
    out.layers["tensor.gemm_flops_per_token"] =
        ratio(flops, prefill_tokens && decode_steps
                         ? std::optional<double>(*prefill_tokens + *decode_steps)
                         : std::nullopt);
  }

  // Output check on a seeded sample, outside every timed window: the
  // indexed ranking must equal the brute-force scan (ids and scores). The
  // same sample times top_k and the tokenizer on the RAG prompt.
  std::vector<double> top_k_seconds, encode_seconds;
  hpcgpt::Rng rng(config.seed + 17);
  for (std::size_t i = 0; i < kCheckSample; ++i) {
    const std::string& q = w->questions[rng.next_below(w->questions.size())];
    Clock::time_point t0 = Clock::now();
    std::vector<retrieval::Hit> hits = w->engine->top_k(q, w->options.top_k);
    top_k_seconds.push_back(seconds_between(t0, Clock::now()));
    const std::vector<retrieval::Hit> scan = w->engine->top_k_with(
        q, w->options.top_k, retrieval::RetrievalConfig::Engine::Scan);
    bool same = hits.size() == scan.size();
    for (std::size_t r = 0; same && r < hits.size(); ++r) {
      same = hits[r].index == scan[r].index && hits[r].score == scan[r].score;
    }
    out.check(same, "indexed top_k differs from scan for: " + q);

    core::trim_context(hits, w->options.min_score);
    const std::string prompt = core::rag_prompt(hits, q);
    t0 = Clock::now();
    (void)w->model.tokenizer().encode(prompt);
    encode_seconds.push_back(seconds_between(t0, Clock::now()));
  }
  if (config.traced) {
    out.layers["retrieval.top_k_s"] = median(top_k_seconds);
    out.layers["text.encode_s"] = median(encode_seconds);
  }
  out.e2e["peak_rss_mib"] = peak_rss_mib();
  return out;
}

}  // namespace perfbench
