// Performance micro-benchmarks (google-benchmark) for the substrates the
// experiments lean on: GEMM, tokenizer throughput, the OpenMP-subset
// interpreter, the happens-before engine and the similarity metrics.

#include <benchmark/benchmark.h>

#include <future>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/race/hb.hpp"
#include "hpcgpt/nn/sampler.hpp"
#include "hpcgpt/race/interp.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/tensor/matrix.hpp"
#include "hpcgpt/text/similarity.hpp"
#include "hpcgpt/text/tokenizer.hpp"

namespace {

using namespace hpcgpt;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  tensor::Matrix a(n, n), b(n, n), c(n, n);
  a.randomize(rng, 1.0f);
  b.randomize(rng, 1.0f);
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_TokenizerEncode(benchmark::State& state) {
  const text::BpeTokenizer tok = core::build_shared_tokenizer();
  Rng rng(2);
  const drb::TestCase tc = drb::generate_case(
      drb::Category::NumericalKernels, minilang::Flavor::C, rng);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto ids = tok.encode(tc.source);
    benchmark::DoNotOptimize(ids.data());
    bytes += tc.source.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TokenizerEncode);

void BM_InterpreterExecute(benchmark::State& state) {
  Rng rng(3);
  const drb::TestCase tc = drb::generate_case(
      drb::Category::MissingSynchronization, minilang::Flavor::C, rng);
  for (auto _ : state) {
    const race::ExecResult r =
        race::execute(tc.program, {.num_threads = 4, .seed = 7});
    benchmark::DoNotOptimize(r.trace.size());
  }
}
BENCHMARK(BM_InterpreterExecute);

void BM_HbAnalysis(benchmark::State& state) {
  Rng rng(4);
  const drb::TestCase tc = drb::generate_case(
      drb::Category::UnresolvableDependences, minilang::Flavor::C, rng);
  const race::ExecResult r =
      race::execute(tc.program, {.num_threads = 4, .seed = 7});
  for (auto _ : state) {
    const auto races = race::analyze_trace(r.trace);
    benchmark::DoNotOptimize(races.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(r.trace.size()));
}
BENCHMARK(BM_HbAnalysis);

void BM_ParseRoundTrip(benchmark::State& state) {
  Rng rng(5);
  const drb::TestCase tc = drb::generate_case(
      drb::Category::UseOfSynchronization, minilang::Flavor::C, rng);
  for (auto _ : state) {
    const minilang::Program p = minilang::parse_c(tc.source);
    benchmark::DoNotOptimize(p.body.size());
  }
}
BENCHMARK(BM_ParseRoundTrip);

void BM_RougeL(benchmark::State& state) {
  const std::string a =
      "What kind of dataset can be used for code translation tasks if the "
      "source language is Java and the target language is C#?";
  const std::string b =
      "Which dataset can be used for the code translation task when "
      "translating Java programs into C# programs?";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::rouge_l(a, b));
  }
}
BENCHMARK(BM_RougeL);

void BM_ModelForward(benchmark::State& state) {
  const text::BpeTokenizer tok = core::build_shared_tokenizer();
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  core::HpcGpt model(spec, tok);
  std::vector<text::TokenId> ids(static_cast<std::size_t>(state.range(0)),
                                 65);
  for (auto _ : state) {
    const auto logits = model.model().logits(ids);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ModelForward)->Arg(64)->Arg(128)->Arg(256);

void BM_GenerateCached(benchmark::State& state) {
  const text::BpeTokenizer tok = core::build_shared_tokenizer();
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  core::HpcGpt model(spec, tok);
  std::vector<text::TokenId> prompt(64, 65);
  nn::SampleOptions opts;
  opts.max_new_tokens = static_cast<std::size_t>(state.range(0));
  opts.stop_token = -1;
  for (auto _ : state) {
    const auto out = nn::generate_cached(model.model(), prompt, opts);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GenerateCached)->Arg(16)->Arg(48);

// Steady-state single-stream decode: tokens/sec through single-token
// KV-cached forward_ragged calls after a prefilled prompt.
// items_per_second is the engine's single-lane generation speed.
void BM_DecodeThroughput(benchmark::State& state) {
  const text::BpeTokenizer tok = core::build_shared_tokenizer();
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  core::HpcGpt model(spec, tok);
  const std::vector<text::TokenId> prompt(64, 65);
  const auto steps = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();  // session setup + prefill are not decode work
    nn::DecodeState session = model.model().new_decode_state();
    const text::TokenId next = 65;  // fixed id: identical work every step
    nn::InferenceScratch prefill_scratch, scratch;
    const nn::RaggedLane prefill{&session, prompt};
    model.model().forward_ragged({&prefill, 1}, prefill_scratch);
    const nn::RaggedLane step{&session, {&next, 1}};
    state.ResumeTiming();
    for (std::size_t s = 0; s < steps; ++s) {
      const auto& logits = model.model().forward_ragged({&step, 1}, scratch);
      benchmark::DoNotOptimize(logits.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_DecodeThroughput)->Arg(48)->Arg(128);

// Aggregate batched serving throughput: 8 concurrent requests through the
// continuous-batching scheduler. items_per_second is generated tokens/sec
// across all streams — the number the A7 experiment tracks.
void BM_ServerThroughput(benchmark::State& state) {
  const text::BpeTokenizer tok = core::build_shared_tokenizer();
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  core::HpcGpt model(spec, tok);
  const std::string question =
      "Given the code snippet: \"for (i = 0; i < n; i++) a[i] = b[i] + "
      "c[i];\", help me detect if adding pragma will cause a data race "
      "problem?";
  const auto streams = static_cast<std::size_t>(state.range(0));
  std::int64_t generated = 0;
  for (auto _ : state) {
    serve::ServeConfig config;
    config.max_batch = streams;
    config.max_new_tokens = 48;
    config.admission_window_seconds = 0.002;
    serve::InferenceServer server(model, config);
    std::vector<std::future<core::GenerationResult>> futures;
    futures.reserve(streams);
    for (std::size_t i = 0; i < streams; ++i) {
      core::GenerationRequest request;
      request.prompt = question;
      futures.push_back(server.submit(std::move(request)));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get().text.size());
    server.shutdown();
    generated +=
        static_cast<std::int64_t>(server.stats().generated_tokens);
  }
  state.SetItemsProcessed(generated);
}
BENCHMARK(BM_ServerThroughput)->Arg(1)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
