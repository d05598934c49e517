// Trace-context propagation tests: span nesting on one thread, explicit
// capture/adopt across a ThreadPool hop, span-id uniqueness under
// concurrent recording (a TSan workload in the sanitizer lane), the
// HPCGPT_OBS_DISABLED no-op surface, and the two end-to-end acceptance
// paths — an InferenceServer run whose per-request spans share a
// trace_id and nest under the request root in the exported Perfetto
// JSON, and a Trainer epoch whose shard/reduce/optimizer spans join the
// per-step trace across the shard-worker hop.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/nn/trainer.hpp"
#include "hpcgpt/obs/export.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/thread_pool.hpp"

namespace {

using namespace hpcgpt;

#if !defined(HPCGPT_OBS_DISABLED)

TEST(TraceContext, SpansNestAutomaticallyOnOneThread) {
  obs::TraceSink sink(16);
  sink.enable(true);
  {
    obs::Span outer("outer", sink);
    const obs::TraceContext ctx = obs::current_trace_context();
    EXPECT_TRUE(ctx.active());
    { obs::Span inner("inner", sink); }
    // The inner span restored the outer context on destruction.
    EXPECT_EQ(obs::current_trace_context().span_id, ctx.span_id);
  }
  // Back outside any span: the thread's context is clear again.
  EXPECT_FALSE(obs::current_trace_context().active());

  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 2u);  // inner closes (and records) first
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_NE(inner.span_id, outer.span_id);
  EXPECT_NE(outer.trace_id, 0u);
}

TEST(TraceContext, CaptureAdoptJoinsTraceAcrossThreadPoolHop) {
  obs::TraceSink sink(16);
  sink.enable(true);
  ThreadPool pool(1);
  std::uint64_t sender_trace = 0;
  {
    obs::Span parent("hop.parent", sink);
    const obs::TraceContext captured = obs::current_trace_context();
    sender_trace = captured.trace_id;
    pool.submit([captured, &sink] {
          // Receiving half of the hop: adopt, then open a span — it must
          // join the sender's trace, not start its own.
          obs::TraceContextScope adopt(captured);
          obs::Span child("hop.child", sink);
        })
        .get();
    // The worker restored its own (empty) context after the task.
    pool.submit([] {
          EXPECT_FALSE(obs::current_trace_context().active());
        })
        .get();
  }
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent& child = events[0];
  const obs::TraceEvent& parent = events[1];
  EXPECT_EQ(child.name, "hop.child");
  EXPECT_EQ(child.trace_id, sender_trace);
  EXPECT_EQ(child.parent_id, parent.span_id);
  EXPECT_NE(child.thread, parent.thread);  // genuinely crossed a thread
}

TEST(TraceContext, SpanIdsAreUniqueUnderConcurrentRecording) {
  // Four threads opening nested spans into one sink: every recorded span
  // id must be process-unique, and each thread's nesting must stay
  // thread-local (no cross-thread parent mixups). Under
  // -DHPCGPT_SANITIZE=thread this doubles as a data-race probe of the
  // sink and the id generators.
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  obs::TraceSink sink(kThreads * kSpansPerThread * 2);
  sink.enable(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span outer("concurrent.outer", sink);
        obs::Span inner("concurrent.inner", sink);
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 2));
  std::set<std::uint64_t> span_ids;
  std::map<std::uint64_t, const obs::TraceEvent*> by_id;
  for (const obs::TraceEvent& e : events) {
    EXPECT_TRUE(span_ids.insert(e.span_id).second)
        << "duplicate span id " << e.span_id;
    by_id[e.span_id] = &e;
  }
  for (const obs::TraceEvent& e : events) {
    if (e.name != "concurrent.inner") continue;
    const auto parent = by_id.find(e.parent_id);
    ASSERT_NE(parent, by_id.end());
    EXPECT_EQ(parent->second->thread, e.thread);
    EXPECT_EQ(parent->second->trace_id, e.trace_id);
  }
}

#endif  // !HPCGPT_OBS_DISABLED

TEST(TraceContext, MacrosAreInertWhenDisabled) {
  // All three macros must be syntactically transparent in every build
  // and record nothing when the sink is off (or spans are compiled out).
  obs::TraceSink& sink = obs::TraceSink::global();
  sink.clear();
  sink.enable(false);
  const obs::TraceContext context;  // inactive
  {
    HPCGPT_TRACE("inert.scope");
    HPCGPT_TRACE_IF("inert.gated", 1 + 1 == 2);
    HPCGPT_TRACE_ADOPT(context);
  }
  EXPECT_EQ(sink.total_recorded(), 0u);
  EXPECT_FALSE(obs::current_trace_context().active());
}

// --- End-to-end acceptance: serving --------------------------------------

core::HpcGpt& shared_model() {
  static core::HpcGpt model = [] {
    core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
    spec.pretrain_steps = 0;  // untrained weights: tracing math only
    return core::HpcGpt(spec, core::build_shared_tokenizer());
  }();
  return model;
}

TEST(TraceServe, RequestSpansShareTraceIdAndNestInPerfettoExport) {
  obs::TraceSink& sink = obs::TraceSink::global();
  sink.set_capacity(1 << 14);
  sink.enable(true);
  {
    serve::ServeConfig config;
    config.max_batch = 2;
    config.max_new_tokens = 6;
    serve::InferenceServer server(shared_model(), config);
    core::GenerationRequest a;
    a.prompt = "Does this loop have a data race?";
    core::GenerationRequest b;
    b.prompt = "What does omp critical do?";
    auto fa = server.submit(std::move(a));
    auto fb = server.submit(std::move(b));
    EXPECT_TRUE(fa.get().ok());
    EXPECT_TRUE(fb.get().ok());
    server.shutdown();
  }
  sink.enable(false);

  // Parse the actual artifact `hpcgpt serve --trace-out` writes.
  const json::Value trace = json::parse(obs::perfetto_trace_json(sink));
  sink.set_capacity(4096);  // restore the default for later tests

  struct SpanRec {
    std::string name;
    double ts = 0, dur = 0;
    std::uint64_t trace_id = 0, span_id = 0, parent_id = 0;
  };
  std::vector<SpanRec> spans;
  for (const json::Value& e : trace.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    SpanRec r;
    r.name = e.at("name").as_string();
    r.ts = e.at("ts").as_number();
    r.dur = e.at("dur").as_number();
    r.trace_id = static_cast<std::uint64_t>(e.at("args").at("trace_id").as_number());
    r.span_id = static_cast<std::uint64_t>(e.at("args").at("span_id").as_number());
    r.parent_id =
        static_cast<std::uint64_t>(e.at("args").at("parent_id").as_number());
    spans.push_back(std::move(r));
  }

  // Two GenerationRequests → two "serve.request" roots on distinct traces.
  std::vector<const SpanRec*> roots;
  for (const SpanRec& s : spans) {
    if (s.name == "serve.request") roots.push_back(&s);
  }
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_NE(roots[0]->trace_id, roots[1]->trace_id);

  for (const SpanRec* root : roots) {
    EXPECT_EQ(root->parent_id, 0u);
    EXPECT_NE(root->trace_id, 0u);
    std::size_t queue_spans = 0, decode_rounds = 0, prefills = 0;
    for (const SpanRec& s : spans) {
      if (s.trace_id != root->trace_id || s.span_id == root->span_id) {
        continue;
      }
      // Every span of the request parents on (or under) its root and
      // falls inside the root's submit→completion window.
      if (s.name == "serve.queue" || s.name == "serve.decode.round" ||
          s.name == "serve.prefill") {
        EXPECT_EQ(s.parent_id, root->span_id) << s.name;
        EXPECT_GE(s.ts, root->ts - 1.0) << s.name;        // µs tolerance
        EXPECT_LE(s.ts + s.dur, root->ts + root->dur + 1.0) << s.name;
      }
      queue_spans += s.name == "serve.queue";
      decode_rounds += s.name == "serve.decode.round";
      prefills += s.name == "serve.prefill";
    }
    EXPECT_EQ(queue_spans, 1u);
    EXPECT_GE(decode_rounds, 1u);  // every decode round the request was in
#if !defined(HPCGPT_OBS_DISABLED)
    EXPECT_EQ(prefills, 1u);  // HPCGPT_TRACE span, compiled out when off
#endif
  }
}

// A long prefill runs its projections as pool tasks; each task adopts the
// caller's trace context, so every tensor.gemm span of the forward parents
// on its nn.prefill span whichever thread ran the GEMM.
#if !defined(HPCGPT_OBS_DISABLED)
TEST(TracePrefill, GemmSpansNestUnderPrefillAcrossPoolTasks) {
  const nn::Transformer& m = shared_model().model();
  obs::TraceSink& sink = obs::TraceSink::global();
  sink.set_capacity(1 << 14);
  sink.clear();
  sink.enable(true);
  {
    std::vector<text::TokenId> prompt(100);
    for (std::size_t i = 0; i < prompt.size(); ++i) {
      prompt[i] = static_cast<text::TokenId>(
          4 + i % (m.config().vocab_size - 4));
    }
    nn::DecodeState state = m.new_decode_state();
    nn::InferenceScratch scratch;
    const nn::RaggedLane lane{&state, prompt};
    (void)m.forward_ragged({&lane, 1}, scratch);
  }
  sink.enable(false);
  const std::vector<obs::TraceEvent> events = sink.events();
  sink.clear();
  sink.set_capacity(4096);  // restore the default for later tests

  std::vector<const obs::TraceEvent*> prefills, gemms;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "nn.prefill") prefills.push_back(&e);
    if (e.name == "tensor.gemm") gemms.push_back(&e);
  }
  ASSERT_EQ(prefills.size(), 1u);
  // Seven 100-row projections per block (the one-row head is untraced).
  EXPECT_EQ(gemms.size(), 7 * m.config().n_layers);
  for (const obs::TraceEvent* g : gemms) {
    EXPECT_EQ(g->parent_id, prefills[0]->span_id);
    EXPECT_EQ(g->trace_id, prefills[0]->trace_id);
  }
}
#endif

// --- End-to-end acceptance: training -------------------------------------

#if !defined(HPCGPT_OBS_DISABLED)

TEST(TraceTrain, StepSpansCoverShardReduceOptimizerAcrossWorkers) {
  nn::TransformerConfig config;
  config.vocab_size = 16;
  config.d_model = 8;
  config.n_heads = 2;
  config.n_layers = 1;
  config.d_ff = 16;
  config.max_seq = 12;
  nn::Transformer model(config, /*seed=*/7);

  std::vector<nn::TrainSequence> data;
  for (int k = 0; k < 4; ++k) {
    nn::TrainSequence s;
    for (int i = 0; i < 5; ++i) {
      s.ids.push_back(static_cast<text::TokenId>(1 + (k + i) % 14));
    }
    s.targets.assign(s.ids.size(), -1);
    for (std::size_t i = 0; i + 1 < s.ids.size(); ++i) {
      s.targets[i] = static_cast<std::int32_t>(s.ids[i + 1]);
    }
    data.push_back(std::move(s));
  }

  obs::TraceSink& sink = obs::TraceSink::global();
  sink.set_capacity(1 << 14);
  sink.enable(true);
  {
    nn::TrainerOptions topts;
    topts.workers = 2;      // forces the pool hop for shard 1
    topts.micro_batch = 2;  // two optimizer steps over four sequences
    nn::Trainer trainer(model, topts);
    trainer.run_epoch(data);
  }
  sink.enable(false);
  const std::vector<obs::TraceEvent> events = sink.events();
  sink.set_capacity(4096);
  sink.clear();

  std::map<std::uint64_t, const obs::TraceEvent*> steps;  // span_id → step
  for (const obs::TraceEvent& e : events) {
    if (e.name == "nn.train.step") steps.emplace(e.span_id, &e);
  }
  ASSERT_EQ(steps.size(), 2u);

  std::map<std::uint64_t, std::size_t> shards, reduces, optimizers;
  std::set<std::uint32_t> shard_threads;
  for (const obs::TraceEvent& e : events) {
    const auto step = steps.find(e.parent_id);
    if (step == steps.end()) continue;
    ASSERT_EQ(e.trace_id, step->second->trace_id) << e.name;
    if (e.name == "nn.train.shard") {
      ++shards[e.parent_id];
      shard_threads.insert(e.thread);
    }
    reduces[e.parent_id] += e.name == "nn.train.reduce";
    optimizers[e.parent_id] += e.name == "nn.train.optimizer";
  }
  for (const auto& [span_id, step] : steps) {
    // Two workers per step: the pool shard adopted the step's context, so
    // both shard spans parent on the same step span.
    EXPECT_EQ(shards[span_id], 2u);
    EXPECT_EQ(reduces[span_id], 1u);
    EXPECT_EQ(optimizers[span_id], 1u);
  }
  EXPECT_GE(shard_threads.size(), 2u);  // shard 1 really ran on the pool
}

#endif  // !HPCGPT_OBS_DISABLED

}  // namespace
