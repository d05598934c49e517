// Decode-equivalence suite: the inference engine's fast path (the KV-
// cached Transformer::forward_ragged, one call for the prompt and one
// per token) must be observationally identical to the reference path
// that re-runs the full logits() forward for every position. Greedy
// token-id identity is the contract the serving stack depends on — a
// kernel or cache-layout bug that shifts logits enough to flip an argmax
// shows up here for every model preset of the experiment zoo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/support/thread_pool.hpp"

#include "forward_one.hpp"

namespace {

using namespace hpcgpt;
using test_forward::forward_one;

const text::BpeTokenizer& shared_tokenizer() {
  static const text::BpeTokenizer tok = core::build_shared_tokenizer();
  return tok;
}

core::HpcGpt make_preset(
    core::BaseModel base,
    tensor::QuantMode quant = tensor::QuantMode::Fp32) {
  core::ModelOptions spec = core::spec_for(base);
  // Untrained weights: equivalence is a property of the forward math, not
  // of training, and skipping pretraining keeps the suite fast. Each
  // preset still gets its own init seed, so all four weight sets differ.
  spec.pretrain_steps = 0;
  spec.quant = quant;
  return core::HpcGpt(spec, shared_tokenizer());
}

/// The preset with unmerged LoRA adapters whose B factors are non-zero,
/// so the adapter term really changes the logits (the Table 5 (L1)/(L2)
/// models and `train --lora` bundles serve in this state).
core::HpcGpt make_lora_preset(core::BaseModel base) {
  core::HpcGpt model = make_preset(base);
  model.model().attach_lora(4, 8.0f, /*train_lora_only=*/true);
  Rng rng(99);
  for (nn::Parameter* p : model.model().parameters()) {
    if (p->name.find("lora_b") != std::string::npos) {
      p->value.randomize(rng, 0.05f);
    }
  }
  return model;
}

text::TokenId argmax(std::span<const float> logits) {
  return static_cast<text::TokenId>(std::distance(
      logits.begin(), std::max_element(logits.begin(), logits.end())));
}

std::vector<text::TokenId> random_prompt(Rng& rng, std::size_t len,
                                         std::size_t vocab) {
  std::vector<text::TokenId> ids(len);
  for (auto& id : ids) {
    // Skip the special tokens (0..3): real prompts start with BOS and
    // then carry ordinary vocabulary.
    id = static_cast<text::TokenId>(4 + rng.next_below(vocab - 4));
  }
  return ids;
}

/// Reference greedy generation: one full logits() forward per emitted
/// token, argmax of the last row. O(T^2) per token — the path the engine
/// replaces, kept here as ground truth.
std::vector<text::TokenId> greedy_reference(nn::Transformer& model,
                                            std::vector<text::TokenId> ids,
                                            std::size_t steps) {
  std::vector<text::TokenId> out;
  for (std::size_t s = 0; s < steps; ++s) {
    const tensor::Matrix logits = model.logits(ids);
    const text::TokenId next = argmax(logits.row(logits.rows() - 1));
    out.push_back(next);
    ids.push_back(next);
  }
  return out;
}

/// Engine greedy generation: one forward over the prompt, then one
/// single-token forward per emitted token.
std::vector<text::TokenId> greedy_engine(
    const nn::Transformer& model, const std::vector<text::TokenId>& ids,
    std::size_t steps) {
  nn::DecodeState state = model.new_decode_state();
  std::vector<text::TokenId> out;
  text::TokenId next = argmax(forward_one(model, state, ids));
  for (std::size_t s = 0; s < steps; ++s) {
    out.push_back(next);
    if (s + 1 < steps) next = argmax(forward_one(model, state, next));
  }
  return out;
}

/// Four lanes with different prompts advanced together, one token each
/// per forward_ragged call, against a twin set fed one lane per call:
/// every lane's logits must match bit for bit at every step.
/// Cross-request batching is a scheduling transform, not a numerics
/// change.
void expect_lane_count_invariant(const nn::Transformer& m,
                                 const std::string& label) {
  const std::size_t vocab = m.config().vocab_size;
  Rng rng(7);
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kSteps = 10;
  std::vector<nn::DecodeState> batch_states;
  std::vector<nn::DecodeState> single_states;
  std::vector<text::TokenId> next(kLanes);
  for (std::size_t b = 0; b < kLanes; ++b) {
    const auto prompt = random_prompt(rng, 2 + 3 * b, vocab);
    batch_states.push_back(m.new_decode_state());
    single_states.push_back(m.new_decode_state());
    next[b] = argmax(forward_one(m, batch_states[b], prompt));
    ASSERT_EQ(next[b], argmax(forward_one(m, single_states[b], prompt)))
        << label << " lane " << b;
  }

  nn::InferenceScratch batch_scratch, single_scratch;
  std::vector<nn::RaggedLane> lanes(kLanes);
  for (std::size_t step = 0; step < kSteps; ++step) {
    for (std::size_t b = 0; b < kLanes; ++b) {
      lanes[b] = {&batch_states[b], {&next[b], 1}};
    }
    const tensor::Matrix& batched = m.forward_ragged(lanes, batch_scratch);
    for (std::size_t b = 0; b < kLanes; ++b) {
      const nn::RaggedLane single{&single_states[b], {&next[b], 1}};
      const auto row = m.forward_ragged({&single, 1}, single_scratch).row(0);
      ASSERT_EQ(0, std::memcmp(batched.row(b).data(), row.data(),
                               vocab * sizeof(float)))
          << label << " lane=" << b << " step=" << step;
    }
    for (std::size_t b = 0; b < kLanes; ++b) {
      next[b] = argmax(batched.row(b));
    }
  }
}

class DecodeEquivalence
    : public ::testing::TestWithParam<core::BaseModel> {};

TEST_P(DecodeEquivalence, PrefillPlusDecodeMatchesFullForwards) {
  core::HpcGpt model = make_preset(GetParam());
  const std::size_t vocab = model.model().config().vocab_size;
  Rng rng(2023);
  for (const std::size_t prompt_len : {1u, 3u, 7u, 16u, 33u}) {
    const auto prompt = random_prompt(rng, prompt_len, vocab);
    const auto expect = greedy_reference(model.model(), prompt, 12);
    const auto got = greedy_engine(model.model(), prompt, 12);
    EXPECT_EQ(expect, got) << model.name() << " prompt_len=" << prompt_len;
  }
}

TEST_P(DecodeEquivalence, BatchedDecodeMatchesSingleLane) {
  core::HpcGpt fp32 = make_preset(GetParam());
  expect_lane_count_invariant(fp32.model(), fp32.name() + " fp32");
  core::HpcGpt int8 = make_preset(GetParam(), tensor::QuantMode::Int8);
  expect_lane_count_invariant(int8.model(), int8.name() + " int8");
  core::HpcGpt fp16 = make_preset(GetParam(), tensor::QuantMode::Fp16);
  expect_lane_count_invariant(fp16.model(), fp16.name() + " fp16");
  core::HpcGpt lora = make_lora_preset(GetParam());
  expect_lane_count_invariant(lora.model(), lora.name() + " lora");
}

/// One call mixing a lane that ingests a 7-token chunk with lanes that
/// decode one token each matches the same lanes fed in separate calls:
/// same greedy ids, logits within 1e-5. Bitwise equality is not promised
/// here — the call's row count (7 + 3) moves the fp32 projections from
/// the small GEMM path to the blocked one, whose k-order differs.
TEST_P(DecodeEquivalence, RaggedCallMatchesSeparateCalls) {
  core::HpcGpt model = make_preset(GetParam());
  const nn::Transformer& m = model.model();
  const std::size_t vocab = m.config().vocab_size;
  Rng rng(11);
  constexpr std::size_t kLanes = 4;
  std::vector<nn::DecodeState> mixed_states, separate_states;
  std::vector<std::vector<text::TokenId>> inputs;
  for (std::size_t b = 0; b < kLanes; ++b) {
    const auto prompt = random_prompt(rng, 3 + 2 * b, vocab);
    mixed_states.push_back(m.new_decode_state());
    separate_states.push_back(m.new_decode_state());
    (void)forward_one(m, mixed_states[b], prompt);
    (void)forward_one(m, separate_states[b], prompt);
    // Lane 0 ingests a chunk (a continued prompt); the others decode.
    inputs.push_back(random_prompt(rng, b == 0 ? 7 : 1, vocab));
  }

  std::vector<nn::RaggedLane> lanes;
  for (std::size_t b = 0; b < kLanes; ++b) {
    lanes.push_back({&mixed_states[b], inputs[b]});
  }
  nn::InferenceScratch scratch;
  const tensor::Matrix& mixed = m.forward_ragged(lanes, scratch);
  ASSERT_EQ(mixed.rows(), kLanes);
  for (std::size_t b = 0; b < kLanes; ++b) {
    const std::vector<float> separate =
        forward_one(m, separate_states[b], inputs[b]);
    EXPECT_EQ(argmax(mixed.row(b)), argmax(separate))
        << model.name() << " lane " << b;
    for (std::size_t v = 0; v < vocab; ++v) {
      ASSERT_NEAR(mixed.at(b, v), separate[v], 1e-5f)
          << model.name() << " lane " << b << " v=" << v;
    }
    EXPECT_EQ(mixed_states[b].length(), separate_states[b].length());
  }
}

/// A bad lane anywhere in a call — an out-of-range id, or a chunk past
/// the context — throws a typed error before any lane's session changes:
/// the valid lane in front of it keeps its length and its pages (it sits
/// on a page boundary, so preparing its append would take a page).
TEST_P(DecodeEquivalence, BadLaneThrowsBeforeAnySessionChanges) {
  core::HpcGpt model = make_preset(GetParam());
  const nn::Transformer& m = model.model();
  const std::size_t vocab = m.config().vocab_size;
  const std::size_t max_seq = m.config().max_seq;
  Rng rng(5);
  nn::DecodeState good = m.new_decode_state();
  nn::DecodeState full = m.new_decode_state();
  (void)forward_one(m, good,
                    random_prompt(rng, nn::KvPagePool::kPageSize, vocab));
  (void)forward_one(m, full, random_prompt(rng, max_seq - 1, vocab));

  const text::TokenId ok = 5;
  const text::TokenId out_of_range = static_cast<text::TokenId>(vocab);
  const std::vector<text::TokenId> two{6, 7};
  nn::InferenceScratch scratch;
  const std::vector<std::vector<nn::RaggedLane>> bad_calls = {
      {{&good, {&ok, 1}}, {&full, {&out_of_range, 1}}},
      {{&good, {&ok, 1}}, {&full, two}},
  };
  for (const auto& lanes : bad_calls) {
    const std::size_t good_pages = good.pages_held();
    const std::size_t full_pages = full.pages_held();
    EXPECT_THROW((void)m.forward_ragged(lanes, scratch), InvalidArgument)
        << model.name();
    EXPECT_EQ(good.length(), nn::KvPagePool::kPageSize) << model.name();
    EXPECT_EQ(good.pages_held(), good_pages) << model.name();
    EXPECT_EQ(full.length(), max_seq - 1) << model.name();
    EXPECT_EQ(full.pages_held(), full_pages) << model.name();
  }
  // The same lanes stay usable: the last free position still decodes.
  const nn::RaggedLane last{&full, {&ok, 1}};
  (void)m.forward_ragged({&last, 1}, scratch);
  EXPECT_EQ(full.length(), max_seq);
}

/// Prefills `prompt` into a fresh session and returns the logits plus
/// every layer's cached K/V slots for the prompt's positions, in page
/// order (each page holds its K slab, then its V slab).
std::vector<float> prefill_snapshot(const nn::Transformer& m,
                                    const std::vector<text::TokenId>& prompt) {
  constexpr std::size_t kPage = nn::KvPagePool::kPageSize;
  nn::DecodeState state = m.new_decode_state();
  std::vector<float> out = forward_one(m, state, prompt);
  const std::size_t d = m.config().d_model;
  for (std::size_t l = 0; l < m.config().n_layers; ++l) {
    const auto pages = state.layer_pages(l);
    for (std::size_t p = 0; p < pages.size(); ++p) {
      const float* page = state.pool().data(pages[p]);
      const std::size_t filled = std::min(kPage, prompt.size() - p * kPage);
      // Feature-major slabs: only the first `filled` slots of each
      // feature row hold this prompt's positions.
      for (std::size_t slab = 0; slab < 2 * d; ++slab) {
        out.insert(out.end(), page + slab * kPage,
                   page + slab * kPage + filled);
      }
    }
  }
  return out;
}

/// A long prompt prefilled on the pool (head-parallel attention, grouped
/// projections) leaves the same logits and the same K/V pages, bit for
/// bit, as the same prompt prefilled with every parallel region inline.
void expect_pool_prefill_matches_inline(const nn::Transformer& m,
                                        const std::string& label) {
  Rng rng(31);
  const auto prompt = random_prompt(rng, 117, m.config().vocab_size);
  const std::vector<float> pooled = prefill_snapshot(m, prompt);
  std::vector<float> inline_run;
  {
    ParallelInlineGuard guard;
    inline_run = prefill_snapshot(m, prompt);
  }
  ASSERT_EQ(pooled.size(), inline_run.size()) << label;
  EXPECT_EQ(0, std::memcmp(pooled.data(), inline_run.data(),
                           pooled.size() * sizeof(float)))
      << label;
}

TEST_P(DecodeEquivalence, PoolPrefillMatchesInlinePrefill) {
  core::HpcGpt fp32 = make_preset(GetParam());
  expect_pool_prefill_matches_inline(fp32.model(), fp32.name() + " fp32");
  core::HpcGpt int8 = make_preset(GetParam(), tensor::QuantMode::Int8);
  expect_pool_prefill_matches_inline(int8.model(), int8.name() + " int8");
  core::HpcGpt fp16 = make_preset(GetParam(), tensor::QuantMode::Fp16);
  expect_pool_prefill_matches_inline(fp16.model(), fp16.name() + " fp16");
  core::HpcGpt lora = make_lora_preset(GetParam());
  expect_pool_prefill_matches_inline(lora.model(), lora.name() + " lora");
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, DecodeEquivalence,
    ::testing::Values(core::BaseModel::Llama, core::BaseModel::Llama2,
                      core::BaseModel::Gpt35, core::BaseModel::Gpt4),
    [](const ::testing::TestParamInfo<core::BaseModel>& info) {
      return core::spec_for(info.param).name;
    });

}  // namespace
