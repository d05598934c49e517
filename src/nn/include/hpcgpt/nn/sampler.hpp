#pragma once

#include <span>
#include <vector>

#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/text/tokenizer.hpp"

namespace hpcgpt::nn {

/// Decoding options for autoregressive generation.
struct SampleOptions {
  std::size_t max_new_tokens = 48;
  /// 0 → greedy argmax; > 0 → temperature sampling.
  float temperature = 0.0f;
  /// Stop when this token is produced (it is not appended).
  text::TokenId stop_token = text::BpeTokenizer::kEos;
  std::uint64_t seed = 7;
};

/// Picks the next token from one position's logits: greedy argmax at
/// temperature 0, otherwise temperature-softmax sampling drawn from `rng`.
text::TokenId sample_token(std::span<const float> logits, float temperature,
                           Rng& rng);

/// KV-cached generation of a continuation of `prompt_ids`. The prompt is
/// ingested by one Transformer::forward_ragged call, then each emitted
/// token costs one allocation-free O(T·d) single-lane call instead of a
/// full O(T²·d) forward. Token-for-token identical to re-running the full
/// forward per token (greedy, and for any fixed sampling seed) — the
/// tests check it against exactly that oracle.
std::vector<text::TokenId> generate_cached(
    const Transformer& model, const std::vector<text::TokenId>& prompt_ids,
    const SampleOptions& options = {});

/// Log-probability the model assigns to `continuation` after `prompt`
/// (sum over continuation tokens). Used for answer scoring / classification.
double continuation_logprob(Transformer& model,
                            const std::vector<text::TokenId>& prompt,
                            const std::vector<text::TokenId>& continuation);

}  // namespace hpcgpt::nn
