#pragma once

// Test-only generation oracle: re-runs the full (uncached) forward for
// every emitted token, i.e. the exact path training takes. The KV-cached
// nn::generate_cached must reproduce it token for token — greedy, and
// for any fixed sampling seed.

#include <vector>

#include "hpcgpt/nn/sampler.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/tensor/matrix.hpp"

namespace hpcgpt::test_oracle {

inline std::vector<text::TokenId> generate_uncached(
    nn::Transformer& model, std::vector<text::TokenId> prompt_ids,
    const nn::SampleOptions& options = {}) {
  require(!prompt_ids.empty(), "generate_uncached: empty prompt");
  Rng rng(options.seed);
  const std::size_t prompt_len = prompt_ids.size();
  for (std::size_t step = 0; step < options.max_new_tokens; ++step) {
    if (prompt_ids.size() >= model.config().max_seq) break;
    const tensor::Matrix all_logits = model.logits(prompt_ids);
    const text::TokenId next = nn::sample_token(
        all_logits.row(all_logits.rows() - 1), options.temperature, rng);
    if (next == options.stop_token) break;
    prompt_ids.push_back(next);
  }
  return {prompt_ids.begin() + static_cast<std::ptrdiff_t>(prompt_len),
          prompt_ids.end()};
}

}  // namespace hpcgpt::test_oracle
