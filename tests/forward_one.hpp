#pragma once

// Test helper: one single-lane call of the KV-cached inference forward,
// the shape generation uses per emitted token (and, with the whole
// prompt, for prefill).

#include <span>
#include <vector>

#include "hpcgpt/nn/transformer.hpp"

namespace hpcgpt::test_forward {

/// Feeds `ids` through `state` in one Transformer::forward_ragged call
/// and returns a copy of the last position's logits.
inline std::vector<float> forward_one(const nn::Transformer& model,
                                      nn::DecodeState& state,
                                      std::span<const text::TokenId> ids) {
  nn::InferenceScratch scratch;
  const nn::RaggedLane lane{&state, ids};
  const auto row = model.forward_ragged({&lane, 1}, scratch).row(0);
  return {row.begin(), row.end()};
}

inline std::vector<float> forward_one(const nn::Transformer& model,
                                      nn::DecodeState& state,
                                      text::TokenId id) {
  return forward_one(model, state, std::span<const text::TokenId>(&id, 1));
}

}  // namespace hpcgpt::test_forward
