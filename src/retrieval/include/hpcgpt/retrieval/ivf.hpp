#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hpcgpt/retrieval/embedder.hpp"

namespace hpcgpt::retrieval {

struct IvfOptions {
  std::size_t dim = 64;       ///< dense embedding dimensionality
  std::size_t clusters = 0;   ///< 0 = auto (~sqrt(n), clamped to [4, 256])
  std::size_t probes = 0;     ///< lists probed per query; 0 = auto (~1/4)
  std::size_t train_threshold = 256;  ///< docs buffered before k-means
  std::size_t kmeans_iters = 8;
  std::uint64_t seed = 0x48504347ull;  // "HPCG"
};

/// Signed-random-projection of an L2-normalized sparse vector into a dense
/// `dim`-float embedding (deterministic in `seed`), L2-renormalized.
/// Johnson–Lindenstrauss: cosine in the dense space approximates sparse
/// cosine, which is all the ANN candidate generator needs.
std::vector<float> project_dense(const SparseVector& sparse, std::size_t dim,
                                 std::uint64_t seed);

/// IVF-flat approximate nearest-neighbor index over dense embeddings.
/// Brute-force until `train_threshold` vectors arrive, then k-means
/// centroids partition the space and queries probe only the closest
/// `probes` lists. Scores are inner products (vectors are normalized, so
/// this is cosine); ties break toward the lower doc id.
class IvfFlatIndex {
 public:
  explicit IvfFlatIndex(IvfOptions opts = {});

  /// Adds a vector (copied). `vec.size()` must equal opts.dim.
  void add(DocId doc, std::span<const float> vec);

  std::size_t size() const { return docs_.size(); }
  bool trained() const { return !centroids_.empty(); }
  std::size_t cluster_count() const {
    return trained() ? centroids_.size() / opts_.dim : 1;
  }

  struct Result {
    float score = 0.0f;
    DocId doc = 0;
  };
  /// Top-k by inner product over the probed lists (all vectors when
  /// untrained). `probes` == 0 uses the configured/auto default.
  std::vector<Result> top_k(std::span<const float> query, std::size_t k,
                            std::size_t probes = 0) const;

 private:
  void train();
  std::size_t nearest_centroid(const float* vec) const;

  IvfOptions opts_;
  std::vector<float> centroids_;  // cluster_count x dim
  std::vector<std::vector<std::uint32_t>> lists_;  // per-centroid slots
  std::vector<float> vectors_;    // n x dim, in insertion order
  std::vector<DocId> docs_;       // parallel doc ids
};

}  // namespace hpcgpt::retrieval
