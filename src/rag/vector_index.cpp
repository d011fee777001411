#include "rag/vector_index.hpp"

#include <algorithm>
#include <cmath>

namespace llmq::rag {

namespace {

/// sqrt of the squared norm, summed in double exactly as
/// cosine_similarity sums it.
double norm(const Embedding& v) {
  double sq = 0.0;
  for (float x : v) sq += static_cast<double>(x) * x;
  return std::sqrt(sq);
}

}  // namespace

VectorIndex::VectorIndex(Embedder embedder) : embedder_(std::move(embedder)) {}

std::size_t VectorIndex::add(std::string text) {
  vectors_.push_back(embedder_.embed(text));
  norms_.push_back(norm(vectors_.back()));
  docs_.push_back(std::move(text));
  return docs_.size() - 1;
}

std::vector<VectorIndex::Hit> VectorIndex::search(std::string_view query,
                                                  std::size_t k) const {
  const Embedding q = embedder_.embed(query);
  std::vector<Hit> hits;
  hits.reserve(vectors_.size());
  const double qn = norm(q);
  for (std::size_t i = 0; i < vectors_.size(); ++i) {
    // Every embedding has the embedder's dimension, so the norms cover the
    // same elements cosine_similarity would sum.
    const Embedding& v = vectors_[i];
    double dot = 0.0;
    for (std::size_t j = 0; j < q.size(); ++j)
      dot += static_cast<double>(q[j]) * v[j];
    const float score = qn == 0.0 || norms_[i] == 0.0
                            ? 0.0f
                            : static_cast<float>(dot / (qn * norms_[i]));
    hits.push_back(Hit{i, score});
  }
  const std::size_t want = std::min(k, hits.size());
  std::partial_sort(hits.begin(), hits.begin() + static_cast<std::ptrdiff_t>(want),
                    hits.end(), [](const Hit& a, const Hit& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  hits.resize(want);
  return hits;
}

}  // namespace llmq::rag
