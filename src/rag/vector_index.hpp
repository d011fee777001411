#pragma once
// Exact K-nearest-neighbor vector index (FAISS stand-in, paper §6.2 RAG).
//
// Brute-force cosine search with deterministic tie-breaking. At benchmark
// scale (tens of thousands of passages, hundreds of dims) exact search is
// fast enough and removes approximation noise from the experiments.

#include <cstdint>
#include <string>
#include <vector>

#include "rag/embedding.hpp"

namespace llmq::rag {

class VectorIndex {
 public:
  explicit VectorIndex(Embedder embedder);

  /// Add a document; returns its index id. The text is retained so
  /// retrieval results can be materialized into prompt contexts.
  std::size_t add(std::string text);

  std::size_t size() const { return docs_.size(); }
  const std::string& document(std::size_t id) const { return docs_.at(id); }

  struct Hit {
    std::size_t id;
    float score;
  };

  /// Top-k by cosine similarity, descending; ties broken by lower id.
  /// Each score is bit-identical to cosine_similarity(query, doc): the
  /// norms are the same double sums, taken once per vector at add() and
  /// once per query, so a score costs one multiply-add per element.
  std::vector<Hit> search(std::string_view query, std::size_t k) const;

 private:
  Embedder embedder_;
  std::vector<std::string> docs_;
  std::vector<Embedding> vectors_;
  std::vector<double> norms_;  // sqrt(|v|^2) per vector
};

}  // namespace llmq::rag
