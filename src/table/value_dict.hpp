#pragma once
// Interned cell values.
//
// A table's prompts are built from a few repeated `"field": "value"`
// fragments (paper §3-4), so every distinct string is stored once and
// cells hold a u32 id into one dictionary per table family: tables derived
// by take_rows / project / head share their source's dictionary. Ids are
// dense, assigned in first-intern order, and never reused, so within one
// dictionary id equality is exactly string equality.
//
// Each entry lazily caches what the planners and the prompt builder
// otherwise recompute per use under the global tokenizer: the value's raw
// token count, and the token span of the value rendered as a quoted,
// escaped JSON string literal `"…"`. The spans live in one flat u32 arena.
// A quoted literal is token-aligned inside a compact JSON object: it
// starts and ends with '"' and is bordered by punctuation (`{`, `:`, `,`,
// `}`), so no token straddles its edges and no pending space crosses them
// (DESIGN.md §11). The lazy fill mutates through const access and, like
// the rest of the library, is not thread-safe: tables sharing a
// dictionary must stay on one thread.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "tokenizer/tokenizer.hpp"

namespace llmq::table {

using ValueId = std::uint32_t;

class ValueDict {
 public:
  /// Id of `v`, adding it if new.
  ValueId intern(std::string_view v);

  /// The string of `id`. References stay valid for the dictionary's
  /// lifetime (entries are never moved).
  const std::string& str(ValueId id) const { return strings_[id]; }

  std::size_t size() const { return strings_.size(); }

  /// Token count of the raw value under the global tokenizer.
  std::uint32_t token_count(ValueId id) const;

  /// Append the tokens of the value's JSON string literal ('"' +
  /// util::json_escape(value) + '"') under the global tokenizer.
  void append_json_tokens(ValueId id, tokenizer::TokenSeq& out) const;

 private:
  static constexpr std::uint32_t kUnset = UINT32_MAX;

  std::size_t slot_of(std::string_view v, std::uint64_t h) const;
  void grow();

  std::deque<std::string> strings_;
  std::vector<std::uint64_t> hashes_;  // per id, for probing and rehash
  std::vector<ValueId> slots_;         // open addressing; kUnset = empty

  mutable std::vector<std::uint32_t> count_;      // per id; kUnset = unfilled
  mutable std::vector<std::uint32_t> span_off_;   // per id; kUnset = unfilled
  mutable std::vector<std::uint32_t> span_len_;   // per id
  mutable std::vector<tokenizer::TokenId> arena_;  // every filled span
};

}  // namespace llmq::table
