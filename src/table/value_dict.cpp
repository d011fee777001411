#include "table/value_dict.hpp"

#include <functional>

#include "util/json.hpp"

namespace llmq::table {

std::size_t ValueDict::slot_of(std::string_view v, std::uint64_t h) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = h & mask;; s = (s + 1) & mask) {
    const ValueId id = slots_[s];
    if (id == kUnset || (hashes_[id] == h && strings_[id] == v)) return s;
  }
}

void ValueDict::grow() {
  slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, kUnset);
  const std::size_t mask = slots_.size() - 1;
  for (ValueId id = 0; id < strings_.size(); ++id) {
    std::size_t s = hashes_[id] & mask;
    while (slots_[s] != kUnset) s = (s + 1) & mask;
    slots_[s] = id;
  }
}

ValueId ValueDict::intern(std::string_view v) {
  // Load factor at most 1/2 keeps probe runs short.
  if (2 * (strings_.size() + 1) > slots_.size()) grow();
  const std::uint64_t h = std::hash<std::string_view>{}(v);
  const std::size_t s = slot_of(v, h);
  if (slots_[s] != kUnset) return slots_[s];
  const auto id = static_cast<ValueId>(strings_.size());
  strings_.emplace_back(v);
  hashes_.push_back(h);
  slots_[s] = id;
  return id;
}

std::uint32_t ValueDict::token_count(ValueId id) const {
  if (count_.size() <= id) count_.resize(strings_.size(), kUnset);
  if (count_[id] == kUnset)
    count_[id] = static_cast<std::uint32_t>(
        tokenizer::global_tokenizer().count(strings_[id]));
  return count_[id];
}

void ValueDict::append_json_tokens(ValueId id, tokenizer::TokenSeq& out) const {
  if (span_off_.size() <= id) {
    span_off_.resize(strings_.size(), kUnset);
    span_len_.resize(strings_.size(), 0);
  }
  if (span_off_[id] == kUnset) {
    std::string literal;
    literal.reserve(strings_[id].size() + 2);
    literal += '"';
    literal += util::json_escape(strings_[id]);
    literal += '"';
    const std::size_t off = arena_.size();
    tokenizer::global_tokenizer().encode_append(literal, arena_);
    span_off_[id] = static_cast<std::uint32_t>(off);
    span_len_[id] = static_cast<std::uint32_t>(arena_.size() - off);
  }
  const auto* first = arena_.data() + span_off_[id];
  out.insert(out.end(), first, first + span_len_[id]);
}

}  // namespace llmq::table
