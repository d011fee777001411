#pragma once
// Prompt construction (paper §5).
//
// Each request = system prompt + user query + the row rendered as a JSON
// object whose *key order follows the planner's per-row field order*. The
// instruction prefix is identical across a query's rows (and is itself a
// cacheable shared prefix); everything the reordering algorithms optimize
// lives in the JSON section.

#include <cstddef>
#include <span>
#include <string>

#include "core/ordering.hpp"
#include "table/table.hpp"
#include "tokenizer/tokenizer.hpp"

namespace llmq::query {

struct PromptTemplate {
  std::string system_prompt;
  std::string user_prompt;
};

/// The instruction prefix shared by all rows of a query (Appendix C
/// layout): system prompt, "Answer the below query:" + user prompt, then
/// the "Given the following data:" header.
std::string render_instruction_prefix(const PromptTemplate& tmpl);

/// JSON rendering of row `row` of `t` with keys in `field_order` (indices
/// into t's schema).
std::string render_row_json(const table::Table& t, std::size_t row,
                            std::span<const std::size_t> field_order);

/// Full prompt text for one row.
std::string render_prompt(const PromptTemplate& tmpl, const table::Table& t,
                          std::size_t row,
                          std::span<const std::size_t> field_order);

/// Append the tokens that encode(render_row_json(t, row, field_order))
/// has after its opening brace, without rendering text: per field the key
/// span (the field name's quoted literal), `:` and the value span, with
/// `,` between fields, then `}`. Every span is token-aligned
/// (table/value_dict.hpp) and cached in t's dictionary, so a repeated
/// value is tokenised once per dictionary. The brace is the caller's: it
/// is encode("{") after a separately encoded prefix, but the last token
/// of encode(label + "{") when a label precedes the row in one encoding
/// (the space-prefixed ` {` when the label ends in whitespace).
void append_row_body(const table::Table& t, std::size_t row,
                     std::span<const std::size_t> field_order,
                     tokenizer::TokenSeq& out);

/// Tokenized prompt, assembled without rendering text. The result equals
/// the instruction-prefix encoding followed by
/// encode(render_row_json(t, row, field_order)): the tokens of `{`, then
/// append_row_body.
class PromptEncoder {
 public:
  PromptEncoder(PromptTemplate tmpl);

  tokenizer::TokenSeq encode(const table::Table& t, std::size_t row,
                             std::span<const std::size_t> field_order) const;

  std::size_t instruction_tokens() const { return prefix_tokens_.size(); }

 private:
  PromptTemplate tmpl_;
  tokenizer::TokenSeq prefix_tokens_;
  tokenizer::TokenId open_;
};

}  // namespace llmq::query
