#include "query/prompt.hpp"

#include <stdexcept>

#include "util/json.hpp"

namespace llmq::query {

std::string render_instruction_prefix(const PromptTemplate& tmpl) {
  std::string out;
  out.reserve(tmpl.system_prompt.size() + tmpl.user_prompt.size() + 64);
  out += tmpl.system_prompt;
  out += "\n\nAnswer the below query:\n";
  out += tmpl.user_prompt;
  out += "\n\nGiven the following data:\n";
  return out;
}

std::string render_row_json(const table::Table& t, std::size_t row,
                            std::span<const std::size_t> field_order) {
  util::JsonWriter w;
  w.begin_object();
  for (std::size_t f : field_order)
    w.kv(t.schema().field(f).name, t.cell(row, f));
  w.end_object();
  return w.take();
}

std::string render_prompt(const PromptTemplate& tmpl, const table::Table& t,
                          std::size_t row,
                          std::span<const std::size_t> field_order) {
  return render_instruction_prefix(tmpl) + render_row_json(t, row, field_order);
}

namespace {

tokenizer::TokenId single_token(std::string_view punct) {
  const tokenizer::TokenSeq seq = tokenizer::global_tokenizer().encode(punct);
  if (seq.size() != 1)
    throw std::logic_error("PromptEncoder: JSON punctuation is not one token");
  return seq[0];
}

struct RowPunct {
  tokenizer::TokenId close, colon, comma;
};

const RowPunct& row_punct() {
  static const RowPunct p{single_token("}"), single_token(":"),
                          single_token(",")};
  return p;
}

}  // namespace

void append_row_body(const table::Table& t, std::size_t row,
                     std::span<const std::size_t> field_order,
                     tokenizer::TokenSeq& out) {
  const RowPunct& p = row_punct();
  const table::ValueDict& dict = t.dict();
  for (std::size_t i = 0; i < field_order.size(); ++i) {
    const std::size_t f = field_order[i];
    if (i > 0) out.push_back(p.comma);
    dict.append_json_tokens(t.field_id(f), out);
    out.push_back(p.colon);
    dict.append_json_tokens(t.cell_id(row, f), out);
  }
  out.push_back(p.close);
}

PromptEncoder::PromptEncoder(PromptTemplate tmpl)
    : tmpl_(std::move(tmpl)), open_(single_token("{")) {
  prefix_tokens_ =
      tokenizer::global_tokenizer().encode(render_instruction_prefix(tmpl_));
}

tokenizer::TokenSeq PromptEncoder::encode(
    const table::Table& t, std::size_t row,
    std::span<const std::size_t> field_order) const {
  tokenizer::TokenSeq out;
  out.reserve(prefix_tokens_.size() + 16 * field_order.size() + 2);
  out.assign(prefix_tokens_.begin(), prefix_tokens_.end());
  out.push_back(open_);
  append_row_body(t, row, field_order, out);
  return out;
}

}  // namespace llmq::query
