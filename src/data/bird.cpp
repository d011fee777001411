// BIRD (Li et al. 2024): Posts and Comments tables joined on PostId
// (paper footnote 1). The long post Body repeats across that post's
// comments ([Body, PostId] FD group); the comment Text is unique.

#include "data/gen_common.hpp"
#include "table/join.hpp"

namespace llmq::data {

using detail::dataset_rng;
using detail::rows_or_default;

Dataset generate_bird(const GenOptions& opt) {
  const std::size_t n = rows_or_default(opt, "bird");
  util::Rng rng = dataset_rng(opt, "bird");
  const auto& bank = util::default_wordbank();

  const std::size_t n_posts = std::max<std::size_t>(1, n / 8);
  table::Table posts(table::Schema::of_names({"PostId", "Body", "PostDate"}));
  for (std::size_t i = 0; i < n_posts; ++i) {
    const unsigned year = 2009 + static_cast<unsigned>(rng.next_below(6));
    const unsigned month = 1 + static_cast<unsigned>(rng.next_below(12));
    const unsigned day = 1 + static_cast<unsigned>(rng.next_below(28));
    char date[24];
    std::snprintf(date, sizeof(date), "%04u-%02u-%02u", year, month, day);
    posts.append_row({std::to_string(100000 + i),
                      bank.text_of_tokens(rng, 420), date});
  }

  util::Zipf popularity(n_posts, 0.7);
  table::Table comments(table::Schema::of_names({"Text", "fk"}));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = popularity.sample(rng);
    comments.append_row({bank.text_of_tokens(rng, 105), posts.cell(p, 0)});
  }

  table::Table joined = table::hash_join(comments, "fk", posts, "PostId");

  Dataset d;
  d.name = "BIRD";
  // Appendix-B order: Body, PostDate, PostId, Text.
  d.table = joined.project(std::vector<std::string>{"Body", "PostDate", "fk",
                                                    "Text"});
  d.table.rename_field(2, "PostId");
  d.fds.add_group({"Body", "PostId"});
  d.fds.add("PostId", "PostDate");
  d.fds.add("Body", "PostDate");

  // Filter task: is the post related to statistics?
  d.label_choices = {"YES", "NO"};
  d.key_field = "Body";
  const std::size_t body_col = d.table.schema().require("Body");
  for (std::size_t r = 0; r < d.table.num_rows(); ++r)
    d.truth.push_back(detail::pick_label(d.table.cell(r, body_col), 0xB17D,
                                         d.label_choices, {1, 1}));
  return d;
}

}  // namespace llmq::data
