// Amazon Product Reviews (He & McAuley 2016 layout per Appendix B).
//
// Reviews joined with a product-metadata table on parent_asin; the long
// `description` and `product_title` repeat per product (exact FD group
// [parent_asin, product_title]); `text` and `id` are unique per review.

#include "data/gen_common.hpp"
#include "table/join.hpp"

namespace llmq::data {

using detail::dataset_rng;
using detail::rows_or_default;

Dataset generate_products(const GenOptions& opt) {
  const std::size_t n = rows_or_default(opt, "products");
  util::Rng rng = dataset_rng(opt, "products");
  const auto& bank = util::default_wordbank();

  const std::size_t n_products = std::max<std::size_t>(1, n / 12);
  table::Table products(
      table::Schema::of_names({"parent_asin", "product_title", "description"}));
  for (std::size_t i = 0; i < n_products; ++i) {
    char asin[24];
    std::snprintf(asin, sizeof(asin), "B%09zu", i);
    products.append_row(
        {asin, bank.title(rng, 4), bank.text_of_tokens(rng, 150)});
  }

  util::Zipf popularity(n_products, 0.9);
  table::Table reviews(table::Schema::of_names(
      {"id", "review_title", "text", "rating", "verified_purchase", "fk"}));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = popularity.sample(rng);
    reviews.append_row({"R" + std::to_string(1000000 + i),
                        bank.title(rng, 4), bank.text_of_tokens(rng, 55),
                        std::to_string(1 + rng.next_below(5)),
                        rng.next_bool(0.8) ? "true" : "false",
                        products.cell(p, 0)});
  }

  table::Table joined = table::hash_join(reviews, "fk", products, "parent_asin");

  Dataset d;
  d.name = "Products";
  // Appendix-B order: description, id, parent_asin (join key == fk),
  // product_title, rating, review_title, text, verified_purchase.
  d.table = joined.project(std::vector<std::string>{
      "description", "id", "fk", "product_title", "rating", "review_title",
      "text", "verified_purchase"});
  d.table.rename_field(2, "parent_asin");
  d.fds.add_group({"parent_asin", "product_title"});
  // Product description is determined by the product as well.
  d.fds.add("parent_asin", "description");
  d.fds.add("product_title", "description");

  // Filter task: sentiment of the review (POSITIVE/NEGATIVE/NEUTRAL),
  // driven by the review text and correlated with the numeric rating.
  d.label_choices = {"POSITIVE", "NEGATIVE", "NEUTRAL"};
  d.key_field = "text";
  const std::size_t rating_col = d.table.schema().require("rating");
  const std::size_t text_col = d.table.schema().require("text");
  for (std::size_t r = 0; r < d.table.num_rows(); ++r) {
    const std::string& rating = d.table.cell(r, rating_col);
    if (rating == "4" || rating == "5")
      d.truth.emplace_back("POSITIVE");
    else if (rating == "1" || rating == "2")
      d.truth.emplace_back("NEGATIVE");
    else
      d.truth.emplace_back("NEUTRAL");
    // Binary sentiment (multi-LLM stage 1): neutral rows break by content.
    if (rating == "3")
      d.sentiment_truth.push_back(detail::pick_label(
          d.table.cell(r, text_col), 0x3E9, {"POSITIVE", "NEGATIVE"}, {1, 1}));
    else
      d.sentiment_truth.emplace_back(
          (rating == "4" || rating == "5") ? "POSITIVE" : "NEGATIVE");
    // Aggregation score: the star rating itself.
    d.score_truth.push_back(rating);
  }
  return d;
}

}  // namespace llmq::data
