// Rotten Tomatoes Movies (Pang & Lee 2005 layout per Appendix B).
//
// Structure: a movie-metadata table (~1 movie per 10 reviews) joined with
// a review table; each joined row repeats the movie's metadata fields
// (movieinfo/movietitle/rottentomatoeslink tied by an exact FD group) while
// reviewcontent is unique per row. Rows are shuffled, so the original
// ordering has no adjacent metadata runs — GGR must regroup them.

#include "data/gen_common.hpp"
#include "table/join.hpp"

namespace llmq::data {

using detail::dataset_rng;
using detail::rows_or_default;

Dataset generate_movies(const GenOptions& opt) {
  const std::size_t n = rows_or_default(opt, "movies");
  util::Rng rng = dataset_rng(opt, "movies");
  const auto& bank = util::default_wordbank();

  // --- metadata side -------------------------------------------------
  const std::size_t n_movies = std::max<std::size_t>(1, n / 10);
  std::vector<std::string> genre_pool;
  {
    static const char* kGenres[] = {"Comedy", "Drama",  "Action", "Horror",
                                    "Romance", "SciFi", "Family", "Thriller"};
    for (const char* a : kGenres)
      for (const char* b : kGenres)
        if (std::string(a) != b)
          genre_pool.push_back(std::string(a) + ", " + b);
  }
  std::vector<std::string> company_pool;
  for (int i = 0; i < 40; ++i) company_pool.push_back(bank.title(rng, 2));

  table::Table movies(table::Schema::of_names(
      {"movietitle", "genres", "movieinfo", "productioncompany",
       "rottentomatoeslink"}));
  for (std::size_t i = 0; i < n_movies; ++i) {
    const std::string title = bank.title(rng, 3) + " " +
                              std::to_string(1950 + rng.next_below(75));
    std::string slug;
    for (char c : title) slug += (c == ' ') ? '_' : c;
    movies.append_row({title, genre_pool[rng.next_below(genre_pool.size())],
                       bank.text_of_tokens(rng, 80),
                       company_pool[rng.next_below(company_pool.size())],
                       "https://www.rottentomatoes.com/m/" + slug});
  }

  // --- review side (skewed movie popularity) -------------------------
  util::Zipf popularity(n_movies, 0.8);
  table::Table reviews(table::Schema::of_names(
      {"reviewcontent", "reviewtype", "topcritic", "movietitle_fk"}));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t movie = popularity.sample(rng);
    reviews.append_row({bank.text_of_tokens(rng, 38),
                        rng.next_bool(0.62) ? "Fresh" : "Rotten",
                        rng.next_bool(0.3) ? "True" : "False",
                        movies.cell(movie, 0)});
  }

  table::Table joined =
      table::hash_join(reviews, "movietitle_fk", movies, "movietitle");

  // Appendix-B field order (the dataset's "original" layout).
  Dataset d;
  d.name = "Movies";
  d.table = joined.project(std::vector<std::string>{
      "genres", "movieinfo", "movietitle_fk", "productioncompany",
      "reviewcontent", "reviewtype", "rottentomatoeslink", "topcritic"});
  // Restore the paper's field name for the join key column.
  d.table.rename_field(2, "movietitle");

  d.fds.add_group({"movieinfo", "movietitle", "rottentomatoeslink"});

  // Filter task truth: "is this movie suitable for kids?" — a property of
  // the movie, decided from its metadata.
  d.label_choices = {"Yes", "No"};
  d.key_field = "movieinfo";
  const std::size_t info_col = d.table.schema().require("movieinfo");
  const std::size_t type_col = d.table.schema().require("reviewtype");
  const std::size_t review_col = d.table.schema().require("reviewcontent");
  for (std::size_t r = 0; r < d.table.num_rows(); ++r) {
    d.truth.push_back(detail::pick_label(d.table.cell(r, info_col), 0x1D5,
                                         d.label_choices, {2, 3}));
    // Sentiment / score channels (multi-LLM stage 1 and aggregation):
    // review sentiment tracks the critic's Fresh/Rotten verdict.
    const bool fresh = d.table.cell(r, type_col) == "Fresh";
    d.sentiment_truth.emplace_back(fresh ? "POSITIVE" : "NEGATIVE");
    const std::string& review = d.table.cell(r, review_col);
    d.score_truth.push_back(
        fresh ? detail::pick_label(review, 0x5C0, {"3", "4", "5"}, {1, 2, 2})
              : detail::pick_label(review, 0x5C0, {"1", "2", "3"}, {2, 2, 1}));
  }
  return d;
}

}  // namespace llmq::data
