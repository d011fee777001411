#include "core/ggr.hpp"

#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/ophr.hpp"
#include "util/rng.hpp"

namespace llmq::core {
namespace {

using table::FdSet;
using table::Schema;
using table::Table;

GgrOptions unit_opts(int row_depth = -1, int col_depth = -1) {
  GgrOptions o;
  o.measure = LengthMeasure::Unit;
  o.max_row_depth = row_depth;
  o.max_col_depth = col_depth;
  return o;
}

Table random_table(util::Rng& rng, std::size_t n, std::size_t m,
                   int alphabet) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  Table t(Schema::of_names(names));
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < m; ++c)
      row.push_back(std::string(
          1, static_cast<char>('a' + rng.next_below(alphabet))));
    t.append_row(std::move(row));
  }
  return t;
}

TEST(Ggr, RowViewEqualsTakeRowsCopy) {
  // The view overload must plan exactly what GGR plans on the copied
  // sub-table: same ordering, estimate, PHC and counters, under every
  // length measure, with the depth-limited fallback active.
  const std::vector<std::string> pool = {"a", "b b", "ccc dd e", "a",
                                         "longerword", "x, y", ""};
  util::Rng rng(99);
  Table t(Schema::of_names({"f0", "f1", "f2", "f3"}));
  for (std::size_t r = 0; r < 60; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < 4; ++c)
      row.push_back(pool[rng.next_below(c == 0 ? pool.size() : 3)]);
    t.append_row(std::move(row));
  }
  FdSet fds;
  fds.add("f1", "f2");
  for (const LengthMeasure m :
       {LengthMeasure::Tokens, LengthMeasure::Chars, LengthMeasure::Unit}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::size_t> rows(1 + rng.next_below(t.num_rows()));
      for (auto& r : rows) r = rng.next_below(t.num_rows());  // repeats ok
      GgrOptions o;
      o.measure = m;
      const GgrResult view = ggr(t, rows, fds, o);
      const Table sub = t.take_rows(rows);
      const GgrResult copy = ggr(sub, fds, o);
      EXPECT_EQ(view.ordering.row_order(), copy.ordering.row_order());
      EXPECT_EQ(view.ordering.field_orders(), copy.ordering.field_orders());
      EXPECT_EQ(view.phc, copy.phc);
      EXPECT_EQ(view.estimated_phc, copy.estimated_phc);
      EXPECT_EQ(view.counters.recursion_nodes, copy.counters.recursion_nodes);
      EXPECT_EQ(view.counters.fallbacks, copy.counters.fallbacks);
      EXPECT_EQ(phc(t, rows, copy.ordering, m), phc(sub, copy.ordering, m));
    }
  }
}

TEST(Ggr, PrecomputedClosuresPlanExactlyAsTheFdSet) {
  // A stream computes fd_closures once and plans every window with them;
  // that must be the same plan as handing ggr the FdSet each time, with
  // FDs honoured or disabled, under the depth-limited fallback (which
  // also reads the closures) and without it.
  util::Rng rng(5);
  Table t = random_table(rng, 50, 5, 3);
  FdSet fds;
  fds.add_group({"f0", "f1"});
  fds.add("f2", "f3");
  fds.add("missing", "f4");  // named outside the schema: ignored
  const FdClosures closures = fd_closures(t.schema(), fds);
  ASSERT_EQ(closures.size(), t.num_cols());
  for (std::size_t c = 0; c < t.num_cols(); ++c)
    EXPECT_EQ(closures[c], fds.inferred_columns(t.schema(), c));
  for (const bool use_fds : {true, false}) {
    for (const int depth : {-1, 1}) {
      GgrOptions o = unit_opts(depth, depth);
      o.use_fds = use_fds;
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<std::size_t> rows(1 + rng.next_below(t.num_rows()));
        for (auto& r : rows) r = rng.next_below(t.num_rows());
        const GgrResult a = ggr(t, rows, fds, o);
        const GgrResult b = ggr(t, rows, closures, o);
        EXPECT_EQ(a.ordering.row_order(), b.ordering.row_order());
        EXPECT_EQ(a.ordering.field_orders(), b.ordering.field_orders());
        EXPECT_EQ(a.estimated_phc, b.estimated_phc);
        EXPECT_EQ(a.counters.fd_fields_skipped, b.counters.fd_fields_skipped);
        EXPECT_EQ(a.counters.fallbacks, b.counters.fallbacks);
      }
    }
  }
  const std::vector<std::size_t> rows = {0, 1, 2};
  EXPECT_THROW(ggr(t, rows, FdClosures(2), GgrOptions{}),
               std::invalid_argument);
}

TEST(Ggr, SingleRow) {
  Table t(Schema::of_names({"a", "b"}));
  t.append_row({"x", "y"});
  const auto r = ggr(t, unit_opts());
  EXPECT_DOUBLE_EQ(r.phc, 0.0);
  EXPECT_TRUE(r.ordering.validate(1, 2));
}

TEST(Ggr, SingleColumnGroups) {
  Table t(Schema::of_names({"a"}));
  t.append_row({"v"});
  t.append_row({"w"});
  t.append_row({"v"});
  const auto r = ggr(t, unit_opts());
  EXPECT_DOUBLE_EQ(r.phc, 1.0);
  EXPECT_DOUBLE_EQ(r.estimated_phc, 1.0);
}

TEST(Ggr, Fig1aOptimal) {
  // Unique first field, constant remainder: GGR must find (n-1)*(m-1).
  const std::size_t n = 6, m = 4;
  Table t(Schema::of_names({"u", "c1", "c2", "c3"}));
  for (std::size_t r = 0; r < n; ++r)
    t.append_row({"u" + std::to_string(r), "v", "v", "v"});
  const auto r = ggr(t, unit_opts());
  EXPECT_DOUBLE_EQ(r.phc, static_cast<double>((n - 1) * (m - 1)));
}

TEST(Ggr, Fig1bPerRowReordering) {
  // Non-overlapping groups per field: GGR should recover 3*(x-1), an m-fold
  // improvement over any fixed field ordering.
  const std::size_t x = 4;
  Table t(Schema::of_names({"f1", "f2", "f3"}));
  std::size_t uid = 0;
  auto uniq = [&] { return "u" + std::to_string(uid++); };
  for (std::size_t i = 0; i < x; ++i) t.append_row({"G1", uniq(), uniq()});
  for (std::size_t i = 0; i < x; ++i) t.append_row({uniq(), "G2", uniq()});
  for (std::size_t i = 0; i < x; ++i) t.append_row({uniq(), uniq(), "G3"});
  const auto r = ggr(t, unit_opts());
  EXPECT_DOUBLE_EQ(r.phc, static_cast<double>(3 * (x - 1)));
}

TEST(Ggr, OrderingAlwaysValid) {
  util::Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n = 2 + rng.next_below(30);
    const auto m = 1 + rng.next_below(6);
    const auto t = random_table(rng, n, m, 3);
    const auto r = ggr(t, unit_opts(4, 2));
    EXPECT_TRUE(r.ordering.validate(t.num_rows(), t.num_cols()))
        << "trial " << trial;
  }
}

TEST(Ggr, ReportedPhcMatchesMetric) {
  util::Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const auto t = random_table(rng, 20, 4, 3);
    const auto r = ggr(t, unit_opts());
    EXPECT_DOUBLE_EQ(r.phc, phc(t, r.ordering, LengthMeasure::Unit));
  }
}

TEST(Ggr, EstimateIsLowerBoundWithoutFds) {
  // With exact grouping and no FDs, the greedy's S counts only hits the
  // emitted ordering realizes, so measured PHC >= estimate.
  util::Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const auto t = random_table(rng, 16, 3, 2);
    const auto r = ggr(t, unit_opts());
    EXPECT_GE(r.phc + 1e-9, r.estimated_phc) << "trial " << trial;
  }
}

TEST(Ggr, BeatsOriginalOrderingOnSkewedData) {
  util::Rng rng(10);
  const auto t = random_table(rng, 60, 4, 3);
  const auto r = ggr(t, unit_opts());
  const double original = phc(t, original_ordering(t), LengthMeasure::Unit);
  EXPECT_GE(r.phc, original);
}

TEST(Ggr, WithinTwoPercentOfOphrOnSmallTables) {
  // Paper Appendix D.1: GGR achieves within ~2% of OPHR's PHR.
  util::Rng rng(11);
  double ggr_total = 0.0, ophr_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto t = random_table(rng, 6, 3, 2);
    const auto g = ggr(t, unit_opts());
    const auto o = ophr(t, {.measure = LengthMeasure::Unit});
    ASSERT_TRUE(o.has_value());
    const double o_achieved = phc(t, o->ordering, LengthMeasure::Unit);
    EXPECT_LE(g.phc, o_achieved + 1e-9) << "GGR cannot beat optimal";
    ggr_total += g.phc;
    ophr_total += o_achieved;
  }
  EXPECT_GE(ggr_total, 0.85 * ophr_total);
}

TEST(Ggr, FdPlacesDependentFieldsTogether) {
  // id <-> name exact FD; reviews repeat per id.
  Table t(Schema::of_names({"review", "id", "name"}));
  t.append_row({"r1", "A", "Alpha"});
  t.append_row({"r2", "A", "Alpha"});
  t.append_row({"r3", "A", "Alpha"});
  t.append_row({"r4", "B", "Beta"});
  t.append_row({"r5", "B", "Beta"});
  FdSet fds;
  fds.add_group({"id", "name"});
  auto opts = unit_opts();
  const auto r = ggr(t, fds, opts);
  // Wherever a group was committed, id and name are adjacent in the field
  // order, and PHC counts both: groups (A:3 rows, B:2 rows) give
  // (3-1)*2 + (2-1)*2 = 6 with unit lengths.
  EXPECT_DOUBLE_EQ(r.phc, 6.0);
  for (std::size_t pos = 0; pos < r.ordering.num_rows(); ++pos) {
    const auto& fo = r.ordering.fields_at(pos);
    // id (1) first, then its FD-inferred name (2), then review (0).
    EXPECT_EQ(fo[0], 1u);
    EXPECT_EQ(fo[1], 2u);
  }
}

TEST(Ggr, FdClosureSkipsColumns) {
  Table t(Schema::of_names({"a", "b", "c"}));
  for (int i = 0; i < 8; ++i) {
    const std::string k = i < 4 ? "k1" : "k2";
    t.append_row({k, k + "_dep", "x" + std::to_string(i)});
  }
  FdSet fds;
  fds.add("a", "b");
  auto opts = unit_opts();
  const auto with_fd = ggr(t, fds, opts);
  EXPECT_GT(with_fd.counters.fd_fields_skipped, 0u);
  auto no_fd_opts = opts;
  no_fd_opts.use_fds = false;
  const auto without_fd = ggr(t, no_fd_opts);
  EXPECT_EQ(without_fd.counters.fd_fields_skipped, 0u);
  // Both find the same PHC here (FDs are an efficiency hint, not required
  // for quality on tiny tables).
  EXPECT_DOUBLE_EQ(with_fd.phc, without_fd.phc);
}

TEST(Ggr, ApproximateFdDoesNotCorruptPhcReporting) {
  // Declare an FD that is wrong for one row: reported PHC must still match
  // the independent metric (honesty under bad hints).
  Table t(Schema::of_names({"k", "dep"}));
  t.append_row({"g", "same"});
  t.append_row({"g", "same"});
  t.append_row({"g", "DIFFERENT"});
  t.append_row({"g", "same"});
  FdSet fds;
  fds.add("k", "dep");
  const auto r = ggr(t, fds, unit_opts());
  EXPECT_DOUBLE_EQ(r.phc, phc(t, r.ordering, LengthMeasure::Unit));
}

TEST(Ggr, DepthLimitsTriggerFallback) {
  util::Rng rng(12);
  const auto t = random_table(rng, 64, 4, 2);
  const auto shallow = ggr(t, unit_opts(1, 1));
  EXPECT_GT(shallow.counters.fallbacks, 0u);
  const auto deep = ggr(t, unit_opts(-1, -1));
  EXPECT_GE(deep.phc + 1e-9, shallow.phc * 0.5);
}

TEST(Ggr, ThresholdTriggersFallback) {
  util::Rng rng(13);
  const auto t = random_table(rng, 32, 3, 2);
  auto opts = unit_opts();
  opts.hitcount_threshold = 1e9;  // nothing exceeds this
  const auto r = ggr(t, opts);
  EXPECT_GT(r.counters.fallbacks, 0u);
  EXPECT_TRUE(r.ordering.validate(t.num_rows(), t.num_cols()));
}

TEST(Ggr, FallbackStillFindsFixedOrderHits) {
  // Even with recursion disabled (depth 0), the stats fallback sorts rows
  // under a stats-ranked fixed field order and captures repeats.
  Table t(Schema::of_names({"u", "g"}));
  for (int i = 0; i < 10; ++i)
    t.append_row({"u" + std::to_string(i), i % 2 ? "even" : "odd"});
  const auto r = ggr(t, unit_opts(0, 0));
  EXPECT_GT(r.phc, 0.0);
  EXPECT_EQ(r.counters.recursion_nodes, 1u);
}

TEST(Ggr, AllDistinctTableScoresZero) {
  Table t(Schema::of_names({"a", "b"}));
  for (int i = 0; i < 12; ++i)
    t.append_row({"x" + std::to_string(i), "y" + std::to_string(i)});
  const auto r = ggr(t, unit_opts());
  EXPECT_DOUBLE_EQ(r.phc, 0.0);
  EXPECT_TRUE(r.ordering.validate(12, 2));
}

TEST(Ggr, EmptyTableThrows) {
  Table t(Schema::of_names({"a"}));
  EXPECT_THROW(ggr(t, unit_opts()), std::invalid_argument);
}

TEST(Ggr, DeterministicAcrossRuns) {
  util::Rng rng(14);
  const auto t = random_table(rng, 40, 5, 3);
  const auto r1 = ggr(t, unit_opts(4, 2));
  const auto r2 = ggr(t, unit_opts(4, 2));
  EXPECT_EQ(r1.ordering.row_order(), r2.ordering.row_order());
  EXPECT_EQ(r1.ordering.field_orders(), r2.ordering.field_orders());
  EXPECT_DOUBLE_EQ(r1.phc, r2.phc);
}

TEST(Ggr, LiteralHitcountModeRuns) {
  util::Rng rng(15);
  const auto t = random_table(rng, 20, 3, 2);
  auto opts = unit_opts();
  opts.square_inferred_lengths = false;
  const auto r = ggr(t, opts);
  EXPECT_TRUE(r.ordering.validate(t.num_rows(), t.num_cols()));
}

TEST(Ggr, SolverTimeRecorded) {
  util::Rng rng(16);
  const auto t = random_table(rng, 50, 4, 3);
  const auto r = ggr(t, unit_opts(4, 2));
  EXPECT_GE(r.solve_seconds, 0.0);
  EXPECT_LT(r.solve_seconds, 5.0);
}

}  // namespace
}  // namespace llmq::core
