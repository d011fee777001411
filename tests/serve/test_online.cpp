#include "serve/online.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/windowed.hpp"
#include "util/rng.hpp"

namespace llmq::serve {
namespace {

using table::Schema;
using table::Table;

Table groupy_table(util::Rng& rng, std::size_t n, std::size_t m,
                   int alphabet) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < m; ++c) names.push_back("f" + std::to_string(c));
  Table t(Schema::of_names(names));
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < m; ++c)
      row.push_back("value_" + std::string(1, static_cast<char>(
                                                  'a' + rng.next_below(
                                                            alphabet))));
    t.append_row(std::move(row));
  }
  return t;
}

OnlineConfig small_config() {
  OnlineConfig cfg;
  cfg.prompt.system_prompt = "You are a data analyst.";
  cfg.prompt.user_prompt = "Classify the row.";
  cfg.avg_output_tokens = 2.0;
  cfg.scheduler.ggr.measure = core::LengthMeasure::Unit;
  cfg.engine.kv_pool_blocks_override = 2048;  // ample, deterministic
  return cfg;
}

std::vector<Arrival> stream_over(std::size_t n, double rate,
                                 std::uint64_t seed,
                                 std::size_t n_tenants = 1) {
  WorkloadOptions w;
  w.arrival_rate = rate;
  w.seed = seed;
  w.n_tenants = n_tenants;
  return generate_arrivals(n, w);
}

TEST(Online, ServesEveryArrivalExactlyOnceWithSaneTimeline) {
  util::Rng rng(31);
  const Table t = groupy_table(rng, 40, 3, 3);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.scheduler.policy = Policy::WindowedGgr;
  cfg.scheduler.window_rows = 8;
  cfg.scheduler.max_wait_seconds = 1.0;
  const auto arrivals = stream_over(40, 20.0, 1, 2);

  const auto r = run_online(t, fds, arrivals, cfg);
  ASSERT_EQ(r.requests.size(), 40u);
  ASSERT_EQ(r.latency.count, 40u);
  std::set<std::uint64_t> ids;
  for (const auto& sr : r.requests) {
    EXPECT_TRUE(ids.insert(sr.id).second);
    EXPECT_LE(sr.arrival_time, sr.dispatch_time);
    EXPECT_LE(sr.dispatch_time, sr.admit_time);
    EXPECT_LE(sr.admit_time, sr.first_token_time);
    EXPECT_LE(sr.first_token_time, sr.finish_time);
    EXPECT_GT(sr.prompt_tokens, 0u);
    EXPECT_GT(sr.output_tokens, 0u);
  }
  // The emitted schedule is a valid ordering over the arrival table.
  EXPECT_TRUE(r.emitted.validate(40, t.num_cols()));
  EXPECT_GT(r.windows, 1u);
  // Per-tenant counts account for every request.
  std::size_t total = 0;
  for (auto c : r.per_tenant) total += c;
  EXPECT_EQ(total, 40u);
  // Engine metrics line up with the stream.
  EXPECT_EQ(r.engine.output_tokens,
            [&] {
              std::size_t s = 0;
              for (const auto& sr : r.requests) s += sr.output_tokens;
              return s;
            }());
}

TEST(Online, EquivalenceSingleWindowMatchesOfflineGgr) {
  // The ISSUE property: single tenant, no deadline, one window spanning
  // all arrivals => the online emitted order and PHC equal offline
  // windowed_ggr with window_rows = 0 (i.e. plain GGR) over the
  // arrival-ordered table. The row bound equals the stream length, so the
  // single window trips exactly when the last arrival lands (window_rows
  // = 0 with no deadline is rejected by the scheduler).
  util::Rng rng(32);
  const Table t = groupy_table(rng, 36, 3, 2);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.scheduler.policy = Policy::WindowedGgr;
  cfg.scheduler.window_rows = 36;    // one window spanning the stream
  cfg.scheduler.max_wait_seconds = 0.0;  // no deadline

  // Arrivals visit rows in table order so the arrival table == t.
  WorkloadOptions w;
  w.arrival_rate = 50.0;
  w.shuffle_rows = false;
  w.seed = 2;
  const auto arrivals = generate_arrivals(36, w);

  const auto online = run_online(t, fds, arrivals, cfg);
  EXPECT_EQ(online.windows, 1u);

  core::WindowedOptions wo;
  wo.window_rows = 0;
  wo.ggr.measure = core::LengthMeasure::Unit;
  const auto offline = core::windowed_ggr(t, fds, wo);

  EXPECT_EQ(online.emitted.row_order(), offline.ordering.row_order());
  EXPECT_EQ(online.emitted.field_orders(), offline.ordering.field_orders());
  EXPECT_DOUBLE_EQ(online.phc, offline.phc);
}

TEST(Online, EquivalenceMultiWindowMatchesOfflineWindowedGgr) {
  // With a row-bound window and arrivals in table order, the online
  // schedule must equal offline windowed_ggr with the same window size:
  // both cut the stream into the same consecutive chunks.
  util::Rng rng(33);
  const Table t = groupy_table(rng, 50, 3, 2);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.scheduler.policy = Policy::WindowedGgr;
  cfg.scheduler.window_rows = 16;  // 50 = 16+16+16+2: last window partial
  cfg.scheduler.max_wait_seconds = 0.0;

  WorkloadOptions w;
  w.arrival_rate = 40.0;
  w.shuffle_rows = false;
  w.seed = 3;
  const auto arrivals = generate_arrivals(50, w);

  const auto online = run_online(t, fds, arrivals, cfg);
  EXPECT_EQ(online.windows, 4u);

  core::WindowedOptions wo;
  wo.window_rows = 16;
  wo.ggr.measure = core::LengthMeasure::Unit;
  const auto offline = core::windowed_ggr(t, fds, wo);

  EXPECT_EQ(online.emitted.row_order(), offline.ordering.row_order());
  EXPECT_EQ(online.emitted.field_orders(), offline.ordering.field_orders());
  EXPECT_DOUBLE_EQ(online.phc, offline.phc);
}

TEST(Online, WindowedGgrBeatsFifoHitRateOnGroupyStream) {
  // The serving-side claim behind the whole subsystem: on the paper's data
  // shape — repeated metadata joined to mostly-unique text — with enough
  // buffer and an *oversubscribed* KV cache, reordering strictly raises
  // the engine's prompt cache hit rate on the same trace. Both conditions
  // are load-bearing: with an unbounded pool the radix tree retains every
  // prefix and hit rates become order-independent, and with few distinct
  // row values a uniform FIFO field order can out-hit GGR's per-row
  // permutations across the whole stream.
  util::Rng rng(34);
  Table t{Schema::of_names({"product", "description", "review", "rating"})};
  std::vector<std::string> product, description;
  for (int p = 0; p < 5; ++p) {
    product.push_back("product_" + std::to_string(p));
    std::string d;  // long repeated metadata, spans several KV blocks
    for (int k = 0; k < 10; ++k)
      d += "spec" + std::to_string(p) + "word" + std::to_string(k) + " ";
    description.push_back(d);
  }
  for (std::size_t r = 0; r < 150; ++r) {
    const std::size_t p = rng.next_below(5);
    std::string review;  // unique per row: no cross-row reuse here
    for (int k = 0; k < 12; ++k)
      review += "tok" + std::to_string(rng.next_u64() % 100000) + " ";
    t.append_row({product[p], description[p], std::move(review),
                  std::to_string(1 + rng.next_below(5))});
  }
  table::FdSet fds;
  fds.add_group({"product", "description"});
  const auto arrivals = stream_over(150, 30.0, 4);

  OnlineConfig cfg = small_config();
  cfg.engine.kv_pool_blocks_override = 192;  // forces LRU eviction
  cfg.scheduler.window_rows = 60;
  cfg.scheduler.max_wait_seconds = 4.0;

  cfg.scheduler.policy = Policy::Fifo;
  const auto fifo = run_online(t, fds, arrivals, cfg);
  cfg.scheduler.policy = Policy::WindowedGgr;
  const auto ggr = run_online(t, fds, arrivals, cfg);

  EXPECT_GT(ggr.engine.prompt_cache_hit_rate(),
            fifo.engine.prompt_cache_hit_rate());
  EXPECT_GT(ggr.phc, fifo.phc);
  // Same trace, same number of requests served.
  EXPECT_EQ(ggr.requests.size(), fifo.requests.size());
}

TEST(Online, DeadlineBoundsBufferingDelay) {
  // With a tight deadline every request's dispatch lags its arrival by at
  // most max_wait (plus the engine-busy gap to the next step boundary,
  // absent here because the stream is slow).
  util::Rng rng(35);
  const Table t = groupy_table(rng, 20, 3, 2);
  const table::FdSet fds;
  OnlineConfig cfg = small_config();
  cfg.scheduler.policy = Policy::WindowedGgr;
  cfg.scheduler.window_rows = 1000;  // row bound never trips
  cfg.scheduler.max_wait_seconds = 0.5;
  const auto arrivals = stream_over(20, 2.0, 6);  // slow stream

  const auto r = run_online(t, fds, arrivals, cfg);
  ASSERT_EQ(r.requests.size(), 20u);
  for (const auto& sr : r.requests)
    EXPECT_LE(sr.dispatch_time - sr.arrival_time, 0.5 + 0.25);
}

TEST(Online, EmptyStreamAndInvalidInputs) {
  util::Rng rng(36);
  const Table t = groupy_table(rng, 5, 2, 2);
  const table::FdSet fds;
  const OnlineConfig cfg = small_config();
  const auto r = run_online(t, fds, {}, cfg);
  EXPECT_TRUE(r.requests.empty());
  EXPECT_EQ(r.windows, 0u);

  std::vector<Arrival> bad = {{0, 1.0, 0, 0}, {1, 0.5, 1, 0}};
  EXPECT_THROW(run_online(t, fds, bad, cfg), std::invalid_argument);
  std::vector<Arrival> dup = {{7, 0.5, 0, 0}, {7, 1.0, 1, 0}};
  EXPECT_THROW(run_online(t, fds, dup, cfg), std::invalid_argument);
  std::vector<Arrival> oob = {{0, 0.5, 5, 0}};  // row 5 of a 5-row table
  EXPECT_THROW(run_online(t, fds, oob, cfg), std::invalid_argument);
  // A NaN time passes every `<` ordering check and would never be
  // dispatched: it must be rejected, not silently dropped.
  std::vector<Arrival> nan_time = {
      {0, 0.0, 0, 0},
      {1, 0.1, 1, 0},
      {2, std::numeric_limits<double>::quiet_NaN(), 2, 0},
      {3, 0.3, 3, 0}};
  EXPECT_THROW(run_online(t, fds, nan_time, cfg), std::invalid_argument);
  OnlineConfig replicated = cfg;
  replicated.n_replicas = 2;
  EXPECT_THROW(run_online(t, fds, nan_time, replicated),
               std::invalid_argument);
}

}  // namespace
}  // namespace llmq::serve
