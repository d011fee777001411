// Hot-path microbenchmarks: the per-token inner loops the serving stack
// spends its time in at fleet scale — token_ops kernels (LCP / equality /
// block hash, SIMD vs scalar), RadixTree child lookup across fan-outs,
// the end-to-end lookup→admit→release cache cycle, batch eviction, and a
// steady-state allocation audit that asserts the arena claim: once warm,
// cache churn performs ZERO heap allocations and carves no new node
// slots.
//
// Emits the standard BENCH_*.json envelope. Deterministic keys
// (checksums, counts, steady_allocs) are golden-diffed exactly; us/op
// keys are wall-clock and only compared between release/no-sanitizer
// builds (tests/benchjson/test_golden_diff.cpp). The bench exits
// non-zero if any bit-identity or zero-allocation assertion fails, so a
// plain smoke run doubles as a correctness check.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "cache/prefix_cache.hpp"
#include "cache/radix_tree.hpp"
#include "tokenizer/tokenizer.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/token_ops.hpp"

namespace {
// Global allocation counter: every operator new in the process bumps it,
// which is what lets alloc_steadystate() assert "zero heap allocations
// per steady-state request" at the whole-program level rather than
// trusting any container's bookkeeping. The replacement operators are
// linked into llmq_bench, so every bench pays one relaxed atomic add per
// allocation; only this file reads the count. Every unaligned form is
// replaced, nothrow included: the deletes below free() whatever they get,
// so a new left to the runtime (std::stable_sort's temporary buffer uses
// the nothrow form) would be a new/free mismatch under ASan.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n) {
  if (void* p = ::operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace llmq::bench {

namespace {

namespace ops = util::token_ops;

volatile std::uint64_t g_sink = 0;  // defeats dead-code elimination

void fail(const char* what) {
  std::fprintf(stderr, "bench_micro: ASSERTION FAILED: %s\n", what);
  std::exit(1);
}

std::vector<tokenizer::TokenId> random_tokens(util::Rng& rng, std::size_t n) {
  std::vector<tokenizer::TokenId> v(n);
  for (auto& t : v) t = static_cast<tokenizer::TokenId>(rng.next_u64());
  return v;
}

/// Iterations per timed rep, sized so each rep touches ~4M tokens at
/// --full and proportionally fewer at small scales (floors keep the
/// timer above its granularity).
std::size_t iters_for(double scale, std::size_t tokens_per_iter) {
  const double target = 4.0e6 * std::max(scale, 0.01);
  const auto it = static_cast<std::size_t>(target /
                                           static_cast<double>(tokens_per_iter));
  return std::max<std::size_t>(16, it);
}

// ---- Section: token_ops (SIMD vs scalar kernels). ----

void bench_token_ops(const BenchOptions& opt, JsonReport& json) {
  const char* isa = util::simd::name(util::simd::active_isa());
  std::printf("token_ops kernels (dispatched isa=%s vs scalar)\n", isa);
  std::printf("  %6s  %10s %10s %8s  %10s %10s %8s\n", "len", "lcp_us",
              "lcp_sc_us", "speedup", "hash_us", "hash_sc_us", "speedup");

  const WallClockTimer timer(5, 2);
  util::Rng rng(opt.seed);
  for (const std::size_t len : {std::size_t{16}, std::size_t{64},
                                std::size_t{513}, std::size_t{4096}}) {
    const auto a = random_tokens(rng, len);
    const auto b = a;  // identical: LCP/equal walk the full run (worst case)
    const std::size_t iters = iters_for(opt.scale, len);

    // Bit-identity cross-check before timing anything.
    if (ops::lcp(a.data(), b.data(), len) !=
        ops::scalar::lcp(a.data(), b.data(), len))
      fail("dispatched lcp != scalar lcp");
    if (ops::hash(a.data(), len) != ops::scalar::hash(a.data(), len))
      fail("dispatched hash != scalar hash");
    if (ops::equal(a.data(), b.data(), len) !=
        ops::scalar::equal(a.data(), b.data(), len))
      fail("dispatched equal != scalar equal");

    const auto time_per_op = [&](auto&& fn) {
      const double s = timer.min_seconds([&] {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < iters; ++i) acc += fn();
        g_sink = acc;
      });
      return s / static_cast<double>(iters) * 1e6;
    };

    const double lcp_us =
        time_per_op([&] { return ops::lcp(a.data(), b.data(), len); });
    const double lcp_sc_us =
        time_per_op([&] { return ops::scalar::lcp(a.data(), b.data(), len); });
    const double hash_us = time_per_op([&] { return ops::hash(a.data(), len); });
    const double hash_sc_us =
        time_per_op([&] { return ops::scalar::hash(a.data(), len); });
    const double eq_us = time_per_op(
        [&] { return ops::equal(a.data(), b.data(), len) ? 1u : 0u; });
    const double eq_sc_us = time_per_op(
        [&] { return ops::scalar::equal(a.data(), b.data(), len) ? 1u : 0u; });

    // 64-bit hash folded to 32 bits so it survives the double-typed JSON
    // number path exactly.
    const std::uint64_t h = ops::hash(a.data(), len);
    const auto hash_check = static_cast<std::size_t>(h & 0xFFFFFFFFu);

    std::printf("  %6zu  %10.4f %10.4f %7.2fx  %10.4f %10.4f %7.2fx\n", len,
                lcp_us, lcp_sc_us, lcp_sc_us / lcp_us, hash_us, hash_sc_us,
                hash_sc_us / hash_us);
    json.add("token_ops",
             {{"len", len},
              {"isa", isa},
              {"lcp_us", lcp_us},
              {"lcp_scalar_us", lcp_sc_us},
              {"lcp_speedup", lcp_sc_us / lcp_us},
              {"hash_us", hash_us},
              {"hash_scalar_us", hash_sc_us},
              {"hash_speedup", hash_sc_us / hash_us},
              {"equal_us", eq_us},
              {"equal_scalar_us", eq_sc_us},
              {"hash_check", hash_check}});
  }
  std::printf("\n");
}

// ---- Section: radix_fanout (child lookup vs fan-out). ----

void bench_radix_fanout(const BenchOptions& opt, JsonReport& json) {
  constexpr std::size_t kBlock = 16;
  std::printf("radix find_child (block=%zu tokens)\n", kBlock);
  std::printf("  %7s  %10s %10s\n", "fanout", "hit_us", "miss_us");

  const WallClockTimer timer(5, 2);
  for (const std::size_t fanout :
       {std::size_t{4}, std::size_t{64}, std::size_t{512}}) {
    util::Rng rng(opt.seed + fanout);
    cache::RadixTree tree(kBlock);
    std::vector<std::vector<tokenizer::TokenId>> blocks;
    blocks.reserve(fanout);
    for (std::size_t i = 0; i < fanout; ++i) {
      blocks.push_back(random_tokens(rng, kBlock));
      tree.insert(blocks.back(), i);
    }
    const auto miss = random_tokens(rng, kBlock);

    const std::size_t iters = iters_for(opt.scale, kBlock);
    std::uint64_t check = 0;
    const auto probe = [&](std::span<const tokenizer::TokenId> p) {
      return static_cast<std::uint64_t>(tree.match_tokens(p));
    };
    for (const auto& blk : blocks) check += probe(blk);
    check += probe(miss);

    const double hit_us = timer.min_seconds([&] {
                            std::uint64_t acc = 0;
                            for (std::size_t i = 0; i < iters; ++i)
                              acc += probe(blocks[i % fanout]);
                            g_sink = acc;
                          }) /
                          static_cast<double>(iters) * 1e6;
    const double miss_us = timer.min_seconds([&] {
                             std::uint64_t acc = 0;
                             for (std::size_t i = 0; i < iters; ++i)
                               acc += probe(miss);
                             g_sink = acc;
                           }) /
                           static_cast<double>(iters) * 1e6;

    std::printf("  %7zu  %10.4f %10.4f\n", fanout, hit_us, miss_us);
    json.add("radix_fanout", {{"fanout", fanout},
                              {"hit_us", hit_us},
                              {"miss_us", miss_us},
                              {"check", static_cast<std::size_t>(check)}});
  }
  std::printf("\n");
}

// ---- Section: radix_stream (full cache cycle on a shared-prefix mix). ----

struct StreamOutcome {
  std::uint64_t hit_tokens = 0;
  std::uint64_t inserted_blocks = 0;
};

StreamOutcome run_stream(
    const std::vector<std::vector<tokenizer::TokenId>>& prompts) {
  cache::PrefixCache pc(cache::CacheConfig{16, 0, true});
  for (const auto& p : prompts) {
    auto lease = pc.lookup(p);
    pc.admit(p, lease);
    pc.release(lease);
  }
  const cache::CacheStats s = pc.stats();
  return {s.hit_tokens, s.inserted_blocks};
}

void bench_radix_stream(const BenchOptions& opt, JsonReport& json) {
  const auto n_prompts = std::max<std::size_t>(
      64, static_cast<std::size_t>(2048.0 * opt.scale));
  util::Rng rng(opt.seed);
  const auto prefix = random_tokens(rng, 128);
  std::vector<std::vector<tokenizer::TokenId>> prompts;
  prompts.reserve(n_prompts);
  for (std::size_t i = 0; i < n_prompts; ++i) {
    auto p = prefix;
    const auto tail = random_tokens(rng, 32);
    p.insert(p.end(), tail.begin(), tail.end());
    prompts.push_back(std::move(p));
  }

  const StreamOutcome first = run_stream(prompts);
  if (const StreamOutcome again = run_stream(prompts);
      again.hit_tokens != first.hit_tokens ||
      again.inserted_blocks != first.inserted_blocks)
    fail("radix_stream outcome not deterministic across runs");

  const WallClockTimer timer(5, 1);
  const double us_per_request =
      timer.min_seconds([&] { g_sink = run_stream(prompts).hit_tokens; }) /
      static_cast<double>(n_prompts) * 1e6;

  std::printf("radix_stream: %zu shared-prefix requests, %.3f us/request "
              "(hit_tokens=%llu)\n\n",
              n_prompts, us_per_request,
              static_cast<unsigned long long>(first.hit_tokens));
  json.add("radix_stream",
           {{"requests", n_prompts},
            {"us_per_request", us_per_request},
            {"hit_tokens", static_cast<std::size_t>(first.hit_tokens)},
            {"inserted_blocks",
             static_cast<std::size_t>(first.inserted_blocks)}});
}

// ---- Section: evict_batch (single-scan batch eviction). ----

void bench_evict_batch(const BenchOptions& opt, JsonReport& json) {
  constexpr std::size_t kBlock = 16;
  const auto n_prompts = std::max<std::size_t>(
      32, static_cast<std::size_t>(1024.0 * opt.scale));
  constexpr std::size_t kBlocksPerPrompt = 8;

  std::vector<std::vector<tokenizer::TokenId>> prompts;
  prompts.reserve(n_prompts);
  util::Rng rng(opt.seed);
  for (std::size_t i = 0; i < n_prompts; ++i)
    prompts.push_back(random_tokens(rng, kBlock * kBlocksPerPrompt));

  const auto build = [&] {
    cache::RadixTree tree(kBlock);
    std::uint64_t now = 0;
    for (const auto& p : prompts) tree.insert(p, ++now);
    return tree;
  };

  std::size_t nodes = 0, evicted = 0;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    cache::RadixTree tree = build();
    nodes = tree.num_blocks();
    const auto t0 = std::chrono::steady_clock::now();
    evicted = tree.evict_lru_tier(nodes, 0);
    const auto t1 = std::chrono::steady_clock::now();
    if (evicted != nodes) fail("evict_batch failed to drain the tree");
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  const double us_per_block = best / static_cast<double>(nodes) * 1e6;

  std::printf("evict_batch: drained %zu blocks in one call, %.4f us/block\n\n",
              nodes, us_per_block);
  json.add("evict_batch", {{"nodes", nodes},
                           {"evicted", evicted},
                           {"us_per_block", us_per_block}});
}

// ---- Section: alloc_steadystate (the arena zero-allocation audit). ----

void bench_alloc_steadystate(const BenchOptions& opt, JsonReport& json) {
  constexpr std::size_t kBlock = 16;
  constexpr std::size_t kPrompts = 32;
  constexpr std::size_t kBlocksPerPrompt = 4;
  constexpr std::size_t kCapacityBlocks = 64;  // < working set: churn forever

  util::Rng rng(opt.seed);
  std::vector<std::vector<tokenizer::TokenId>> prompts;
  prompts.reserve(kPrompts);
  for (std::size_t i = 0; i < kPrompts; ++i)
    prompts.push_back(random_tokens(rng, kBlock * kBlocksPerPrompt));

  // Cache-level churn: capacity-limited, every pass evicts and re-inserts.
  cache::PrefixCache pc(cache::CacheConfig{kBlock, kCapacityBlocks, true});
  const auto pass = [&] {
    for (const auto& p : prompts) {
      auto lease = pc.lookup(p);
      pc.admit(p, lease);
      pc.release(lease);
    }
  };
  const std::uint64_t before_warm = g_allocs.load(std::memory_order_relaxed);
  pass();
  pass();  // two warm-up passes: pools, slabs, scratch all reach high water
  const std::uint64_t warmup_allocs =
      g_allocs.load(std::memory_order_relaxed) - before_warm;
  constexpr int kSteadyPasses = 3;
  const std::uint64_t before_steady = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kSteadyPasses; ++i) pass();
  const std::uint64_t steady_allocs =
      g_allocs.load(std::memory_order_relaxed) - before_steady;
  if (steady_allocs != 0) fail("steady-state cache churn allocated");

  // Tree-level churn: node slots must stay flat once warm (satellite:
  // recycled slots reuse their storage instead of re-growing it).
  cache::RadixTree tree(kBlock);
  std::uint64_t now = 0;
  const auto tree_pass = [&] {
    for (const auto& p : prompts) tree.insert(p, ++now);
    tree.evict_lru_tier(tree.num_blocks(), 0);
  };
  tree_pass();
  tree_pass();
  const std::size_t slots_warm = tree.node_slots();
  for (int i = 0; i < kSteadyPasses; ++i) tree_pass();
  const std::size_t slots_delta = tree.node_slots() - slots_warm;
  if (slots_delta != 0) fail("steady-state tree churn carved new node slots");

  std::printf("alloc_steadystate: warmup_allocs=%llu steady_allocs=%llu "
              "node_slots_delta=%zu (over %d churn passes)\n\n",
              static_cast<unsigned long long>(warmup_allocs),
              static_cast<unsigned long long>(steady_allocs), slots_delta,
              kSteadyPasses);
  json.add("alloc_steadystate",
           {{"steady_passes", static_cast<std::size_t>(kSteadyPasses)},
            {"warmup_allocs", static_cast<std::size_t>(warmup_allocs)},
            {"steady_allocs", static_cast<std::size_t>(steady_allocs)},
            {"node_slots_delta", slots_delta}});
}

}  // namespace

int micro(const BenchOptions& opt, JsonReport& json) {
  bench_token_ops(opt, json);
  bench_radix_fanout(opt, json);
  bench_radix_stream(opt, json);
  bench_evict_batch(opt, json);
  bench_alloc_steadystate(opt, json);
  return 0;
}

}  // namespace llmq::bench
