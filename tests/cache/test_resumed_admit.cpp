// Differential test for admits that resume from the pinned lease.
//
// PrefixCache::admit extends the lease's pinned path in place instead of
// unpinning it and re-walking the prompt from the root. The claim is that
// nothing observable changes: the same nodes (same ids), the same
// recency, the same victims. RewalkOracle below keeps the unpin + root
// re-walk admit (match from the root, touch, pin, promote, unpin, insert
// from the root, re-pin) on the public RadixTree/BlockPool API, and
// randomized operation streams run against both — lookup, full admit,
// chunked partial admit, cancel/defer, release, preempt-resume and
// engine-driven eviction, on flat, 2-tier and 3-tier caches. After every
// operation the leases, stats, tier ledgers and the tree's leaf set must
// agree and both caches must pass their invariant walks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "cache/block_pool.hpp"
#include "cache/prefix_cache.hpp"
#include "cache/radix_tree.hpp"
#include "util/rng.hpp"

namespace llmq::cache {
namespace {

using Tokens = std::span<const TokenId>;

/// The unpin + root re-walk cache: lookup, admit, release, cancel and
/// evict as PrefixCache did before admits resumed from the lease. Every
/// tier count admits the same way: unpin the lease, match from the root,
/// touch, pin and promote the match, make room for the blocks past it,
/// then insert from the root.
class RewalkOracle {
 public:
  explicit RewalkOracle(CacheConfig c)
      : config_(c), tree_(c.block_size), pool_(c.capacity_blocks) {
    config_.tiers = std::clamp<std::size_t>(config_.tiers, 1, 3);
  }

  const CacheStats& stats() const { return stats_; }
  const RadixTree& tree() const { return tree_; }
  std::size_t tier_blocks(std::uint8_t tier) const {
    return tier == 0 ? pool_.used() : tier == 1 ? host_used_ : disk_used_;
  }

  CacheLease lookup(Tokens prompt) {
    ++clock_;
    ++stats_.lookups;
    stats_.lookup_tokens += prompt.size();
    CacheLease lease = pinning_match(prompt);
    stats_.hit_tokens += lease.cached_tokens;
    return lease;
  }

  CacheLease resume_lookup(Tokens prompt) {
    ++clock_;
    return pinning_match(prompt);
  }

  std::size_t admit(Tokens prompt, CacheLease& lease) {
    ++clock_;
    tree_.unpin(lease.path);
    std::vector<NodeId> path;
    tree_.match_into(prompt, path);
    tree_.touch(path, clock_);
    tree_.pin(path);
    std::size_t host = 0, disk = 0;
    const bool truncated = promote_pinned_path(path, host, disk);
    std::size_t new_blocks = 0;
    if (!truncated) {
      const std::size_t full_blocks = prompt.size() / config_.block_size;
      std::size_t need =
          full_blocks > path.size() ? full_blocks - path.size() : 0;
      if (need > 0) {
        make_gpu_room(need);
        if (!pool_.unlimited()) need = std::min(need, pool_.free());
        tree_.unpin(path);
        std::vector<NodeId> full_path;
        new_blocks = tree_.insert_into(prompt, clock_, need, full_path);
        pool_.allocate(new_blocks);
        stats_.inserted_blocks += new_blocks;
        tree_.pin(full_path);
        path = std::move(full_path);
      }
    }
    lease.cached_tokens = path.size() * config_.block_size;
    lease.path = std::move(path);
    return new_blocks;
  }

  void release(CacheLease& lease) {
    tree_.unpin(lease.path);
    lease = CacheLease{};
  }

  void cancel_lookup(CacheLease& lease, std::size_t prompt_tokens) {
    --stats_.lookups;
    stats_.lookup_tokens -= prompt_tokens;
    stats_.hit_tokens -= lease.cached_tokens;
    release(lease);
  }

  std::size_t evict(std::size_t n) {
    return tiered() ? demote_gpu(n) : evict_flat(n);
  }

 private:
  bool tiered() const { return config_.tiers > 1; }

  CacheLease pinning_match(Tokens prompt) {
    CacheLease lease;
    lease.cached_tokens = tree_.match_into(prompt, lease.path);
    tree_.touch(lease.path, clock_);
    tree_.pin(lease.path);
    if (tiered()) {
      std::size_t host = 0, disk = 0;
      if (promote_pinned_path(lease.path, host, disk))
        lease.cached_tokens = lease.path.size() * config_.block_size;
      lease.promoted_host_blocks = host;
      lease.promoted_disk_blocks = disk;
    }
    return lease;
  }

  std::size_t evict_flat(std::size_t n) {
    const std::size_t evicted = tree_.evict_lru_tier(n, 0);
    pool_.release(evicted);
    stats_.evicted_blocks += evicted;
    return evicted;
  }

  std::size_t demote_gpu(std::size_t n) {
    const std::size_t demoted = tree_.demote_lru(n, 0);
    if (demoted > 0) {
      pool_.release(demoted);
      host_used_ += demoted;
      stats_.demoted_blocks += demoted;
      rebalance_lower_tiers();
    }
    return demoted;
  }

  void make_gpu_room(std::size_t need) {
    if (pool_.unlimited() || need <= pool_.free()) return;
    evict(need - pool_.free());
  }

  void rebalance_lower_tiers() {
    if (config_.host_capacity_blocks > 0 &&
        host_used_ > config_.host_capacity_blocks) {
      const std::size_t excess = host_used_ - config_.host_capacity_blocks;
      if (config_.tiers >= 3) {
        const std::size_t moved = tree_.demote_lru(excess, 1);
        host_used_ -= moved;
        disk_used_ += moved;
        stats_.demoted_blocks += moved;
      } else {
        host_used_ -= evict_bottom(1, excess);
      }
    }
    if (config_.tiers >= 3 && config_.disk_capacity_blocks > 0 &&
        disk_used_ > config_.disk_capacity_blocks)
      disk_used_ -= evict_bottom(2, disk_used_ - config_.disk_capacity_blocks);
  }

  std::size_t evict_bottom(std::uint8_t tier, std::size_t n) {
    const std::size_t evicted = tree_.evict_lru_tier(n, tier);
    stats_.evicted_blocks += evicted;
    return evicted;
  }

  bool promote_pinned_path(std::vector<NodeId>& path, std::size_t& host,
                           std::size_t& disk) {
    host = 0;
    disk = 0;
    std::size_t lower_host = 0, lower_disk = 0;
    tree_.count_tiered(path, lower_host, lower_disk);
    const std::size_t lower = lower_host + lower_disk;
    if (lower == 0) return false;
    make_gpu_room(lower);
    bool truncated = false;
    if (!pool_.unlimited() && pool_.free() < lower) {
      const std::size_t free = pool_.free();
      std::size_t keep = 0, used = 0;
      for (NodeId id : path) {
        const bool lower_node = tree_.node_tier(id) != 0;
        if (lower_node && used == free) break;
        used += lower_node;
        ++keep;
      }
      tree_.unpin(std::span<const NodeId>(path).subspan(keep));
      path.resize(keep);
      truncated = true;
    }
    tree_.count_tiered(path, host, disk);
    if (host + disk > 0) {
      tree_.promote_path(path);
      pool_.allocate(host + disk);
      host_used_ -= host;
      disk_used_ -= disk;
      stats_.promoted_blocks += host + disk;
    }
    return truncated;
  }

  CacheConfig config_;
  RadixTree tree_;
  BlockPool pool_;
  std::size_t host_used_ = 0;
  std::size_t disk_used_ = 0;
  CacheStats stats_;
  std::uint64_t clock_ = 0;
};

struct Scenario {
  const char* name;
  CacheConfig config;
};

std::ostream& operator<<(std::ostream& os, const Scenario& s) {
  return os << s.name;
}

CacheConfig config(std::size_t gpu, std::size_t tiers, std::size_t host,
                   std::size_t disk) {
  CacheConfig c;
  c.block_size = 4;
  c.capacity_blocks = gpu;
  c.tiers = tiers;
  c.host_capacity_blocks = host;
  c.disk_capacity_blocks = disk;
  return c;
}

/// One in-flight request: its prompt and the lease each cache handed out.
struct Live {
  tokenizer::TokenSeq prompt;
  CacheLease lease;   // PrefixCache under test
  CacheLease oracle;  // RewalkOracle
  bool admitted = false;  // a fresh lookup can still be cancelled
};

void expect_same_stats(const CacheStats& a, const CacheStats& b,
                       const std::string& at) {
  EXPECT_EQ(a.lookups, b.lookups) << at;
  EXPECT_EQ(a.hit_tokens, b.hit_tokens) << at;
  EXPECT_EQ(a.lookup_tokens, b.lookup_tokens) << at;
  EXPECT_EQ(a.inserted_blocks, b.inserted_blocks) << at;
  EXPECT_EQ(a.evicted_blocks, b.evicted_blocks) << at;
  EXPECT_EQ(a.demoted_blocks, b.demoted_blocks) << at;
  EXPECT_EQ(a.promoted_blocks, b.promoted_blocks) << at;
}

void expect_same_lease(const CacheLease& a, const CacheLease& b,
                       const std::string& at) {
  EXPECT_EQ(a.path, b.path) << at;
  EXPECT_EQ(a.cached_tokens, b.cached_tokens) << at;
  EXPECT_EQ(a.promoted_host_blocks, b.promoted_host_blocks) << at;
  EXPECT_EQ(a.promoted_disk_blocks, b.promoted_disk_blocks) << at;
}

/// Prompts drawn from a few shared stems so that leases overlap, grow
/// past each other and go cold in lower tiers.
tokenizer::TokenSeq make_prompt(util::Rng& rng,
                                const std::vector<tokenizer::TokenSeq>& stems) {
  tokenizer::TokenSeq p;
  const auto& stem = stems[rng.next_below(stems.size())];
  const std::size_t keep = rng.next_below(stem.size() + 1);
  p.assign(stem.begin(), stem.begin() + static_cast<std::ptrdiff_t>(keep));
  const std::size_t extra = rng.next_below(24);
  for (std::size_t i = 0; i < extra; ++i)
    p.push_back(static_cast<TokenId>(rng.next_below(3)));
  return p;
}

class ResumedAdmit : public ::testing::TestWithParam<Scenario> {};

TEST_P(ResumedAdmit, MatchesUnpinAndRootRewalkAfterEveryOperation) {
  const Scenario& sc = GetParam();
  const std::size_t block = sc.config.block_size;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    PrefixCache cache(sc.config);
    RewalkOracle oracle(sc.config);
    util::Rng rng(seed * 7919 + sc.config.tiers);
    std::vector<tokenizer::TokenSeq> stems;
    for (int s = 0; s < 4; ++s) {
      tokenizer::TokenSeq stem(8 + rng.next_below(40));
      for (auto& t : stem) t = static_cast<TokenId>(rng.next_below(5));
      stems.push_back(std::move(stem));
    }
    std::map<std::uint64_t, Live> live;
    std::uint64_t next_id = 0;
    std::vector<NodeId> leaves_a, leaves_b;

    for (int step = 0; step < 600; ++step) {
      const std::string at = std::string(sc.name) + " seed " +
                             std::to_string(seed) + " step " +
                             std::to_string(step);
      const std::size_t op = rng.next_below(100);
      auto pick = [&]() {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(live.size())));
        return it;
      };
      if (live.empty() || op < 25 || (live.size() < 3 && op < 50)) {
        // Lookup of a new request (bounded in-flight count so pins do
        // not saturate the GPU tier for the whole run).
        if (live.size() >= 6) continue;
        Live l;
        l.prompt = make_prompt(rng, stems);
        l.lease = cache.lookup(l.prompt);
        l.oracle = oracle.lookup(l.prompt);
        expect_same_lease(l.lease, l.oracle, at + " lookup");
        live.emplace(next_id++, std::move(l));
      } else if (op < 45) {
        // Full admit (monolithic prefill, or the last chunk).
        Live& l = pick()->second;
        EXPECT_EQ(cache.admit(l.prompt, l.lease),
                  oracle.admit(l.prompt, l.oracle))
            << at << " admit";
        l.admitted = true;
      } else if (op < 65) {
        // Chunked partial admit: a block-aligned-or-not prefix of the
        // prompt, usually past the lease, sometimes short of it.
        Live& l = pick()->second;
        if (l.prompt.size() < block) continue;
        const std::size_t covered =
            block + rng.next_below(l.prompt.size() - block + 1);
        const Tokens part(l.prompt.data(), covered);
        EXPECT_EQ(cache.admit(part, l.lease), oracle.admit(part, l.oracle))
            << at << " chunk admit";
        l.admitted = true;
      } else if (op < 73) {
        // Cancel/defer: a fresh lookup the engine could not admit.
        auto it = pick();
        Live& l = it->second;
        if (l.admitted) continue;
        cache.cancel_lookup(l.lease, l.prompt.size());
        oracle.cancel_lookup(l.oracle, l.prompt.size());
        live.erase(it);
      } else if (op < 85) {
        // Completion.
        auto it = pick();
        cache.release(it->second.lease);
        oracle.release(it->second.oracle);
        live.erase(it);
      } else if (op < 93) {
        // Preempt, then resume: release and re-probe without stats.
        Live& l = pick()->second;
        cache.release(l.lease);
        oracle.release(l.oracle);
        l.lease = cache.resume_lookup(l.prompt);
        l.oracle = oracle.resume_lookup(l.prompt);
        l.admitted = true;
      } else {
        // The engine frees GPU blocks for private KV.
        const std::size_t n = 1 + rng.next_below(4);
        EXPECT_EQ(cache.evict(n), oracle.evict(n)) << at << " evict";
      }

      for (const auto& [id, l] : live)
        expect_same_lease(l.lease, l.oracle,
                          at + " request " + std::to_string(id));
      expect_same_stats(cache.stats(), oracle.stats(), at);
      for (std::uint8_t tier = 0; tier < 3; ++tier)
        EXPECT_EQ(cache.tier_resident_blocks(tier), oracle.tier_blocks(tier))
            << at << " tier " << int(tier);
      EXPECT_EQ(cache.pinned_blocks(), oracle.tree().pinned_blocks()) << at;
      cache.tree().hottest_leaves(SIZE_MAX, leaves_a);
      oracle.tree().hottest_leaves(SIZE_MAX, leaves_b);
      EXPECT_EQ(leaves_a, leaves_b) << at;
      EXPECT_EQ(cache.check_invariants(), "") << at;
      EXPECT_EQ(oracle.tree().check_invariants(), "") << at;
      if (::testing::Test::HasFailure()) return;
    }
    // The streams must reach the paths where a resumed walk could drift:
    // capacity pressure (eviction or demotion) and, tiered, lower-tier
    // prefixes pulled back to GPU.
    const CacheStats st = cache.stats();
    if (sc.config.capacity_blocks > 0) {
      EXPECT_GT(st.evicted_blocks + st.demoted_blocks, 0u) << sc.name;
    }
    if (sc.config.tiers > 1) {
      EXPECT_GT(st.promoted_blocks, 0u) << sc.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlatAndTiered, ResumedAdmit,
    ::testing::Values(Scenario{"flat_unbounded", config(0, 1, 0, 0)},
                      Scenario{"flat_tight", config(20, 1, 0, 0)},
                      Scenario{"two_tier", config(16, 2, 12, 0)},
                      Scenario{"two_tier_unbounded_host", config(12, 2, 0, 0)},
                      Scenario{"three_tier", config(12, 3, 8, 8)}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace llmq::cache
