#include "cache/radix_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <random>

namespace llmq::cache {
namespace {

tokenizer::TokenSeq seq(std::initializer_list<TokenId> ids) { return ids; }

tokenizer::TokenSeq iota_seq(std::size_t n, TokenId start = 0) {
  tokenizer::TokenSeq s(n);
  std::iota(s.begin(), s.end(), start);
  return s;
}

TEST(RadixTree, ZeroBlockSizeRejected) {
  EXPECT_THROW(RadixTree(0), std::invalid_argument);
}

TEST(RadixTree, EmptyTreeMatchesNothing) {
  RadixTree t(4);
  EXPECT_EQ(t.match(iota_seq(16)).matched_tokens, 0u);
  EXPECT_EQ(t.num_blocks(), 0u);
}

TEST(RadixTree, InsertThenFullMatch) {
  RadixTree t(4);
  const auto s = iota_seq(12);
  const auto ins = t.insert(s, 1);
  EXPECT_EQ(ins.new_blocks, 3u);
  EXPECT_EQ(t.num_blocks(), 3u);
  const auto m = t.match(s);
  EXPECT_EQ(m.matched_tokens, 12u);
  EXPECT_EQ(m.path.size(), 3u);
}

TEST(RadixTree, PartialBlockNotCached) {
  RadixTree t(4);
  t.insert(iota_seq(10), 1);  // 2 full blocks; trailing 2 tokens dropped
  EXPECT_EQ(t.num_blocks(), 2u);
  EXPECT_EQ(t.match(iota_seq(10)).matched_tokens, 8u);
}

TEST(RadixTree, SharedPrefixSharesNodes) {
  RadixTree t(4);
  auto a = iota_seq(8);                 // blocks [0..3][4..7]
  auto b = iota_seq(8);
  b[6] = 99;                            // second block differs
  t.insert(a, 1);
  const auto ins_b = t.insert(b, 2);
  EXPECT_EQ(ins_b.new_blocks, 1u);      // first block reused
  EXPECT_EQ(t.num_blocks(), 3u);
  EXPECT_EQ(t.match(a).matched_tokens, 8u);
  EXPECT_EQ(t.match(b).matched_tokens, 8u);
}

TEST(RadixTree, MatchStopsAtDivergence) {
  RadixTree t(4);
  t.insert(iota_seq(8), 1);
  auto probe = iota_seq(8);
  probe[5] = 42;
  EXPECT_EQ(t.match(probe).matched_tokens, 4u);
}

TEST(RadixTree, InsertRespectsMaxNewBlocks) {
  RadixTree t(4);
  const auto ins = t.insert(iota_seq(16), 1, 2);
  EXPECT_EQ(ins.new_blocks, 2u);
  EXPECT_EQ(t.num_blocks(), 2u);
  EXPECT_EQ(ins.path.size(), 2u);
}

TEST(RadixTree, EvictLruRemovesOldestLeaf) {
  RadixTree t(4);
  t.insert(seq({1, 2, 3, 4}), 1);
  t.insert(seq({5, 6, 7, 8}), 2);
  EXPECT_EQ(t.evict_lru_tier(1, 0), 1u);
  // The older (time 1) chain must be gone; the newer remains.
  EXPECT_EQ(t.match(seq({1, 2, 3, 4})).matched_tokens, 0u);
  EXPECT_EQ(t.match(seq({5, 6, 7, 8})).matched_tokens, 4u);
}

TEST(RadixTree, EvictionIsLeafFirst) {
  RadixTree t(4);
  t.insert(iota_seq(12), 1);  // chain of 3
  EXPECT_EQ(t.evict_lru_tier(1, 0), 1u);
  // Prefix-closed: the first two blocks still match.
  EXPECT_EQ(t.match(iota_seq(12)).matched_tokens, 8u);
}

TEST(RadixTree, PinnedNodesNotEvicted) {
  RadixTree t(4);
  const auto ins = t.insert(seq({1, 2, 3, 4}), 1);
  t.pin(ins.path);
  EXPECT_EQ(t.evict_lru_tier(5, 0), 0u);
  EXPECT_EQ(t.pinned_blocks(), 1u);
  t.unpin(ins.path);
  EXPECT_EQ(t.evict_lru_tier(5, 0), 1u);
}

TEST(RadixTree, UnpinWithoutPinThrows) {
  RadixTree t(4);
  const auto ins = t.insert(seq({1, 2, 3, 4}), 1);
  EXPECT_THROW(t.unpin(ins.path), std::logic_error);
}

TEST(RadixTree, TouchProtectsFromLru) {
  RadixTree t(4);
  const auto a = t.insert(seq({1, 2, 3, 4}), 1);
  t.insert(seq({5, 6, 7, 8}), 2);
  t.touch(a.path, 3);  // refresh the older entry
  EXPECT_EQ(t.evict_lru_tier(1, 0), 1u);
  EXPECT_EQ(t.match(seq({1, 2, 3, 4})).matched_tokens, 4u);
  EXPECT_EQ(t.match(seq({5, 6, 7, 8})).matched_tokens, 0u);
}

TEST(RadixTree, NodeReuseAfterEviction) {
  RadixTree t(2);
  for (int round = 0; round < 50; ++round) {
    t.insert(seq({static_cast<TokenId>(round), 1}), round);
    t.evict_lru_tier(1, 0);
  }
  EXPECT_EQ(t.num_blocks(), 0u);
}

TEST(RadixTree, HighFanoutChildIndexFindsEveryChild) {
  // Push root fan-out far past kIndexMinFanout so child lookup goes
  // through the open-addressed index; every child must still be found
  // exactly, misses must still miss, and the structural invariants
  // (index coherence included) must hold throughout.
  RadixTree t(4);
  constexpr int kChildren = 400;
  for (int i = 0; i < kChildren; ++i)
    t.insert(iota_seq(4, static_cast<TokenId>(10 * i)), i + 1);
  EXPECT_EQ(t.num_blocks(), static_cast<std::size_t>(kChildren));
  EXPECT_EQ(t.check_invariants(), "");
  for (int i = 0; i < kChildren; ++i) {
    const auto probe = iota_seq(4, static_cast<TokenId>(10 * i));
    EXPECT_EQ(t.match(probe).matched_tokens, 4u) << "child " << i;
    EXPECT_EQ(t.match_tokens(probe), 4u);
  }
  // A block that collides with no child (distinct first token space).
  EXPECT_EQ(t.match_tokens(iota_seq(4, 999'999)), 0u);
}

TEST(RadixTree, HighFanoutEvictionKeepsIndexCoherent) {
  // Interleave eviction waves with re-inserts at high fan-out: the index
  // erase path (backward-shift deletion) and slot recycling must keep
  // lookups exact. Eviction takes the oldest children first.
  RadixTree t(4);
  constexpr int kChildren = 100;
  for (int i = 0; i < kChildren; ++i)
    t.insert(iota_seq(4, static_cast<TokenId>(10 * i)), i + 1);
  const std::size_t slots_high_water = t.node_slots();

  EXPECT_EQ(t.evict_lru_tier(30, 0), 30u);  // oldest 30 = children 0..29
  EXPECT_EQ(t.check_invariants(), "");
  for (int i = 0; i < kChildren; ++i) {
    const auto probe = iota_seq(4, static_cast<TokenId>(10 * i));
    EXPECT_EQ(t.match_tokens(probe), i < 30 ? 0u : 4u) << "child " << i;
  }

  // Re-insert the evicted 30: recycled slots, no new slab growth.
  for (int i = 0; i < 30; ++i)
    t.insert(iota_seq(4, static_cast<TokenId>(10 * i)), 1000 + i);
  EXPECT_EQ(t.num_blocks(), static_cast<std::size_t>(kChildren));
  EXPECT_EQ(t.node_slots(), slots_high_water);
  EXPECT_EQ(t.check_invariants(), "");
  for (int i = 0; i < kChildren; ++i)
    EXPECT_EQ(t.match_tokens(iota_seq(4, static_cast<TokenId>(10 * i))), 4u);

  // Drain completely through the heap-based batch path.
  EXPECT_EQ(t.evict_lru_tier(kChildren, 0),
            static_cast<std::size_t>(kChildren));
  EXPECT_EQ(t.num_blocks(), 0u);
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(RadixTree, BatchEvictMatchesOneByOneEviction) {
  // Batch eviction must take exactly the victims the classic
  // rescan-per-victim loop would: build two identical trees, evict k in
  // one batch from one and k times singly from the other, and compare
  // the surviving match sets. The tiered input runs the same check on
  // evict_lru_tier over the host tier of a tree whose oldest blocks were
  // demoted (some further, to disk), so exposed parents join the heap
  // only when they sit at the evicted tier. Demotion gets the same
  // treatment: demote_lru(k, t) must equal k calls of demote_lru(1, t).
  auto build = [](bool tiered) {
    RadixTree t(2);
    // Mixed topology: shared chains + wide fan-out. Timestamps must be
    // monotone (the tree's clock contract), so LRU diversity comes from
    // a scrambled insertion order instead.
    std::uint64_t now = 1;
    for (int step = 0; step < 24; ++step) {
      const int i = (step * 11) % 24;  // gcd(11,24)=1: a permutation
      const auto a = static_cast<TokenId>(i % 6);
      const auto b = static_cast<TokenId>(i);
      t.insert(seq({a, a, b, b, static_cast<TokenId>(i * 7 % 5), 1}), now++);
    }
    if (tiered) {
      t.demote_lru(30, 0);
      t.demote_lru(6, 1);
    }
    return t;
  };
  auto survivors = [](RadixTree& t) {
    std::vector<std::size_t> out;
    for (int i = 0; i < 24; ++i) {
      const auto a = static_cast<TokenId>(i % 6);
      const auto b = static_cast<TokenId>(i);
      std::size_t gpu = 0, host = 0, disk = 0;
      t.match_tier_tokens(seq({a, a, b, b, static_cast<TokenId>(i * 7 % 5), 1}),
                          gpu, host, disk);
      out.insert(out.end(), {gpu, host, disk});
    }
    return out;
  };
  for (bool tiered : {false, true}) {
    const auto evict = [tiered](RadixTree& t, std::size_t k) {
      return t.evict_lru_tier(k, tiered ? 1 : 0);
    };
    for (std::size_t k : {1u, 3u, 7u, 20u, 100u}) {
      RadixTree batch = build(tiered);
      RadixTree single = build(tiered);
      ASSERT_EQ(batch.check_invariants(), "");
      const std::size_t got = evict(batch, k);
      std::size_t got_single = 0;
      for (std::size_t i = 0; i < k; ++i) got_single += evict(single, 1);
      EXPECT_EQ(got, got_single) << "tiered=" << tiered << " k=" << k;
      EXPECT_EQ(survivors(batch), survivors(single))
          << "tiered=" << tiered << " k=" << k;
      EXPECT_EQ(batch.check_invariants(), "");
      EXPECT_EQ(single.check_invariants(), "");
    }
    for (std::uint8_t from : {0, 1}) {
      for (std::size_t k : {1u, 3u, 7u, 20u, 100u}) {
        RadixTree batch = build(tiered);
        RadixTree single = build(tiered);
        const std::size_t got = batch.demote_lru(k, from);
        std::size_t got_single = 0;
        for (std::size_t i = 0; i < k; ++i)
          got_single += single.demote_lru(1, from);
        EXPECT_EQ(got, got_single)
            << "tiered=" << tiered << " from=" << int(from) << " k=" << k;
        EXPECT_EQ(survivors(batch), survivors(single))
            << "tiered=" << tiered << " from=" << int(from) << " k=" << k;
        EXPECT_EQ(batch.check_invariants(), "");
        EXPECT_EQ(single.check_invariants(), "");
      }
    }
  }
}

// Brute-force reference for the indexed candidate heaps: a shadow of the
// tree's shape, recency, pins and tiers, plus the scan-plus-heap
// eviction and demotion algorithms the heaps replaced.
struct RefTree {
  struct Node {
    NodeId parent = 0;             // 0 = the root
    tokenizer::TokenSeq tokens;    // root-down prefix ending at this block
    std::uint64_t last_access = 0;
    std::uint32_t ref_count = 0;
    std::uint8_t tier = 0;
  };
  std::size_t block;
  std::map<NodeId, Node> nodes;

  bool has_child(NodeId id, int tier = -1) const {
    for (const auto& [c, n] : nodes)
      if (n.parent == id && (tier < 0 || n.tier == tier)) return true;
    return false;
  }

  std::vector<NodeId> path_to(NodeId id) const {
    std::vector<NodeId> path;
    for (NodeId cur = id; cur != 0; cur = nodes.at(cur).parent)
      path.push_back(cur);
    std::reverse(path.begin(), path.end());
    return path;
  }

  // Mirror an insert: nodes on `path` the reference has not seen are new.
  std::size_t on_insert(const tokenizer::TokenSeq& tokens,
                        const std::vector<NodeId>& path, std::uint64_t now) {
    std::size_t fresh = 0;
    NodeId parent = 0;
    for (std::size_t i = 0; i < path.size(); ++i) {
      auto [it, is_new] = nodes.try_emplace(path[i]);
      if (is_new) {
        ++fresh;
        it->second.parent = parent;
        it->second.tokens.assign(tokens.begin(),
                                 tokens.begin() + (i + 1) * block);
      }
      it->second.last_access = now;
      parent = path[i];
    }
    return fresh;
  }

  // One scan collects every evictable node of one tier into a
  // (last_access, id) min-heap; parents join as eviction exposes them.
  std::vector<NodeId> evict(std::size_t want, std::uint8_t tier) {
    const auto evictable = [&](NodeId id) {
      const Node& n = nodes.at(id);
      return n.ref_count == 0 && !has_child(id) && n.tier == tier;
    };
    std::vector<std::pair<std::uint64_t, NodeId>> heap;
    for (const auto& [id, n] : nodes)
      if (evictable(id)) heap.emplace_back(n.last_access, id);
    const auto cmp = std::greater<>{};
    std::make_heap(heap.begin(), heap.end(), cmp);
    std::vector<NodeId> victims;
    while (victims.size() < want && !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      const NodeId victim = heap.back().second;
      heap.pop_back();
      const NodeId parent = nodes.at(victim).parent;
      nodes.erase(victim);
      victims.push_back(victim);
      if (parent != 0 && evictable(parent)) {
        heap.emplace_back(nodes.at(parent).last_access, parent);
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
    return victims;
  }

  // demote_lru(1, from) as a scan: every unpinned block of the tier into
  // a min-heap, popped until one has no child in the same tier.
  NodeId demote_one(std::uint8_t from) {
    std::vector<std::pair<std::uint64_t, NodeId>> heap;
    for (const auto& [id, n] : nodes)
      if (n.ref_count == 0 && n.tier == from)
        heap.emplace_back(n.last_access, id);
    const auto cmp = std::greater<>{};
    std::make_heap(heap.begin(), heap.end(), cmp);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      const NodeId victim = heap.back().second;
      heap.pop_back();
      if (has_child(victim, from)) continue;
      nodes.at(victim).tier = from + 1;
      return victim;
    }
    return kNoNode;
  }

  // First disagreement between the tree and the reference, or "".
  std::string diff(const RadixTree& t) const {
    if (const std::string inv = t.check_invariants(); !inv.empty())
      return "invariants: " + inv;
    if (t.num_blocks() != nodes.size()) return "num_blocks differs";
    std::size_t pinned = 0, tier_blocks[3] = {};
    for (const auto& [id, n] : nodes) {
      std::vector<NodeId> path;
      t.match_into(n.tokens, path);
      if (path.size() != n.tokens.size() / block || path.back() != id)
        return "node " + std::to_string(id) + " missing";
      if (t.node_tier(id) != n.tier)
        return "node " + std::to_string(id) + " in the wrong tier";
      pinned += n.ref_count > 0;
      ++tier_blocks[n.tier];
    }
    if (t.pinned_blocks() != pinned) return "pinned_blocks differs";
    for (std::uint8_t tier = 0; tier < 3; ++tier)
      if (t.tier_blocks(tier) != tier_blocks[tier])
        return "tier_blocks(" + std::to_string(tier) + ") differs";
    return "";
  }
};

TEST(RadixTree, IndexedEvictionMatchesScanReference) {
  // Seeded random mixes of every operation that moves a candidate index.
  // After each step the tree must hold exactly the reference's nodes in
  // the same tiers; batch operations run either as one call or as
  // single-victim calls checked after each victim, so both the victim
  // set and the victim order are pinned. Pins and inserts promote their
  // matched prefix first, as PrefixCache does, so the tier invariants
  // hold throughout.
  constexpr std::size_t kBlock = 2;
  for (int tiers = 1; tiers <= 3; ++tiers) {
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
      std::mt19937 rng(seed * 7919u + static_cast<std::uint32_t>(tiers));
      const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
      };
      RadixTree t(kBlock);
      RefTree ref{kBlock, {}};
      std::vector<std::vector<NodeId>> pinned;
      std::uint64_t now = 1;
      const auto random_node = [&] {
        auto it = ref.nodes.begin();
        std::advance(it, pick(ref.nodes.size()));
        return it->first;
      };
      const auto promote = [&](const std::vector<NodeId>& path) {
        t.promote_path(path);
        for (NodeId id : path) ref.nodes.at(id).tier = 0;
      };
      for (int step = 0; step < 400; ++step) {
        now += pick(2);  // equal stamps exercise the id tiebreak
        const std::size_t op = pick(7);
        const std::size_t k = 1 + pick(4);
        const bool one_by_one = pick(2) == 0;
        std::string what;
        if (op == 0 || ref.nodes.empty()) {
          tokenizer::TokenSeq toks((1 + pick(4)) * kBlock);
          for (auto& tok : toks) tok = static_cast<TokenId>(pick(3));
          std::vector<NodeId> matched;
          t.match_into(toks, matched);
          promote(matched);
          const std::size_t cap = pick(3) == 0 ? pick(3) : SIZE_MAX;
          const auto ins = t.insert(toks, now, cap);
          ASSERT_EQ(ref.on_insert(toks, ins.path, now), ins.new_blocks);
          what = "insert";
        } else if (op == 1) {
          const auto path = ref.path_to(random_node());
          t.touch(path, now);
          for (NodeId id : path) ref.nodes.at(id).last_access = now;
          what = "touch";
        } else if (op == 2) {
          const auto path = ref.path_to(random_node());
          promote(path);
          t.pin(path);
          for (NodeId id : path) ++ref.nodes.at(id).ref_count;
          pinned.push_back(path);
          what = "pin";
        } else if (op == 3 && !pinned.empty()) {
          const std::size_t i = pick(pinned.size());
          t.unpin(pinned[i]);
          for (NodeId id : pinned[i]) --ref.nodes.at(id).ref_count;
          pinned.erase(pinned.begin() + static_cast<std::ptrdiff_t>(i));
          what = "unpin";
        } else if (op == 4) {
          const auto tier = static_cast<std::uint8_t>(pick(tiers));
          what = "evict_lru_tier";
          if (one_by_one) {
            for (std::size_t i = 0; i < k; ++i) {
              ASSERT_EQ(t.evict_lru_tier(1, tier), ref.evict(1, tier).size());
              ASSERT_EQ(ref.diff(t), "") << what << " seed " << seed
                                         << " tiers " << tiers << " step "
                                         << step << " victim " << i;
            }
          } else {
            ASSERT_EQ(t.evict_lru_tier(k, tier), ref.evict(k, tier).size());
          }
        } else if (op == 5 && tiers > 1) {
          const auto from = static_cast<std::uint8_t>(pick(tiers - 1));
          what = "demote_lru";
          if (one_by_one) {
            for (std::size_t i = 0; i < k; ++i) {
              const bool ref_moved = ref.demote_one(from) != kNoNode;
              ASSERT_EQ(t.demote_lru(1, from), ref_moved ? 1u : 0u);
              ASSERT_EQ(ref.diff(t), "") << what << " seed " << seed
                                         << " tiers " << tiers << " step "
                                         << step << " victim " << i;
            }
          } else {
            std::size_t ref_moved = 0;
            while (ref_moved < k && ref.demote_one(from) != kNoNode)
              ++ref_moved;
            ASSERT_EQ(t.demote_lru(k, from), ref_moved);
          }
        } else if (op == 6) {
          promote(ref.path_to(random_node()));
          what = "promote_path";
        }
        ASSERT_EQ(ref.diff(t), "") << what << " seed " << seed << " tiers "
                                   << tiers << " step " << step;
      }
    }
  }
}

TEST(RadixTree, MatchVariantsAgree) {
  RadixTree t(4);
  t.insert(iota_seq(16), 1);
  t.insert(iota_seq(8, 100), 2);
  for (const auto& probe :
       {iota_seq(16), iota_seq(12), iota_seq(8, 100), iota_seq(16, 100),
        iota_seq(3), tokenizer::TokenSeq{}}) {
    const auto m = t.match(probe);
    EXPECT_EQ(t.match_tokens(probe), m.matched_tokens);
    std::vector<NodeId> path{kNoNode};  // stale content must be cleared
    EXPECT_EQ(t.match_into(probe, path), m.matched_tokens);
    EXPECT_EQ(path, m.path);
  }
}

TEST(RadixTree, DeepSharedHierarchy) {
  RadixTree t(2);
  // 4 sequences sharing progressively longer prefixes.
  t.insert(seq({1, 2, 3, 4, 5, 6}), 1);
  t.insert(seq({1, 2, 3, 4, 9, 9}), 2);
  t.insert(seq({1, 2, 8, 8, 8, 8}), 3);
  // seq1 adds 3 blocks; seq2 reuses 2 and adds 1; seq3 reuses 1, adds 2.
  EXPECT_EQ(t.num_blocks(), 6u);
  EXPECT_EQ(t.match(seq({1, 2, 3, 4, 5, 6})).matched_tokens, 6u);
  EXPECT_EQ(t.match(seq({1, 2, 8, 8})).matched_tokens, 4u);
}

}  // namespace
}  // namespace llmq::cache
