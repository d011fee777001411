#pragma once
// Block-granular radix tree over token sequences.
//
// The same data structure family as SGLang's RadixAttention and vLLM's
// automatic prefix caching: prompts are chunked into fixed-size token
// blocks; each tree node holds one block; a request's cached prefix is the
// deepest path whose blocks exactly match the request's leading blocks.
// Reference counts pin paths of in-flight requests; unpinned nodes are
// LRU-evictable (leaves first, so the tree stays prefix-closed).
//
// Hot-path layout (DESIGN.md §11): nodes live in a util::SlotPool slab
// arena and their token blocks in parallel fixed-stride slabs keyed by
// node id, so steady-state churn (evict + re-insert) recycles slots
// without touching the heap. Every node caches the 64-bit token_ops hash
// of its block; child lookup compares hashes before tokens, and nodes
// whose fan-out reaches kIndexMinFanout carry an open-addressed child
// table that turns find_child into O(1) probes. Eviction and demotion
// never scan the arena: per tier, two intrusive indexed min-heaps keyed
// on (last_access, id) hold the current candidates and are updated as
// the tree changes, so each victim costs O(log n).
//
// Tiers (DESIGN.md §13): each node carries a tier tag — 0 = GPU, 1 =
// host DRAM, 2 = disk. A flat cache leaves every node at tier 0 and
// evicts at tier 0; it never demotes. The tree maintains tier monotonicity
// down every path (child.tier >= parent.tier): demotion takes the oldest
// unpinned block of a tier that has no child left in that tier, so a
// node's same-tier children always demote before it; promotion covers
// root-down path prefixes only. Pinned nodes are never demoted, which
// with promotion-before-pin gives "pinned => GPU-resident" as a walked
// invariant.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tokenizer/tokenizer.hpp"
#include "util/arena.hpp"

namespace llmq::cache {

using tokenizer::TokenId;
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

class RadixTree {
 public:
  explicit RadixTree(std::size_t block_size);

  std::size_t block_size() const { return block_size_; }
  /// Number of resident blocks (== nodes, excluding the root).
  std::size_t num_blocks() const { return num_blocks_; }

  struct Match {
    std::size_t matched_tokens = 0;   // always a multiple of block_size
    std::vector<NodeId> path;         // matched nodes, root-child first
  };

  /// Longest cached block-aligned prefix of `tokens`. Does not touch
  /// recency; callers that consume the match should follow with touch().
  Match match(std::span<const TokenId> tokens) const;

  /// Allocation-free form of match(): only the matched token count.
  std::size_t match_tokens(std::span<const TokenId> tokens) const;

  /// Allocation-free form of match(): fills a caller-owned path vector
  /// (cleared first; capacity is reused). Returns matched token count.
  /// The empty-path case of match_from().
  std::size_t match_into(std::span<const TokenId> tokens,
                         std::vector<NodeId>& path) const;

  /// Resumable match. `path` must be a root-down path of alive nodes
  /// holding the leading path.size() blocks of `tokens` (empty = start at
  /// the root); appends the nodes of the cached blocks that follow it.
  /// Returns the tokens the whole path now covers. Siblings hold distinct
  /// blocks, so the result is exactly what a walk from the root finds.
  std::size_t match_from(std::span<const TokenId> tokens,
                         std::vector<NodeId>& path) const;

  struct InsertResult {
    std::vector<NodeId> path;      // full path covering the inserted prefix
    std::size_t new_blocks = 0;    // nodes created by this insert
  };

  /// Ensure a path for all *full* blocks of `tokens` exists, creating at
  /// most `max_new_blocks` new nodes (pass SIZE_MAX for no limit — the
  /// cap lets the cache admit partial prefixes under memory pressure).
  /// Updates last_access of every touched node to `now`.
  InsertResult insert(std::span<const TokenId> tokens, std::uint64_t now,
                      std::size_t max_new_blocks = SIZE_MAX);

  /// Allocation-free form of insert(): fills a caller-owned path vector
  /// (cleared first; capacity is reused). Returns nodes created. The
  /// empty-path case of insert_from().
  std::size_t insert_into(std::span<const TokenId> tokens, std::uint64_t now,
                          std::size_t max_new_blocks,
                          std::vector<NodeId>& path);

  /// Resumable insert: continues from `path` (same precondition as
  /// match_from), walking the cached blocks after it and then creating
  /// nodes for the remaining full blocks, at most `max_new_blocks` of
  /// them, appending every node to `path`. Walked and created nodes get
  /// last_access = `now`; the given prefix is left as it is (touch() it
  /// for a full-path refresh). Returns nodes created.
  std::size_t insert_from(std::span<const TokenId> tokens, std::uint64_t now,
                          std::size_t max_new_blocks,
                          std::vector<NodeId>& path);

  /// Bump recency of a path (cache read).
  void touch(std::span<const NodeId> path, std::uint64_t now);

  /// Pin / unpin every node on a path (in-flight request holds its prefix).
  void pin(std::span<const NodeId> path);
  void unpin(std::span<const NodeId> path);

  /// Total pinned nodes (diagnostics / gauges; O(1) counter).
  std::size_t pinned_blocks() const { return pinned_blocks_; }

  /// Sum of ref_count over all alive nodes — the number of (lease, node)
  /// pin edges outstanding. PrefixCache cross-checks this against its own
  /// lease accounting in check_invariants().
  std::uint64_t total_ref_count() const;

  // ---- Tier operations (a flat tree keeps every node at tier 0). ----

  /// Tier of one alive node (0 = GPU).
  std::uint8_t node_tier(NodeId id) const { return pool_[id].tier; }

  /// Alive blocks currently at `tier` (O(1) counter).
  std::size_t tier_blocks(std::uint8_t tier) const {
    return tier < kTiers ? tiers_[tier].blocks : 0;
  }

  /// Demote up to `want` oldest unpinned blocks from `from_tier` to
  /// `from_tier + 1`. No structural change; returns blocks demoted (0
  /// when `from_tier` is the bottom tier). Each step takes the oldest
  /// unpinned node of the tier that has no child in that tier (the older
  /// of the tier's leaf and frontier heap tops), so demotion is
  /// tier-monotone by construction even when one insert stamped parent
  /// and child with the same clock value; a parent becomes a candidate
  /// once its last same-tier child goes down. One call with `want` = n
  /// is exactly n calls with `want` = 1. O(victims · log n).
  std::size_t demote_lru(std::size_t want, std::uint8_t from_tier);

  /// Evict up to `want` LRU unpinned leaves restricted to `tier` — the
  /// tree's only eviction: the bottom tier sheds blocks for real (tier 0
  /// of a flat tree), upper tiers demote instead. Pops the tier's leaf
  /// heap, which exposed parents join only if they sit at `tier`. One call with `want` = n takes the same victims, in
  /// the same order, as n calls with `want` = 1. O(victims · log n).
  std::size_t evict_lru_tier(std::size_t want, std::uint8_t tier);

  /// Read-only walk of the longest cached prefix (exactly match_tokens'
  /// traversal) that splits the matched tokens by the tier each block
  /// currently sits in. The router's tier-aware affinity probe.
  void match_tier_tokens(std::span<const TokenId> tokens, std::size_t& gpu,
                         std::size_t& host, std::size_t& disk) const;

  /// Count blocks of `path` at each non-GPU tier (no mutation).
  void count_tiered(std::span<const NodeId> path, std::size_t& host,
                    std::size_t& disk) const;

  /// Set every node of `path` to tier 0. `path` must be a root-down path
  /// prefix so tier monotonicity survives. The caller owns the GPU-pool
  /// accounting for the blocks that moved.
  void promote_path(std::span<const NodeId> path);

  // ---- Migration support (donor-side hot-prefix extraction). ----

  /// Ids of up to `max_leaves` most recently used leaves, most recent
  /// first (ties toward the lower id). A leaf's root-down path is the
  /// longest prefix it uniquely represents, so the hottest leaves name
  /// the hottest prefixes a donor should stream to a warming peer.
  void hottest_leaves(std::size_t max_leaves, std::vector<NodeId>& out) const;

  /// Append the token sequence of the root-down path ending at `id` to
  /// `out` (the raw bytes a migration actually transfers).
  void path_tokens(NodeId id, tokenizer::TokenSeq& out) const;

  /// Fill `out` with the root-down node path ending at `id`.
  void path_nodes(NodeId id, std::vector<NodeId>& out) const;

  /// Node slots ever carved from the arena (high-water mark; never
  /// shrinks). The arena microbench asserts this stays flat across
  /// steady-state evict/insert churn.
  std::size_t node_slots() const { return pool_.slots(); }

  /// Structural self-check for the property tests: parent/child/position
  /// consistency, arena accounting, per-node block hashing and sizing,
  /// sibling-block uniqueness, child-index coherence, node-count
  /// accounting, and the path-prefix monotonicity invariants — a node's
  /// parent is always at least as recently used and at least as pinned as
  /// the node, because touches and pins only ever cover root-down path
  /// prefixes. It also re-derives the candidate indexes from a slot walk:
  /// per-tier child counts, the pinned and per-tier block counters, heap
  /// order, positions that point back at their node, and membership in a
  /// leaf or frontier heap exactly when the node meets that heap's rule.
  /// Returns an empty string when every invariant holds, else a
  /// description of the first violation.
  std::string check_invariants() const;

 private:
  /// Open-addressed child table: power-of-2 capacity, linear probing,
  /// backward-shift deletion. An empty `table` means the node is below
  /// the fan-out threshold and children are scanned linearly (with the
  /// cached block hash as a cheap first filter). Capacity is retained
  /// when the owning slot is recycled.
  struct ChildIndex {
    std::vector<NodeId> table;   // kNoNode = empty slot
    std::size_t size = 0;
  };

  static constexpr std::size_t kTiers = 3;
  static constexpr std::uint32_t kNoPos = UINT32_MAX;
  enum : std::uint8_t { kNoHeap, kLeafHeap, kFrontierHeap };

  struct Node {
    std::uint64_t block_hash = 0;     // token_ops::hash of the block
    std::uint64_t last_access = 0;
    std::vector<NodeId> children;
    ChildIndex index;
    NodeId parent = kNoNode;
    std::uint32_t pos_in_parent = 0;  // index in parent's children vector
    std::uint32_t ref_count = 0;
    std::uint32_t tier_children[kTiers] = {};  // alive children per tier
    std::uint32_t heap_pos = kNoPos;  // slot in the heap named by `heap`
    std::uint8_t tier = 0;            // 0 = GPU, 1 = host, 2 = disk
    std::uint8_t heap = kNoHeap;      // which heap of its tier holds it
    bool alive = false;
  };

  // Candidate indexes of one tier: two min-heaps keyed on (last_access,
  // id), each entry carrying its key and each member node storing its
  // own position. The root is never a member, and a node is in at most
  // one heap. Storage capacity is kept across uses.
  //   leaves:   alive, unpinned, no children (evict_lru_tier)
  //   frontier: alive, unpinned, with children but none in this tier
  // Together they hold exactly the tier's demotion candidates (unpinned,
  // no child in the tier), so demote_lru takes the older of the two
  // tops. In a flat tree every child shares its parent's tier and the
  // frontier heaps stay empty.
  struct HeapEntry {
    std::uint64_t last_access;
    NodeId id;
  };
  struct TierIndex {
    std::vector<HeapEntry> leaves;
    std::vector<HeapEntry> frontier;
    std::size_t blocks = 0;  // alive nodes at this tier
  };

  // Fan-out at which a node gains a child hash table.
  static constexpr std::size_t kIndexMinFanout = 8;
  // Nodes per token slab (block storage stride group).
  static constexpr std::size_t kSlabNodes = 256;

  std::span<const TokenId> block_span(NodeId id) const {
    if (id == 0) return {};
    const TokenId* base = block_slabs_[id / kSlabNodes].get() +
                          (id % kSlabNodes) * block_size_;
    return {base, block_size_};
  }

  /// The heap a node belongs in under the TierIndex rules.
  static std::uint8_t heap_rule(NodeId id, const Node& n) {
    if (id == 0 || !n.alive || n.ref_count > 0) return kNoHeap;
    if (n.children.empty()) return kLeafHeap;
    return n.tier_children[n.tier] == 0 ? kFrontierHeap : kNoHeap;
  }

  NodeId find_child(NodeId node, std::span<const TokenId> block) const;
  /// Where a resumed walk over `tokens` continues from `path`: its last
  /// node (the root when empty). Rejects a path longer than the tokens'
  /// full blocks; debug builds also check it spells their leading blocks.
  NodeId resume_point(std::span<const TokenId> tokens,
                      std::span<const NodeId> path) const;
  NodeId add_child(NodeId node, std::span<const TokenId> block,
                   std::uint64_t now);
  void remove_node(NodeId id);
  void set_tier(NodeId id, std::uint8_t tier);
  void set_access(NodeId id, std::uint64_t now);

  // ---- Candidate heaps. ----
  static bool older(const HeapEntry& a, const HeapEntry& b) {
    return a.last_access != b.last_access ? a.last_access < b.last_access
                                          : a.id < b.id;
  }
  std::vector<HeapEntry>& heap_of(const Node& n) {
    TierIndex& t = tiers_[n.tier];
    return n.heap == kLeafHeap ? t.leaves : t.frontier;
  }
  void heap_sift(std::vector<HeapEntry>& heap, std::uint32_t i);
  /// Bring a node's heap membership in line with heap_rule. A member
  /// always sits in a heap of its current tier, so a tier change leaves
  /// the old tier's heap first (unindex).
  void reindex(NodeId id);
  void unindex(NodeId id);

  void index_insert(ChildIndex& ix, NodeId id);
  void index_erase(ChildIndex& ix, NodeId id);
  void index_rebuild(Node& n, std::size_t min_capacity);

  std::size_t block_size_;
  util::SlotPool<Node> pool_;    // slot 0 is the root
  std::vector<std::unique_ptr<TokenId[]>> block_slabs_;
  std::size_t num_blocks_ = 0;
  std::size_t pinned_blocks_ = 0;  // alive non-root nodes with ref_count > 0
  TierIndex tiers_[kTiers];
};

}  // namespace llmq::cache
