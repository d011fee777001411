#include "cache/radix_tree.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/token_ops.hpp"

namespace llmq::cache {

namespace ops = util::token_ops;

RadixTree::RadixTree(std::size_t block_size)
    : block_size_(block_size), pool_(kSlabNodes) {
  if (block_size == 0)
    throw std::invalid_argument("RadixTree: block_size must be positive");
  const auto root = pool_.allocate();  // slot 0
  pool_[root].alive = true;
  pool_[root].parent = kNoNode;
}

// ---- Child index (open addressing, linear probing). ----

void RadixTree::index_insert(ChildIndex& ix, NodeId id) {
  const std::size_t mask = ix.table.size() - 1;
  std::size_t pos = pool_[id].block_hash & mask;
  while (ix.table[pos] != kNoNode) pos = (pos + 1) & mask;
  ix.table[pos] = id;
  ++ix.size;
}

void RadixTree::index_erase(ChildIndex& ix, NodeId id) {
  const std::size_t mask = ix.table.size() - 1;
  std::size_t i = pool_[id].block_hash & mask;
  while (ix.table[i] != id) i = (i + 1) & mask;
  ix.table[i] = kNoNode;
  --ix.size;
  // Backward-shift deletion: walk the probe chain after the hole and pull
  // back any entry whose home slot does not lie strictly between the hole
  // and it (else a later lookup would stop at the hole and miss it).
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    const NodeId c = ix.table[j];
    if (c == kNoNode) return;
    const std::size_t home = pool_[c].block_hash & mask;
    const bool reachable =
        (j >= i) ? (home > i && home <= j) : (home > i || home <= j);
    if (!reachable) {
      ix.table[i] = c;
      ix.table[j] = kNoNode;
      i = j;
    }
  }
}

void RadixTree::index_rebuild(Node& n, std::size_t min_capacity) {
  std::size_t cap = 16;
  while (cap < min_capacity) cap <<= 1;
  if (n.index.table.size() < cap) n.index.table.resize(cap);
  std::fill(n.index.table.begin(), n.index.table.end(), kNoNode);
  n.index.size = 0;
  for (NodeId c : n.children) index_insert(n.index, c);
}

// ---- Core tree ops. ----

NodeId RadixTree::find_child(NodeId node,
                             std::span<const TokenId> block) const {
  const Node& n = pool_[node];
  if (!n.index.table.empty()) {
    const std::uint64_t h = ops::hash(block.data(), block.size());
    const std::size_t mask = n.index.table.size() - 1;
    for (std::size_t pos = h & mask;; pos = (pos + 1) & mask) {
      const NodeId c = n.index.table[pos];
      if (c == kNoNode) return kNoNode;
      const Node& cn = pool_[c];
      if (cn.block_hash == h &&
          ops::equal(block_span(c).data(), block.data(), block.size()))
        return c;
    }
  }
  for (NodeId c : n.children) {
    if (ops::equal(block_span(c).data(), block.data(), block.size())) return c;
  }
  return kNoNode;
}

NodeId RadixTree::add_child(NodeId node, std::span<const TokenId> block,
                            std::uint64_t now) {
  const NodeId id = static_cast<NodeId>(pool_.allocate());
  while (id / kSlabNodes >= block_slabs_.size())
    block_slabs_.push_back(
        std::make_unique<TokenId[]>(kSlabNodes * block_size_));
  TokenId* dst =
      block_slabs_[id / kSlabNodes].get() + (id % kSlabNodes) * block_size_;
  std::copy(block.begin(), block.end(), dst);

  Node& n = pool_[id];
  n.block_hash = ops::hash(block.data(), block.size());
  n.parent = node;
  n.children.clear();  // recycled slot: capacity retained, contents stale
  n.index.size = 0;
  if (!n.index.table.empty())
    std::fill(n.index.table.begin(), n.index.table.end(), kNoNode);
  n.last_access = now;
  n.ref_count = 0;
  std::fill(std::begin(n.tier_children), std::end(n.tier_children), 0u);
  n.tier = 0;  // new blocks are always born GPU-resident
  n.alive = true;
  ++tiers_[0].blocks;

  Node& p = pool_[node];
  n.pos_in_parent = static_cast<std::uint32_t>(p.children.size());
  p.children.push_back(id);
  ++p.tier_children[0];
  if (!p.index.table.empty()) {
    // Keep the table at load factor <= 3/4.
    if ((p.index.size + 1) * 4 > p.index.table.size() * 3)
      index_rebuild(p, p.children.size() * 2);
    else
      index_insert(p.index, id);
  } else if (p.children.size() >= kIndexMinFanout) {
    index_rebuild(p, p.children.size() * 2);
  }
  ++num_blocks_;
  reindex(id);
  reindex(node);
  return id;
}

void RadixTree::remove_node(NodeId id) {
  Node& n = pool_[id];
  // Eviction must never take a pinned block (an in-flight request's KV
  // would dangle) or an inner node (the tree must stay prefix-closed).
  // The leaf heaps hold neither; enforce here so any future caller that
  // forgets fails loudly instead of corrupting leases.
  if (n.ref_count > 0)
    throw std::logic_error("RadixTree: removing a pinned node");
  if (!n.children.empty())
    throw std::logic_error("RadixTree: removing a non-leaf node");
  unindex(id);
  --tiers_[n.tier].blocks;
  const NodeId parent = n.parent;
  Node& p = pool_[parent];
  --p.tier_children[n.tier];
  // O(1) swap-remove: child order is unobservable (lookups go through the
  // hash index or an unordered scan), so move the last sibling into the
  // vacated position.
  const std::uint32_t pos = n.pos_in_parent;
  const NodeId moved = p.children.back();
  p.children[pos] = moved;
  pool_[moved].pos_in_parent = pos;
  p.children.pop_back();
  if (!p.index.table.empty()) index_erase(p.index, id);
  n.alive = false;
  pool_.deallocate(id);
  --num_blocks_;
  reindex(parent);
}

void RadixTree::set_tier(NodeId id, std::uint8_t tier) {
  Node& n = pool_[id];
  if (n.tier == tier) return;
  unindex(id);
  --tiers_[n.tier].blocks;
  ++tiers_[tier].blocks;
  Node& p = pool_[n.parent];
  --p.tier_children[n.tier];
  ++p.tier_children[tier];
  n.tier = tier;
  reindex(id);
  reindex(n.parent);
}

void RadixTree::set_access(NodeId id, std::uint64_t now) {
  Node& n = pool_[id];
  n.last_access = now;
  if (n.heap == kNoHeap) return;
  std::vector<HeapEntry>& heap = heap_of(n);
  heap[n.heap_pos].last_access = now;
  heap_sift(heap, n.heap_pos);
}

// ---- Candidate heaps (intrusive indexed binary min-heaps). ----

void RadixTree::heap_sift(std::vector<HeapEntry>& heap, std::uint32_t i) {
  const HeapEntry e = heap[i];
  const auto place = [&](std::uint32_t at, const HeapEntry& v) {
    heap[at] = v;
    pool_[v.id].heap_pos = at;
  };
  while (i > 0) {
    const std::uint32_t up = (i - 1) / 2;
    if (!older(e, heap[up])) break;
    place(i, heap[up]);
    i = up;
  }
  const auto n = static_cast<std::uint32_t>(heap.size());
  for (;;) {
    std::uint32_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && older(heap[c + 1], heap[c])) ++c;
    if (!older(heap[c], e)) break;
    place(i, heap[c]);
    i = c;
  }
  place(i, e);
}

void RadixTree::reindex(NodeId id) {
  Node& n = pool_[id];
  const std::uint8_t want = heap_rule(id, n);
  if (n.heap == want) return;
  unindex(id);
  if (want == kNoHeap) return;
  n.heap = want;
  std::vector<HeapEntry>& heap = heap_of(n);
  n.heap_pos = static_cast<std::uint32_t>(heap.size());
  heap.push_back({n.last_access, id});
  heap_sift(heap, n.heap_pos);
}

void RadixTree::unindex(NodeId id) {
  Node& n = pool_[id];
  if (n.heap == kNoHeap) return;
  std::vector<HeapEntry>& heap = heap_of(n);
  const std::uint32_t i = n.heap_pos;
  n.heap = kNoHeap;
  n.heap_pos = kNoPos;
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (last.id == id) return;
  heap[i] = last;
  pool_[last.id].heap_pos = i;
  heap_sift(heap, i);
}

RadixTree::Match RadixTree::match(std::span<const TokenId> tokens) const {
  Match out;
  out.matched_tokens = match_into(tokens, out.path);
  return out;
}

std::size_t RadixTree::match_tokens(std::span<const TokenId> tokens) const {
  NodeId cur = 0;
  std::size_t offset = 0;
  while (offset + block_size_ <= tokens.size()) {
    const NodeId child = find_child(cur, tokens.subspan(offset, block_size_));
    if (child == kNoNode) break;
    offset += block_size_;
    cur = child;
  }
  return offset;
}

std::size_t RadixTree::match_into(std::span<const TokenId> tokens,
                                  std::vector<NodeId>& path) const {
  path.clear();
  NodeId cur = 0;
  std::size_t offset = 0;
  while (offset + block_size_ <= tokens.size()) {
    const NodeId child = find_child(cur, tokens.subspan(offset, block_size_));
    if (child == kNoNode) break;
    path.push_back(child);
    offset += block_size_;
    cur = child;
  }
  return offset;
}

RadixTree::InsertResult RadixTree::insert(std::span<const TokenId> tokens,
                                          std::uint64_t now,
                                          std::size_t max_new_blocks) {
  InsertResult out;
  out.new_blocks = insert_into(tokens, now, max_new_blocks, out.path);
  return out;
}

std::size_t RadixTree::insert_into(std::span<const TokenId> tokens,
                                   std::uint64_t now,
                                   std::size_t max_new_blocks,
                                   std::vector<NodeId>& path) {
  path.clear();
  std::size_t new_blocks = 0;
  NodeId cur = 0;
  std::size_t offset = 0;
  while (offset + block_size_ <= tokens.size()) {
    const auto block = tokens.subspan(offset, block_size_);
    NodeId child = find_child(cur, block);
    if (child == kNoNode) {
      if (new_blocks >= max_new_blocks) break;
      child = add_child(cur, block, now);
      ++new_blocks;
    } else {
      set_access(child, now);
    }
    path.push_back(child);
    offset += block_size_;
    cur = child;
  }
  return new_blocks;
}

void RadixTree::touch(std::span<const NodeId> path, std::uint64_t now) {
  for (NodeId id : path) set_access(id, now);
}

void RadixTree::pin(std::span<const NodeId> path) {
  for (NodeId id : path) {
    if (pool_[id].ref_count++ > 0) continue;
    ++pinned_blocks_;
    unindex(id);
  }
}

void RadixTree::unpin(std::span<const NodeId> path) {
  for (NodeId id : path) {
    if (pool_[id].ref_count == 0)
      throw std::logic_error("RadixTree: unpin of unpinned node");
    if (--pool_[id].ref_count > 0) continue;
    --pinned_blocks_;
    reindex(id);
  }
}

std::size_t RadixTree::evict_lru(std::size_t want) {
  std::size_t evicted = 0;
  while (evicted < want) {
    const HeapEntry* victim = nullptr;
    for (const TierIndex& t : tiers_)
      if (!t.leaves.empty() && (!victim || older(t.leaves.front(), *victim)))
        victim = &t.leaves.front();
    if (!victim) break;
    remove_node(victim->id);
    ++evicted;
  }
  return evicted;
}

std::string RadixTree::check_invariants() const {
  const auto fail = [](NodeId id, const char* what) {
    return "node " + std::to_string(id) + ": " + what;
  };
  if (pool_.slots() == 0 || !pool_[0].alive || pool_[0].parent != kNoNode)
    return "root: missing, dead, or parented";

  std::size_t alive = 0;
  std::size_t pinned = 0;
  std::size_t tier_blocks[kTiers] = {};
  std::size_t members = 0;
  for (NodeId id = 0; id < pool_.slots(); ++id) {
    const Node& n = pool_[id];
    // Candidate-index membership: exactly the heap its rule names (none
    // for the root or a dead slot), at the stored position, under the
    // node's current key.
    if (n.tier >= kTiers) return fail(id, "tier out of range");
    if (n.heap != heap_rule(id, n))
      return fail(id, "candidate heap membership disagrees with its rule");
    if (n.heap != kNoHeap) {
      const TierIndex& t = tiers_[n.tier];
      const auto& heap = n.heap == kLeafHeap ? t.leaves : t.frontier;
      if (n.heap_pos >= heap.size() || heap[n.heap_pos].id != id)
        return fail(id, "heap position does not point back at the node");
      if (heap[n.heap_pos].last_access != n.last_access)
        return fail(id, "heap entry holds a stale recency key");
      ++members;
    } else if (n.heap_pos != kNoPos) {
      return fail(id, "heap position set outside any heap");
    }
    if (!n.alive) continue;
    std::uint32_t per_tier[kTiers] = {};
    for (NodeId c : n.children)
      if (c < pool_.slots() && pool_[c].tier < kTiers)
        ++per_tier[pool_[c].tier];
    if (!std::equal(std::begin(per_tier), std::end(per_tier),
                    std::begin(n.tier_children)))
      return fail(id, "per-tier child counts out of sync");
    if (id != 0) {
      ++alive;
      pinned += (n.ref_count > 0);
      ++tier_blocks[n.tier];
      const auto blk = block_span(id);
      if (blk.size() != block_size_) return fail(id, "block size mismatch");
      if (n.block_hash != ops::hash(blk.data(), blk.size()))
        return fail(id, "stale block hash");
      if (n.parent >= pool_.slots() || !pool_[n.parent].alive)
        return fail(id, "dead or out-of-range parent");
      const auto& sib = pool_[n.parent].children;
      if (n.pos_in_parent >= sib.size() || sib[n.pos_in_parent] != id)
        return fail(id, "pos_in_parent does not point back at the node");
      if (std::count(sib.begin(), sib.end(), id) != 1)
        return fail(id, "not exactly once in parent's child list");
      if (n.parent != 0) {
        // Touches and pins cover root-down path prefixes, so recency and
        // pin counts are monotone down every path.
        if (pool_[n.parent].last_access < n.last_access)
          return fail(id, "more recently used than its parent");
        if (pool_[n.parent].ref_count < n.ref_count)
          return fail(id, "more pinned than its parent");
        // Demotion is oldest-first and promotion covers root-down
        // prefixes, so tiers are monotone down every path too.
        if (pool_[n.parent].tier > n.tier)
          return fail(id, "in a higher tier than its parent");
      }
      // In-flight requests read KV from GPU memory; a pinned block in a
      // lower tier would mean a lease points at data that is not there.
      if (n.ref_count > 0 && n.tier != 0)
        return fail(id, "pinned but not GPU-resident");
    }
    for (NodeId c : n.children) {
      if (c >= pool_.slots() || !pool_[c].alive || pool_[c].parent != id)
        return fail(id, "child dead, out of range, or mis-parented");
    }
    for (std::size_t a = 0; a < n.children.size(); ++a)
      for (std::size_t b = a + 1; b < n.children.size(); ++b)
        if (ops::equal(block_span(n.children[a]), block_span(n.children[b])))
          return fail(id, "duplicate sibling blocks");
    if (!n.index.table.empty()) {
      if (n.index.size != n.children.size())
        return fail(id, "child index size out of sync");
      std::size_t filled = 0;
      for (NodeId c : n.index.table) filled += (c != kNoNode);
      if (filled != n.index.size)
        return fail(id, "child index occupancy out of sync");
      for (NodeId c : n.children)
        if (find_child(id, block_span(c)) != c)
          return fail(id, "child not reachable through its index");
    }
  }
  if (alive != num_blocks_) return "num_blocks out of sync with alive nodes";
  if (pool_.in_use() != alive + 1)  // +1: the root occupies a slot
    return "arena in_use out of sync with alive nodes";
  if (pinned != pinned_blocks_)
    return "pinned_blocks counter out of sync with pinned nodes";
  std::size_t entries = 0;
  for (std::size_t tier = 0; tier < kTiers; ++tier) {
    const TierIndex& t = tiers_[tier];
    if (t.blocks != tier_blocks[tier])
      return "tier " + std::to_string(tier) +
             ": block counter out of sync with its nodes";
    for (const auto* heap : {&t.leaves, &t.frontier})
      for (std::size_t i = 1; i < heap->size(); ++i)
        if (older((*heap)[i], (*heap)[(i - 1) / 2]))
          return "tier " + std::to_string(tier) + ": heap order violated";
    entries += t.leaves.size() + t.frontier.size();
  }
  // Every member points back at its own entry, so equal totals rule out
  // stale or duplicate entries.
  if (entries != members)
    return "candidate heaps hold entries for non-member nodes";
  return std::string();
}

std::uint64_t RadixTree::total_ref_count() const {
  std::uint64_t n = 0;
  for (NodeId id = 1; id < pool_.slots(); ++id)
    if (pool_[id].alive) n += pool_[id].ref_count;
  return n;
}

// ---- Tier operations. ----

std::size_t RadixTree::demote_lru(std::size_t want, std::uint8_t from_tier) {
  if (from_tier + 1u >= kTiers) return 0;
  const TierIndex& t = tiers_[from_tier];
  std::size_t demoted = 0;
  while (demoted < want && (!t.leaves.empty() || !t.frontier.empty())) {
    const bool leaf =
        t.frontier.empty() ||
        (!t.leaves.empty() && older(t.leaves.front(), t.frontier.front()));
    set_tier((leaf ? t.leaves : t.frontier).front().id, from_tier + 1);
    ++demoted;
  }
  return demoted;
}

std::size_t RadixTree::evict_lru_tier(std::size_t want, std::uint8_t tier) {
  if (tier >= kTiers) return 0;
  const std::vector<HeapEntry>& leaves = tiers_[tier].leaves;
  std::size_t evicted = 0;
  while (evicted < want && !leaves.empty()) {
    remove_node(leaves.front().id);
    ++evicted;
  }
  return evicted;
}

void RadixTree::match_tier_tokens(std::span<const TokenId> tokens,
                                  std::size_t& gpu, std::size_t& host,
                                  std::size_t& disk) const {
  NodeId cur = 0;
  std::size_t offset = 0;
  while (offset + block_size_ <= tokens.size()) {
    const NodeId child = find_child(cur, tokens.subspan(offset, block_size_));
    if (child == kNoNode) break;
    switch (pool_[child].tier) {
      case 0: gpu += block_size_; break;
      case 1: host += block_size_; break;
      default: disk += block_size_; break;
    }
    offset += block_size_;
    cur = child;
  }
}

void RadixTree::count_tiered(std::span<const NodeId> path, std::size_t& host,
                             std::size_t& disk) const {
  for (NodeId id : path) {
    const std::uint8_t t = pool_[id].tier;
    host += (t == 1);
    disk += (t == 2);
  }
}

void RadixTree::promote_path(std::span<const NodeId> path) {
  for (NodeId id : path) set_tier(id, 0);
}

void RadixTree::hottest_leaves(std::size_t max_leaves,
                               std::vector<NodeId>& out) const {
  out.clear();
  if (max_leaves == 0) return;
  // (last_access, id) of every leaf, sorted most-recent-first with the
  // lower id winning ties — deterministic regardless of slot layout.
  std::vector<std::pair<std::uint64_t, NodeId>> leaves;
  for (NodeId id = 1; id < pool_.slots(); ++id) {
    const Node& n = pool_[id];
    if (n.alive && n.children.empty()) leaves.emplace_back(n.last_access, id);
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  if (leaves.size() > max_leaves) leaves.resize(max_leaves);
  for (const auto& [age, id] : leaves) out.push_back(id);
}

void RadixTree::path_tokens(NodeId id, tokenizer::TokenSeq& out) const {
  std::vector<NodeId> chain;
  path_nodes(id, chain);
  for (NodeId n : chain) {
    const auto blk = block_span(n);
    out.insert(out.end(), blk.begin(), blk.end());
  }
}

void RadixTree::path_nodes(NodeId id, std::vector<NodeId>& out) const {
  out.clear();
  for (NodeId cur = id; cur != 0; cur = pool_[cur].parent) out.push_back(cur);
  std::reverse(out.begin(), out.end());
}

}  // namespace llmq::cache
