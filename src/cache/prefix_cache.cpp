#include "cache/prefix_cache.hpp"

#include <algorithm>
#include <string>

namespace llmq::cache {

// Tripwire: growing CacheStats without extending the accumulate/delta
// helpers below makes the new counter silently disappear from every
// per-session and fleet-aggregate report. If this assert fires, add the
// field to BOTH operators (and to the coverage test in tests/cache),
// then update the expected size.
static_assert(sizeof(CacheStats) == 7 * sizeof(std::uint64_t),
              "CacheStats changed: update operator+=/-= and tests/cache");

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  lookups += o.lookups;
  hit_tokens += o.hit_tokens;
  lookup_tokens += o.lookup_tokens;
  inserted_blocks += o.inserted_blocks;
  evicted_blocks += o.evicted_blocks;
  demoted_blocks += o.demoted_blocks;
  promoted_blocks += o.promoted_blocks;
  return *this;
}

CacheStats& CacheStats::operator-=(const CacheStats& o) {
  lookups -= o.lookups;
  hit_tokens -= o.hit_tokens;
  lookup_tokens -= o.lookup_tokens;
  inserted_blocks -= o.inserted_blocks;
  evicted_blocks -= o.evicted_blocks;
  demoted_blocks -= o.demoted_blocks;
  promoted_blocks -= o.promoted_blocks;
  return *this;
}

PrefixCache::PrefixCache(CacheConfig config)
    : config_(config), tree_(config.block_size) {
  config_.tiers = std::clamp<std::size_t>(config_.tiers, 1, kMaxTiers);
  pools_.emplace_back(config_.capacity_blocks);
  pools_.resize(config_.tiers, BlockPool(0));
}

std::size_t PrefixCache::resident_blocks() const {
  return tree_.num_blocks();
}

std::size_t PrefixCache::gpu_resident_blocks() const {
  return pools_[0].used();
}

std::size_t PrefixCache::tier_resident_blocks(std::uint8_t tier) const {
  return tier < pools_.size() ? pools_[tier].used() : 0;
}

std::size_t PrefixCache::tier_capacity(std::size_t tier) const {
  const std::size_t caps[kMaxTiers] = {config_.capacity_blocks,
                                       config_.host_capacity_blocks,
                                       config_.disk_capacity_blocks};
  return caps[tier];
}

std::size_t PrefixCache::pinned_blocks() const {
  return tree_.pinned_blocks();
}

std::vector<NodeId> PrefixCache::acquire_path() {
  if (path_pool_.empty()) return {};
  std::vector<NodeId> v = std::move(path_pool_.back());
  path_pool_.pop_back();
  v.clear();
  return v;
}

void PrefixCache::recycle_path(std::vector<NodeId>&& path) {
  if (path.capacity() > 0) path_pool_.push_back(std::move(path));
}

CacheLease PrefixCache::pinning_match(std::span<const TokenId> prompt) {
  CacheLease lease;
  lease.path = acquire_path();
  lease.cached_tokens = tree_.match_into(prompt, lease.path);
  tree_.touch(lease.path, clock_);
  tree_.pin(lease.path);
  outstanding_pins_ += lease.path.size();
  // Promotion-on-hit: a lower-tier match is pulled back to GPU before the
  // lease hands it out — pinned blocks are always GPU-resident, and the
  // engine prices the transfer the lease reports into TTFT.
  std::size_t host = 0, disk = 0;
  if (promote_pinned_path(lease.path, host, disk, /*cls=*/0))
    lease.cached_tokens = lease.path.size() * config_.block_size;
  lease.promoted_host_blocks = host;
  lease.promoted_disk_blocks = disk;
  return lease;
}

CacheLease PrefixCache::lookup(std::span<const TokenId> prompt) {
  ++clock_;
  // A disabled cache must not register lookup traffic: the stats feed
  // hit-rate denominators, and the "No Cache" ablation arm reads them.
  if (!config_.enabled) return CacheLease{};
  ++stats_.lookups;
  stats_.lookup_tokens += prompt.size();
  CacheLease lease = pinning_match(prompt);
  stats_.hit_tokens += lease.cached_tokens;
  trace(EventKind::CacheLookup, prompt.size(), lease.cached_tokens,
        lease.path.size());
  return lease;
}

CacheLease PrefixCache::resume_lookup(std::span<const TokenId> prompt) {
  ++clock_;
  if (!config_.enabled) return CacheLease{};
  // Pin + touch only: the resuming request's lookup stats were counted at
  // first admission and must not count again.
  CacheLease lease = pinning_match(prompt);
  trace(EventKind::CacheLookup, prompt.size(), lease.cached_tokens,
        lease.path.size(), /*cls=*/1);
  return lease;
}

std::size_t PrefixCache::peek(std::span<const TokenId> prompt) const {
  if (!config_.enabled) return 0;
  return tree_.match_tokens(prompt);
}

TierPeek PrefixCache::peek_tiers(std::span<const TokenId> prompt) const {
  TierPeek out;
  if (!config_.enabled) return out;
  tree_.match_tier_tokens(prompt, out.gpu_tokens, out.host_tokens,
                          out.disk_tokens);
  return out;
}

void PrefixCache::resume_lease(std::span<const TokenId> prompt,
                               CacheLease& lease) {
  const std::size_t full_blocks = prompt.size() / config_.block_size;
  if (lease.path.size() > full_blocks) {
    tree_.unpin(std::span<const NodeId>(lease.path).subspan(full_blocks));
    outstanding_pins_ -= lease.path.size() - full_blocks;
    lease.path.resize(full_blocks);
  }
  tree_.touch(lease.path, clock_);
}

void PrefixCache::pin_from(std::span<const NodeId> path, std::size_t from) {
  tree_.pin(path.subspan(from));
  outstanding_pins_ += path.size() - from;
}

std::size_t PrefixCache::admit(std::span<const TokenId> prompt,
                               CacheLease& lease) {
  if (!config_.enabled) return 0;
  ++clock_;
  const std::size_t path_before = lease.path.size();
  // Resume from the lease: its pinned path was neither evicted nor
  // demoted since the lookup. Only the blocks past it are matched afresh
  // — another request may have grown (or demotion may have cooled) the
  // prefix beyond the lease since.
  resume_lease(prompt, lease);
  const std::size_t new_blocks = extend_pinned(prompt, lease.path);
  lease.cached_tokens = lease.path.size() * config_.block_size;
  trace(EventKind::CacheAdmit, new_blocks, lease.path.size(), path_before);
  return new_blocks;
}

std::size_t PrefixCache::extend_pinned(std::span<const TokenId> prompt,
                                       std::vector<NodeId>& path) {
  std::size_t held = path.size();
  tree_.match_from(prompt, path);
  tree_.touch(std::span<const NodeId>(path).subspan(held), clock_);
  pin_from(path, held);
  // Refresh-promote the matched prefix BEFORE inserting new children:
  // inserting GPU-born children under a demoted (lower-tier) parent
  // would break tier monotonicity, and pinning a lower-tier node breaks
  // pinned => GPU-resident. The blocks are on-GPU anyway (prefill just
  // recomputed them, or a migration just landed them), so this promotion
  // is a free refresh (cls=1), not a priced transfer.
  std::size_t host = 0, disk = 0;
  if (promote_pinned_path(path, host, disk, /*cls=*/1)) return 0;
  // Room is made for what the cache lacks past the matched path, which
  // stays pinned meanwhile, so blocks already cached are never shed only
  // to be inserted again; under pin saturation only the longest
  // admissible prefix is kept.
  const std::size_t full_blocks = prompt.size() / config_.block_size;
  std::size_t need = full_blocks > path.size() ? full_blocks - path.size() : 0;
  if (need == 0) return 0;
  make_gpu_room(need);
  need = std::min(need, pools_[0].free());
  held = path.size();
  const std::size_t new_blocks = tree_.insert_from(prompt, clock_, need, path);
  pin_from(path, held);
  pools_[0].allocate(new_blocks);
  stats_.inserted_blocks += new_blocks;
  return new_blocks;
}

std::size_t PrefixCache::evict(std::size_t n) { return shed(0, n); }

std::size_t PrefixCache::shed(std::size_t tier, std::size_t n) {
  const auto t = static_cast<std::uint8_t>(tier);
  if (tier + 1 == pools_.size()) {
    // The bottom tier destroys its LRU leaves for real.
    const std::size_t evicted = tree_.evict_lru_tier(n, t);
    if (evicted > 0) {
      pools_[tier].release(evicted);
      stats_.evicted_blocks += evicted;
      trace(EventKind::CacheEvict, evicted, tier, 0);
    }
    return evicted;
  }
  // Any other tier demotes one level; the tier below took the blocks
  // past its capacity, so it sheds back under it.
  const std::size_t demoted = tree_.demote_lru(n, t);
  if (demoted > 0) {
    pools_[tier].release(demoted);
    BlockPool& below = pools_[tier + 1];
    below.allocate(demoted);
    stats_.demoted_blocks += demoted;
    trace(EventKind::TierDemote, demoted, tier + 1, tier);
    const std::size_t cap = tier_capacity(tier + 1);
    if (cap > 0 && below.used() > cap) shed(tier + 1, below.used() - cap);
  }
  return demoted;
}

void PrefixCache::make_gpu_room(std::size_t need) {
  const BlockPool& gpu = pools_[0];
  if (need > gpu.free()) shed(0, need - gpu.free());
}

bool PrefixCache::promote_pinned_path(std::vector<NodeId>& path,
                                      std::size_t& host, std::size_t& disk,
                                      std::uint8_t cls) {
  host = 0;
  disk = 0;
  // Nothing resident below the GPU (always so on a flat cache): no walk.
  if (pools_[0].used() == tree_.num_blocks()) return false;
  std::size_t lower_host = 0, lower_disk = 0;
  tree_.count_tiered(path, lower_host, lower_disk);
  const std::size_t lower = lower_host + lower_disk;
  if (lower == 0) return false;
  // The path is already pinned, which is what keeps make_gpu_room's
  // demotion scan away from it.
  make_gpu_room(lower);
  BlockPool& gpu = pools_[0];
  bool truncated = false;
  if (gpu.free() < lower) {
    // Pin-saturated GPU pool: keep the longest prefix whose lower-tier
    // blocks fit, unpin and drop the tail — the request recomputes those
    // tokens instead of reading them back.
    const std::size_t free = gpu.free();
    std::size_t keep = 0, used = 0;
    for (NodeId id : path) {
      const bool lower_node = tree_.node_tier(id) != 0;
      if (lower_node && used == free) break;
      used += lower_node;
      ++keep;
    }
    tree_.unpin(std::span<const NodeId>(path.data() + keep,
                                        path.size() - keep));
    outstanding_pins_ -= path.size() - keep;
    path.resize(keep);
    truncated = true;
  }
  tree_.count_tiered(path, host, disk);
  if (host + disk > 0) {
    tree_.promote_path(path);
    gpu.allocate(host + disk);
    const std::size_t promoted[kMaxTiers] = {0, host, disk};
    for (std::size_t tier = 1; tier < pools_.size(); ++tier)
      pools_[tier].release(promoted[tier]);
    stats_.promoted_blocks += host + disk;
    trace(EventKind::TierPromote, host, disk, path.size(), cls);
  }
  return truncated;
}

std::size_t PrefixCache::admit_migrated(std::span<const TokenId> tokens) {
  if (!config_.enabled) return 0;
  ++clock_;
  // An admit without a lease: the path is pinned only while it is
  // extended, then released.
  std::vector<NodeId> path = acquire_path();
  const std::size_t new_blocks = extend_pinned(tokens, path);
  tree_.unpin(path);
  outstanding_pins_ -= path.size();
  recycle_path(std::move(path));
  // No CacheLookup/CacheAdmit events and no hit credit: migrated
  // prefixes must never read as prefix hits (the fleet's PrefixMigrate
  // event is the observable), and the audit's pin-balance rules only
  // cover lease traffic.
  return new_blocks;
}

PrefixCache::MigrationBatch PrefixCache::begin_migration(
    std::size_t max_blocks) {
  MigrationBatch batch;
  if (!config_.enabled || max_blocks == 0) return batch;
  ++clock_;
  // Hottest leaves first (most recent, lower id on ties).
  std::vector<NodeId> leaves;
  tree_.hottest_leaves(max_blocks, leaves);
  std::vector<NodeId> nodes;
  for (NodeId leaf : leaves) {
    if (batch.blocks >= max_blocks) break;
    tree_.path_nodes(leaf, nodes);
    // Donor pins must stay GPU-only (pinned => GPU-resident), so the
    // prefix is cut at the first lower-tier node — migration streams the
    // hot GPU-resident part; the cold tail stays where it is.
    std::size_t keep = 0;
    for (NodeId id : nodes) {
      if (tree_.node_tier(id) != 0) break;
      ++keep;
    }
    nodes.resize(keep);
    if (nodes.empty()) continue;
    CacheLease lease;
    lease.path = acquire_path();
    lease.path.assign(nodes.begin(), nodes.end());
    lease.cached_tokens = nodes.size() * config_.block_size;
    tree_.pin(lease.path);
    outstanding_pins_ += lease.path.size();
    tokenizer::TokenSeq toks;
    tree_.path_tokens(nodes.back(), toks);
    batch.blocks += lease.path.size();
    batch.prefixes.push_back(std::move(toks));
    batch.leases.push_back(std::move(lease));
  }
  return batch;
}

void PrefixCache::end_migration(MigrationBatch& batch) {
  if (!config_.enabled) return;
  for (CacheLease& lease : batch.leases) {
    tree_.unpin(lease.path);
    outstanding_pins_ -= lease.path.size();
    recycle_path(std::move(lease.path));
  }
  batch.leases.clear();
  batch.prefixes.clear();
  batch.blocks = 0;
}

void PrefixCache::release(CacheLease& lease) {
  if (!config_.enabled) return;
  tree_.unpin(lease.path);
  outstanding_pins_ -= lease.path.size();
  trace(EventKind::CacheRelease, lease.path.size(), 0, 0);
  recycle_path(std::move(lease.path));
  lease.path = std::vector<NodeId>();  // moved-from: restore a defined empty
  lease.cached_tokens = 0;
  lease.promoted_host_blocks = 0;
  lease.promoted_disk_blocks = 0;
}

void PrefixCache::cancel_lookup(CacheLease& lease, std::size_t prompt_tokens) {
  if (!config_.enabled) return;
  --stats_.lookups;
  stats_.lookup_tokens -= prompt_tokens;
  stats_.hit_tokens -= lease.cached_tokens;
  // Stat-undo only; the release below emits the CacheRelease that
  // balances this lease's pins (one unpin record, never two).
  trace(EventKind::CacheCancelLookup, prompt_tokens, lease.cached_tokens, 0);
  release(lease);
}

std::string PrefixCache::check_invariants() const {
  // The tree's check walks every slot and cross-checks its pinned and
  // per-tier counters against the walk; the ledger below then compares
  // those counters with the pool and tier accounting.
  const std::string tree = tree_.check_invariants();
  if (!tree.empty()) return "tree: " + tree;
  const std::size_t resident = tree_.num_blocks();
  const std::uint64_t pins = tree_.total_ref_count();
  // Tier ledger: every resident block lives in exactly one configured
  // tier, each tier's walked total matches its pool, and no tier holds
  // more than its capacity.
  const auto fail = [](std::size_t tier, const char* what) {
    return "tier " + std::to_string(tier) + ": " + what;
  };
  std::size_t total = 0;
  for (std::size_t tier = 0; tier < kMaxTiers; ++tier) {
    const std::size_t blocks =
        tree_.tier_blocks(static_cast<std::uint8_t>(tier));
    total += blocks;
    if (tier >= pools_.size()) {
      if (blocks > 0) return fail(tier, "holds blocks but is not configured");
      continue;
    }
    if (blocks != pools_[tier].used())
      return fail(tier, "ledger out of sync with its pool");
    const std::size_t cap = tier_capacity(tier);
    if (cap > 0 && blocks > cap) return fail(tier, "over capacity");
  }
  if (total != resident) return "tier totals do not sum to resident blocks";
  if (stats_.inserted_blocks - stats_.evicted_blocks != resident)
    return "inserted - evicted does not equal resident blocks";
  if (pins != outstanding_pins_)
    return "tree pin count out of sync with outstanding leases";
  return std::string();
}

std::size_t PrefixCache::blocks_needed(std::size_t n_tokens,
                                       std::size_t cached_tokens) const {
  const std::size_t full = n_tokens / config_.block_size;
  const std::size_t have = cached_tokens / config_.block_size;
  return full > have ? full - have : 0;
}

}  // namespace llmq::cache
