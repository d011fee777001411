#pragma once
// Trace-driven invariant auditor.
//
// audit_trace() replays a TraceLog and independently re-derives the
// exactly-once ledgers the property-test suite pins against engine
// counters — from the events alone, with no access to engine state:
//
//   * per-track monotone virtual clocks (replica tracks and the driver's
//     global track each never step backwards);
//   * request lifecycle: exactly one Enqueue per id, a first admission
//     that is not a resume, resumes only after a preemption, at most one
//     Finish;
//   * the cached/computed prompt ledger: for every finished request,
//     cached + computed == prompt — under monolithic prefill computed is
//     prompt minus the first admission's cache hit; under chunking it is
//     the sum of first-pass chunk tokens, with the chunked-resume rule
//     (a resume whose cache coverage passed the request's first-pass
//     line books the difference as cached) replayed event-for-event;
//   * recompute attribution: replayed chunk tokens plus monolithic
//     resume prefills equal the engine's recompute counter;
//   * decode conservation: every decoded token belongs to a request that
//     eventually finishes, so summed DecodeStep batches equal summed
//     Finish outputs once nothing is left unfinished;
//   * the cache pin ledger: pins handed out by lookups and admissions
//     balance the unpins of releases (zero outstanding at quiescence);
//   * session turn chaining: a TurnSpawn rides the global track, names a
//     parent that already finished, spawns each session's turns
//     contiguously (1, 2, 3, ...) exactly once, and the child's later
//     Enqueue must carry a prompt at least the parent's prompt + output
//     (a follow-up extends its own history, never truncates it);
//   * exactly-once lookup stats: counted lookups are fresh lookups minus
//     deferred-admission cancellations, never resume probes;
//   * exactly-once tier transitions: per track, blocks promoted to (or
//     bottom-evicted from) a lower tier never exceed blocks demoted into
//     the lower tiers, and an intra-lower demotion (host -> disk) steps
//     exactly one tier down;
//   * elasticity chaining: every ReplicaSpawn / ReplicaDrain advances the
//     fleet's active count by exactly +-1 from the previous event, and a
//     PrefixMigrate moves a positive block count between two distinct
//     replicas on the global track.
//
// The re-derived totals are exposed so tests can equate them with
// EngineMetrics.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace llmq::obs {

struct AuditResult {
  /// Human-readable invariant violations, in detection order (capped;
  /// `violation_count` keeps the true total). Empty == the trace proves
  /// the ledgers.
  std::vector<std::string> violations;
  std::size_t violation_count = 0;

  std::size_t events = 0;
  std::size_t enqueued = 0;
  std::size_t finished = 0;
  std::size_t unfinished = 0;  // enqueued, no Finish (partial trace)
  std::array<std::size_t, 3> per_class_finished = {0, 0, 0};

  // Re-derived engine ledgers (admitted requests only, like the engine's
  // first-admission booking rule).
  std::uint64_t prompt_tokens = 0;
  std::uint64_t cached_prompt_tokens = 0;
  std::uint64_t computed_prompt_tokens = 0;
  std::uint64_t output_tokens = 0;  // summed DecodeStep batches
  std::uint64_t recompute_tokens = 0;
  std::uint64_t preemptions = 0;

  // Re-derived cache ledgers.
  std::uint64_t cache_lookups = 0;     // counted (fresh minus cancelled)
  std::uint64_t cache_hit_tokens = 0;  // counted hit tokens
  std::uint64_t cache_inserted_blocks = 0;
  std::uint64_t cache_evicted_blocks = 0;
  std::int64_t pin_balance = 0;  // pins minus unpins; 0 at quiescence

  // Re-derived tier ledgers (all zero on a flat-cache trace): every
  // promoted or bottom-evicted lower-tier block must earlier have been
  // demoted out of the GPU tier on the same track — the exactly-once
  // tier-transition rule.
  std::uint64_t tier_demoted_blocks = 0;   // GPU -> lower transitions
  std::uint64_t tier_promoted_blocks = 0;  // lower -> GPU transitions
  std::uint64_t tier_evicted_blocks = 0;   // died at a lower tier

  // Elasticity events: ReplicaSpawn/ReplicaDrain must chain the active
  // count (+1 / -1 per event); PrefixMigrate must move a positive block
  // count between two distinct replicas.
  std::size_t replica_spawns = 0;
  std::size_t replica_drains = 0;
  std::size_t prefix_migrations = 0;
  std::uint64_t migrated_blocks = 0;

  std::size_t windows = 0;
  std::size_t route_decisions = 0;
  std::size_t turn_spawns = 0;

  bool ok() const { return violation_count == 0; }
  std::string first_violation() const {
    return violations.empty() ? std::string() : violations.front();
  }
};

AuditResult audit_trace(const TraceLog& log);

}  // namespace llmq::obs
