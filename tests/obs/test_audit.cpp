// Trace auditor: replaying a run's event log must independently re-derive
// the engine's exactly-once ledgers — and a corrupted log must be caught.
//
// The auditor sees only events (no engine state); equating its re-derived
// totals with EngineMetrics proves the emission sites tell the whole
// story: every prompt token cached or computed exactly once, every pin
// balanced by an unpin, every decoded token owned by a finished request.

#include <gtest/gtest.h>

#include "obs/audit.hpp"
#include "serving_fixture.hpp"

namespace llmq::obs {
namespace {

void expect_matches_engine(const AuditResult& audit,
                           const serve::OnlineRunResult& r) {
  EXPECT_TRUE(audit.ok()) << audit.first_violation();
  EXPECT_EQ(audit.unfinished, 0u);
  EXPECT_EQ(audit.finished, r.requests.size());

  EXPECT_EQ(audit.prompt_tokens, r.engine.prompt_tokens);
  EXPECT_EQ(audit.cached_prompt_tokens, r.engine.cached_prompt_tokens);
  EXPECT_EQ(audit.computed_prompt_tokens, r.engine.computed_prompt_tokens);
  EXPECT_EQ(audit.output_tokens, r.engine.output_tokens);
  EXPECT_EQ(audit.recompute_tokens, r.engine.recompute_prefill_tokens);
  EXPECT_EQ(audit.preemptions, r.engine.preemptions);

  EXPECT_EQ(audit.cache_lookups, r.engine.cache.lookups);
  EXPECT_EQ(audit.cache_hit_tokens, r.engine.cache.hit_tokens);
  EXPECT_EQ(audit.cache_inserted_blocks, r.engine.cache.inserted_blocks);
  EXPECT_EQ(audit.cache_evicted_blocks, r.engine.cache.evicted_blocks);
  EXPECT_EQ(audit.pin_balance, 0);

  EXPECT_EQ(audit.windows, r.windows);
  // Every enqueued request was dispatched through exactly one route
  // decision, at every replica count (the auditor checks each decision
  // matches the replica it was then enqueued on; here we check the count).
  EXPECT_EQ(audit.route_decisions, audit.enqueued);
  for (std::size_t c = 0; c < r.per_class.size(); ++c)
    EXPECT_EQ(audit.per_class_finished[c], r.per_class[c].requests)
        << "class " << c;
}

TEST(TraceAudit, ConfirmsLedgersOnPreemptionRun) {
  const auto run = obs_test::run_traced(1, /*preemption=*/true, /*chunk=*/0);
  ASSERT_GT(run.result.engine.preemptions, 0u);  // resume ledger exercised
  expect_matches_engine(audit_trace(run.log), run.result);
}

TEST(TraceAudit, ConfirmsLedgersOnChunkedPrefillRun) {
  const auto run = obs_test::run_traced(1, /*preemption=*/true, /*chunk=*/64);
  ASSERT_GT(run.result.engine.chunked_prefill_tokens, 0u);
  expect_matches_engine(audit_trace(run.log), run.result);
}

TEST(TraceAudit, ConfirmsLedgersOnReplicatedRun) {
  // Four replicas: per-request ledgers span tracks, route decisions ride
  // the global track, and the merged EngineMetrics sums all sessions.
  const auto run = obs_test::run_traced(4, /*preemption=*/true, /*chunk=*/0);
  expect_matches_engine(audit_trace(run.log), run.result);
}

TEST(TraceAudit, FlagsCorruptedTrace) {
  const auto run = obs_test::run_traced(1, /*preemption=*/true, /*chunk=*/0);
  ASSERT_TRUE(audit_trace(run.log).ok());

  // Mutating a single event must be caught — the ledgers are exact, not
  // statistical. One mutation per corruption mode, each on a fresh copy.
  {
    TraceLog log = run.log;  // a Finish claiming a different prompt length
    for (TraceEvent& e : log.mutable_events())
      if (e.kind == EventKind::Finish) {
        ++e.b;
        break;
      }
    EXPECT_FALSE(audit_trace(log).ok());
  }
  {
    TraceLog log = run.log;  // a decode step inventing an extra token
    for (TraceEvent& e : log.mutable_events())
      if (e.kind == EventKind::DecodeStep) {
        ++e.a;
        break;
      }
    EXPECT_FALSE(audit_trace(log).ok());
  }
  {
    TraceLog log = run.log;  // a timestamp stepping backwards on its track
    auto& events = log.mutable_events();
    for (std::size_t i = 1; i < events.size(); ++i) {
      bool seen_track = false;
      for (std::size_t j = 0; j < i; ++j)
        if (events[j].replica == events[i].replica &&
            events[j].time > 0.0) {
          seen_track = true;
          break;
        }
      if (seen_track) {
        events[i].time = -1.0;
        break;
      }
    }
    EXPECT_FALSE(audit_trace(log).ok());
  }
}

}  // namespace
}  // namespace llmq::obs
