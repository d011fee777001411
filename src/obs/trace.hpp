#pragma once
// Structured event tracing for the serving stack.
//
// Every lifecycle transition the engine, cache, scheduler, and fleet make
// — enqueue, admit, defer, prefill chunk, first token, decode step,
// preempt, resume, finish, cache lookup/admit/release/evict, route
// decision, window plan — can be emitted as a fixed-size TraceEvent
// stamped with the component's virtual clock. A trace is the causally
// ordered record behind the end-of-run aggregates: it answers "why was
// this tail request slow" (replay its span) and is what obs::audit_trace
// re-derives the run's ledgers from.
//
// Sink contract (near-zero cost when disabled): instrumented components
// hold a raw `TraceSink*` that is nullptr by default. Every emission
// site is guarded by one pointer test — no virtual call, no allocation,
// no formatting happens on the disabled path — and emission itself never
// mutates component state, so a traced run is bit-identical to an
// untraced one (tests/obs pins this). TraceLog, the standard sink, is a
// flat vector append.
//
// Determinism: the serving stack is a pure function of (seed, config),
// and events carry only virtual-clock times and integer payloads, so the
// serialized trace (export.hpp) is bit-identical across reruns — the
// property that makes a trace usable as a golden oracle.

#include <cstdint>
#include <vector>

namespace llmq::obs {

class TimeSeries;  // timeseries.hpp

/// Typed lifecycle events. Integer payload fields a/b/c are
/// per-kind (documented inline); `id` is the request id for request
/// events, the window ordinal for WindowPlan, 0 otherwise.
enum class EventKind : std::uint8_t {
  Enqueue,       // submitted to a session   a=prompt_tokens b=output_tokens
  Admit,         // admitted                 a=cached_tokens(this admission)
                 //                          b=first-pass line before admission
                 //                          c=bit0 resumed, bit1 chunked
  Defer,         // blocked on KV memory     a=blocks_needed b=blocks_used
                 //                          c=pool_blocks
  PrefillChunk,  // one chunk ran            a=tokens b=first-pass c=replay
  FirstToken,    // first output token       a=generated-so-far(=1)
  DecodeStep,    // one decode step          a=decode_batch b=retired
  Preempt,       // victim released its KV   a=generated c=1 if auto(engine)
  Resume,        // parked -> pending again  (explicit resume() only)
  Finish,        // retired                  a=output_tokens b=prompt_tokens
                 //                          c=cached(first admission)
  CacheLookup,   // pinned prefix probe      a=prompt_tokens b=hit_tokens
                 //                          c=pinned path blocks; cls=1 when
                 //                          a resume probe (no stats counted)
  CacheAdmit,    // blocks inserted          a=new_blocks b=path_after
                 //                          c=path_before (pin delta = b-c)
  CacheRelease,  // lease unpinned           a=path blocks unpinned
  CacheCancelLookup,  // deferred request undid its lookup stats
                      // a=prompt_tokens b=hit_tokens (the internal release
                      // emits its own CacheRelease for the pins)
  CacheEvict,    // LRU eviction             a=blocks evicted b=tier they
                 //                          died at (0=GPU, bottom-tier
                 //                          overflow on a tiered cache)
  RouteDecision, // fleet routed a request   a=chosen replica b=peek tokens
                 //                          c=outstanding prompt tokens at
                 //                          the chosen replica (global track)
  WindowPlan,    // scheduler emitted window id=ordinal a=window size
                 //                          b=policy c=still buffered
  TurnSpawn,     // session follow-up fed    id=child request id a=session
                 //                          b=turn c=parent request id
                 //                          (global track, time = child's
                 //                          arrival time)
  TierDemote,    // cold blocks pushed down  a=blocks b=destination tier
                 //                          (1=host 2=disk) c=source tier
  TierPromote,   // blocks pulled up to GPU  a=from host b=from disk
                 //                          c=path blocks after; cls=1 when
                 //                          a recompute refresh (unpriced)
  ReplicaSpawn,  // replica activated        a=active replicas after
                 //                          b=1 if warmed by migration
                 //                          (global track)
  ReplicaDrain,  // replica stopped routing  a=active replicas after
                 //                          (global track)
  PrefixMigrate, // hot prefixes landed      a=blocks transferred b=donor
                 //                          c=recipient (global track,
                 //                          time = dispatch observing
                 //                          the landing)
};

const char* to_string(EventKind k);

/// Track id for driver-level events (RouteDecision, WindowPlan) that run
/// on the merged clock rather than any one replica's session clock. The
/// merged clock can be ahead of a busy replica's clock, so these events
/// must not be interleaved into a replica track's monotone order.
inline constexpr std::uint32_t kGlobalTrack = 0xFFFFFFFFu;

/// Fixed-layout event record: a kind, the priority class where one
/// applies, the emitting track (replica index or kGlobalTrack), the
/// emitter's virtual-clock time, and three per-kind integer payloads.
struct TraceEvent {
  EventKind kind = EventKind::Enqueue;
  std::uint8_t cls = 0;       // PriorityClass ordinal where applicable
  std::uint32_t replica = 0;  // track: replica index or kGlobalTrack
  double time = 0.0;          // virtual seconds on the emitter's clock
  std::uint64_t id = 0;       // request id / window ordinal / 0
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Abstract sink. Implementations must not mutate traced components (the
/// purity tests compare traced vs untraced run results bit-for-bit).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& e) = 0;
};

/// The standard sink: an in-memory, append-only event log.
class TraceLog final : public TraceSink {
 public:
  void emit(const TraceEvent& e) override { events_.push_back(e); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent>& mutable_events() { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Observability wiring a driver (run_online / run_queries_served)
/// threads into the components it constructs. Both pointers nullable and
/// caller-owned; null sink + null timeseries is the default (and free).
struct TraceConfig {
  TraceSink* sink = nullptr;
  TimeSeries* timeseries = nullptr;
  /// Virtual-time gauge sampling interval; <= 0 disables sampling even
  /// when `timeseries` is set.
  double sample_interval_seconds = 0.25;

  bool enabled() const { return sink != nullptr; }
  bool sampling() const {
    return timeseries != nullptr && sample_interval_seconds > 0.0;
  }
};

}  // namespace llmq::obs
