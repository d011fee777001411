#pragma once
// Timestamped request-arrival generation for the online serving subsystem.
//
// The paper's batch setting knows every request up front; a serving
// endpoint sees a *stream*. The workload generator turns a benchmark table
// into such a stream: each arrival names a table row, a tenant, and a
// simulated arrival time. Supported processes:
//
//   * Poisson  — homogeneous arrivals at `arrival_rate` req/s, the
//                standard open-loop serving model;
//   * Bursty   — on/off modulated Poisson: within each cycle a burst
//                phase of `burst_fraction` runs at `burst_multiplier`×
//                the base rate and the off phase is slowed so the mean
//                rate stays `arrival_rate` (diurnal / thundering-herd
//                traffic in miniature);
//   * traces   — arrivals_from_trace() wraps explicit timestamps so
//                recorded workloads can be replayed.
//
// Multi-tenancy: tenants are drawn per-arrival from a Zipf distribution
// over `n_tenants` ranks (util/zipf) — a few hot tenants dominate, the
// realistic skew for shared serving endpoints. Everything is a pure
// function of the seed.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "llm/request.hpp"
#include "table/table.hpp"
#include "tokenizer/tokenizer.hpp"

namespace llmq::serve {

enum class ArrivalProcess { Poisson, Bursty };

/// Sentinel for Arrival::session / Arrival::parent on one-shot streams.
inline constexpr std::uint64_t kNoSession =
    static_cast<std::uint64_t>(-1);

struct WorkloadOptions {
  ArrivalProcess process = ArrivalProcess::Poisson;
  double arrival_rate = 50.0;   // mean requests per simulated second

  // Bursty process shape (ignored for Poisson). burst_fraction *
  // burst_multiplier must be <= 1 for the off phase to keep the mean; the
  // off-phase rate is floored at 0 otherwise.
  double burst_fraction = 0.2;
  double burst_multiplier = 4.0;
  double cycle_seconds = 2.0;

  std::size_t n_tenants = 1;
  double tenant_skew = 1.0;     // Zipf exponent over tenant ranks

  /// Priority lane per tenant: tenant t gets tenant_classes[t % size()].
  /// Empty = every arrival is Standard (the classic single-class stream).
  /// This is the "derivable per tenant" mapping of DESIGN.md §5 — a
  /// tenant is an interactive product surface, a standard API key, or a
  /// batch analytics pipeline.
  std::vector<llm::PriorityClass> tenant_classes;

  /// Arrivals to generate; 0 = one per table row. When it exceeds the row
  /// count, the row visit order wraps (repeat traffic).
  std::size_t n_requests = 0;
  /// Visit rows in a seeded random permutation (true) or in table order
  /// (false — useful for tests comparing against offline planners).
  bool shuffle_rows = true;

  std::uint64_t seed = 42;
};

struct Arrival {
  std::uint64_t id = 0;     // unique per stream (sequence number)
  double time = 0.0;        // simulated seconds since stream start
  std::size_t row = 0;      // row of the backing table
  std::uint32_t tenant = 0; // 0 is the hottest rank under Zipf skew
  /// Scheduling class (WorkloadOptions::tenant_classes or caller-set).
  llm::PriorityClass priority = llm::PriorityClass::Standard;

  // Session linkage (kNoSession / turn 0 for classic one-shot arrivals).
  // A follow-up turn's prompt extends its parent's prompt+output, so the
  // driver cannot render it up front: follow-ups materialize as *feedback
  // arrivals* when the parent completes (see SessionWorkload).
  std::uint64_t session = kNoSession;  // session id (== root arrival id)
  std::uint32_t turn = 0;              // 0 = session root
  std::uint64_t parent = kNoSession;   // arrival id of the previous turn
};

/// Generate a stream over a table of `n_rows` rows; arrivals are sorted by
/// time (ids follow time order).
std::vector<Arrival> generate_arrivals(std::size_t n_rows,
                                       const WorkloadOptions& options = {});

// ---------------------------------------------------------------------------
// Multi-turn sessions & agentic loops.
//
// A session is a chain of dependent requests: turn k+1's prompt is turn
// k's full prompt plus turn k's generated output plus a fresh segment
// (the next user message, or a tool result). Only turn 0 has a static
// arrival time; turn k+1 arrives `gap_seconds` after turn k *finishes*,
// which the workload generator cannot know. The generator therefore
// emits the roots as a normal time-sorted stream plus a per-session
// *plan* of follow-ups; the online drivers turn each completion into a
// feedback arrival according to the plan.

enum class SessionKind {
  Chat,   // follow-up visits a fresh row (the user asks about new data)
  Agent,  // tool loop: each step re-examines the root row with the tool
          // result appended (ReAct-style observation/action cycles)
};

struct SessionOptions {
  SessionKind kind = SessionKind::Chat;
  /// Total turns per session, >= 1 (1 = plain one-shot stream).
  std::size_t turns = 3;
  /// Mean think-time (Chat) or tool latency (Agent) between a turn's
  /// completion and the next turn's arrival; exponential, floored at
  /// 1 ms so gaps are strictly positive (a follow-up turn always arrives
  /// strictly after its parent finishes).
  double mean_gap_seconds = 0.5;
};

struct FollowUpPlan {
  std::size_t row = 0;       // table row the follow-up segment renders
  double gap_seconds = 0.0;  // completion -> arrival delay (> 0)
};

struct SessionPlan {
  /// follow_ups[k] describes turn k+1 (empty = single-turn session).
  std::vector<FollowUpPlan> follow_ups;
};

/// A session workload: time-sorted roots (ids 0..n-1, turn 0) plus one
/// plan per root, indexed by session id == root arrival id.
struct SessionWorkload {
  std::vector<Arrival> roots;
  std::vector<SessionPlan> plans;
  SessionKind kind = SessionKind::Chat;
};

/// Generate a session workload over a table of `n_rows` rows. The roots
/// are bit-identical to generate_arrivals(n_rows, options) — a
/// turns == 1 session run is the same stream as the one-shot run it is
/// compared against. Follow-up rows/gaps come from an independent rng
/// fork, so changing SessionOptions never perturbs the roots.
SessionWorkload generate_sessions(std::size_t n_rows,
                                  const WorkloadOptions& options,
                                  const SessionOptions& sessions);

/// Deterministic synthetic output tokens for session turn chaining: the
/// simulated engine produces no real text, but a follow-up prompt must
/// extend parent prompt + parent *output*, token-exactly, in every
/// driver. Pure function of (session, turn, position); the ids are
/// well-mixed hashes, distinct per (session, turn), so two sessions never
/// share an output segment in the prefix cache.
tokenizer::TokenSeq synth_output_tokens(std::uint64_t session,
                                        std::uint32_t turn, std::size_t len);

/// The textual segment that introduces turn `turn` of a session (turn is
/// >= 1; rendered row JSON is appended after it by the driver).
std::string session_segment_label(SessionKind kind, std::uint32_t turn);

/// What a follow-up turn appends after its session prefix:
/// encode(session_segment_label(kind, turn) + render_row_json(t, row,
/// field_order)), assembled without rendering text. The label and the
/// row's opening brace are encoded together once per turn — the label
/// ends in a newline, so the brace is the space-prefixed ` {` token —
/// and the row body comes from the table's cached spans
/// (query::append_row_body).
class SessionTurnEncoder {
 public:
  explicit SessionTurnEncoder(SessionKind kind) : kind_(kind) {}

  void append(std::uint32_t turn, const table::Table& t, std::size_t row,
              std::span<const std::size_t> field_order,
              tokenizer::TokenSeq& out);

 private:
  SessionKind kind_;
  /// encode(label + "{") by turn; empty until the turn is first seen.
  std::vector<tokenizer::TokenSeq> label_open_;
};

/// Expand a tenant→class mapping (the WorkloadOptions::tenant_classes
/// rule: tenant t gets `tenant_classes[t % size()]`) into one class per
/// arrival, for traces recorded without an explicit class column. Empty
/// mapping = empty result (all-Standard).
std::vector<llm::PriorityClass> classes_for_tenants(
    const std::vector<std::uint32_t>& tenants,
    const std::vector<llm::PriorityClass>& tenant_classes);

/// Trace-driven stream: explicit non-decreasing timestamps. `rows` must be
/// the same length as `times`; `tenants` may be empty (all tenant 0).
/// `classes` is a per-arrival class column (same length as `times`, or
/// empty = every arrival Standard) — a recorded trace replays through the
/// priority path instead of silently flattening to all-Standard. For a
/// tenant-derived assignment, expand with classes_for_tenants(); the
/// length contract is strict because a tenant map the size of the trace
/// would otherwise be silently misread as a class column.
std::vector<Arrival> arrivals_from_trace(
    const std::vector<double>& times, const std::vector<std::size_t>& rows,
    const std::vector<std::uint32_t>& tenants = {},
    const std::vector<llm::PriorityClass>& classes = {});

}  // namespace llmq::serve
