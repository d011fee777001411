#pragma once
// Shared types of the llmq benchmark driver: layers, the span tracer,
// per-pass outcomes and the workload interface.

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds the calling thread has run. Every measured pass is
/// single-threaded, so this is its wall time minus the time the thread
/// was not running; on a shared virtual machine that includes the time
/// the hypervisor stole from the vCPU, which wall time would count.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Where wall time is charged: the llmq src/ modules a pass calls into,
/// plus the benchmark's own glue. ServeGen is serve's workload generator,
/// kept apart from the serving drivers because it runs during set-up.
enum class Layer : std::uint8_t {
  Data,
  ServeGen,
  Core,
  Query,
  Tokenizer,
  Llm,
  Cache,
  Serve,
  Bench,
};
inline constexpr std::size_t kNumLayers = 9;
const char* layer_name(Layer l);

inline constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(llmq::obs::EventKind::PrefixMigrate) + 1;

/// In-memory span recorder. Spans come from the benchmark's own calls
/// into llmq (Scope); inside a driver call, events the program already
/// emits reach sink(), which stamps each with the steady clock and
/// charges the wall time since the previous stamp to the event's layer.
/// Self time of a span = its duration minus its child spans and the
/// intervals its events charged to other layers.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    Layer layer = Layer::Bench;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t id = 0;
  };

  /// RAII span; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, Layer layer, std::uint64_t id = 0)
        : t_(t), idx_(t ? t->begin(name, layer, id) : -1) {}
    ~Scope() {
      if (t_) t_->end(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int32_t idx_;
  };

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int32_t begin(const char* name, Layer layer, std::uint64_t id);
  void end(std::int32_t idx);

  /// Event sink to bind into llmq's obs::TraceConfig / set_trace.
  llmq::obs::TraceSink* sink();

  const std::vector<Span>& spans() const { return spans_; }
  /// Self seconds per layer, over closed spans.
  double layer_seconds(Layer l) const {
    return 1e-9 * static_cast<double>(layer_ns_[static_cast<std::size_t>(l)]);
  }
  /// Summed duration of closed spans with this name.
  double span_seconds(const std::string& name) const;
  /// Events of one kind, and the wall seconds charged to them.
  std::uint64_t event_count(llmq::obs::EventKind k) const {
    return event_count_[static_cast<std::size_t>(k)];
  }
  double event_seconds(llmq::obs::EventKind k) const {
    return 1e-9 *
           static_cast<double>(event_ns_[static_cast<std::size_t>(k)]);
  }
  std::uint64_t total_events() const;

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool write_json(const std::string& path, const std::string& label) const;

 private:
  class StampSink;
  void on_event(llmq::obs::EventKind k);
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;        // stack of open span indices
  std::vector<std::int64_t> charged_ns_;  // per span: children + events
  std::int64_t last_mark_ns_ = 0;
  std::array<std::int64_t, kNumLayers> layer_ns_{};
  std::array<std::uint64_t, kNumEventKinds> event_count_{};
  std::array<std::int64_t, kNumEventKinds> event_ns_{};
  std::unique_ptr<StampSink> sink_;
};

/// A named value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one pass over a workload's inputs produced.
struct Outcome {
  /// Simulated LLM invocations completed (the req_per_s numerator).
  std::uint64_t invocations = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failed checks, for stderr
  /// Simulated results: pure functions of (seed, config), so every pass
  /// over the same inputs must reproduce them bit for bit.
  std::vector<Metric> sim;
  /// Layer counters read from llmq's result structs (also deterministic).
  std::vector<Metric> counters;
  /// Informational lines printed with the report (not compared).
  std::vector<std::string> notes;

  void fail(std::uint64_t requests, std::string why);
  const Metric* find_sim(const std::string& name) const;
};

/// Compare the simulated metrics two passes both report; a mismatch is
/// recorded on `into` as a failure of all of its requests.
void require_same_sim(const Outcome& ref, Outcome& into, const char* what);

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Generate every input from the seed. `tr` may be null.
  virtual void setup(std::uint64_t seed, Tracer* tr) = 0;
  /// The timed pass: llmq's public entry points over the inputs.
  virtual Outcome run() = 0;
  /// The per-layer pass: the same work, with each call into a layer made
  /// by the benchmark under a span and the program's events routed to the
  /// tracer's sink. `tr` null = untraced (the overhead baseline).
  virtual Outcome layered(Tracer* tr) = 0;
  /// Untimed checks after the timed phase that need an independent
  /// reference; may add simulated metrics run() cannot see.
  virtual void reference(Outcome& /*timed*/) {}
};

std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
