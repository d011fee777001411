#include <cstdio>

#include "bench.hpp"

namespace perfbench {

using llmq::obs::EventKind;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Data: return "data";
    case Layer::ServeGen: return "serve.gen";
    case Layer::Core: return "core";
    case Layer::Query: return "query";
    case Layer::Tokenizer: return "tokenizer";
    case Layer::Llm: return "llm";
    case Layer::Cache: return "cache";
    case Layer::Serve: return "serve";
    case Layer::Bench: return "bench";
  }
  return "?";
}

namespace {

/// Layer a program-emitted trace event closes an interval for (see
/// README.md, "Attribution inside drivers").
Layer layer_of(EventKind k) {
  switch (k) {
    case EventKind::Enqueue:
    case EventKind::Admit:
    case EventKind::Defer:
    case EventKind::PrefillChunk:
    case EventKind::FirstToken:
    case EventKind::DecodeStep:
    case EventKind::Preempt:
    case EventKind::Resume:
    case EventKind::Finish:
      return Layer::Llm;
    case EventKind::CacheLookup:
    case EventKind::CacheAdmit:
    case EventKind::CacheRelease:
    case EventKind::CacheCancelLookup:
    case EventKind::CacheEvict:
    case EventKind::TierDemote:
    case EventKind::TierPromote:
      return Layer::Cache;
    case EventKind::WindowPlan:
      return Layer::Core;
    case EventKind::RouteDecision:
    case EventKind::TurnSpawn:
    case EventKind::ReplicaSpawn:
    case EventKind::ReplicaDrain:
    case EventKind::PrefixMigrate:
      return Layer::Serve;
  }
  return Layer::Bench;
}

}  // namespace

class Tracer::StampSink final : public llmq::obs::TraceSink {
 public:
  explicit StampSink(Tracer& t) : t_(t) {}
  void emit(const llmq::obs::TraceEvent& e) override { t_.on_event(e.kind); }

 private:
  Tracer& t_;
};

Tracer::Tracer()
    : origin_(Clock::now()), sink_(std::make_unique<StampSink>(*this)) {
  spans_.reserve(1 << 16);
}

Tracer::~Tracer() = default;

llmq::obs::TraceSink* Tracer::sink() { return sink_.get(); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t Tracer::begin(const char* name, Layer layer, std::uint64_t id) {
  const auto idx = static_cast<std::int32_t>(spans_.size());
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.id = id;
  s.start_ns = now_ns();
  spans_.push_back(s);
  charged_ns_.push_back(0);
  open_.push_back(idx);
  last_mark_ns_ = s.start_ns;
  return idx;
}

void Tracer::end(std::int32_t idx) {
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end_ns = now_ns();
  last_mark_ns_ = s.end_ns;
  open_.pop_back();
  const std::int64_t dur = s.end_ns - s.start_ns;
  layer_ns_[static_cast<std::size_t>(s.layer)] +=
      dur - charged_ns_[static_cast<std::size_t>(idx)];
  if (s.parent >= 0) charged_ns_[static_cast<std::size_t>(s.parent)] += dur;
}

void Tracer::on_event(EventKind k) {
  const std::int64_t now = now_ns();
  const std::int64_t dt = now - last_mark_ns_;
  last_mark_ns_ = now;
  const auto ki = static_cast<std::size_t>(k);
  ++event_count_[ki];
  event_ns_[ki] += dt;
  if (open_.empty()) return;
  const Layer l = layer_of(k);
  const std::int32_t top = open_.back();
  if (l == spans_[static_cast<std::size_t>(top)].layer) return;  // self time
  layer_ns_[static_cast<std::size_t>(l)] += dt;
  charged_ns_[static_cast<std::size_t>(top)] += dt;
}

double Tracer::span_seconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (s.end_ns >= s.start_ns && name == s.name) ns += s.end_ns - s.start_ns;
  return 1e-9 * static_cast<double>(ns);
}

std::uint64_t Tracer::total_events() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : event_count_) n += c;
  return n;
}

bool Tracer::write_json(const std::string& path,
                        const std::string& label) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"otherData\":{\"run\":\"%s\",\"layer_self_s\":{",
               label.c_str());
  for (std::size_t l = 0; l < kNumLayers; ++l)
    std::fprintf(f, "%s\"%s\":%.9f", l ? "," : "",
                 layer_name(static_cast<Layer>(l)),
                 layer_seconds(static_cast<Layer>(l)));
  std::fprintf(f, "},\"events\":{");
  bool first = true;
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    if (!event_count_[k]) continue;
    std::fprintf(f, "%s\"%s\":{\"count\":%llu,\"charged_s\":%.9f}",
                 first ? "" : ",", llmq::obs::to_string(static_cast<EventKind>(k)),
                 static_cast<unsigned long long>(event_count_[k]),
                 1e-9 * static_cast<double>(event_ns_[k]));
    first = false;
  }
  std::fprintf(f, "}},\n\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%llu}}",
                 i ? "," : "", s.name, layer_name(s.layer),
                 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                 s.parent, static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Outcome::fail(std::uint64_t requests, std::string why) {
  failed += requests;
  if (errors.size() < 8) errors.push_back(std::move(why));
}

const Metric* Outcome::find_sim(const std::string& name) const {
  for (const Metric& m : sim)
    if (m.name == name) return &m;
  return nullptr;
}

void require_same_sim(const Outcome& ref, Outcome& into, const char* what) {
  for (const Metric& m : into.sim) {
    const Metric* r = ref.find_sim(m.name);
    if (r && r->value != m.value) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: %s differs (%.17g vs %.17g)", what,
                    m.name.c_str(), m.value, r->value);
      into.fail(into.attempted - into.failed, buf);
      return;
    }
  }
}

}  // namespace perfbench
