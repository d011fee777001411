#pragma once
// Per-tenant running output-length prediction.
//
// Generation length is unknown at admission time, yet it is the single
// biggest lever on queueing delay: a 4-token interactive reply stuck
// behind a 512-token batch summary pays the whole decode. Real systems
// (vLLM's seq-length heuristics, learned proxies in S3/PiA) predict the
// output length and schedule shortest-predicted-job-first. We keep the
// predictor honest and cheap: an exponentially-weighted running mean of
// observed output lengths per tenant, plus an EWMA of the absolute error
// so a `mispredict_penalty` knob can pad unreliable tenants — penalty 0
// schedules on the raw mean, higher penalties are increasingly
// conservative (monotone in the knob, since the observations themselves
// never depend on it).
//
// Determinism contract: observe() is called by the drivers in oracle
// completion order (the bit-pinned merge order shared by the single-
// engine and replicated drivers), so predictor state — and therefore
// every SPJF decision — is identical across both.

#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace llmq::serve {

struct LengthPredictorOptions {
  bool enabled = false;
  /// Weight of the newest observation in the running mean/error.
  double ewma_alpha = 0.25;
  /// Pad predictions by this many mean-absolute-errors. 0 = raw mean.
  double mispredict_penalty = 0.0;
  /// Prediction for a tenant with no observations yet.
  double initial_estimate = 8.0;
};

class LengthPredictor {
 public:
  explicit LengthPredictor(LengthPredictorOptions opt = {}) : opt_(opt) {}

  bool enabled() const { return opt_.enabled; }
  const LengthPredictorOptions& options() const { return opt_; }

  /// Record a finished request's actual output length.
  void observe(std::uint32_t tenant, std::size_t output_tokens);

  /// mean + penalty * mean_abs_err, floored at 1 token. Monotone
  /// non-decreasing in mispredict_penalty for a fixed observation
  /// sequence.
  double predict(std::uint32_t tenant) const;

  /// Integer prediction for Request::predicted_output_tokens. 0 when the
  /// predictor is disabled — the engine and scheduler treat 0 as "no
  /// prediction" and fall back to exact FIFO order.
  std::size_t predict_tokens(std::uint32_t tenant) const;

  std::size_t observations(std::uint32_t tenant) const;

 private:
  struct State {
    double mean = 0.0;
    double abs_err = 0.0;
    std::size_t n = 0;
  };
  LengthPredictorOptions opt_;
  std::unordered_map<std::uint32_t, State> per_tenant_;
};

}  // namespace llmq::serve
