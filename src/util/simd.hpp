#pragma once
// Runtime SIMD instruction-set detection for the hot-path kernels.
//
// The dispatch rule (DESIGN.md §11): every vectorized kernel in
// util/token_ops.* exists in a scalar reference form whose result is the
// SPECIFICATION, and in ISA forms (AVX2 on x86-64, NEON on aarch64) that
// must be bit-identical to it — the prefix cache's behavior (match
// lengths, eviction order, trace bytes) must not
// depend on the machine the binary happens to run on. The ISA is picked
// once per process: compile-time on aarch64 (NEON is baseline there),
// cpuid at first use on x86-64. Setting LLMQ_SIMD=scalar in the
// environment forces the scalar path — the escape hatch the equivalence
// property tests and the microbench A/B comparisons use.

#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace llmq::util::simd {

enum class Isa : std::uint8_t { Scalar, Avx2, Neon };

inline const char* name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Neon: return "neon";
  }
  return "?";
}

namespace detail {
inline Isa detect() {
#if defined(__aarch64__) || defined(__ARM_NEON)
  return Isa::Neon;
#elif (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") ? Isa::Avx2 : Isa::Scalar;
#else
  return Isa::Scalar;
#endif
}
}  // namespace detail

/// The ISA the dispatched token_ops entry points run on. Cached after the
/// first call; honors LLMQ_SIMD=scalar.
inline Isa active_isa() {
  static const Isa isa = [] {
    const char* env = std::getenv("LLMQ_SIMD");
    if (env && std::strcmp(env, "scalar") == 0) return Isa::Scalar;
    return detail::detect();
  }();
  return isa;
}

}  // namespace llmq::util::simd
