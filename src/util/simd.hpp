#pragma once
// Runtime SIMD dispatch: one tier selected at startup, every vectorized
// kernel (bio lane kernels, phylo partials kernels) branches on it once per
// batch, never per cell. Four tiers:
//
//   kScalar  exact reference paths, no lane kernels at all. Ground truth
//            for the equivalence tests and the degraded-hardware escape
//            hatch (HDCS_SIMD=scalar).
//   kSse2    portable fixed-width-lane kernels compiled at the baseline
//            target ISA (SSE2 on x86-64; whatever the baseline vector ISA
//            is elsewhere). Always available.
//   kAvx2    AVX2 kernels in dedicated -mavx2 translation units; selected
//            only when cpuid reports AVX2.
//   kAvx512  32-lane AVX-512BW alignment kernels (-mavx512bw translation
//            unit); selected only when cpuid reports AVX-512BW. Kernels
//            without an AVX-512 form (the likelihood partials) run their
//            AVX2 version at this tier.
//
// Selection order: HDCS_SIMD=scalar|sse2|avx2|avx512 if set (clamped down
// to what the hardware supports, with a warning), else the highest
// detected tier. The choice is cached after the first query;
// set_simd_tier()/ScopedSimdTier exist so tests and benchmarks can pin a
// tier without re-exec'ing under a different environment.
//
// Every tier produces bit-identical results: the alignment kernels are
// exact-or-fallback (int16 saturation reruns through int64), and the
// likelihood kernels preserve the scalar summation order and never use
// FMA contraction (docs/KERNELS.md).

#include <string_view>

namespace hdcs {

enum class SimdTier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

/// The tier every dispatching kernel uses (env override applied, cached).
SimdTier simd_tier();

/// Highest tier the hardware supports, ignoring the override.
SimdTier simd_tier_detected();

inline bool simd_tier_available(SimdTier t) {
  return static_cast<int>(t) <= static_cast<int>(simd_tier_detected());
}

/// Pin the tier at runtime (clamped to the detected ceiling). Not intended
/// for use while kernels are running on other threads.
void set_simd_tier(SimdTier t);

const char* to_string(SimdTier t);

/// Parse "scalar"/"sse2"/"avx2"/"avx512" (case-insensitive). False on junk.
bool parse_simd_tier(std::string_view text, SimdTier* out);

/// RAII tier pin for tests/benchmarks; restores the previous tier.
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(SimdTier t) : prev_(simd_tier()) { set_simd_tier(t); }
  ~ScopedSimdTier() { set_simd_tier(prev_); }
  ScopedSimdTier(const ScopedSimdTier&) = delete;
  ScopedSimdTier& operator=(const ScopedSimdTier&) = delete;

 private:
  SimdTier prev_;
};

}  // namespace hdcs
