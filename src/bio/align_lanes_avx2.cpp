// AVX2 tier of the lane kernels: 16 int16 lanes in one ymm.
//
// Substitution lookup is the per-column score profile (ColumnProfile in
// align_lanes_kernel.hpp): AVX2 has no 16-bit gather and no 16-bit
// permute across the whole register, so once per DP column the 16 lanes'
// subject symbols expand into a [query symbol][lane] table and each cell
// loads one row of it — one aligned vector load instead of 16 scalar
// loads and a store-forwarded reload.
//
// Compiled with -mavx2 (see src/bio/CMakeLists.txt) and nothing else: no
// -mfma. The dispatch (util/simd.hpp) only selects this table when cpuid
// reports AVX2. Toolchains that cannot target AVX2 compile the forwarding
// stub at the bottom instead.

#include "bio/align_lanes.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "bio/align_lanes_kernel.hpp"

namespace hdcs::bio::lanes {

namespace {

struct Avx2 {
  static constexpr std::size_t kLanes = 16;
  using V = __m256i;
  using M = __m256i;  // -1 on live lanes, 0 on dead ones

  static V load(const std::int16_t* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::int16_t* p, V v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V set1(std::int16_t x) { return _mm256_set1_epi16(x); }
  static V add(V a, V b) { return _mm256_add_epi16(a, b); }
  static V sub(V a, V b) { return _mm256_sub_epi16(a, b); }
  static V max(V a, V b) { return _mm256_max_epi16(a, b); }
  static V min(V a, V b) { return _mm256_min_epi16(a, b); }

  static M mask(const std::int16_t* live) { return load(live); }
  static V select(M m, V a, V b) { return _mm256_blendv_epi8(b, a, m); }
  // Dead lanes contribute 0, which never moves an accumulator that
  // started at 0 (min stays <= 0, max stays >= 0).
  static V min_live(M m, V acc, V v) {
    return min(acc, _mm256_and_si256(v, m));
  }
  static V max_live(M m, V acc, V v) {
    return max(acc, _mm256_and_si256(v, m));
  }
  static std::uint32_t railed(V mn, V mx) {
    const V low = _mm256_cmpgt_epi16(set1(kFloor16 + 1), mn);
    const V high = _mm256_cmpgt_epi16(mx, set1(kSat16 - 1));
    const auto bytes = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_or_si256(low, high)));
    std::uint32_t r = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      r |= ((bytes >> (2 * l)) & 1u) << l;
    }
    return r;
  }

  using Lookup = ColumnProfile<Avx2>;
};

}  // namespace

const Kernels& avx2_kernels() { return lane_kernels<Avx2>(); }

}  // namespace hdcs::bio::lanes

#else  // !defined(__AVX2__)

namespace hdcs::bio::lanes {

const Kernels& avx2_kernels() { return portable_kernels(); }

}  // namespace hdcs::bio::lanes

#endif
