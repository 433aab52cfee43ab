// AVX-512BW tier of the lane kernels: 32 int16 lanes in one zmm.
//
// Substitution lookup is one vpermw per cell: the 32 lanes' subject
// symbols form the permute index for the column, and the query-row-major
// profile row for query position i (QueryProfile::row16, kProfileRow = 32
// entries, one per subject symbol) is the table, so no per-column profile
// has to be built at all. Live lanes are an __mmask32, and the rail
// witness and railed bitmask come straight from mask-producing compares.
//
// Compiled with -mavx512bw (see src/bio/CMakeLists.txt) and nothing else:
// no -mfma. The dispatch (util/simd.hpp) only selects this table when
// cpuid reports AVX-512BW. Toolchains that cannot target it compile the
// forwarding stub at the bottom instead.

#include "bio/align_lanes.hpp"

#if defined(__AVX512BW__)

#include <immintrin.h>

#include "bio/align_lanes_kernel.hpp"

namespace hdcs::bio::lanes {

namespace {

struct Avx512 {
  static constexpr std::size_t kLanes = 32;
  using V = __m512i;
  using M = __mmask32;

  static V load(const std::int16_t* p) { return _mm512_load_si512(p); }
  static void store(std::int16_t* p, V v) { _mm512_store_si512(p, v); }
  static V set1(std::int16_t x) { return _mm512_set1_epi16(x); }
  static V add(V a, V b) { return _mm512_add_epi16(a, b); }
  static V sub(V a, V b) { return _mm512_sub_epi16(a, b); }
  static V max(V a, V b) { return _mm512_max_epi16(a, b); }
  static V min(V a, V b) { return _mm512_min_epi16(a, b); }

  static M mask(const std::int16_t* live) {
    return _mm512_movepi16_mask(load(live));
  }
  static V select(M m, V a, V b) { return _mm512_mask_blend_epi16(m, b, a); }
  static V min_live(M m, V acc, V v) {
    return _mm512_mask_min_epi16(acc, m, acc, v);
  }
  static V max_live(M m, V acc, V v) {
    return _mm512_mask_max_epi16(acc, m, acc, v);
  }
  static std::uint32_t railed(V mn, V mx) {
    return _mm512_cmple_epi16_mask(mn, set1(kFloor16)) |
           _mm512_cmpge_epi16_mask(mx, set1(kSat16));
  }

  class Lookup {
   public:
    explicit Lookup(const QueryProfile& p) : rows_(p.row16(0)) {}
    void column(const std::uint8_t* sym) {
      index_ = _mm512_cvtepu8_epi16(
          _mm256_load_si256(reinterpret_cast<const __m256i*>(sym)));
    }
    V at(std::size_t i) const {
      return _mm512_permutexvar_epi16(index_, load(rows_ + i * kProfileRow));
    }

   private:
    const std::int16_t* rows_;
    V index_ = _mm512_setzero_si512();
  };
};

}  // namespace

const Kernels& avx512_kernels() { return lane_kernels<Avx512>(); }

}  // namespace hdcs::bio::lanes

#else  // !defined(__AVX512BW__)

namespace hdcs::bio::lanes {

const Kernels& avx512_kernels() { return portable_kernels(); }

}  // namespace hdcs::bio::lanes

#endif
