#pragma once
// Lane-parallel int16 alignment kernels behind the runtime SIMD dispatch
// (util/simd.hpp). Every vector tier is one instantiation of the lane
// kernel template in align_lanes_kernel.hpp over a vector-traits type:
//
//   portable_kernels()  16 lanes of plain int16 arrays, auto-vectorized at
//                       the baseline target ISA (the "sse2" tier)
//   avx2_kernels()      16 lanes in one ymm (-mavx2 translation unit)
//   avx512_kernels()    32 lanes in one zmm (-mavx512bw translation unit)
//
// The AVX tables forward to the portable one when the binary was built
// without that ISA; the dispatch never selects them on such hosts anyway.
// All tables implement the same contract (docs/KERNELS.md):
//
//   sw  Smith–Waterman. best[l] is the lane's running maximum clamped to
//       [0, kSat16]; best[l] >= kSat16 means the lane saturated and must
//       be re-run exactly. Otherwise best[l] is the exact score.
//   nw  Needleman–Wunsch (global). out[l] = H(n, len[l]); bit l of
//       *railed set when the lane's clamped state touched kFloor16 or
//       kSat16 inside the lane's live region — the int16 value may then
//       be wrong and the caller re-runs the lane in int64.
//   sg  Semi-global (query global, subject ends free): out[l] =
//       max over t <= len[l] of H(n, t); same rail contract as nw.
//
// Callers must guarantee, per lane: len >= 1, profile.lane_safe(), and
// oe + max(query_len, len) * ext < -kFloor16 so every boundary cell is
// representable without clamping (batch_align_scores prechecks this and
// routes ineligible lanes straight to the exact kernels). Per call:
// scratch.h16 and scratch.e16 hold at least (query_len + 1) * lanes
// entries, and best/out have room for kBatchLanes values.

#include "bio/align_batch.hpp"
#include "util/simd.hpp"

namespace hdcs::bio::lanes {

/// Up to kBatchLanes encoded subjects advancing in lockstep. Unused lanes
/// have len == 0, are fed kPadSymbol columns and never touch seq[].
struct LaneBatch {
  const std::uint8_t* seq[kBatchLanes] = {};
  std::size_t len[kBatchLanes] = {};
  std::size_t max_len = 0;
};

using SwFn = void (*)(const QueryProfile&, const LaneBatch&, std::int16_t oe,
                      std::int16_t ext, AlignScratch&,
                      std::int16_t best[kBatchLanes]);
using GlobalFn = void (*)(const QueryProfile&, const LaneBatch&,
                          std::int16_t oe, std::int16_t ext, AlignScratch&,
                          std::int16_t out[kBatchLanes], std::uint32_t* railed);

struct Kernels {
  std::size_t lanes;  // subjects per call, <= kBatchLanes
  SwFn sw;
  GlobalFn nw;
  GlobalFn sg;
};

const Kernels& portable_kernels();
const Kernels& avx2_kernels();
const Kernels& avx512_kernels();

/// The table a dispatch tier runs; nullptr for kScalar (no lanes at all).
const Kernels* kernels_for(SimdTier tier);

}  // namespace hdcs::bio::lanes
