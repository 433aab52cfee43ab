#pragma once
// Dispatched kernels for LikelihoodEngine's partials inner loop — the
// "multiply the child partials through the branch transition matrix"
// recursion that dominates DPRml's runtime.
//
// One call processes every pattern of one (child, rate-category) pair:
//
//   node[k*4 + i]  (op)=  sum_j pm[i*4 + j] * child[k*4 + j]
//
// for k in [0, count), where op is plain assignment for the first child
// (assign == true) and element-wise multiply-accumulate into the running
// product for later children. pm is the row-major 4x4 transition matrix.
//
// Every tier computes the sum in the identical association
// ((p0*c0 + p1*c1) + p2*c2) + p3*c3 and none is compiled with FMA
// contraction, so all tiers produce bit-identical doubles — the
// equivalence tests assert exact equality, not a tolerance.
//
//   scalar    the reference loop with auto-vectorization disabled
//             (HDCS_SIMD=scalar: genuinely scalar code)
//   portable  the same loop, compiler-vectorized at the baseline ISA
//   avx2      explicit 4-wide _mm256d intrinsics (broadcast-column form);
//             also the avx512 tier's kernel

#include <cstddef>

#include "util/simd.hpp"

namespace hdcs::phylo {

using PartialsCombineFn = void (*)(const double* pm, const double* child,
                                   double* node, std::size_t count,
                                   bool assign);

PartialsCombineFn partials_combine_scalar();
PartialsCombineFn partials_combine_portable();
PartialsCombineFn partials_combine_avx2();  // forwards to portable when the
                                            // binary lacks AVX2 codegen

/// The kernel for a dispatch tier (util/simd.hpp).
PartialsCombineFn partials_combine_for(SimdTier tier);

}  // namespace hdcs::phylo
