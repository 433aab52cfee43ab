#pragma once
// The one lane-kernel source behind every vector tier of align_lanes.hpp:
// SW, NW and semi-global as templates over a vector-traits type T. A tier
// is a traits struct plus one lane_kernels<T>() instantiation, compiled in
// a translation unit with that tier's ISA flags.
//
// T supplies:
//
//   kLanes              int16 lanes per vector
//   V                   kLanes x int16
//   M                   live-lane mask
//   load(p), store(p, v), set1(x)
//   add, sub            wrapping int16 arithmetic (never wraps here, see
//                       below)
//   max, min            signed int16 lane max/min
//   mask(live)          M from a per-lane 0 / -1 int16 array
//   select(m, a, b)     a on live lanes, b on dead ones
//   min_live(m, acc, v) min(acc, v) on live lanes, acc on dead ones
//   max_live(m, acc, v) max(acc, v) on live lanes, acc on dead ones
//   railed(mn, mx)      bit l set when mn[l] <= kFloor16 or mx[l] >= kSat16
//   Lookup              the substitution source (ColumnProfile<T> below,
//                       or a tier's own):
//                         Lookup(const QueryProfile&)
//                         column(sym)  the next DP column's subject symbol
//                                      per lane (kLanes bytes)
//                         at(i)        V of score(query[i], sym[l])
//
// Correctness of the int16 rails (docs/KERNELS.md): H is clamped into
// [kFloor16, kSat16] (SW: [0, kSat16]) every cell. Given lane_safe()
// (|sub| <= 500, 0 <= oe, ext <= 4000) no intermediate leaves int16:
//   H - oe        >= kFloor16 - 4000           = -20000
//   E, F          >= kFloor16 - 4000 (max with H - oe pulls them back)
//   E - ext       >= kFloor16 - 8000           = -24000
//   Hdiag + sub   >= kFloor16 + kFloor16       = -32000  (pad column)
//   Hdiag + sub   <= kSat16 + 500              =  32500
// A clamped E or F can only corrupt H by dragging it onto the floor rail,
// and the global kernels track min/max of every live H cell, so any lane
// whose state touched a rail is flagged and re-run exactly by the caller.
//
// Column orientation matches the exact profile kernels: column t holds
// H(query position i, subject position t+1); F gaps consume the query
// (serial in i, carried in a register), E gaps consume the subject
// (carried across columns per i, in scratch.e16). H(i-1, t+1) is also
// carried in a register rather than re-loaded from the row just stored,
// which keeps a store-to-load forward off the serial F chain.

#include "bio/align_lanes.hpp"

namespace hdcs::bio::lanes {

template <class T>
struct LaneKernel {
  using V = typename T::V;
  static constexpr std::size_t L = T::kLanes;
  static_assert(L <= kBatchLanes && L <= 32, "railed is a 32-bit mask");

  /// Column t's subject symbol per lane (kPadSymbol once a lane is done)
  /// and its live flag (-1 while t < len, else 0).
  static void feed(const LaneBatch& b, std::size_t t, std::uint8_t* sym,
                   std::int16_t* live) {
    for (std::size_t l = 0; l < L; ++l) {
      const bool on = t < b.len[l];
      sym[l] = on ? b.seq[l][t] : kPadSymbol;
      live[l] = on ? std::int16_t{-1} : std::int16_t{0};
    }
  }

  /// Lane-parallel Smith–Waterman. Non-saturated lanes are exact: H >= 0
  /// always, so the floor rail is unreachable and the only clamp is the
  /// kSat16 ceiling, which the running maximum witnesses.
  static void sw(const QueryProfile& p, const LaneBatch& b, std::int16_t oe16,
                 std::int16_t ext16, AlignScratch& sc,
                 std::int16_t best[kBatchLanes]) {
    const std::size_t n = p.length();
    std::int16_t* const h = sc.h16.data();
    std::int16_t* const e = sc.e16.data();
    const V vzero = T::set1(0);
    const V vfloor = T::set1(kFloor16);
    for (std::size_t i = 0; i <= n; ++i) {
      T::store(h + i * L, vzero);
      T::store(e + i * L, vfloor);
    }
    const V voe = T::set1(oe16);
    const V vext = T::set1(ext16);
    const V vsat = T::set1(kSat16);
    V vbst = vzero;
    typename T::Lookup lookup(p);
    alignas(64) std::uint8_t sym[L];
    alignas(64) std::int16_t live[L];

    for (std::size_t t = 0; t < b.max_len; ++t) {
      feed(b, t, sym, live);
      lookup.column(sym);
      V vf = vfloor;     // F(0, j) = -inf
      V vhdiag = vzero;  // H(0, j-1) = 0
      V vhup = vzero;    // H(0, j) = 0
      for (std::size_t i = 1; i <= n; ++i) {
        vf = T::max(T::sub(vhup, voe), T::sub(vf, vext));
        const V vold = T::load(h + i * L);  // H(i, j-1)
        const V ve = T::max(T::sub(vold, voe),
                            T::sub(T::load(e + i * L), vext));
        V vhn = T::max(T::add(vhdiag, lookup.at(i - 1)), ve);
        vhn = T::max(vhn, vzero);
        vhn = T::min(T::max(vhn, vf), vsat);
        vhdiag = vold;
        vhup = vhn;
        T::store(h + i * L, vhn);
        T::store(e + i * L, ve);
        vbst = T::max(vbst, vhn);
      }
    }
    T::store(best, vbst);
  }

  /// Shared NW / semi-global lane kernel.
  ///
  /// kSemi == false (NW): H(0, t) = -(oe + (t-1)ext), answer H(n, len).
  /// kSemi == true  (SG): H(0, t) = 0,  answer max over t <= len of H(n, t).
  /// Both share the penalized init column H(i, 0) = -(oe + (i-1)ext).
  template <bool kSemi>
  static void global(const QueryProfile& p, const LaneBatch& b,
                     std::int16_t oe16, std::int16_t ext16, AlignScratch& sc,
                     std::int16_t out[kBatchLanes], std::uint32_t* railed) {
    const std::size_t n = p.length();
    std::int16_t* const h = sc.h16.data();
    std::int16_t* const e = sc.e16.data();
    const V vzero = T::set1(0);
    const V vfloor = T::set1(kFloor16);
    for (std::size_t i = 0; i <= n; ++i) {
      // Caller prechecked oe + n*ext < -kFloor16, so this cast is exact.
      auto hv = static_cast<std::int16_t>(
          i == 0 ? 0 : -(oe16 + static_cast<std::int32_t>(i - 1) * ext16));
      T::store(h + i * L, T::set1(hv));
      T::store(e + i * L, vfloor);  // E(i, 0) = -inf
    }

    const V voe = T::set1(oe16);
    const V vext = T::set1(ext16);
    const V vsat = T::set1(kSat16);
    V vminacc = vzero;
    V vmaxacc = vzero;
    // Semi-global answers include the t = 0 term H(n, 0) (subject fully
    // skipped); NW answers are captured when a lane reaches its length, and
    // lanes with len 0 stay 0.
    V vbest = kSemi ? T::load(h + n * L) : vzero;
    if constexpr (!kSemi) T::store(out, vzero);
    typename T::Lookup lookup(p);
    alignas(64) std::uint8_t sym[L];
    alignas(64) std::int16_t live[L];

    for (std::size_t t = 0; t < b.max_len; ++t) {
      feed(b, t, sym, live);
      lookup.column(sym);
      const auto m = T::mask(live);
      // Boundary row 0 for this column: H(0, t+1). Bounded by the longest
      // lane's precheck, so the int16 cast is exact.
      const V vh0 = T::set1(static_cast<std::int16_t>(
          kSemi ? 0 : -(oe16 + static_cast<std::int32_t>(t) * ext16)));
      V vf = vfloor;             // F(0, t+1) = -inf
      V vhdiag = T::load(h);     // H(0, t)
      V vhup = vh0;              // H(0, t+1)
      T::store(h, vh0);
      for (std::size_t i = 1; i <= n; ++i) {
        vf = T::max(T::sub(vhup, voe), T::sub(vf, vext));
        const V vold = T::load(h + i * L);  // H(i, t)
        const V ve = T::max(T::sub(vold, voe),
                            T::sub(T::load(e + i * L), vext));
        V vhn = T::max(T::add(vhdiag, lookup.at(i - 1)), ve);
        vhn = T::max(vhn, vfloor);
        vhn = T::min(T::max(vhn, vf), vsat);
        vhdiag = vold;
        vhup = vhn;
        T::store(h + i * L, vhn);
        T::store(e + i * L, ve);
        // Rail witness, live lanes only (pad columns clamp by design).
        vminacc = T::min_live(m, vminacc, vhn);
        vmaxacc = T::max_live(m, vmaxacc, vhn);
      }
      if constexpr (kSemi) {
        vbest = T::max(vbest, T::select(m, vhup, vfloor));
      } else {
        for (std::size_t l = 0; l < L; ++l) {
          if (b.len[l] == t + 1) out[l] = h[n * L + l];
        }
      }
    }
    if constexpr (kSemi) T::store(out, vbest);
    *railed = T::railed(vminacc, vmaxacc);
  }
};

/// SWIPE-style per-column score profile, the Lookup of tiers without a
/// kLanes-way 16-bit permute: once per DP column the lanes' subject
/// symbols expand into a [query symbol][lane] table (the query's distinct
/// residues only), so each cell's substitution vector is one aligned load
/// at the query residue instead of a kLanes-way scalar gather.
template <class T>
class ColumnProfile {
 public:
  explicit ColumnProfile(const QueryProfile& p)
      : p_(p), symbols_(p.query_symbols()), query_(p.query_symbol()) {}
  void column(const std::uint8_t* sym) {
    for (std::size_t l = 0; l < T::kLanes; ++l) {
      const std::int16_t* row = p_.pair_row16(sym[l]);
      for (std::size_t q = 0; q < symbols_; ++q) {
        table_[q * T::kLanes + l] = row[q];
      }
    }
  }
  typename T::V at(std::size_t i) const {
    return T::load(table_ + query_[i] * T::kLanes);
  }

 private:
  const QueryProfile& p_;
  std::size_t symbols_;
  const std::uint8_t* query_;
  alignas(64) std::int16_t table_[ScoringScheme::kAlphabetSize * T::kLanes];
};

/// The kernel table of tier T.
template <class T>
const Kernels& lane_kernels() {
  static const Kernels k{T::kLanes, &LaneKernel<T>::sw,
                         &LaneKernel<T>::template global<false>,
                         &LaneKernel<T>::template global<true>};
  return k;
}

}  // namespace hdcs::bio::lanes
