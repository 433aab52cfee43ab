#pragma once
// High-throughput batch alignment kernels — DSEARCH's hot path.
//
// The scalar kernels in bio/align.hpp score one (query, subject) pair at a
// time, call ScoringScheme::score() per DP cell and allocate fresh rows per
// pair. This layer restructures that work for throughput (docs/KERNELS.md):
//
//   1. Sequences are encoded once into the scheme's packed alphabet and the
//      query becomes a *score profile* — a (symbol x query-position) table —
//      so the inner loop is a pure array walk.
//   2. SW, NW and semi-global all run in lane-parallel int16 kernels:
//      16 or 32 database sequences (one per lane) advance in lockstep,
//      one DP column per step, packed in length-sorted order so the lanes
//      of a batch finish together. The kernels live behind the runtime
//      SIMD dispatch (util/simd.hpp): AVX-512BW (32 lanes), AVX2 and
//      portable (16 lanes) tiers instantiated from one kernel template,
//      and a scalar tier that skips the lanes entirely.
//   3. int16 saturation is detected per lane — SW by its clamped running
//      best reaching kSat16, NW/semi-global by any live H cell touching
//      the kFloor16/kSat16 rails — and flagged lanes are re-run through
//      the exact int64 kernels, so every tier's results are bit-identical
//      to bio/align.hpp (see align_lanes.hpp and docs/KERNELS.md).
//   4. All per-pair allocation is hoisted into AlignScratch, one per thread.
//
// batch_align_scores() is the only entry point DSEARCH needs; everything
// else is exposed for tests and benchmarks.

#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bio/align.hpp"
#include "bio/scoring.hpp"

namespace hdcs::bio {

/// Lanes of the widest int16 lane kernel: 32 int16 values fill one
/// AVX-512 register. Sizes every per-batch lane array; each tier's kernel
/// table (bio/align_lanes.hpp) says how many of them it actually uses.
inline constexpr std::size_t kBatchLanes = 32;

/// Profile symbols: every ScoringScheme index plus one trailing padding
/// symbol. Finished lanes are fed kPadSymbol, whose profile column is
/// kFloor16 everywhere — a padded column can never raise a local score.
inline constexpr std::size_t kProfileSymbols = ScoringScheme::kAlphabetSize + 1;
inline constexpr std::uint8_t kPadSymbol =
    static_cast<std::uint8_t>(ScoringScheme::kAlphabetSize);

/// Entries per query-row profile row: one zmm of int16, indexed by subject
/// symbol with a 32-way permute, so every profile symbol must fit.
inline constexpr std::size_t kProfileRow = 32;
static_assert(kProfileSymbols <= kProfileRow);

/// Allocator for lane state and profile rows: 64-byte alignment keeps
/// every 32-lane int16 row inside one cache line.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }
  friend bool operator==(CacheAlignedAllocator, CacheAlignedAllocator) {
    return true;
  }
};
using LaneVector =
    std::vector<std::int16_t, CacheAlignedAllocator<std::int16_t>>;

/// int16 domain: H is clamped into [0, kSat16]. Scores grow by bounded
/// per-cell steps, so if a lane's running best stays below kSat16 no clamp
/// ever fired and the int16 result is exact; otherwise the lane saturated
/// and is recomputed in int64.
inline constexpr std::int16_t kSat16 = 32000;

/// "Half minus-infinity" for int16 state: loses every max() against a real
/// cell, yet one more gap subtraction cannot underflow the type.
inline constexpr std::int16_t kFloor16 = -16000;

/// Encode residues as ScoringScheme packed indices.
void encode_residues(std::string_view seq, std::vector<std::uint8_t>& out);

/// Per-query score profile, built once per (query, scheme) and reused
/// across the whole database. Three layouts of score(query[i], symbol):
///
///   column32  symbol-major int32, one contiguous column per subject
///             residue (the exact int64 profile kernels)
///   row16     query-position-major int16, kProfileRow entries per
///             position indexed by subject symbol (AVX-512 permute lookup)
///   pair_row16 + query_symbol  the query's distinct residues only: a
///             (subject symbol x query symbol) table and the query as
///             indices into it, from which a lane kernel builds one
///             [query symbol][lane] table per DP column (AVX2, portable)
class QueryProfile {
 public:
  QueryProfile(std::string_view query, const ScoringScheme& scheme);

  [[nodiscard]] std::size_t length() const { return n_; }
  [[nodiscard]] const std::string& query() const { return query_; }
  /// False when matrix entries or gap costs are too large for the int16
  /// lane kernel's no-overflow guarantees; batch falls back to int64.
  [[nodiscard]] bool lane_safe() const { return lane_safe_; }

  [[nodiscard]] const std::int32_t* column32(std::uint8_t symbol) const {
    return profile32_.data() + static_cast<std::size_t>(symbol) * n_;
  }
  [[nodiscard]] const std::int16_t* row16(std::size_t i) const {
    return rows16_.data() + i * kProfileRow;
  }

  /// Distinct residues in the query (at most kAlphabetSize).
  [[nodiscard]] std::size_t query_symbols() const { return query_symbols_; }
  /// Per query position, its residue's index among the query_symbols().
  [[nodiscard]] const std::uint8_t* query_symbol() const {
    return query_symbol_.data();
  }
  /// score(query symbol q, subject symbol) for q < query_symbols();
  /// kFloor16 throughout for kPadSymbol.
  [[nodiscard]] const std::int16_t* pair_row16(std::uint8_t symbol) const {
    return pairs16_.data() +
           static_cast<std::size_t>(symbol) * ScoringScheme::kAlphabetSize;
  }

 private:
  std::string query_;
  std::size_t n_ = 0;
  bool lane_safe_ = true;
  std::size_t query_symbols_ = 0;
  std::vector<std::int32_t> profile32_;   // [symbol][query position]
  LaneVector rows16_;                     // [query position][kProfileRow]
  std::vector<std::uint8_t> query_symbol_;
  std::vector<std::int16_t> pairs16_;     // [symbol][query symbol]
};

/// Work/saturation accounting for one batch call. The caller (DSEARCH)
/// forwards these into the obs registry as align.cells_total and
/// align.batch_saturations; bio itself stays observability-free.
struct BatchMetrics {
  std::uint64_t cells = 0;        // semantic DP cells (query_len x subject_len)
  std::uint64_t saturations = 0;  // int16 lanes re-run through int64 (any mode)
};

/// Reusable per-thread DP state. Buffers grow to the largest problem seen
/// and are never shrunk; one AlignScratch per thread, never shared.
struct AlignScratch {
  LaneVector h16, e16;                    // int16 lane state, (n+1) x lanes
  std::vector<std::uint8_t> enc;          // encoded subjects, concatenated
  std::vector<std::size_t> enc_offset;    // per-subject offsets into enc
  std::vector<std::size_t> order;         // length-sorted packing order
  // int64 rows for the profile kernels (two H rows ping-ponged + one F row).
  std::vector<std::int64_t> row_h, row_h2, row_f;
};

/// Score every subject in `db` against the profile's query. Results are
/// bit-identical to calling the corresponding bio/align.hpp scalar kernel
/// (via align_score) per pair, in the same order as `db`.
/// `band` is the requested band for AlignMode::kBanded (widened exactly as
/// align_score widens it); ignored otherwise.
std::vector<std::int64_t> batch_align_scores(
    AlignMode mode, const QueryProfile& profile,
    std::span<const std::string_view> db, const ScoringScheme& scheme,
    std::size_t band, AlignScratch& scratch, BatchMetrics* metrics = nullptr);

// ---- exposed for tests/benchmarks ----

/// Transposed (subject-major) profile kernels; exact int64 arithmetic.
std::int64_t nw_score_profile(const QueryProfile& profile,
                              std::span<const std::uint8_t> subject,
                              const ScoringScheme& scheme, AlignScratch& scratch);
std::int64_t semiglobal_score_profile(const QueryProfile& profile,
                                      std::span<const std::uint8_t> subject,
                                      const ScoringScheme& scheme,
                                      AlignScratch& scratch);

}  // namespace hdcs::bio
