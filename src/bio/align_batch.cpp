#include "bio/align_batch.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "bio/align_lanes.hpp"
#include "bio/align_lanes_kernel.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace hdcs::bio {

void encode_residues(std::string_view seq, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(seq.size());
  for (char c : seq) {
    out.push_back(static_cast<std::uint8_t>(ScoringScheme::index_of(c)));
  }
}

QueryProfile::QueryProfile(std::string_view query, const ScoringScheme& scheme)
    : query_(query), n_(query.size()) {
  constexpr std::size_t kSymbols = ScoringScheme::kAlphabetSize;
  profile32_.assign(kProfileSymbols * n_, kFloor16);
  rows16_.assign(n_ * kProfileRow, kFloor16);
  pairs16_.assign(kProfileSymbols * kSymbols, kFloor16);

  std::vector<std::uint8_t> enc;
  encode_residues(query, enc);

  // The lane kernel's no-overflow argument needs bounded per-cell steps:
  // kSat16 + |substitution| must fit int16, and kFloor16 minus one gap step
  // must not underflow it. Real matrices are tiny (<= 17), real gaps < 100.
  constexpr int kLaneSubLimit = 500;   // kSat16 + 500 < INT16_MAX
  constexpr int kLaneGapLimit = 4000;  // kFloor16 - 4000 > INT16_MIN
  const int oe = scheme.gap_open() + scheme.gap_extend();
  const int ext = scheme.gap_extend();
  if (oe > kLaneGapLimit || ext > kLaneGapLimit || oe < 0 || ext < 0) {
    lane_safe_ = false;
  }

  // Number the query's distinct residues in order of first appearance.
  std::uint8_t dense[kSymbols];
  std::fill(std::begin(dense), std::end(dense), std::uint8_t{0xff});
  query_symbol_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    if (dense[enc[i]] == 0xff) {
      dense[enc[i]] = static_cast<std::uint8_t>(query_symbols_++);
    }
    query_symbol_[i] = dense[enc[i]];
  }

  for (std::size_t sym = 0; sym < kSymbols; ++sym) {
    std::int32_t* col32 = profile32_.data() + sym * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      int sc = scheme.score_indexed(sym, enc[i]);
      if (std::abs(sc) > kLaneSubLimit) lane_safe_ = false;
      col32[i] = sc;
      rows16_[i * kProfileRow + sym] = static_cast<std::int16_t>(sc);
      pairs16_[sym * kSymbols + query_symbol_[i]] =
          static_cast<std::int16_t>(sc);
    }
  }
  // kPadSymbol entries (and row16 entries past kProfileSymbols) stay
  // kFloor16 from the assigns above.
}

namespace lanes {

namespace {

/// The portable ("sse2") tier: 16 int16 lanes as a GCC/Clang generic
/// vector, which the compiler lowers to whatever the baseline target ISA
/// offers (two SSE2 registers on x86-64).
struct Portable {
  static constexpr std::size_t kLanes = 16;
  using V = std::int16_t __attribute__((vector_size(2 * kLanes)));
  using M = V;  // -1 on live lanes, 0 on dead ones

  static V load(const std::int16_t* p) {
    V r;
    std::memcpy(&r, p, sizeof r);
    return r;
  }
  static void store(std::int16_t* p, V v) { std::memcpy(p, &v, sizeof v); }
  static V set1(std::int16_t x) { return V{} + x; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V max(V a, V b) { return a > b ? a : b; }
  static V min(V a, V b) { return a < b ? a : b; }

  static M mask(const std::int16_t* live) { return load(live); }
  static V select(M m, V a, V b) { return (a & m) | (b & ~m); }
  // Dead lanes contribute 0, which never moves an accumulator that
  // started at 0 (min stays <= 0, max stays >= 0).
  static V min_live(M m, V acc, V v) { return min(acc, v & m); }
  static V max_live(M m, V acc, V v) { return max(acc, v & m); }
  static std::uint32_t railed(V mn, V mx) {
    std::uint32_t r = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (mn[l] <= kFloor16 || mx[l] >= kSat16) r |= 1u << l;
    }
    return r;
  }

  using Lookup = ColumnProfile<Portable>;
};

}  // namespace

const Kernels& portable_kernels() { return lane_kernels<Portable>(); }

const Kernels* kernels_for(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return nullptr;
    case SimdTier::kSse2: return &portable_kernels();
    case SimdTier::kAvx2: return &avx2_kernels();
    case SimdTier::kAvx512: return &avx512_kernels();
  }
  return nullptr;
}

}  // namespace lanes

namespace {

struct GapCosts {
  std::int64_t open_extend;
  std::int64_t extend;
};

GapCosts gap_costs(const ScoringScheme& s) {
  return {static_cast<std::int64_t>(s.gap_open()) + s.gap_extend(),
          static_cast<std::int64_t>(s.gap_extend())};
}

}  // namespace

// Transposed Gotoh, subject rows x query columns, so the profile column for
// the row's subject residue is walked contiguously. The optimum of global
// alignment is symmetric (substitution matrices are validated symmetric),
// so this equals nw_score(query, subject) exactly.
//
// Two ping-ponged H rows rather than one updated in place, and H(i, j-1)
// carried in a register across j: re-loading the value stored one iteration
// earlier puts a store-to-load forward on the serial E chain and costs ~2x.
std::int64_t nw_score_profile(const QueryProfile& p,
                              std::span<const std::uint8_t> subject,
                              const ScoringScheme& scheme,
                              AlignScratch& sc) {
  const auto [oe, ext] = gap_costs(scheme);
  const std::size_t n = p.length(), m = subject.size();
  sc.row_h.resize(n + 1);
  sc.row_h2.resize(n + 1);
  sc.row_f.resize(n + 1);
  std::int64_t* h_prev = sc.row_h.data();
  std::int64_t* h_cur = sc.row_h2.data();
  std::int64_t* const f = sc.row_f.data();

  h_prev[0] = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    h_prev[j] = -(oe + static_cast<std::int64_t>(j - 1) * ext);
    f[j] = kNegInf;
  }
  for (std::size_t i = 1; i <= m; ++i) {
    const std::int32_t* col = p.column32(subject[i - 1]);
    std::int64_t hc = -(oe + static_cast<std::int64_t>(i - 1) * ext);
    h_cur[0] = hc;
    std::int64_t e = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      e = std::max(hc - oe, e - ext);
      std::int64_t fj = std::max(h_prev[j] - oe, f[j] - ext);
      f[j] = fj;
      std::int64_t diag = h_prev[j - 1] + col[j - 1];
      hc = std::max({diag, e, fj});
      h_cur[j] = hc;
    }
    std::swap(h_prev, h_cur);
  }
  return h_prev[n];
}

// Transposed semi-global: query (columns) global, subject (rows) free at
// both ends — H(i, 0) = 0 models the free leading subject gap and the best
// over the last column models the free trailing one. Same optimisation
// problem as semiglobal_score(query, subject), hence the same value.
std::int64_t semiglobal_score_profile(const QueryProfile& p,
                                      std::span<const std::uint8_t> subject,
                                      const ScoringScheme& scheme,
                                      AlignScratch& sc) {
  const auto [oe, ext] = gap_costs(scheme);
  const std::size_t n = p.length(), m = subject.size();
  sc.row_h.resize(n + 1);
  sc.row_h2.resize(n + 1);
  sc.row_f.resize(n + 1);
  std::int64_t* h_prev = sc.row_h.data();
  std::int64_t* h_cur = sc.row_h2.data();
  std::int64_t* const f = sc.row_f.data();

  h_prev[0] = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    h_prev[j] = -(oe + static_cast<std::int64_t>(j - 1) * ext);
    f[j] = kNegInf;
  }
  std::int64_t best = h_prev[n];
  for (std::size_t i = 1; i <= m; ++i) {
    const std::int32_t* col = p.column32(subject[i - 1]);
    std::int64_t hc = 0;
    h_cur[0] = hc;
    std::int64_t e = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      e = std::max(hc - oe, e - ext);
      std::int64_t fj = std::max(h_prev[j] - oe, f[j] - ext);
      f[j] = fj;
      std::int64_t diag = h_prev[j - 1] + col[j - 1];
      hc = std::max({diag, e, fj});
      h_cur[j] = hc;
    }
    std::swap(h_prev, h_cur);
    best = std::max(best, h_prev[n]);
  }
  return best;
}

std::vector<std::int64_t> batch_align_scores(
    AlignMode mode, const QueryProfile& profile,
    std::span<const std::string_view> db, const ScoringScheme& scheme,
    std::size_t band, AlignScratch& scratch, BatchMetrics* metrics) {
  const std::size_t n = profile.length();
  std::vector<std::int64_t> scores(db.size());
  BatchMetrics local;
  BatchMetrics& m = metrics ? *metrics : local;

  // Encode every subject once, concatenated into scratch.
  scratch.enc.clear();
  scratch.enc_offset.assign(db.size() + 1, 0);
  for (std::size_t i = 0; i < db.size(); ++i) {
    for (char c : db[i]) {
      scratch.enc.push_back(
          static_cast<std::uint8_t>(ScoringScheme::index_of(c)));
    }
    scratch.enc_offset[i + 1] = scratch.enc.size();
  }
  auto subject = [&](std::size_t i) {
    return std::span<const std::uint8_t>(
        scratch.enc.data() + scratch.enc_offset[i],
        scratch.enc_offset[i + 1] - scratch.enc_offset[i]);
  };

  // Exact int64 scoring for one pair — the fallback for saturated/railed/
  // ineligible lanes and the entire path for the scalar dispatch tier.
  // Bit-identical to align_score(mode, ...) per pair.
  auto exact = [&](std::size_t i) -> std::int64_t {
    switch (mode) {
      case AlignMode::kLocal:
        return sw_score(profile.query(), db[i], scheme);
      case AlignMode::kGlobal:
        return nw_score_profile(profile, subject(i), scheme, scratch);
      default:
        return semiglobal_score_profile(profile, subject(i), scheme, scratch);
    }
  };

  switch (mode) {
    case AlignMode::kLocal:
    case AlignMode::kGlobal:
    case AlignMode::kSemiGlobal: {
      const auto [oe, ext] = gap_costs(scheme);
      const lanes::Kernels* kern = lanes::kernels_for(simd_tier());
      if (kern == nullptr || !profile.lane_safe() || n == 0) {
        for (std::size_t i = 0; i < db.size(); ++i) {
          scores[i] = exact(i);
          m.cells += static_cast<std::uint64_t>(n) * db[i].size();
        }
        break;
      }

      // NW/semi-global boundary cells H(i,0)/H(0,t) reach -(oe + L*ext);
      // a lane is int16-eligible only when those are representable without
      // clamping. SW boundaries are 0, always eligible.
      auto lane_eligible = [&](std::size_t len) {
        if (mode == AlignMode::kLocal) return true;
        if (len == 0) return false;  // exact path is O(n), not worth a lane
        std::int64_t worst =
            oe + static_cast<std::int64_t>(std::max(n, len)) * ext;
        return worst < -static_cast<std::int64_t>(kFloor16);
      };

      // Pack lanes in length-sorted order so the lanes of a batch finish
      // together instead of the longest subject dragging idle lanes.
      // Results scatter back through the original index: output order (and
      // every value) is unchanged.
      auto& order = scratch.order;
      order.resize(db.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return db[a].size() > db[b].size();
                       });

      const auto oe16 = static_cast<std::int16_t>(oe);
      const auto ext16 = static_cast<std::int16_t>(ext);
      const std::size_t width = kern->lanes;
      scratch.h16.resize((n + 1) * width);
      scratch.e16.resize((n + 1) * width);
      for (std::size_t base = 0; base < order.size(); base += width) {
        const std::size_t count = std::min(width, order.size() - base);
        lanes::LaneBatch batch;
        std::size_t lane_idx[kBatchLanes];
        std::size_t used = 0;
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t i = order[base + k];
          auto s = subject(i);
          m.cells += static_cast<std::uint64_t>(n) * s.size();
          if (!lane_eligible(s.size())) {
            scores[i] = exact(i);
            continue;
          }
          batch.seq[used] = s.data();
          batch.len[used] = s.size();
          batch.max_len = std::max(batch.max_len, s.size());
          lane_idx[used++] = i;
        }
        if (used == 0) continue;

        alignas(64) std::int16_t out[kBatchLanes];
        std::uint32_t railed = 0;
        switch (mode) {
          case AlignMode::kLocal:
            kern->sw(profile, batch, oe16, ext16, scratch, out);
            for (std::size_t k = 0; k < used; ++k) {
              if (out[k] >= kSat16) railed |= 1u << k;
            }
            break;
          case AlignMode::kGlobal:
            kern->nw(profile, batch, oe16, ext16, scratch, out, &railed);
            break;
          default:
            kern->sg(profile, batch, oe16, ext16, scratch, out, &railed);
            break;
        }
        for (std::size_t k = 0; k < used; ++k) {
          const std::size_t i = lane_idx[k];
          if ((railed >> k) & 1u) {
            // Score left the int16 domain: exact int64 re-run.
            m.saturations += 1;
            scores[i] = exact(i);
          } else {
            scores[i] = out[k];
          }
        }
      }
      break;
    }
    case AlignMode::kBanded: {
      for (std::size_t i = 0; i < db.size(); ++i) {
        AlignDiagnostics diag;
        scores[i] = align_score(AlignMode::kBanded, profile.query(), db[i],
                                scheme, band, &diag);
        m.cells += std::min(
            static_cast<std::uint64_t>(n) * db[i].size(),
            static_cast<std::uint64_t>(n) * (2 * diag.effective_band + 1));
      }
      break;
    }
    default:
      throw InputError("batch_align_scores: bad alignment mode");
  }
  return scores;
}

}  // namespace hdcs::bio
