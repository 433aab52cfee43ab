// Cross-tier equivalence for the runtime SIMD dispatch (util/simd.hpp).
//
// Every kernel behind the dispatch — the batch alignment lanes and the
// likelihood partials combine — must produce results bit-identical to the
// scalar reference under every tier the host can run. These tests pin each
// tier with ScopedSimdTier and compare against ground truth, covering the
// cases the smoke benches don't: empty/one-residue subjects, batches that
// don't fill a lane group, odd remainders, int16 saturation straddling both
// rails, and gap costs that fail the boundary precheck.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "bio/align.hpp"
#include "bio/align_batch.hpp"
#include "bio/align_lanes.hpp"
#include "bio/seqgen.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/partials_kernels.hpp"
#include "phylo/simulate.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace hdcs {
namespace {

std::vector<SimdTier> available_tiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2,
                     SimdTier::kAvx512}) {
    if (simd_tier_available(t)) tiers.push_back(t);
  }
  return tiers;
}

TEST(SimdDispatch, ParseRoundTripsAndRejectsJunk) {
  SimdTier t = SimdTier::kAvx2;
  EXPECT_TRUE(parse_simd_tier("scalar", &t));
  EXPECT_EQ(t, SimdTier::kScalar);
  EXPECT_TRUE(parse_simd_tier("sse2", &t));
  EXPECT_EQ(t, SimdTier::kSse2);
  EXPECT_TRUE(parse_simd_tier("avx2", &t));
  EXPECT_EQ(t, SimdTier::kAvx2);
  EXPECT_TRUE(parse_simd_tier("AVX512", &t));
  EXPECT_EQ(t, SimdTier::kAvx512);
  EXPECT_FALSE(parse_simd_tier("avx1024", &t));
  EXPECT_FALSE(parse_simd_tier("", &t));
  for (SimdTier tier : available_tiers()) {
    SimdTier back = SimdTier::kScalar;
    EXPECT_TRUE(parse_simd_tier(to_string(tier), &back));
    EXPECT_EQ(back, tier);
  }
}

TEST(SimdDispatch, ScopedOverrideSetsAndRestores) {
  const SimdTier before = simd_tier();
  {
    ScopedSimdTier pin(SimdTier::kScalar);
    EXPECT_EQ(simd_tier(), SimdTier::kScalar);
    {
      ScopedSimdTier inner(SimdTier::kSse2);
      EXPECT_EQ(simd_tier(), SimdTier::kSse2);
    }
    EXPECT_EQ(simd_tier(), SimdTier::kScalar);
  }
  EXPECT_EQ(simd_tier(), before);
}

TEST(SimdDispatch, RequestsAboveDetectedClampDown) {
  ScopedSimdTier pin(SimdTier::kAvx512);
  EXPECT_LE(static_cast<int>(simd_tier()),
            static_cast<int>(simd_tier_detected()));
}

TEST(SimdDispatch, EveryLaneTierFitsTheSharedLaneArrays) {
  EXPECT_EQ(bio::lanes::kernels_for(SimdTier::kScalar), nullptr);
  for (SimdTier tier : {SimdTier::kSse2, SimdTier::kAvx2, SimdTier::kAvx512}) {
    const bio::lanes::Kernels* k = bio::lanes::kernels_for(tier);
    ASSERT_NE(k, nullptr) << to_string(tier);
    EXPECT_TRUE(k->lanes == 16 || k->lanes == 32) << to_string(tier);
    EXPECT_LE(k->lanes, bio::kBatchLanes) << to_string(tier);
  }
  EXPECT_EQ(bio::lanes::kernels_for(SimdTier::kSse2)->lanes, 16u);
}

// ---------------------------------------------------------------------------
// Batch alignment: every tier vs the per-pair scalar kernels.
// ---------------------------------------------------------------------------

constexpr bio::AlignMode kModes[] = {bio::AlignMode::kLocal,
                                     bio::AlignMode::kGlobal,
                                     bio::AlignMode::kSemiGlobal};

// Assert batch_align_scores == align_score per pair under every tier.
void expect_all_tiers_match(std::string_view query,
                            const std::vector<std::string>& db_store,
                            const bio::ScoringScheme& scheme,
                            std::uint64_t* saturations = nullptr) {
  std::vector<std::string_view> db(db_store.begin(), db_store.end());
  bio::QueryProfile profile(query, scheme);
  bio::AlignScratch scratch;
  for (bio::AlignMode mode : kModes) {
    std::vector<std::int64_t> expected;
    expected.reserve(db.size());
    for (auto subject : db) {
      expected.push_back(bio::align_score(mode, query, subject, scheme));
    }
    for (SimdTier tier : available_tiers()) {
      ScopedSimdTier pin(tier);
      bio::BatchMetrics metrics;
      auto got =
          bio::batch_align_scores(mode, profile, db, scheme, 0, scratch, &metrics);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << "mode " << static_cast<int>(mode) << " tier " << to_string(tier)
            << " subject " << i << " (len " << db[i].size() << ")";
      }
      if (saturations) *saturations += metrics.saturations;
    }
  }
}

TEST(SimdBatchAlign, FuzzRaggedBatchesMatchScalarUnderEveryTier) {
  Rng rng(17);
  auto scheme = bio::ScoringScheme::blosum62();
  // Lengths chosen to hit: empty, single residue, lane-count boundaries
  // of both lane widths (15/16/17 and 31/32/33 subjects, and 63 = one
  // full 32-lane batch plus a 31-lane tail), odd lengths, and wide ragged
  // spreads.
  const std::size_t batch_sizes[] = {1, 7, 15, 16, 17, 31, 32, 33, 63};
  for (std::size_t subjects : batch_sizes) {
    auto query =
        bio::random_residues(rng, 40 + rng.next_below(80), bio::Alphabet::kProtein);
    std::vector<std::string> db;
    for (std::size_t i = 0; i < subjects; ++i) {
      std::size_t len;
      switch (rng.next_below(5)) {
        case 0: len = 0; break;
        case 1: len = 1; break;
        case 2: len = 2 + rng.next_below(7); break;       // short odd/even mix
        default: len = 20 + rng.next_below(180); break;   // ragged bulk
      }
      db.push_back(bio::random_residues(rng, len, bio::Alphabet::kProtein));
    }
    expect_all_tiers_match(query, db, scheme);
  }
}

TEST(SimdBatchAlign, EmptyQueryAndEmptyDatabase) {
  auto scheme = bio::ScoringScheme::blosum62();
  expect_all_tiers_match("", {"ACDEFGH", "", "KLMNP"}, scheme);
  expect_all_tiers_match("ACDEFGH", {}, scheme);
}

TEST(SimdBatchAlign, LocalSaturationStraddlesUpperRail) {
  // match=100 drives identical-sequence SW scores to 100*len: len 310 stays
  // below kSat16 (31000), len 330 crosses it (33000) and must be re-run in
  // int64 — both must still equal the scalar kernel exactly.
  auto scheme = bio::ScoringScheme::dna(100, -4, 10, 1);
  std::string query(340, 'A');
  std::vector<std::string> db = {std::string(310, 'A'), std::string(330, 'A'),
                                 std::string(318, 'A'), std::string(322, 'A')};
  std::uint64_t saturations = 0;
  expect_all_tiers_match(query, db, scheme, &saturations);
  // The lane tiers (not scalar) must have detected at least one saturated
  // lane; the exact count depends on which tiers this host can run.
  if (simd_tier_detected() != SimdTier::kScalar) {
    EXPECT_GT(saturations, 0u);
  }
}

TEST(SimdBatchAlign, GlobalScoresStraddleLowerRail) {
  // mismatch=-400 with cheap-ish gaps: the best NW path for all-mismatch
  // pairs is two full-length gaps costing -(10 + len*70)*2, which crosses
  // kFloor16 = -16000 near len 114. Lanes below the rail must be re-run;
  // lanes just above must stay exact in int16.
  auto scheme = bio::ScoringScheme::dna(2, -400, 10, 70);
  std::string query(130, 'A');
  std::vector<std::string> db = {std::string(100, 'C'), std::string(110, 'C'),
                                 std::string(120, 'C'), std::string(130, 'C')};
  std::uint64_t saturations = 0;
  expect_all_tiers_match(query, db, scheme, &saturations);
  if (simd_tier_detected() != SimdTier::kScalar) {
    EXPECT_GT(saturations, 0u);
  }
}

// Lanes are packed longest first, so in a 32-subject batch the 16 longer
// fillers take lanes 0-15 and the rail-straddling subjects lanes 16-31:
// the upper half of the 32-lane live mask and of the railed bitmask.
std::vector<std::string> upper_half_batch(std::vector<std::string> fillers,
                                          std::vector<std::string> straddlers) {
  EXPECT_EQ(fillers.size(), 16u);
  EXPECT_EQ(straddlers.size(), 16u);
  for (const auto& f : fillers) {
    for (const auto& s : straddlers) EXPECT_GT(f.size(), s.size());
  }
  // Interleave so lane order comes from the packing, not input order.
  std::vector<std::string> db;
  for (std::size_t i = 0; i < 16; ++i) {
    db.push_back(std::move(straddlers[i]));
    db.push_back(std::move(fillers[i]));
  }
  return db;
}

TEST(SimdBatchAlign, LocalSaturationInUpperSixteenLanes) {
  // Same scheme as LocalSaturationStraddlesUpperRail: all-A subjects of
  // length >= 320 saturate. Fillers are random DNA longer than any of
  // them, scoring far below the rail.
  auto scheme = bio::ScoringScheme::dna(100, -4, 10, 1);
  Rng rng(43);
  std::string query(340, 'A');
  std::vector<std::string> fillers, straddlers;
  for (std::size_t i = 0; i < 16; ++i) {
    fillers.push_back(bio::random_residues(rng, 400 + i, bio::Alphabet::kDna));
    straddlers.push_back(std::string(304 + 2 * i, 'A'));  // 304 .. 334
  }
  std::uint64_t saturations = 0;
  expect_all_tiers_match(query, upper_half_batch(fillers, straddlers), scheme,
                         &saturations);
  if (simd_tier_detected() != SimdTier::kScalar) {
    EXPECT_GT(saturations, 0u);
  }
}

TEST(SimdBatchAlign, GlobalLowerRailInUpperSixteenLanes) {
  // Same scheme as GlobalScoresStraddleLowerRail: all-C subjects of
  // length ~114 and up cross kFloor16 against an all-A query. Fillers are
  // all-A and a little longer than the query, so they never rail.
  auto scheme = bio::ScoringScheme::dna(2, -400, 10, 70);
  std::string query(130, 'A');
  std::vector<std::string> fillers, straddlers;
  for (std::size_t i = 0; i < 16; ++i) {
    fillers.push_back(std::string(140 + i, 'A'));
    straddlers.push_back(std::string(100 + 2 * i, 'C'));  // 100 .. 130
  }
  std::uint64_t saturations = 0;
  expect_all_tiers_match(query, upper_half_batch(fillers, straddlers), scheme,
                         &saturations);
  if (simd_tier_detected() != SimdTier::kScalar) {
    EXPECT_GT(saturations, 0u);
  }
}

TEST(SimdBatchAlign, HugeGapExtendFailsBoundaryPrecheckSafely) {
  // gap_extend=4000 makes NW/semi-global init cells unrepresentable in
  // int16 for subjects longer than ~2 residues; those lanes must take the
  // exact path up front (not rail-and-retry) and still match scalar.
  auto scheme = bio::ScoringScheme::dna(2, -1, 10, 4000);
  Rng rng(23);
  std::string query = bio::random_residues(rng, 30, bio::Alphabet::kDna);
  std::vector<std::string> db;
  for (std::size_t len : {0u, 1u, 2u, 3u, 10u, 40u}) {
    db.push_back(bio::random_residues(rng, len, bio::Alphabet::kDna));
  }
  expect_all_tiers_match(query, db, scheme);
}

// ---------------------------------------------------------------------------
// Likelihood partials: tiers share summation order, so doubles must be
// bit-identical — not merely close.
// ---------------------------------------------------------------------------

TEST(SimdPartialsKernel, TiersAgreeBitForBitOnOddCounts) {
  using phylo::PartialsCombineFn;
  Rng rng(31);
  double pm[16];
  for (double& v : pm) v = 0.01 + 0.99 * rng.next_double();
  for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 33u}) {
    std::vector<double> child(count * 4);
    for (double& v : child) v = rng.next_double();
    std::vector<double> ref;
    for (bool assign : {true, false}) {
      bool first_tier = true;
      for (SimdTier tier : available_tiers()) {
        std::vector<double> node(count * 4, 0.5);
        PartialsCombineFn fn = phylo::partials_combine_for(tier);
        ASSERT_NE(fn, nullptr);
        fn(pm, child.data(), node.data(), count, assign);
        if (first_tier) {
          ref = node;
          first_tier = false;
        } else {
          for (std::size_t i = 0; i < node.size(); ++i) {
            ASSERT_EQ(node[i], ref[i])
                << "tier " << to_string(tier) << " count " << count
                << " assign " << assign << " cell " << i;
          }
        }
      }
    }
  }
}

TEST(SimdPartialsKernel, Avx512TierRunsTheAvx2Kernel) {
  // The likelihood partials have no AVX-512 form: the avx512 tier must
  // run exactly the AVX2 kernel, so its log-likelihoods cannot move.
  EXPECT_EQ(phylo::partials_combine_for(SimdTier::kAvx512),
            phylo::partials_combine_for(SimdTier::kAvx2));
}

TEST(SimdLikelihood, LogLikelihoodBitIdenticalAcrossTiers) {
  Rng rng(41);
  auto tree = phylo::random_tree(rng, {12, 0.1, "t"});
  auto model = std::make_shared<phylo::SubstModel>(phylo::SubstModel::jc69());
  auto rates = phylo::RateModel::gamma(0.5, 4);
  auto aln = phylo::simulate_alignment(rng, tree, *model, rates, {300});
  phylo::LikelihoodEngine engine(phylo::compress(aln), model, rates);

  bool have_ref = false;
  double ref = 0;
  for (SimdTier tier : available_tiers()) {
    ScopedSimdTier pin(tier);
    double ll = engine.log_likelihood(tree);
    EXPECT_TRUE(std::isfinite(ll));
    if (!have_ref) {
      ref = ll;
      have_ref = true;
    } else {
      EXPECT_EQ(ll, ref) << "tier " << to_string(tier);
    }
  }
}

}  // namespace
}  // namespace hdcs
