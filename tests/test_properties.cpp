// Parameterized property tests: invariants that must hold across whole
// families of inputs (kernels x schemes, models x times, policies x loads,
// random scheduler histories), not just hand-picked cases.

#include <gtest/gtest.h>

#include <cmath>

#include "bio/align.hpp"
#include "bio/align_batch.hpp"
#include "bio/fasta.hpp"
#include "bio/seqgen.hpp"
#include "dist/scheduler_core.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/simulate.hpp"
#include "tests/toy_problem.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace hdcs {
namespace {

// ---------------------------------------------------------------------------
// Alignment kernel properties across scoring schemes.
// ---------------------------------------------------------------------------

// gtest has no printer for this struct, so test listings show its raw
// bytes. Holding the name inline (not as a pointer) and leaving no padding
// keeps those bytes, and hence the registered test names, identical from
// build to build and run to run.
struct KernelCase {
  char scheme[12];
  bio::Alphabet alphabet;
};
static_assert(sizeof(KernelCase) == sizeof(KernelCase::scheme) + sizeof(bio::Alphabet),
              "KernelCase must have no padding bytes");

class AlignKernelProperties : public ::testing::TestWithParam<KernelCase> {};

TEST_P(AlignKernelProperties, ScoreOrderingInvariants) {
  auto [scheme_name, alphabet] = GetParam();
  auto scheme = bio::ScoringScheme::from_name(scheme_name);
  Rng rng(101);
  for (int i = 0; i < 20; ++i) {
    auto a = bio::random_residues(rng, 20 + rng.next_below(60), alphabet);
    auto b = bio::random_residues(rng, 20 + rng.next_below(60), alphabet);

    auto global = bio::nw_score(a, b, scheme);
    auto local = bio::sw_score(a, b, scheme);
    auto semi = bio::semiglobal_score(a, b, scheme);

    // Relaxing end-gap constraints can only help.
    EXPECT_GE(semi, global);
    EXPECT_GE(local, std::max<std::int64_t>(0, global));
    EXPECT_GE(local, 0);

    // Symmetry of the substitution-based kernels.
    EXPECT_EQ(global, bio::nw_score(b, a, scheme));
    EXPECT_EQ(local, bio::sw_score(b, a, scheme));

    // A wide band degenerates to full global DP.
    auto band = std::max(a.size(), b.size());
    EXPECT_EQ(bio::banded_nw_score(a, b, scheme, band), global);
    // Narrower bands can only lower the score.
    std::size_t diff = a.size() > b.size() ? a.size() - b.size()
                                           : b.size() - a.size();
    EXPECT_LE(bio::banded_nw_score(a, b, scheme, diff + 2), global);
  }
}

TEST_P(AlignKernelProperties, SelfAlignmentIsRowMaximum) {
  auto [scheme_name, alphabet] = GetParam();
  auto scheme = bio::ScoringScheme::from_name(scheme_name);
  Rng rng(103);
  for (int i = 0; i < 10; ++i) {
    auto a = bio::random_residues(rng, 40, alphabet);
    // Self-alignment: no kernel may beat the sum of diagonal scores, and
    // global must achieve exactly it (no gaps needed).
    std::int64_t diag = 0;
    for (char c : a) diag += scheme.score(c, c);
    EXPECT_EQ(bio::nw_score(a, a, scheme), diag);
    EXPECT_EQ(bio::sw_score(a, a, scheme), diag);
    EXPECT_EQ(bio::semiglobal_score(a, a, scheme), diag);
  }
}

TEST_P(AlignKernelProperties, MutatedCopyScoresBetweenSelfAndRandom) {
  auto [scheme_name, alphabet] = GetParam();
  auto scheme = bio::ScoringScheme::from_name(scheme_name);
  Rng rng(107);
  for (int i = 0; i < 10; ++i) {
    auto a = bio::random_residues(rng, 80, alphabet);
    auto close = bio::mutate(rng, a, alphabet, 0.05, 0.01);
    auto far = bio::random_residues(rng, 80, alphabet);
    EXPECT_GT(bio::sw_score(a, close, scheme), bio::sw_score(a, far, scheme));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AlignKernelProperties,
    ::testing::Values(KernelCase{"blosum62", bio::Alphabet::kProtein},
                      KernelCase{"pam250", bio::Alphabet::kProtein},
                      KernelCase{"dna", bio::Alphabet::kDna}),
    [](const auto& info) { return std::string(info.param.scheme); });

// ---------------------------------------------------------------------------
// Batch kernel layer (bio/align_batch.hpp): the vectorized/profile kernels
// must be bit-identical to the scalar reference kernels for every mode,
// scheme, and db shape — including ragged lane blocks, empty subjects, and
// scores past the int16 saturation ceiling.
// ---------------------------------------------------------------------------

class BatchKernelProperties : public ::testing::TestWithParam<KernelCase> {};

TEST_P(BatchKernelProperties, BatchMatchesScalarAcrossModes) {
  auto [scheme_name, alphabet] = GetParam();
  auto scheme = bio::ScoringScheme::from_name(scheme_name);
  Rng rng(211);
  bio::AlignScratch scratch;
  for (int rep = 0; rep < 6; ++rep) {
    auto query = bio::random_residues(rng, 10 + rng.next_below(70), alphabet);
    bio::QueryProfile profile(query, scheme);
    // 37 subjects + one empty: two full lane blocks plus a ragged tail.
    std::vector<std::string> db_store;
    for (int i = 0; i < 37; ++i) {
      db_store.push_back(
          bio::random_residues(rng, rng.next_below(90), alphabet));
    }
    db_store.emplace_back();
    std::vector<std::string_view> db(db_store.begin(), db_store.end());
    for (auto mode : {bio::AlignMode::kLocal, bio::AlignMode::kGlobal,
                      bio::AlignMode::kSemiGlobal, bio::AlignMode::kBanded}) {
      auto got = bio::batch_align_scores(mode, profile, db, scheme,
                                         /*band=*/8, scratch);
      ASSERT_EQ(got.size(), db.size());
      for (std::size_t i = 0; i < db.size(); ++i) {
        EXPECT_EQ(got[i], bio::align_score(mode, query, db[i], scheme, 8))
            << scheme_name << " mode=" << static_cast<int>(mode)
            << " subject=" << i << " rep=" << rep;
      }
    }
  }
}

TEST_P(BatchKernelProperties, SaturationFallsBackToExactScalar) {
  auto [scheme_name, alphabet] = GetParam();
  auto scheme = bio::ScoringScheme::from_name(scheme_name);
  // A homopolymer of the highest-self-scoring residue saturates the int16
  // lanes at a length small enough to keep the scalar re-run cheap.
  char rich = 'A';
  for (char c = 'B'; c <= 'Z'; ++c) {
    if (scheme.score(c, c) > scheme.score(rich, rich)) rich = c;
  }
  int self = scheme.score(rich, rich);
  ASSERT_GT(self, 0);
  std::size_t len = 32000 / static_cast<std::size_t>(self) + 64;
  std::string query(len, rich);

  Rng rng(223);
  std::vector<std::string> db_store;
  db_store.push_back(query);  // self-match: score = len * self > kSat16
  db_store.push_back(bio::random_residues(rng, 300, alphabet));
  std::vector<std::string_view> db(db_store.begin(), db_store.end());

  bio::QueryProfile profile(query, scheme);
  bio::AlignScratch scratch;
  bio::BatchMetrics metrics;
  auto got = bio::batch_align_scores(bio::AlignMode::kLocal, profile, db,
                                     scheme, 0, scratch, &metrics);
  if (simd_tier() != SimdTier::kScalar) {
    // The scalar tier never enters the int16 lanes, so nothing saturates.
    EXPECT_GE(metrics.saturations, 1u) << scheme_name;
  }
  EXPECT_EQ(got[0], static_cast<std::int64_t>(len) * self) << scheme_name;
  EXPECT_EQ(got[1], bio::sw_score(query, db[1], scheme)) << scheme_name;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, BatchKernelProperties,
    ::testing::Values(KernelCase{"blosum62", bio::Alphabet::kProtein},
                      KernelCase{"pam250", bio::Alphabet::kProtein},
                      KernelCase{"dna", bio::Alphabet::kDna}),
    [](const auto& info) { return std::string(info.param.scheme); });

// ---------------------------------------------------------------------------
// Substitution model properties across the whole GTR family and t values.
// ---------------------------------------------------------------------------

class SubstModelProperties : public ::testing::TestWithParam<const char*> {
 protected:
  phylo::ModelSpec spec() const {
    Config params;
    params.set("kappa", "2.7");
    params.set("alpha", "0.4");
    params.set("pinv", "0.2");
    params.set("basefreq", "0.31,0.19,0.23,0.27");
    params.set("gtr_rates", "1.1,2.9,0.7,1.3,4.1,1.0");
    return phylo::ModelSpec::parse(GetParam(), params);
  }
};

TEST_P(SubstModelProperties, StochasticMatrixAtManyTimes) {
  auto model = spec().model;
  for (double t : {1e-6, 1e-3, 0.05, 0.3, 1.0, 3.0, 20.0}) {
    auto p = model->transition_probs(t);
    for (int i = 0; i < 4; ++i) {
      double row = 0;
      for (int j = 0; j < 4; ++j) {
        EXPECT_GE(p(i, j), 0.0) << GetParam() << " t=" << t;
        row += p(i, j);
      }
      EXPECT_NEAR(row, 1.0, 1e-8) << GetParam() << " t=" << t;
    }
  }
}

TEST_P(SubstModelProperties, ReversibilityAndSemigroup) {
  auto model = spec().model;
  const auto& pi = model->pi();
  for (double t : {0.02, 0.4, 1.7}) {
    auto p = model->transition_probs(t);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        EXPECT_NEAR(pi[static_cast<std::size_t>(i)] * p(i, j),
                    pi[static_cast<std::size_t>(j)] * p(j, i), 1e-9)
            << GetParam();
      }
    }
    auto half = model->transition_probs(t / 2);
    EXPECT_LT(phylo::Matrix4::max_abs_diff(half * half, p), 1e-8) << GetParam();
  }
}

TEST_P(SubstModelProperties, RateModelMeanIsOne) {
  auto s = spec();
  EXPECT_NEAR(s.rates.mean_rate(), 1.0, 1e-8) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Models, SubstModelProperties,
                         ::testing::Values("JC69", "F81", "K80", "HKY85", "F84",
                                           "TN93", "GTR", "HKY85+G4", "GTR+G8",
                                           "K80+I", "TN93+G4+I"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Likelihood invariances on random trees.
// ---------------------------------------------------------------------------

class LikelihoodInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LikelihoodInvariance, ChildOrderIrrelevant) {
  Rng rng(GetParam());
  auto tree = phylo::random_tree(rng, {7, 0.1, "t"});
  auto model = std::make_shared<phylo::SubstModel>(phylo::SubstModel::jc69());
  auto aln = phylo::simulate_alignment(rng, tree, *model,
                                       phylo::RateModel::uniform(), {120});
  phylo::LikelihoodEngine engine(phylo::compress(aln), model,
                                 phylo::RateModel::uniform());
  double reference = engine.log_likelihood(tree);

  // Same topology written with rotated child order parses to a different
  // node arena; logL must not change.
  auto rebuilt = phylo::Tree::parse_newick(tree.to_newick());
  EXPECT_NEAR(engine.log_likelihood(rebuilt), reference, 1e-9);
}

TEST_P(LikelihoodInvariance, InsertThenRemoveLeafRestoresLikelihood) {
  Rng rng(GetParam() + 1000);
  auto tree = phylo::random_tree(rng, {6, 0.1, "t"});
  auto model = std::make_shared<phylo::SubstModel>(phylo::SubstModel::jc69());
  auto aln = phylo::simulate_alignment(rng, tree, *model,
                                       phylo::RateModel::uniform(), {100});
  // Alignment also needs the extra taxon: give it a random row.
  aln.names.push_back("extra");
  aln.rows.push_back(bio::random_residues(rng, 100, bio::Alphabet::kDna));

  phylo::LikelihoodEngine engine(phylo::compress(aln), model,
                                 phylo::RateModel::uniform());
  double before = engine.log_likelihood(tree);
  auto edges = tree.edge_nodes();
  int edge = edges[rng.next_below(edges.size())];
  int leaf = tree.insert_leaf_on_edge(edge, "extra", 0.05);
  tree.remove_leaf(leaf);
  EXPECT_NEAR(engine.log_likelihood(tree), before, 1e-9);
}

TEST_P(LikelihoodInvariance, GammaWithAlphaInfinityApproachesUniform) {
  Rng rng(GetParam() + 2000);
  auto tree = phylo::random_tree(rng, {5, 0.12, "t"});
  auto model = std::make_shared<phylo::SubstModel>(phylo::SubstModel::jc69());
  auto aln = phylo::simulate_alignment(rng, tree, *model,
                                       phylo::RateModel::uniform(), {150});
  phylo::LikelihoodEngine uniform(phylo::compress(aln), model,
                                  phylo::RateModel::uniform());
  phylo::LikelihoodEngine near_uniform(phylo::compress(aln), model,
                                       phylo::RateModel::gamma(500.0, 4));
  EXPECT_NEAR(near_uniform.log_likelihood(tree), uniform.log_likelihood(tree),
              0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LikelihoodInvariance,
                         ::testing::Values(11u, 23u, 37u, 59u));

// ---------------------------------------------------------------------------
// Scheduler correctness under randomized client histories.
// ---------------------------------------------------------------------------

class SchedulerRandomHistory : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerRandomHistory, AlwaysProducesTheExactSum) {
  test::register_toy_algorithm();
  Rng rng(GetParam());

  dist::SchedulerConfig cfg;
  cfg.lease_timeout = 50.0;
  cfg.bounds.min_ops = 1;
  dist::SchedulerCore core(cfg, std::make_unique<dist::AdaptiveThroughput>(5.0));
  auto dm = std::make_shared<test::ToySumDataManager>(
      200000 + rng.next_below(100000), rng.next_below(1000),
      /*stages=*/1 + static_cast<int>(rng.next_below(4)));
  auto pid = core.submit_problem(dm);
  auto data = dm->problem_data();

  struct Sim {
    dist::ClientId id;
    bool alive = true;
  };
  std::vector<Sim> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back({core.client_joined("c" + std::to_string(i),
                                          1e4 * (1 + rng.next_below(10)), 0.0)});
  }

  test::ToySumAlgorithm algo;
  algo.initialize(data);

  double t = 0;
  int stalls = 0;
  while (!core.problem_complete(pid)) {
    t += 1;
    core.tick(t);

    // Random misbehaviour: a client may crash (lose its leases), a new
    // client may join.
    if (rng.next_double() < 0.02) {
      auto& victim = clients[rng.next_below(clients.size())];
      if (victim.alive) {
        victim.alive = false;  // silent crash: leases must time out
      }
    }
    if (rng.next_double() < 0.02) {
      clients.push_back({core.client_joined("late" + std::to_string(t),
                                            1e4 * (1 + rng.next_below(10)), t)});
    }

    bool progressed = false;
    for (auto& c : clients) {
      if (!c.alive) continue;
      auto unit = core.request_work(c.id, t);
      if (!unit) continue;
      // Randomly drop some results (simulates in-flight loss).
      if (rng.next_double() < 0.05) continue;
      dist::ResultUnit r;
      r.problem_id = unit->problem_id;
      r.unit_id = unit->unit_id;
      r.stage = unit->stage;
      r.payload = algo.process(*unit);
      core.submit_result(c.id, r, t + 0.5);
      progressed = true;
    }
    if (!progressed) {
      ASSERT_LT(++stalls, 100000) << "scheduler deadlocked at t=" << t;
    }
    // Ensure at least one live client exists so the run can finish.
    bool any_alive = false;
    for (auto& c : clients) any_alive |= c.alive;
    if (!any_alive) {
      clients.push_back({core.client_joined("rescue", 1e5, t)});
    }
  }

  EXPECT_EQ(test::read_u64_result(core.final_result(pid)), dm->expected());
  const auto& stats = core.stats();
  EXPECT_EQ(stats.results_accepted, dm->result_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerRandomHistory,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Format round-trips under random inputs.
// ---------------------------------------------------------------------------

class RoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripFuzz, FastaPreservesRandomSequences) {
  Rng rng(GetParam());
  std::vector<bio::Sequence> seqs;
  auto n = 1 + rng.next_below(10);
  for (std::uint64_t i = 0; i < n; ++i) {
    bio::Sequence s;
    s.id = "seq_" + std::to_string(i);
    if (rng.next_double() < 0.5) s.description = "desc " + std::to_string(i);
    s.residues = bio::random_residues(rng, 1 + rng.next_below(400),
                                      bio::Alphabet::kProtein);
    seqs.push_back(std::move(s));
  }
  auto parsed = bio::parse_fasta(bio::to_fasta(seqs, 1 + rng.next_below(99)),
                                 bio::Alphabet::kProtein);
  ASSERT_EQ(parsed.size(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(parsed[i].id, seqs[i].id);
    EXPECT_EQ(parsed[i].residues, seqs[i].residues);
  }
}

TEST_P(RoundTripFuzz, NewickPreservesRandomTrees) {
  Rng rng(GetParam() + 500);
  auto tree = phylo::random_tree(
      rng, {3 + static_cast<int>(rng.next_below(40)), 0.2, "taxon"});
  auto reparsed = phylo::Tree::parse_newick(tree.to_newick());
  EXPECT_EQ(reparsed.to_newick(), tree.to_newick());
  EXPECT_EQ(phylo::rf_distance(reparsed, tree), 0);
  EXPECT_NEAR(reparsed.total_length(), tree.total_length(), 1e-9);
}

TEST_P(RoundTripFuzz, ByteBufferSurvivesRandomMixedPayloads) {
  Rng rng(GetParam() + 900);
  ByteWriter w;
  std::vector<int> kinds;
  std::vector<std::uint64_t> u64s;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  for (int i = 0; i < 200; ++i) {
    switch (rng.next_below(3)) {
      case 0: {
        kinds.push_back(0);
        u64s.push_back(rng.next_u64());
        w.u64(u64s.back());
        break;
      }
      case 1: {
        kinds.push_back(1);
        doubles.push_back(rng.normal(0, 1e6));
        w.f64(doubles.back());
        break;
      }
      default: {
        kinds.push_back(2);
        std::string s;
        auto len = rng.next_below(50);
        for (std::uint64_t k = 0; k < len; ++k) {
          s.push_back(static_cast<char>(rng.next_below(256)));
        }
        strings.push_back(s);
        w.str(s);
        break;
      }
    }
  }
  ByteReader r(w.data());
  std::size_t iu = 0, id = 0, is = 0;
  for (int kind : kinds) {
    if (kind == 0) {
      EXPECT_EQ(r.u64(), u64s[iu++]);
    } else if (kind == 1) {
      EXPECT_DOUBLE_EQ(r.f64(), doubles[id++]);
    } else {
      EXPECT_EQ(r.str(), strings[is++]);
    }
  }
  r.expect_end();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzz,
                         ::testing::Values(10u, 20u, 30u, 40u, 50u, 60u));

}  // namespace
}  // namespace hdcs
