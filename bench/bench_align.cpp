// Microbenchmarks of the alignment kernels (DSEARCH's hot path), reported
// as DP cell updates per second. These calibrate the cost model: one
// WorkUnit "op" is one cell update, and reference_ops_per_sec in the
// simulator is a PIII-1GHz's cell rate (~5e7); a modern core is ~10-60x
// that, which is what these numbers show.
//
// Two entry points:
//   bench_align [gbench flags]     full google-benchmark suite
//   bench_align --smoke [--out f]  quick scalar-vs-batch comparison that
//                                  first asserts batch == scalar, then
//                                  writes BENCH_ALIGN.json (see
//                                  docs/KERNELS.md). Used by verify.sh.
//                                  Its "tiers" section pins every tier the
//                                  host has and records each one's batch
//                                  rates plus the same-run avx512/avx2
//                                  ratio.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bio/align.hpp"
#include "bio/align_batch.hpp"
#include "bio/seqgen.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

using namespace hdcs;

namespace {

struct Inputs {
  std::string a;
  std::string b;
  bio::ScoringScheme scheme = bio::ScoringScheme::blosum62();
};

Inputs make_inputs(std::size_t len_a, std::size_t len_b, bool dna) {
  Rng rng(7);
  Inputs in;
  auto alphabet = dna ? bio::Alphabet::kDna : bio::Alphabet::kProtein;
  in.a = bio::random_residues(rng, len_a, alphabet);
  in.b = bio::random_residues(rng, len_b, alphabet);
  in.scheme = dna ? bio::ScoringScheme::dna() : bio::ScoringScheme::blosum62();
  return in;
}

void report_cells(benchmark::State& state, std::size_t la, std::size_t lb) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(la * lb));
}

void BM_NeedlemanWunsch(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto in = make_inputs(n, n, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::nw_score(in.a, in.b, in.scheme));
  }
  report_cells(state, n, n);
}
BENCHMARK(BM_NeedlemanWunsch)->Arg(100)->Arg(300)->Arg(1000);

void BM_SmithWaterman(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto in = make_inputs(n, n, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::sw_score(in.a, in.b, in.scheme));
  }
  report_cells(state, n, n);
}
BENCHMARK(BM_SmithWaterman)->Arg(100)->Arg(300)->Arg(1000);

void BM_SemiGlobal(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto in = make_inputs(n / 2, n, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::semiglobal_score(in.a, in.b, in.scheme));
  }
  report_cells(state, n / 2, n);
}
BENCHMARK(BM_SemiGlobal)->Arg(200)->Arg(600);

void BM_BandedNw(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto band = static_cast<std::size_t>(state.range(1));
  auto in = make_inputs(n, n, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::banded_nw_score(in.a, in.b, in.scheme, band));
  }
  // Banded work ~ n * (2*band+1) cells.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * (2 * band + 1)));
}
BENCHMARK(BM_BandedNw)->Args({1000, 8})->Args({1000, 32})->Args({1000, 128});

void BM_DnaKernel(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto in = make_inputs(n, n, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::sw_score(in.a, in.b, in.scheme));
  }
  report_cells(state, n, n);
}
BENCHMARK(BM_DnaKernel)->Arg(500);

void BM_TracebackAlign(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto in = make_inputs(n, n, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::nw_align(in.a, in.b, in.scheme));
  }
  report_cells(state, n, n);
}
BENCHMARK(BM_TracebackAlign)->Arg(100)->Arg(300);

void BM_BatchSmithWaterman(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  auto scheme = bio::ScoringScheme::blosum62();
  auto query = bio::random_residues(rng, n, bio::Alphabet::kProtein);
  std::vector<std::string> db_store;
  for (int i = 0; i < 64; ++i) {
    db_store.push_back(bio::random_residues(rng, n, bio::Alphabet::kProtein));
  }
  std::vector<std::string_view> db(db_store.begin(), db_store.end());
  bio::QueryProfile profile(query, scheme);
  bio::AlignScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::batch_align_scores(
        bio::AlignMode::kLocal, profile, db, scheme, 0, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * db.size()));
}
BENCHMARK(BM_BatchSmithWaterman)->Arg(100)->Arg(300);

// ---------------------------------------------------------------------------
// --smoke: scalar vs batch on one representative workload, JSON artifact.
// ---------------------------------------------------------------------------

struct SmokeData {
  std::string query;
  std::vector<std::string> db_store;
  std::vector<std::string_view> db;
  bio::ScoringScheme scheme = bio::ScoringScheme::blosum62();
  std::size_t cells_per_pass = 0;  // semantic DP cells in one full db scan
};

SmokeData make_smoke_data() {
  Rng rng(7);
  SmokeData d;
  d.query = bio::random_residues(rng, 400, bio::Alphabet::kProtein);
  for (int i = 0; i < 64; ++i) {
    d.db_store.push_back(bio::random_residues(rng, 120 + rng.next_below(240),
                                              bio::Alphabet::kProtein));
    d.cells_per_pass += d.query.size() * d.db_store.back().size();
  }
  for (const auto& s : d.db_store) d.db.emplace_back(s);
  return d;
}

template <typename F>
double measure_cells_per_sec(F&& pass, std::size_t cells_per_pass) {
  pass();  // warm-up (first-touch of scratch buffers)
  hdcs::Stopwatch sw;
  std::size_t passes = 0;
  do {
    pass();
    ++passes;
  } while (sw.seconds() < 0.25);
  return static_cast<double>(passes) * static_cast<double>(cells_per_pass) /
         sw.seconds();
}

int run_smoke(const std::string& out_path) {
  std::printf("simd tier: %s (detected %s)\n", to_string(simd_tier()),
              to_string(simd_tier_detected()));
  auto d = make_smoke_data();
  bio::QueryProfile profile(d.query, d.scheme);
  bio::AlignScratch scratch;

  struct ModeSpec {
    const char* name;
    bio::AlignMode mode;
  };
  const ModeSpec modes[] = {{"sw", bio::AlignMode::kLocal},
                            {"nw", bio::AlignMode::kGlobal},
                            {"semiglobal", bio::AlignMode::kSemiGlobal}};

  // Equivalence guard: the speedup is meaningless if the kernels disagree.
  // Checked under the selected tier and under every tier pinned below.
  auto equivalent = [&]() {
    for (const auto& spec : modes) {
      auto batch = bio::batch_align_scores(spec.mode, profile, d.db, d.scheme,
                                           0, scratch);
      for (std::size_t i = 0; i < d.db.size(); ++i) {
        auto scalar = bio::align_score(spec.mode, d.query, d.db[i], d.scheme);
        if (batch[i] != scalar) {
          std::fprintf(stderr,
                       "smoke FAILED: tier %s %s batch=%lld scalar=%lld "
                       "(subject %zu)\n",
                       to_string(simd_tier()), spec.name,
                       static_cast<long long>(batch[i]),
                       static_cast<long long>(scalar), i);
          return false;
        }
      }
    }
    return true;
  };
  if (!equivalent()) return 1;

  std::string kernels_json, speedup_json;
  char buf[160];
  for (const auto& spec : modes) {
    double scalar_rate = measure_cells_per_sec(
        [&] {
          std::int64_t acc = 0;
          for (const auto& subject : d.db) {
            acc += bio::align_score(spec.mode, d.query, subject, d.scheme);
          }
          benchmark::DoNotOptimize(acc);
        },
        d.cells_per_pass);
    double batch_rate = measure_cells_per_sec(
        [&] {
          benchmark::DoNotOptimize(bio::batch_align_scores(
              spec.mode, profile, d.db, d.scheme, 0, scratch));
        },
        d.cells_per_pass);
    std::snprintf(buf, sizeof buf,
                  "    \"scalar_%s\": %.4g,\n    \"batch_%s\": %.4g,\n",
                  spec.name, scalar_rate, spec.name, batch_rate);
    kernels_json += buf;
    std::snprintf(buf, sizeof buf, "    \"%s\": %.3g,\n", spec.name,
                  batch_rate / scalar_rate);
    speedup_json += buf;
    std::printf("%-10s scalar %8.1f Mcells/s   batch %8.1f Mcells/s   %.2fx\n",
                spec.name, scalar_rate / 1e6, batch_rate / 1e6,
                batch_rate / scalar_rate);
  }
  if (!kernels_json.empty()) kernels_json.erase(kernels_json.size() - 2, 1);
  if (!speedup_json.empty()) speedup_json.erase(speedup_json.size() - 2, 1);

  // Per-tier batch rates from this one run, so the tier gain is recorded
  // normalised to the host rather than as absolute numbers.
  std::string tiers_json;
  double tier_rate[4][3] = {};  // [SimdTier][mode]
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2,
                        SimdTier::kAvx512}) {
    if (!simd_tier_available(tier)) continue;
    ScopedSimdTier pin(tier);
    if (!equivalent()) return 1;
    double* rate = tier_rate[static_cast<int>(tier)];
    std::string rates;
    for (std::size_t k = 0; k < std::size(modes); ++k) {
      rate[k] = measure_cells_per_sec(
          [&] {
            benchmark::DoNotOptimize(bio::batch_align_scores(
                modes[k].mode, profile, d.db, d.scheme, 0, scratch));
          },
          d.cells_per_pass);
      std::snprintf(buf, sizeof buf, "%s\"batch_%s\": %.4g",
                    k == 0 ? "" : ", ", modes[k].name, rate[k]);
      rates += buf;
    }
    tiers_json += std::string(tiers_json.empty() ? "" : ",\n") + "      \"" +
                  to_string(tier) + "\": {" + rates + "}";
    std::printf("tier %-7s batch sw %8.1f  nw %8.1f  semiglobal %8.1f "
                "Mcells/s\n",
                to_string(tier), rate[0] / 1e6, rate[1] / 1e6, rate[2] / 1e6);
  }
  std::string ratio_json;
  if (simd_tier_available(SimdTier::kAvx512)) {
    const double* wide = tier_rate[static_cast<int>(SimdTier::kAvx512)];
    const double* base = tier_rate[static_cast<int>(SimdTier::kAvx2)];
    for (std::size_t k = 0; k < std::size(modes); ++k) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.3g", k == 0 ? "" : ", ",
                    modes[k].name, wide[k] / base[k]);
      ratio_json += buf;
    }
    std::printf("avx512 / avx2: %s\n", ratio_json.c_str());
  }

  std::string json;
  json += "{\n  \"schema\": 1,\n  \"bench\": \"bench_align --smoke\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"config\": {\n    \"scheme\": \"blosum62\",\n"
                "    \"query_len\": %zu,\n    \"db_sequences\": %zu,\n"
                "    \"cells_per_pass\": %zu,\n    \"simd_tier\": \"%s\"\n  },\n",
                d.query.size(), d.db.size(), d.cells_per_pass,
                to_string(simd_tier()));
  json += buf;
  json += "  \"kernels_cells_per_sec\": {\n" + kernels_json + "  },\n";
  json += "  \"speedup_batch_over_scalar\": {\n" + speedup_json + "  },\n";
  json += "  \"tiers\": {\n    \"batch_cells_per_sec\": {\n" + tiers_json +
          "\n    },\n    \"avx512_over_avx2\": {" + ratio_json + "}\n  }\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      std::string out_path = "BENCH_ALIGN.json";
      for (int j = 1; j + 1 < argc; ++j) {
        if (std::strcmp(argv[j], "--out") == 0) out_path = argv[j + 1];
      }
      return run_smoke(out_path);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
