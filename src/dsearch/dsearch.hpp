#pragma once
// DSEARCH: sensitive database searching using distributed computing
// (paper §3.1; Keane & Naughton, Bioinformatics 2004 [8]).
//
// The search "is parallelised by splitting the database into dynamically
// sized units that are subsequently searched on the donor machines", with
// granularity "dynamically controlled during each search to match the
// processing abilities of the current set of donor machines".
//
// Mapping onto the dist layer:
//   problem_data  = the query sequences + search configuration (small,
//                   shipped once per donor).
//   WorkUnit      = a dynamically sized database chunk — the sequences
//                   themselves ride in the unit payload, exactly as in the
//                   paper's design (donors never hold the whole database).
//   ResultUnit    = per-query top-k hits within the chunk.
//   merge         = exact top-k merge (safe because an element outside a
//                   chunk's top-k is dominated by k better elements and can
//                   never enter the global top-k).
//
// Inputs mirror the paper: "a FASTA database file, a FASTA query sequences
// file, a scoring scheme, and a configuration file".

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bio/align.hpp"
#include "bio/align_batch.hpp"
#include "bio/fasta.hpp"
#include "bio/scoring.hpp"
#include "dist/algorithm.hpp"
#include "dist/data_manager.hpp"
#include "dist/registry.hpp"
#include "util/byte_buffer.hpp"
#include "util/config.hpp"
#include "util/thread_pool.hpp"

namespace hdcs::dsearch {

inline constexpr const char* kAlgorithmName = "dsearch";

struct DSearchConfig {
  bio::AlignMode mode = bio::AlignMode::kLocal;
  std::string scoring = "blosum62";
  int gap_open = -1;    // -1 = scheme default
  int gap_extend = -1;  // -1 = scheme default
  std::size_t top_k = 20;
  std::size_t band = 16;  // banded mode only
  /// Simulation workload magnifier: multiplies every unit's virtual
  /// cost_ops (the database *appears* cost_scale times larger to the
  /// scheduler and the simulator) without changing what is computed.
  /// 1.0 for real deployments; see DESIGN.md on scaled-world simulation.
  double cost_scale = 1.0;

  /// Parse from a user config file ("algorithm", "scoring", "gap_open",
  /// "gap_extend", "top_k", "band"). Unknown algorithms/schemes throw.
  static DSearchConfig from_config(const Config& cfg);
  [[nodiscard]] bio::ScoringScheme make_scheme() const;
};

struct Hit {
  std::string db_id;
  std::int64_t score = 0;

  /// Ranking order: higher score first, then id for determinism.
  friend bool operator<(const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.db_id < b.db_id;
  }
  friend bool operator==(const Hit& a, const Hit& b) {
    return a.score == b.score && a.db_id == b.db_id;
  }
};

/// Per-query ranked hits; the search's final output.
using SearchResult = std::vector<std::vector<Hit>>;

/// Running moments of ALL alignment scores seen for one query (not just the
/// top-k): the background distribution a hit is judged against. Sensitive
/// search is about separating true homology from this background — the
/// z-score makes that separation explicit.
struct QueryScoreStats {
  std::uint64_t count = 0;
  double sum = 0;
  double sum_squares = 0;

  void add(double score) {
    count += 1;
    sum += score;
    sum_squares += score * score;
  }
  void merge(const QueryScoreStats& other) {
    count += other.count;
    sum += other.sum;
    sum_squares += other.sum_squares;
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0 : sum / static_cast<double>(count);
  }
  [[nodiscard]] double stddev() const;
  /// Standard score of `score` against the background; 0 if degenerate.
  [[nodiscard]] double z_score(double score) const;
};

/// Serial reference implementation (ground truth and the T(1) baseline).
/// Pass `stats` to also collect the per-query background distribution.
SearchResult search_serial(const std::vector<bio::Sequence>& queries,
                           const std::vector<bio::Sequence>& database,
                           const DSearchConfig& config,
                           std::vector<QueryScoreStats>* stats = nullptr);

/// The server-side half: chunks the database, merges hit lists.
class DSearchDataManager final : public dist::DataManager {
 public:
  DSearchDataManager(std::vector<bio::Sequence> queries,
                     std::vector<bio::Sequence> database, DSearchConfig config);

  [[nodiscard]] std::string algorithm_name() const override;
  [[nodiscard]] std::vector<std::byte> problem_data() const override;
  std::optional<dist::WorkUnit> next_unit(const dist::SizeHint& hint) override;
  void accept_result(const dist::ResultUnit& result) override;
  [[nodiscard]] bool is_complete() const override;
  [[nodiscard]] std::vector<std::byte> final_result() const override;
  [[nodiscard]] double remaining_ops_estimate() const override;

  /// Decoded final answer (same data as final_result()).
  [[nodiscard]] SearchResult result() const;
  /// Background score distribution per query (merged from every chunk).
  [[nodiscard]] const std::vector<QueryScoreStats>& score_statistics() const {
    return stats_;
  }

  [[nodiscard]] bool supports_snapshot() const override { return true; }
  void snapshot(ByteWriter& w) const override;
  void restore(ByteReader& r) override;

 private:
  std::vector<bio::Sequence> queries_;
  std::vector<bio::Sequence> database_;
  DSearchConfig config_;
  std::size_t total_query_len_ = 0;
  std::size_t cursor_ = 0;      // next database sequence to hand out
  int outstanding_ = 0;
  SearchResult merged_;         // running top-k per query
  std::vector<QueryScoreStats> stats_;  // background distribution per query
};

/// The client-side half: searches one chunk against all queries, through
/// the batch kernel layer (bio/align_batch.hpp) — query profiles are built
/// once per problem in initialize() and reused for every chunk.
class DSearchAlgorithm final : public dist::Algorithm {
 public:
  void initialize(std::span<const std::byte> problem_data) override;
  std::vector<std::byte> process(const dist::WorkUnit& unit) override;

  /// Split each chunk's database sequences into blocks scored on a
  /// util::ThreadPool. Blocks are merged back in database order and
  /// score sums are exact integer arithmetic, so the payload stays
  /// byte-identical to single-threaded execution (docs/KERNELS.md).
  void set_parallelism(std::size_t threads) override;

 private:
  std::vector<bio::Sequence> queries_;
  std::vector<bio::QueryProfile> profiles_;
  DSearchConfig config_;
  std::optional<bio::ScoringScheme> scheme_;
  std::size_t threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // created lazily on first chunk
};

/// Register DSearchAlgorithm under kAlgorithmName (idempotent).
void register_algorithm();

// ---- wire helpers (exposed for tests) ----
void encode_config(ByteWriter& w, const DSearchConfig& config);
DSearchConfig decode_config(ByteReader& r);
void encode_sequences(ByteWriter& w, std::span<const bio::Sequence> seqs);
std::vector<bio::Sequence> decode_sequences(ByteReader& r);
void encode_result(ByteWriter& w, const SearchResult& result);
SearchResult decode_result(ByteReader& r);
void encode_stats(ByteWriter& w, const std::vector<QueryScoreStats>& stats);
std::vector<QueryScoreStats> decode_stats(ByteReader& r);

/// Merge `incoming` into `accumulated` keeping the top-k of each query.
void merge_topk(SearchResult& accumulated, const SearchResult& incoming,
                std::size_t top_k);

}  // namespace hdcs::dsearch
