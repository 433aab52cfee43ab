#pragma once
// Maximum-likelihood evaluation on trees: Felsenstein's pruning algorithm
// with per-pattern scaling, among-site rate categories, and Brent
// branch-length optimisation. This is the surface DPRml uses PAL for
// (paper §3.2: "uses the popular Phylogenetic Analysis Library (PAL) v1.4
// for all its likelihood calculations").
//
// Pruning is incremental: the engine keeps every node's partials between
// calls and recomputes a node only when one of its inputs changed (see
// NodeState below and docs/KERNELS.md). A cold engine does the full pass;
// a Brent step on one branch recomputes only the path from that branch to
// the root. Results are bit-identical to a fresh engine's.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "phylo/alignment.hpp"
#include "phylo/subst_model.hpp"
#include "phylo/tree.hpp"

namespace hdcs::phylo {

class LikelihoodEngine {
 public:
  LikelihoodEngine(PatternAlignment alignment, std::shared_ptr<const SubstModel> model,
                   RateModel rates);

  /// Log-likelihood of the tree (leaf names must all be in the alignment).
  double log_likelihood(const Tree& tree);

  /// Optimize the branch above `node` by Brent search; returns the new
  /// log-likelihood. Branch lengths are searched in [min_bl, max_bl].
  double optimize_branch(Tree& tree, int node, double tol = 1e-4);

  /// Round-robin optimisation of the given branches (`passes` sweeps).
  double optimize_branches(Tree& tree, std::span<const int> nodes, int passes = 1,
                           double tol = 1e-4);

  /// All branches, `passes` sweeps (fastDNAml-style smoothing).
  double optimize_all_branches(Tree& tree, int passes = 2, double tol = 1e-4);

  [[nodiscard]] const PatternAlignment& alignment() const { return alignment_; }
  [[nodiscard]] const SubstModel& model() const { return *model_; }
  [[nodiscard]] const RateModel& rates() const { return rates_; }
  /// Number of log-likelihood evaluations performed (cost accounting).
  [[nodiscard]] std::uint64_t eval_count() const { return evals_; }
  /// Number of node partials (leaf or internal) actually recomputed; the
  /// rest of each evaluation was served from the engine's node cache.
  [[nodiscard]] std::uint64_t partials_computed() const { return partials_computed_; }

  /// Abstract cost of one likelihood evaluation in WorkUnit::cost_ops
  /// currency (DP cell updates equivalent).
  [[nodiscard]] double cost_per_eval(int leaf_count) const;

  static constexpr double kMinBranch = 1e-8;
  static constexpr double kMaxBranch = 10.0;

 private:
  /// One input of an internal node: which child, over which branch length
  /// (its bit pattern), holding which version of that child's partials.
  struct ChildKey {
    int node;
    std::uint64_t length_bits;
    std::uint64_t version;
    bool operator==(const ChildKey&) const = default;
  };

  /// What the cached partials of one node index were computed from. A node
  /// is clean when the tree presents the same key again: a leaf with the
  /// same alignment row, or an internal node with the same ordered
  /// children, branch lengths and child versions. `version` is bumped on
  /// every recompute, so a child moved away and back (insert/NNI/remove)
  /// still marks its old parent stale.
  struct NodeState {
    static constexpr int kInternal = -1;
    static constexpr int kEmpty = -2;
    int row = kEmpty;                // leaf: alignment row
    std::vector<ChildKey> inputs;    // internal nodes only
    std::uint64_t version = 0;
    /// This node's rescaling log per pattern (0 where it did not rescale);
    /// empty unless the node rescaled some pattern at its last recompute.
    std::vector<double> scale_log;
  };

  /// Recompute one node into partials_ and bump its version; an internal
  /// node combines the children named by key_.
  void compute_leaf(std::size_t node, int row);
  void compute_internal(std::size_t node);

  PatternAlignment alignment_;
  std::shared_ptr<const SubstModel> model_;
  RateModel rates_;
  std::uint64_t evals_ = 0;
  std::uint64_t partials_computed_ = 0;

  // Node cache, indexed by node id; it only grows, so the state of node
  // ids the current tree lacks survives for the next tree that has them.
  std::vector<NodeState> nodes_;
  std::vector<ChildKey> key_;       // scratch: the key the tree presents
  std::vector<double> partials_;    // [node][cat][pattern][state]
  std::vector<double> scale_log_;   // [pattern], summed per evaluation
};

}  // namespace hdcs::phylo
