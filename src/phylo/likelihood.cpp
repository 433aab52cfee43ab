#include "phylo/likelihood.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "phylo/optimize.hpp"
#include "phylo/partials_kernels.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace hdcs::phylo {

LikelihoodEngine::LikelihoodEngine(PatternAlignment alignment,
                                   std::shared_ptr<const SubstModel> model,
                                   RateModel rates)
    : alignment_(std::move(alignment)), model_(std::move(model)),
      rates_(std::move(rates)) {
  if (!model_) throw InputError("LikelihoodEngine: null model");
  if (alignment_.patterns == 0) throw InputError("LikelihoodEngine: empty alignment");
  if (rates_.rates.empty() || rates_.rates.size() != rates_.probs.size()) {
    throw InputError("LikelihoodEngine: malformed rate model");
  }
}

double LikelihoodEngine::cost_per_eval(int leaf_count) const {
  // ~ internal nodes x patterns x categories x 4 states x 8 flops.
  double nodes = std::max(1, leaf_count - 1);
  return nodes * static_cast<double>(alignment_.patterns) *
         static_cast<double>(rates_.category_count()) * 32.0;
}

double LikelihoodEngine::log_likelihood(const Tree& tree) {
  evals_ += 1;
  const std::size_t P = alignment_.patterns;
  const std::size_t C = rates_.category_count();
  const std::size_t stride = P * C * 4;
  const auto n_nodes = static_cast<std::size_t>(tree.node_count());

  // Grow, never shrink: cached nodes beyond this tree stay valid.
  if (nodes_.size() < n_nodes) {
    nodes_.resize(n_nodes);
    partials_.resize(n_nodes * stride);
  }

  const auto order = tree.postorder();
  for (int node : order) {
    auto ni = static_cast<std::size_t>(node);
    const NodeState& state = nodes_[ni];
    if (tree.is_leaf(node)) {
      const std::string& name = tree.at(node).name;
      if (state.row >= 0 &&
          alignment_.names[static_cast<std::size_t>(state.row)] == name) {
        continue;
      }
      compute_leaf(ni, static_cast<int>(alignment_.taxon_index(name)));
      continue;
    }
    key_.clear();
    for (int child : tree.at(node).children) {
      key_.push_back({child, std::bit_cast<std::uint64_t>(tree.branch_length(child)),
                      nodes_[static_cast<std::size_t>(child)].version});
    }
    if (state.row == NodeState::kInternal && state.inputs == key_) continue;
    compute_internal(ni);
  }

  // Per-pattern scale logs, summed over the tree in postorder and adding
  // only the patterns a node rescaled: the same additions in the same
  // order as accumulating them during one full pass.
  scale_log_.assign(P, 0.0);
  for (int node : order) {
    const auto& node_scale = nodes_[static_cast<std::size_t>(node)].scale_log;
    if (node_scale.empty()) continue;
    for (std::size_t p = 0; p < P; ++p) {
      if (node_scale[p] != 0) scale_log_[p] += node_scale[p];
    }
  }

  const auto root = static_cast<std::size_t>(tree.root());
  const double* rp = &partials_[root * stride];
  const Vec4& pi = model_->pi();
  double log_l = 0;
  for (std::size_t p = 0; p < P; ++p) {
    double site = 0;
    for (std::size_t c = 0; c < C; ++c) {
      const double* cell = rp + (c * P + p) * 4;
      double cat = pi[0] * cell[0] + pi[1] * cell[1] + pi[2] * cell[2] +
                   pi[3] * cell[3];
      site += rates_.probs[c] * cat;
    }
    if (site <= 0) {
      // Fully scaled-out pattern: fall back to the scale log alone.
      log_l += alignment_.weights[p] * (scale_log_[p] + std::log(1e-300));
    } else {
      log_l += alignment_.weights[p] * (std::log(site) + scale_log_[p]);
    }
  }
  return log_l;
}

void LikelihoodEngine::compute_leaf(std::size_t node, int row) {
  const std::size_t P = alignment_.patterns;
  const std::size_t C = rates_.category_count();
  NodeState& state = nodes_[node];
  double* np = &partials_[node * P * C * 4];
  for (std::size_t c = 0; c < C; ++c) {
    double* cat_base = np + c * P * 4;
    for (std::size_t p = 0; p < P; ++p) {
      std::uint8_t code = alignment_.code(p, static_cast<std::size_t>(row));
      double* cell = cat_base + p * 4;
      if (code == kMissing) {
        cell[0] = cell[1] = cell[2] = cell[3] = 1.0;
      } else {
        cell[0] = cell[1] = cell[2] = cell[3] = 0.0;
        cell[code] = 1.0;
      }
    }
  }
  state.row = row;
  state.inputs.clear();
  state.scale_log.clear();
  state.version += 1;
  partials_computed_ += 1;
}

void LikelihoodEngine::compute_internal(std::size_t node) {
  const PartialsCombineFn combine = partials_combine_for(simd_tier());
  const std::size_t P = alignment_.patterns;
  const std::size_t C = rates_.category_count();
  const std::size_t stride = P * C * 4;
  NodeState& state = nodes_[node];
  state.row = NodeState::kEmpty;  // not a valid cache entry until finished
  double* np = &partials_[node * stride];

  // Product over children of (P_child^T . child partials). Patterns of one
  // category are contiguous ([cat][pattern][state] layout), so each
  // combine call is one long unit-stride sweep through the dispatched
  // kernel (partials_kernels.hpp).
  bool first = true;
  for (const ChildKey& in : key_) {
    const double* cp = &partials_[static_cast<std::size_t>(in.node) * stride];
    const auto t = std::bit_cast<double>(in.length_bits);
    for (std::size_t c = 0; c < C; ++c) {
      Matrix4 pm = model_->transition_probs(t * rates_.rates[c]);
      combine(&pm.m[0][0], cp + c * P * 4, np + c * P * 4, P, first);
    }
    first = false;
  }

  // Rescale patterns drifting toward underflow; the node's scale row is
  // allocated only once it actually rescales a pattern.
  bool rescaled = false;
  for (std::size_t p = 0; p < P; ++p) {
    double maxv = 0;
    for (std::size_t c = 0; c < C; ++c) {
      const double* cell = np + (c * P + p) * 4;
      for (int i = 0; i < 4; ++i) maxv = std::max(maxv, cell[i]);
    }
    if (maxv > 0 && maxv < 1e-100) {
      double inv = 1.0 / maxv;
      for (std::size_t c = 0; c < C; ++c) {
        double* cell = np + (c * P + p) * 4;
        for (int i = 0; i < 4; ++i) cell[i] *= inv;
      }
      if (!rescaled) state.scale_log.assign(P, 0.0);
      state.scale_log[p] = std::log(maxv);
      rescaled = true;
    }
  }
  if (!rescaled) state.scale_log.clear();

  state.inputs = key_;
  state.row = NodeState::kInternal;
  state.version += 1;
  partials_computed_ += 1;
}

double LikelihoodEngine::optimize_branch(Tree& tree, int node, double tol) {
  if (node == tree.root()) throw InputError("optimize_branch: root has no branch");
  auto objective = [&](double bl) {
    tree.set_branch_length(node, bl);
    return -log_likelihood(tree);
  };
  auto res = brent_minimize(objective, kMinBranch, kMaxBranch, tol);
  tree.set_branch_length(node, res.x);
  return -res.value;
}

double LikelihoodEngine::optimize_branches(Tree& tree, std::span<const int> nodes,
                                           int passes, double tol) {
  double best = log_likelihood(tree);
  for (int pass = 0; pass < passes; ++pass) {
    for (int node : nodes) best = optimize_branch(tree, node, tol);
  }
  return best;
}

double LikelihoodEngine::optimize_all_branches(Tree& tree, int passes, double tol) {
  auto edges = tree.edge_nodes();
  return optimize_branches(tree, edges, passes, tol);
}

}  // namespace hdcs::phylo
