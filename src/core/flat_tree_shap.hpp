// Batched flat-tree TreeSHAP: the exact path-dependent algorithm of
// core/tree_shap.hpp re-implemented over a structure-of-arrays ensemble
// layout (the same re-packing mlcore/flat_tree.hpp applies to inference).
//
// Why a second implementation exists:
//   * The recursive walker pointer-chases 48-byte TreeNode structs, allocates
//     a fresh collapsed-path vector set at every leaf, and recurses — fine
//     for one-shot analysis, hostile to a serving hot path.
//   * FlatTreeShap packs every tree's nodes into contiguous parallel arrays
//     (int32 feature / child ids, double threshold / leaf value) with the
//     per-edge cover ratios *precomputed at build time*, walks each tree with
//     an explicit-stack (non-recursive) EXTEND/UNWIND that maintains the
//     collapsed per-distinct-feature path state incrementally in preallocated
//     per-thread scratch, and blocks batches tree-major so each tree's arrays
//     stay cache-hot across a block of instances.  Warm explains perform zero
//     heap allocations.
//
// Determinism contract (DESIGN.md §16): the floating-point operation sequence
// per instance is *identical* to the recursive core/tree_shap walker — same
// leaf visit order, same first-occurrence path collapse, same polynomial DP,
// same lgamma-based Shapley weights (precomputed once into a triangular
// table), same ensemble aggregation order — so attributions, base values and
// predictions are bitwise-equal to TreeShap::explain at any thread count.
// tests/test_fast_path.cpp pins this for Tree / Forest / GBT.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/explanation.hpp"
#include "mlcore/matrix.hpp"
#include "mlcore/model.hpp"

namespace xnfv::ml {
struct TreeNode;
}

namespace xnfv::xai {

/// Preallocated per-thread working state for FlatTreeShap walks.  resize()
/// once (or let explain() do it lazily); every subsequent walk reuses the
/// buffers without touching the allocator.
struct FlatShapScratch {
    /// Sizes every buffer for a model with `num_features` features whose
    /// deepest tree has `max_depth` edges on a root-to-leaf path.  Idempotent
    /// and cheap when already large enough.
    void resize(std::size_t num_features, std::size_t max_depth);

    // Explicit DFS stack: node id + visit phase (0 = first entry, 1 = left
    // subtree done, 2 = right subtree done).
    std::vector<std::int32_t> frame_node;
    std::vector<std::uint8_t> frame_phase;

    // Per-pushed-edge undo log so UNWIND restores the exact prior bits of the
    // collapsed state (bitwise equal to a from-scratch collapse at the leaf).
    std::vector<std::int32_t> edge_pos;
    std::vector<std::uint8_t> edge_created;
    std::vector<double> edge_saved_a;
    std::vector<double> edge_saved_b;

    // Collapsed path state: distinct features in first-occurrence order with
    // their indicator products (a) and cover-ratio products (b).
    std::vector<std::int32_t> feat;
    std::vector<double> a;
    std::vector<double> b;

    std::vector<double> poly;      ///< subset-size polynomial DP buffer
    std::vector<double> phi;       ///< ensemble attribution accumulator
    std::vector<double> tree_phi;  ///< per-tree buffer (GBT scaling)
};

/// Immutable SoA snapshot of a tree ensemble prepared for fast exact SHAP.
/// Self-contained: holds copies of the node data (plus the ensemble scalars
/// needed for aggregation and prediction), so it does not retain a model
/// pointer and can outlive or be shared across model snapshots.
class FlatTreeShap {
public:
    enum class Kind : std::uint8_t { tree, forest, gbt };

    /// Builds from a DecisionTree, RandomForest, or GradientBoostedTrees.
    /// Returns nullptr for any other model type (the router falls back to
    /// probe explainers).  Throws std::invalid_argument on an unfitted
    /// ensemble, matching the recursive TreeShap messages.
    [[nodiscard]] static std::shared_ptr<const FlatTreeShap> build(
        const xnfv::ml::Model& model);

    [[nodiscard]] Kind kind() const noexcept { return kind_; }
    [[nodiscard]] std::size_t num_features() const noexcept { return num_features_; }
    [[nodiscard]] std::size_t num_trees() const noexcept { return roots_.size(); }
    [[nodiscard]] std::size_t num_nodes() const noexcept { return feature_.size(); }
    [[nodiscard]] std::size_t max_depth() const noexcept { return max_depth_; }

    /// Exact SHAP attributions + prediction for one instance, bitwise equal
    /// to TreeShap::explain on the source model.  Zero allocations once
    /// `scratch` is warm.  Throws std::invalid_argument on size mismatch.
    [[nodiscard]] Explanation explain(std::span<const double> x,
                                      FlatShapScratch& scratch) const;

    /// Explains every row, tree-major-blocked and row-parallel; each row's
    /// result is bitwise identical to explain() at any thread count.
    [[nodiscard]] std::vector<Explanation> explain_batch(
        const xnfv::ml::Matrix& instances, std::size_t threads = 0) const;

private:
    FlatTreeShap() = default;

    void add_tree(std::span<const xnfv::ml::TreeNode> nodes);
    void build_weight_table();

    /// One tree's walk: accumulates phi, returns the tree's base value.
    double walk_tree(std::size_t tree, std::span<const double> x,
                     FlatShapScratch& s, std::span<double> phi) const;

    /// Leaf value reached by descending tree `tree` at x (the scalar
    /// DecisionTree::predict descent over the flat arrays).
    [[nodiscard]] double tree_value(std::size_t tree, std::span<const double> x) const;

    /// Ensemble prediction replicated bitwise from the source model:
    /// tree → leaf value, forest → mean of tree values, gbt → margin.
    [[nodiscard]] double predict(std::span<const double> x) const;

    /// Per-instance explanation with ensemble aggregation, given warm scratch.
    void explain_into(std::span<const double> x, FlatShapScratch& s,
                      Explanation& e) const;

    // Node SoA, all trees concatenated; child ids rebased to absolute.
    std::vector<std::int32_t> feature_;    ///< split feature; -1 marks a leaf
    std::vector<double> threshold_;        ///< left iff x[feature] <= threshold
    std::vector<std::int32_t> left_;
    std::vector<std::int32_t> right_;
    std::vector<double> value_;            ///< leaf value (junk for internal)
    std::vector<double> ratio_left_;       ///< cover(left) / max(cover, 1)
    std::vector<double> ratio_right_;      ///< cover(right) / max(cover, 1)
    std::vector<std::int32_t> roots_;      ///< absolute root id per tree

    // Triangular Shapley-weight table: weight(k, m) = k!(m-k-1)!/m! for
    // m in 1..max_depth_, k in 0..m-1, computed by the recursive walker's
    // own shapley_factorial_weight (core/exact_shapley.hpp) so the bits match.
    std::vector<double> weight_;
    std::vector<std::size_t> weight_off_;  ///< row offset per m

    Kind kind_ = Kind::tree;
    std::size_t num_features_ = 0;
    std::size_t max_depth_ = 0;
    double base_score_ = 0.0;     ///< GBT only
    double learning_rate_ = 0.0;  ///< GBT only
};

/// Drop-in Explainer for the exact tree fast path: same name ("tree_shap"),
/// same results (bitwise), same error text as the recursive TreeShap, but
/// runs the flat kernel and reuses its scratch across calls.  The flat
/// snapshot is built lazily on first explain() and rebuilt if a different
/// model is passed.
class FlatTreeShapExplainer final : public Explainer {
public:
    FlatTreeShapExplainer() = default;
    /// `threads` bounds each call (explain_batch rows included) through an
    /// xnfv::ThreadBudget; 0 uses xnfv::default_threads().
    explicit FlatTreeShapExplainer(std::size_t threads) : threads_(threads) {}

    [[nodiscard]] Explanation explain(const xnfv::ml::Model& model,
                                      std::span<const double> x) override;

    [[nodiscard]] std::vector<Explanation> explain_batch(
        const xnfv::ml::Model& model, const xnfv::ml::Matrix& instances) override;

    [[nodiscard]] std::string name() const override { return "tree_shap"; }

private:
    const FlatTreeShap& ensure(const xnfv::ml::Model& model);

    const xnfv::ml::Model* cached_model_ = nullptr;
    std::shared_ptr<const FlatTreeShap> flat_;
    FlatShapScratch scratch_;
    std::size_t threads_ = 0;
};

}  // namespace xnfv::xai
