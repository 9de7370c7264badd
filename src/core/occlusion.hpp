// Single-feature occlusion (local) and permutation importance (global).
//
// Occlusion is the cheapest local attribution baseline: replace one feature
// with background draws and measure the prediction drop.  It ignores feature
// interactions entirely — which is precisely why the agreement experiment T2
// includes it as the "naive" point of comparison for the Shapley methods.
//
// Permutation importance is the standard *global* baseline: the increase in
// model error when a feature column is shuffled (Breiman 2001).
#pragma once

#include "core/budget.hpp"
#include "core/explanation.hpp"
#include "core/probe.hpp"
#include "mlcore/dataset.hpp"
#include "mlcore/model.hpp"
#include "mlcore/rng.hpp"

namespace xnfv::xai {

/// Local occlusion explainer: phi_j = f(x) - E_b[f(x with x_j := b_j)].
class Occlusion final : public Explainer {
public:
    struct Config {
        /// Worker threads for the per-feature sweep and batch rows; 0 uses
        /// xnfv::default_threads().  The budget covers the model's
        /// predict_batch calls too (xnfv::ThreadBudget), so 1 keeps the whole
        /// call on the calling thread.  Occlusion draws no randomness, so any
        /// thread count yields identical attributions.
        std::size_t threads = 0;
        /// Optional cooperative stop signal, polled once per occluded
        /// feature; fired = explain() aborts with BudgetExceeded.  Must
        /// outlive the call.  Null = never cancelled.
        const CancelToken* cancel = nullptr;
    };

    explicit Occlusion(BackgroundData background)
        : Occlusion(std::move(background), Config{}) {}
    Occlusion(BackgroundData background, Config config)
        : background_(std::move(background)), config_(config) {}

    [[nodiscard]] Explanation explain(const xnfv::ml::Model& model,
                                      std::span<const double> x) override;

    /// Row-parallel batch explanation (occlusion is stateless, so this is
    /// trivially identical to the sequential loop).
    [[nodiscard]] std::vector<Explanation> explain_batch(
        const xnfv::ml::Model& model, const xnfv::ml::Matrix& instances) override;

    [[nodiscard]] std::string name() const override { return "occlusion"; }

private:
    /// `base_value` is E_b[f(b)], hoisted out of the per-instance path so
    /// batch explains compute it once per model (BaseValueCache).
    [[nodiscard]] Explanation explain_one(const xnfv::ml::Model& model,
                                          std::span<const double> x,
                                          double base_value) const;

    BackgroundData background_;
    Config config_{};
    BaseValueCache base_cache_;  ///< consulted only in serial explain entry points
};

/// Global permutation importance.
struct PermutationImportanceResult {
    std::vector<double> importance;  ///< error increase per feature
    double baseline_error = 0.0;     ///< unpermuted error
};

/// Error metric: MSE for regression datasets, 1 - AUC for classification.
/// `repeats` shuffles are averaged per feature.
[[nodiscard]] PermutationImportanceResult permutation_importance(
    const xnfv::ml::Model& model, const xnfv::ml::Dataset& data, xnfv::ml::Rng& rng,
    std::size_t repeats = 3);

}  // namespace xnfv::xai
