// LIME — Local Interpretable Model-agnostic Explanations (Ribeiro et al.,
// KDD 2016), tabular variant.
//
// Samples perturbations of the instance from the training distribution,
// weights them by an RBF kernel in standardized feature space, and fits a
// weighted ridge surrogate.  The attribution reported for feature j is the
// local *effect* beta_j * (x_j - mean_j), which places LIME in the same
// additive units as the Shapley explainers so the agreement and deletion
// experiments can compare them directly.  The raw coefficients are also
// exposed for the fidelity experiment.
#pragma once

#include "core/budget.hpp"
#include "core/explanation.hpp"
#include "mlcore/model.hpp"
#include "mlcore/rng.hpp"

namespace xnfv::xai {

class Lime final : public Explainer {
public:
    struct Config {
        std::size_t num_samples = 1000;
        /// RBF kernel width in standardized space; <= 0 selects the LIME
        /// default 0.75 * sqrt(d).
        double kernel_width = -1.0;
        double l2 = 1e-3;  ///< ridge strength of the surrogate
        /// Perturbation scale: samples are drawn N(x_j, scale * sigma_j)
        /// around the instance (sigma_j from the background).
        double perturbation_scale = 1.0;
        /// Worker threads for neighborhood generation/evaluation and batch
        /// rows; 0 uses xnfv::default_threads().  The budget covers the
        /// model's predict_batch calls too (xnfv::ThreadBudget), so 1 keeps
        /// the whole call on the calling thread.  Attributions are identical
        /// for any thread count (per-sample RNG streams).
        std::size_t threads = 0;
        /// Optional cooperative stop signal, polled once per neighborhood
        /// evaluation block (~kProbeBlockRows samples); fired = explain()
        /// aborts with BudgetExceeded.  Must outlive the call.  Null =
        /// never cancelled.
        const CancelToken* cancel = nullptr;
    };

    Lime(BackgroundData background, xnfv::ml::Rng rng)
        : Lime(std::move(background), rng, Config{}) {}
    Lime(BackgroundData background, xnfv::ml::Rng rng, Config config);

    [[nodiscard]] Explanation explain(const xnfv::ml::Model& model,
                                      std::span<const double> x) override;

    /// Row-parallel batch explanation; per-row results match a sequential
    /// explain() loop exactly (per-row seeds are drawn up front, in order).
    /// Note: last_fit() afterwards refers to the final row.
    [[nodiscard]] std::vector<Explanation> explain_batch(
        const xnfv::ml::Model& model, const xnfv::ml::Matrix& instances) override;

    [[nodiscard]] std::string name() const override { return "lime"; }

    /// Result of the last surrogate fit (valid after explain()).
    struct FitDiagnostics {
        /// Kernel-weighted R^2 on the samples the surrogate was *fit* on
        /// (optimistic for small budgets — the surrogate can overfit them).
        double weighted_r2 = 0.0;
        /// Kernel-weighted R^2 on an independent batch of fresh neighborhood
        /// samples — the honest local-fidelity number experiment F1 reports.
        double holdout_r2 = 0.0;
        std::vector<double> coefficients;  ///< raw local slopes
        double intercept = 0.0;
    };
    [[nodiscard]] const FitDiagnostics& last_fit() const noexcept { return last_fit_; }

private:
    /// One instance with all randomness derived from `call_seed`; the fit
    /// diagnostics land in `fit` so parallel batch rows don't contend on
    /// last_fit_.
    [[nodiscard]] Explanation explain_seeded(const xnfv::ml::Model& model,
                                             std::span<const double> x,
                                             std::uint64_t call_seed,
                                             FitDiagnostics& fit) const;

    BackgroundData background_;
    xnfv::ml::Rng rng_;
    Config config_;
    std::vector<double> sigma_;  ///< per-feature background stddevs
    FitDiagnostics last_fit_;
};

}  // namespace xnfv::xai
