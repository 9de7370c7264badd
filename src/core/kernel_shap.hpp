// KernelSHAP (Lundberg & Lee, NeurIPS 2017).
//
// Model-agnostic Shapley approximation: evaluate the interventional value
// function v(S) = E_b[f(x_S, b_!S)] on a budget of coalitions, then solve the
// Shapley-kernel-weighted least squares problem whose solution is the exact
// Shapley values when all 2^d coalitions are enumerated.
//
// Implementation notes (mirroring the reference implementation):
//  * Coalition sizes are consumed outward-in: size pairs (1, d-1), (2, d-2),
//    ... are *fully enumerated* while the budget allows, because the kernel
//    mass concentrates on extreme sizes; the remainder of the budget is
//    random-sampled across the remaining sizes proportionally to kernel mass.
//  * Paired (antithetic) sampling adds each sampled coalition's complement,
//    which cancels odd error terms and roughly halves variance at equal
//    budget (ablation A1).
//  * The efficiency constraint (sum phi = f(x) - E[f]) is enforced exactly by
//    eliminating one coefficient before the solve, not by soft penalty.
#pragma once

#include "core/budget.hpp"
#include "core/explanation.hpp"
#include "core/probe.hpp"
#include "mlcore/model.hpp"
#include "mlcore/rng.hpp"

namespace xnfv::xai {

class KernelShap final : public Explainer {
public:
    struct Config {
        /// Max distinct coalition evaluations (excluding empty/full).
        std::size_t max_coalitions = 2048;
        bool paired_sampling = true;
        /// Tiny ridge term keeps the WLS solvable when sampled coalitions
        /// are collinear; 0 disables.
        double l2 = 1e-8;
        /// Worker threads for coalition sampling/evaluation and batch rows;
        /// 0 uses xnfv::default_threads().  The budget covers the model's
        /// predict_batch calls too (xnfv::ThreadBudget), so 1 keeps the whole
        /// call on the calling thread.  Attributions are identical for any
        /// thread count (per-coalition RNG streams).
        std::size_t threads = 0;
        /// Optional cooperative stop signal, polled once per evaluation
        /// block (~kProbeBlockRows probe rows); a fired token aborts
        /// explain() with BudgetExceeded.  The token must outlive the call.
        /// Null = never cancelled.
        const CancelToken* cancel = nullptr;
    };

    KernelShap(BackgroundData background, xnfv::ml::Rng rng)
        : KernelShap(std::move(background), rng, Config{}) {}
    KernelShap(BackgroundData background, xnfv::ml::Rng rng, Config config)
        : background_(std::move(background)), rng_(rng), config_(config) {}

    [[nodiscard]] Explanation explain(const xnfv::ml::Model& model,
                                      std::span<const double> x) override;

    /// Row-parallel batch explanation; per-row results match a sequential
    /// explain() loop exactly (per-row seeds are drawn up front, in order).
    [[nodiscard]] std::vector<Explanation> explain_batch(
        const xnfv::ml::Model& model, const xnfv::ml::Matrix& instances) override;

    [[nodiscard]] std::string name() const override { return "kernel_shap"; }

private:
    /// The full algorithm for one instance with all randomness derived from
    /// `call_seed` — thread-count invariant by construction.  `base_value`
    /// is E_b[f(b)] (the all-false-mask coalition value), hoisted out so
    /// explain_batch computes it once per model instead of once per row.
    [[nodiscard]] Explanation explain_seeded(const xnfv::ml::Model& model,
                                             std::span<const double> x,
                                             std::uint64_t call_seed,
                                             double base_value) const;

    BackgroundData background_;
    xnfv::ml::Rng rng_;
    Config config_;
    BaseValueCache base_cache_;  ///< consulted only in serial explain entry points
};

}  // namespace xnfv::xai
