// Permutation-sampling Shapley estimator (Castro, Gómez & Tejada 2009).
//
// The third Shapley estimator in the library, complementing exact
// enumeration (exponential) and KernelSHAP (weighted regression).  For each
// of `num_permutations` random orderings pi and background draws b, features
// are switched from the background value to the instance value in pi's
// order, crediting each feature with the marginal prediction change:
//
//     phi_i  +=  f(x_{S ∪ i}, b_rest) - f(x_S, b_rest)
//
// This is an unbiased estimator of the interventional Shapley values, and
// within one (permutation, background) run the credits telescope exactly to
// f(x) - f(b) — so the *averaged* attributions satisfy efficiency against
// the averaged base value by construction (test-checked).
//
// Cost: num_permutations * d model evaluations.  Compared to KernelSHAP it
// needs no linear solve and no coalition bookkeeping, but converges slower
// per model call for small d; the A1 ablation bench compares all three.
#pragma once

#include "core/budget.hpp"
#include "core/explanation.hpp"
#include "mlcore/model.hpp"
#include "mlcore/rng.hpp"

namespace xnfv::xai {

class SamplingShapley final : public Explainer {
public:
    struct Config {
        std::size_t num_permutations = 200;
        /// Replay each sampled permutation reversed against the same
        /// background row.  This cancels permutation-*order* noise (relevant
        /// for models with interactions); it does not reduce background-draw
        /// noise, so for purely additive models it is cost-neutral at equal
        /// evaluation budget.
        bool antithetic = true;
        /// Worker threads for the permutation sweep and batch rows; 0 uses
        /// xnfv::default_threads().  The budget covers the model's
        /// predict_batch calls too (xnfv::ThreadBudget), so 1 keeps the whole
        /// call on the calling thread.  Attributions are identical for any
        /// thread count (per-permutation RNG streams, ordered merge).
        std::size_t threads = 0;
        /// Optional cooperative stop signal, polled once per permutation;
        /// fired = explain() aborts with BudgetExceeded.  Must outlive the
        /// call.  Null = never cancelled.
        const CancelToken* cancel = nullptr;
    };

    SamplingShapley(BackgroundData background, xnfv::ml::Rng rng)
        : SamplingShapley(std::move(background), rng, Config{}) {}
    SamplingShapley(BackgroundData background, xnfv::ml::Rng rng, Config config)
        : background_(std::move(background)), rng_(rng), config_(config) {}

    [[nodiscard]] Explanation explain(const xnfv::ml::Model& model,
                                      std::span<const double> x) override;

    /// Row-parallel batch explanation; per-row results match a sequential
    /// explain() loop exactly (per-row seeds are drawn up front, in order).
    [[nodiscard]] std::vector<Explanation> explain_batch(
        const xnfv::ml::Model& model, const xnfv::ml::Matrix& instances) override;

    [[nodiscard]] std::string name() const override { return "sampling_shapley"; }

private:
    [[nodiscard]] Explanation explain_seeded(const xnfv::ml::Model& model,
                                             std::span<const double> x,
                                             std::uint64_t call_seed) const;
    BackgroundData background_;
    xnfv::ml::Rng rng_;
    Config config_{};
};

}  // namespace xnfv::xai
