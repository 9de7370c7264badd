#include "core/lime.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.hpp"
#include "core/probe.hpp"

namespace xnfv::xai {

Lime::Lime(BackgroundData background, xnfv::ml::Rng rng, Config config)
    : background_(std::move(background)), rng_(rng), config_(config) {
    if (background_.empty()) throw std::invalid_argument("Lime: empty background");
    // Per-feature stddevs define both the perturbation scale and the
    // standardized distance metric.
    const auto& bg = background_.samples();
    sigma_.assign(bg.cols(), 0.0);
    const auto& mu = background_.means();
    for (std::size_t r = 0; r < bg.rows(); ++r) {
        const auto row = bg.row(r);
        for (std::size_t c = 0; c < sigma_.size(); ++c) {
            const double d = row[c] - mu[c];
            sigma_[c] += d * d;
        }
    }
    for (double& s : sigma_) {
        s = std::sqrt(s / static_cast<double>(bg.rows()));
        if (s == 0.0) s = 1.0;  // constant feature: unit scale
    }
}

Explanation Lime::explain(const xnfv::ml::Model& model, std::span<const double> x) {
    const xnfv::ThreadBudget budget(config_.threads);
    return explain_seeded(model, x, rng_.next_u64(), last_fit_);
}

std::vector<Explanation> Lime::explain_batch(const xnfv::ml::Model& model,
                                             const xnfv::ml::Matrix& instances) {
    const xnfv::ThreadBudget budget(config_.threads);
    std::vector<std::uint64_t> seeds(instances.rows());
    for (auto& s : seeds) s = rng_.next_u64();
    std::vector<Explanation> out(instances.rows());
    std::vector<FitDiagnostics> fits(instances.rows());
    xnfv::parallel_for(instances.rows(), config_.threads, [&](std::size_t r) {
        out[r] = explain_seeded(model, instances.row(r), seeds[r], fits[r]);
    });
    // Same observable state as the sequential loop: last_fit() describes the
    // final row explained.
    if (!fits.empty()) last_fit_ = std::move(fits.back());
    return out;
}

Explanation Lime::explain_seeded(const xnfv::ml::Model& model, std::span<const double> x,
                                 std::uint64_t call_seed, FitDiagnostics& fit) const {
    const std::size_t d = model.num_features();
    if (x.size() != d) throw std::invalid_argument("Lime: input size mismatch");
    if (config_.num_samples < d + 2)
        throw std::invalid_argument("Lime: num_samples too small for the feature count");

    const double width = config_.kernel_width > 0.0
                             ? config_.kernel_width
                             : 0.75 * std::sqrt(static_cast<double>(d));
    const double inv_2w2 = 1.0 / (2.0 * width * width);

    // Perturb, evaluate, kernel-weight.  The design is in *standardized
    // offset* space (z_j = (x'_j - x_j)/sigma_j) with an intercept column,
    // which makes the kernel isotropic and the ridge penalty scale-free.
    // Sample s draws its offsets from RNG stream (call_seed, s) and writes
    // only row s, so the neighborhood is identical for any thread count.
    const std::size_t n = config_.num_samples;
    xnfv::ml::Matrix design(n, d + 1);
    std::vector<double> y(n), w(n);
    // Probe rows for a block of samples are materialized into a reused
    // scratch matrix and evaluated with one predict_batch per block; each
    // sample still draws from its own stream and writes only its own slots,
    // so the neighborhood is unchanged for any thread count or block size.
    const auto fill_neighborhood = [&](xnfv::ml::Matrix& z, std::span<double> ys,
                                       std::span<double> ws, std::size_t stream_base) {
        const std::size_t block = kProbeBlockRows;  // one probe row per sample
        xnfv::parallel_for_chunks(
            ys.size(), config_.threads, [&](std::size_t begin, std::size_t end) {
                ProbeScratch scratch;
                for (std::size_t s0 = begin; s0 < end; s0 += block) {
                    check_budget(config_.cancel);
                    const std::size_t s1 = std::min(s0 + block, end);
                    scratch.ensure(s1 - s0, d);
                    for (std::size_t s = s0; s < s1; ++s) {
                        auto stream = xnfv::ml::Rng::stream(call_seed, stream_base + s);
                        auto row = z.row(s);
                        auto probe = scratch.rows.row(s - s0);
                        double dist2 = 0.0;
                        row[0] = 1.0;  // intercept
                        for (std::size_t j = 0; j < d; ++j) {
                            const double off = stream.normal(0.0, config_.perturbation_scale);
                            probe[j] = x[j] + off * sigma_[j];
                            row[j + 1] = off;
                            dist2 += off * off;
                        }
                        ws[s] = std::exp(-dist2 * inv_2w2);
                    }
                    const auto preds = scratch.preds_span(s1 - s0);
                    model.predict_batch(scratch.rows, preds);
                    for (std::size_t s = s0; s < s1; ++s) ys[s] = preds[s - s0];
                }
            });
    };
    fill_neighborhood(design, y, w, 0);

    const auto beta = xnfv::ml::weighted_least_squares(design, y, w, config_.l2);

    // Weighted R^2 of the surrogate over a sample batch; guards against the
    // degenerate case where the kernel leaves (almost) no effective weight.
    const auto weighted_r2 = [&](const xnfv::ml::Matrix& z, std::span<const double> ys,
                                 std::span<const double> ws) {
        double w_sum = 0.0, y_mean = 0.0;
        for (std::size_t s = 0; s < ys.size(); ++s) {
            w_sum += ws[s];
            y_mean += ws[s] * ys[s];
        }
        if (w_sum <= 1e-12) return 0.0;
        y_mean /= w_sum;
        double ss_res = 0.0, ss_tot = 0.0;
        for (std::size_t s = 0; s < ys.size(); ++s) {
            const double pred = xnfv::ml::dot(z.row(s), beta);
            ss_res += ws[s] * (ys[s] - pred) * (ys[s] - pred);
            ss_tot += ws[s] * (ys[s] - y_mean) * (ys[s] - y_mean);
        }
        if (ss_tot <= 1e-12 * w_sum) return 0.0;  // locally constant target
        return 1.0 - ss_res / ss_tot;
    };
    fit.weighted_r2 = weighted_r2(design, y, w);

    // Honest fidelity: fresh neighborhood samples the surrogate never saw
    // (streams n.. so they don't reuse the training draws).
    {
        const std::size_t n_eval = std::max<std::size_t>(100, n / 4);
        xnfv::ml::Matrix eval_design(n_eval, d + 1);
        std::vector<double> ye(n_eval), we(n_eval);
        fill_neighborhood(eval_design, ye, we, n);
        fit.holdout_r2 = weighted_r2(eval_design, ye, we);
    }

    fit.intercept = beta[0];
    fit.coefficients.assign(d, 0.0);

    Explanation e;
    e.method = name();
    e.prediction = model.predict(x);
    e.attributions.assign(d, 0.0);
    const auto& mu = background_.means();
    for (std::size_t j = 0; j < d; ++j) {
        // Convert the standardized slope back to raw units.
        const double slope = beta[j + 1] / sigma_[j];
        fit.coefficients[j] = slope;
        // Local effect relative to the background mean: what this feature's
        // deviation from "typical" contributes under the local linear model.
        e.attributions[j] = slope * (x[j] - mu[j]);
    }
    double effects = 0.0;
    for (double a : e.attributions) effects += a;
    // Base chosen so the additive identity holds for the *surrogate*:
    // surrogate(x) = intercept (z = 0) => base = surrogate(x) - effects.
    e.base_value = beta[0] - effects;
    return e;
}

}  // namespace xnfv::xai
