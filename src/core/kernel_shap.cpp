#include "core/kernel_shap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/exact_shapley.hpp"  // shapley_kernel_weight, log_binomial
#include "core/parallel.hpp"

namespace xnfv::xai {

Explanation KernelShap::explain(const xnfv::ml::Model& model, std::span<const double> x) {
    const xnfv::ThreadBudget budget(config_.threads);
    const double base =
        background_.empty() ? 0.0 : base_cache_.get(model, background_);
    return explain_seeded(model, x, rng_.next_u64(), base);
}

std::vector<Explanation> KernelShap::explain_batch(const xnfv::ml::Model& model,
                                                   const xnfv::ml::Matrix& instances) {
    const xnfv::ThreadBudget budget(config_.threads);
    // Per-row seeds are drawn sequentially so row r sees the same stream the
    // r-th call of a sequential explain() loop would; the rows themselves
    // then run in parallel (nested loops inside explain_seeded fall back to
    // inline execution on pool workers).  The base value is constant across
    // rows, so it is resolved once here rather than per row.
    const double base =
        background_.empty() ? 0.0 : base_cache_.get(model, background_);
    std::vector<std::uint64_t> seeds(instances.rows());
    for (auto& s : seeds) s = rng_.next_u64();
    std::vector<Explanation> out(instances.rows());
    xnfv::parallel_for(instances.rows(), config_.threads, [&](std::size_t r) {
        out[r] = explain_seeded(model, instances.row(r), seeds[r], base);
    });
    return out;
}

Explanation KernelShap::explain_seeded(const xnfv::ml::Model& model,
                                       std::span<const double> x,
                                       std::uint64_t call_seed,
                                       double base_value) const {
    const std::size_t d = model.num_features();
    if (x.size() != d) throw std::invalid_argument("KernelShap: input size mismatch");
    if (background_.empty()) throw std::invalid_argument("KernelShap: empty background");
    if (d == 0) throw std::invalid_argument("KernelShap: zero features");

    const auto& bg = background_.samples();
    const std::size_t bg_rows = bg.rows();

    Explanation e;
    e.method = name();
    check_budget(config_.cancel);
    e.prediction = model.predict(x);
    e.base_value = base_value;
    e.attributions.assign(d, 0.0);
    // v(full): all features from x — still averaged over bg_rows identical
    // probes, matching the legacy value_of() bit for bit.
    double fx = 0.0;
    {
        ProbeScratch scratch;
        MaskSet full;
        full.assign(1, d);
        MaskSet::set_all(full.mask(0), d);
        fx = masked_value(model, x, bg, full.mask(0), scratch);
    }
    const double delta = fx - e.base_value;

    if (d == 1) {  // single feature carries everything
        e.attributions[0] = delta;
        return e;
    }

    // --- Phase 1: full enumeration of outermost coalition sizes -----------
    // First pass decides which sizes fit the budget; the masks themselves
    // are written afterwards, straight into one packed MaskSet (no
    // per-coalition vector<bool>).
    std::size_t budget = config_.max_coalitions;
    std::vector<bool> size_enumerated(d, false);  // indexed by coalition size
    std::size_t n_enumerated = 0;

    // Exact C(d, s) by stepwise integer multiplication (each intermediate is
    // itself a binomial, so it never exceeds the result).  The *budget*
    // arithmetic below keeps the historical exp(log_binomial) form — it
    // decides how many random draws remain, and changing its rounding would
    // change sampled coalitions — but slot layout needs the true
    // combination count: enumerate_size writes exactly C(d, s) masks.
    const auto exact_binomial = [d](std::size_t s) {
        std::size_t c = 1;
        for (std::size_t i = 1; i <= s; ++i) c = c * (d - s + i) / i;
        return c;
    };
    for (std::size_t s = 1; s <= d / 2; ++s) {
        const std::size_t t = d - s;  // paired size
        const bool self_paired = (s == t);
        const double count_s = std::exp(log_binomial(d, s));
        const double total = self_paired ? count_s : 2.0 * count_s;
        if (total > static_cast<double>(budget)) break;
        size_enumerated[s] = true;
        if (!self_paired) size_enumerated[t] = true;
        budget -= static_cast<std::size_t>(total);
        n_enumerated += (self_paired ? 1 : 2) * exact_binomial(s);
    }

    // --- Phase 2: random sampling over the remaining sizes ----------------
    std::vector<double> residual_mass(d, 0.0);
    double total_residual = 0.0;
    for (std::size_t s = 1; s < d; ++s) {
        if (size_enumerated[s]) continue;
        residual_mass[s] =
            shapley_kernel_weight(d, s) * std::exp(log_binomial(d, s));
        total_residual += residual_mass[s];
    }
    std::size_t n_random = 0;
    std::size_t per_draw = 1;
    double w_each = 0.0;
    if (total_residual > 0.0 && budget > 0) {
        n_random = config_.paired_sampling ? budget / 2 : budget;
        per_draw = config_.paired_sampling ? 2 : 1;
        // Each random coalition stands for an equal share of the residual
        // kernel mass.
        w_each = total_residual / std::max<std::size_t>(1, n_random) /
                 (config_.paired_sampling ? 2.0 : 1.0);
    }

    const std::size_t first = n_enumerated;
    const std::size_t n = n_enumerated + n_random * per_draw;
    if (n == 0) throw std::invalid_argument("KernelShap: coalition budget too small");

    MaskSet masks;
    masks.assign(n, d);
    std::vector<double> weights(n, 0.0);

    // Enumerated sizes, in the same outward-in order as before.
    std::size_t slot = 0;
    const auto enumerate_size = [&](std::size_t s, double w) {
        std::vector<std::size_t> idx(s);
        for (std::size_t i = 0; i < s; ++i) idx[i] = i;
        while (true) {
            auto m = masks.mask(slot);
            for (std::size_t i : idx) MaskSet::set(m, i);
            weights[slot] = w;
            ++slot;
            // Next combination (lexicographic).
            std::size_t k = s;
            while (k > 0 && idx[k - 1] == d - s + (k - 1)) --k;
            if (k == 0) break;
            ++idx[k - 1];
            for (std::size_t j = k; j < s; ++j) idx[j] = idx[j - 1] + 1;
        }
    };
    for (std::size_t s = 1; s <= d / 2; ++s) {
        if (!size_enumerated[s]) continue;
        const std::size_t t = d - s;
        enumerate_size(s, shapley_kernel_weight(d, s));
        if (t != s) enumerate_size(t, shapley_kernel_weight(d, t));
    }

    if (n_random > 0) {
        // Draw k's coalition from its own RNG stream and write it into a
        // fixed slot, so the sampled set is identical for any thread count.
        xnfv::parallel_for_chunks(
            n_random, config_.threads, [&](std::size_t kb, std::size_t ke) {
                std::vector<std::size_t> members;  // reused across draws
                for (std::size_t k = kb; k < ke; ++k) {
                    check_budget(config_.cancel);
                    auto stream = xnfv::ml::Rng::stream(call_seed, k);
                    const std::size_t s = stream.weighted_index(residual_mass);
                    stream.sample_without_replacement(d, s, members);
                    const std::size_t sampled_slot = first + k * per_draw + per_draw - 1;
                    auto cm = masks.mask(sampled_slot);
                    for (std::size_t m : members) MaskSet::set(cm, m);
                    weights[sampled_slot] = w_each;
                    if (config_.paired_sampling) {
                        auto comp = masks.mask(first + k * per_draw);
                        MaskSet::complement(cm, comp, d);
                        weights[first + k * per_draw] = w_each;
                    }
                }
            });
    }

    // --- Phase 3: constrained weighted least squares -----------------------
    // Eliminate phi_{d-1} via the efficiency constraint
    //   sum_i phi_i = delta,
    // regressing  y = v(S) - v0 - z_{d-1} * delta  on  (z_i - z_{d-1})_{i<d-1}.
    // Evaluating v(S) dominates the cost: coalition probes are materialized
    // into a per-chunk scratch matrix, blocks of coalitions go through one
    // predict_batch each, and every coalition's value is reduced over its
    // background rows in row order — bitwise identical to the per-row
    // predict() loop for any thread count.
    xnfv::ml::Matrix design(n, d - 1);
    std::vector<double> y(n), w(n);
    const std::size_t block = std::max<std::size_t>(1, kProbeBlockRows / bg_rows);
    xnfv::parallel_for_chunks(n, config_.threads, [&](std::size_t begin, std::size_t end) {
        ProbeScratch scratch;
        for (std::size_t c0 = begin; c0 < end; c0 += block) {
            check_budget(config_.cancel);
            const std::size_t c1 = std::min(c0 + block, end);
            scratch.ensure((c1 - c0) * bg_rows, d);
            for (std::size_t c = c0; c < c1; ++c) {
                const auto m = masks.mask(c);
                for (std::size_t b = 0; b < bg_rows; ++b)
                    fill_masked_row(scratch.rows.row((c - c0) * bg_rows + b), x, bg.row(b), m);
            }
            const auto preds = scratch.preds_span((c1 - c0) * bg_rows);
            model.predict_batch(scratch.rows, preds);
            for (std::size_t c = c0; c < c1; ++c) {
                const std::size_t off = (c - c0) * bg_rows;
                double acc = 0.0;
                for (std::size_t b = 0; b < bg_rows; ++b) acc += preds[off + b];
                const double v = acc / static_cast<double>(bg_rows);
                const auto m = masks.mask(c);
                const double z_last = MaskSet::test(m, d - 1) ? 1.0 : 0.0;
                y[c] = v - e.base_value - z_last * delta;
                w[c] = weights[c];
                auto row = design.row(c);
                for (std::size_t j = 0; j + 1 < d; ++j)
                    row[j] = (MaskSet::test(m, j) ? 1.0 : 0.0) - z_last;
            }
        }
    });

    const auto beta = xnfv::ml::weighted_least_squares(design, y, w, config_.l2);
    double sum_beta = 0.0;
    for (std::size_t j = 0; j + 1 < d; ++j) {
        e.attributions[j] = beta[j];
        sum_beta += beta[j];
    }
    e.attributions[d - 1] = delta - sum_beta;
    return e;
}

}  // namespace xnfv::xai
