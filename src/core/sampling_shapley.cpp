#include "core/sampling_shapley.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/parallel.hpp"
#include "core/probe.hpp"

namespace xnfv::xai {

Explanation SamplingShapley::explain(const xnfv::ml::Model& model,
                                     std::span<const double> x) {
    const xnfv::ThreadBudget budget(config_.threads);
    return explain_seeded(model, x, rng_.next_u64());
}

std::vector<Explanation> SamplingShapley::explain_batch(
    const xnfv::ml::Model& model, const xnfv::ml::Matrix& instances) {
    const xnfv::ThreadBudget budget(config_.threads);
    std::vector<std::uint64_t> seeds(instances.rows());
    for (auto& s : seeds) s = rng_.next_u64();
    std::vector<Explanation> out(instances.rows());
    xnfv::parallel_for(instances.rows(), config_.threads, [&](std::size_t r) {
        out[r] = explain_seeded(model, instances.row(r), seeds[r]);
    });
    return out;
}

Explanation SamplingShapley::explain_seeded(const xnfv::ml::Model& model,
                                            std::span<const double> x,
                                            std::uint64_t call_seed) const {
    const std::size_t d = model.num_features();
    if (x.size() != d) throw std::invalid_argument("SamplingShapley: size mismatch");
    if (background_.empty())
        throw std::invalid_argument("SamplingShapley: empty background");
    if (config_.num_permutations == 0)
        throw std::invalid_argument("SamplingShapley: num_permutations must be > 0");

    const auto& bg = background_.samples();
    const std::size_t perms = config_.num_permutations;
    const std::size_t runs_per = config_.antithetic ? 2 : 1;
    const std::size_t rows_per_run = d + 1;  // background row, then one flip per step

    // Each permutation p draws its ordering and background row from its own
    // RNG stream and fills a private slice of the flat per-permutation
    // accumulators; those are then merged sequentially in permutation order,
    // so both the draws and the floating-point summation tree are
    // independent of the thread count.  A permutation's probe states (the
    // background row with a growing prefix of `order` switched to x) are
    // materialized up front and evaluated with one predict_batch instead of
    // d+1 scalar predict() calls; the marginal credits are then taken from
    // the prediction sequence in the original walk order.
    std::vector<double> perm_phi(perms * d, 0.0);
    std::vector<double> perm_base(perms, 0.0);
    std::vector<std::size_t> perm_runs(perms, 0);
    xnfv::parallel_for_chunks(perms, config_.threads, [&](std::size_t pb, std::size_t pe) {
        ProbeScratch scratch;
        std::vector<std::size_t> order;
        for (std::size_t p = pb; p < pe; ++p) {
            check_budget(config_.cancel);
            auto stream = xnfv::ml::Rng::stream(call_seed, p);
            order.resize(d);
            std::iota(order.begin(), order.end(), std::size_t{0});
            stream.shuffle(order);
            const auto b = bg.row(stream.uniform_index(bg.rows()));

            // Step t of run 0 walks order[t]; the antithetic run walks the
            // reverse, order[d-1-t].
            const auto walk = [&](std::size_t run, std::size_t t) {
                return order[run == 1 ? d - 1 - t : t];
            };
            scratch.ensure(runs_per * rows_per_run, d);
            for (std::size_t run = 0; run < runs_per; ++run) {
                const std::size_t off = run * rows_per_run;
                auto probe = scratch.rows.row(off);
                std::copy(b.begin(), b.end(), probe.begin());
                for (std::size_t t = 0; t < d; ++t) {
                    auto next = scratch.rows.row(off + t + 1);
                    std::copy(probe.begin(), probe.end(), next.begin());
                    const std::size_t j = walk(run, t);
                    next[j] = x[j];
                    probe = next;
                }
            }
            const auto preds = scratch.preds_span(runs_per * rows_per_run);
            model.predict_batch(scratch.rows, preds);

            double* phi_p = perm_phi.data() + p * d;
            for (std::size_t run = 0; run < runs_per; ++run) {
                const std::size_t off = run * rows_per_run;
                double prev = preds[off];
                perm_base[p] += prev;
                for (std::size_t t = 0; t < d; ++t) {
                    const double cur = preds[off + t + 1];
                    phi_p[walk(run, t)] += cur - prev;
                    prev = cur;
                }
                ++perm_runs[p];
            }
        }
    });

    std::vector<double> phi(d, 0.0);
    double base_acc = 0.0;
    std::size_t runs = 0;
    for (std::size_t p = 0; p < perms; ++p) {
        for (std::size_t j = 0; j < d; ++j) phi[j] += perm_phi[p * d + j];
        base_acc += perm_base[p];
        runs += perm_runs[p];
    }

    Explanation e;
    e.method = name();
    e.prediction = model.predict(x);
    e.base_value = base_acc / static_cast<double>(runs);
    e.attributions.assign(d, 0.0);
    for (std::size_t j = 0; j < d; ++j)
        e.attributions[j] = phi[j] / static_cast<double>(runs);
    return e;
}

}  // namespace xnfv::xai
