#include "core/pdp.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.hpp"
#include "core/probe.hpp"

namespace xnfv::xai {

PdpResult partial_dependence(const xnfv::ml::Model& model, const BackgroundData& background,
                             std::size_t feature, const PdpOptions& options) {
    if (background.empty())
        throw std::invalid_argument("partial_dependence: empty background");
    if (feature >= background.num_features())
        throw std::invalid_argument("partial_dependence: feature out of range");
    if (options.grid_points < 2)
        throw std::invalid_argument("partial_dependence: need >= 2 grid points");
    const xnfv::ThreadBudget budget(options.threads);

    const auto& bg = background.samples();

    // Quantile-clipped grid over the feature's background distribution.
    std::vector<double> values(bg.rows());
    for (std::size_t r = 0; r < bg.rows(); ++r) values[r] = bg(r, feature);
    std::sort(values.begin(), values.end());
    const auto quantile = [&](double q) {
        const double pos = q * static_cast<double>(values.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, values.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return values[lo] * (1.0 - frac) + values[hi] * frac;
    };
    const double lo = quantile(options.lo_quantile);
    const double hi = quantile(options.hi_quantile);

    PdpResult result;
    result.feature = feature;
    result.grid.resize(options.grid_points);
    result.mean.assign(options.grid_points, 0.0);
    if (options.keep_ice) result.ice.assign(bg.rows(), std::vector<double>(options.grid_points));

    // Grid points are independent model sweeps; each task writes only its
    // own grid/mean slot (and column g of the preallocated ICE curves).
    // Each chunk copies the background once into a reusable probe matrix,
    // then per grid point only rewrites the swept column and issues one
    // predict_batch; the per-point mean stays in background-row order, so
    // the curve is bitwise identical to the per-probe predict() loop.
    xnfv::parallel_for_chunks(
        options.grid_points, options.threads, [&](std::size_t begin, std::size_t end) {
            ProbeScratch scratch;
            const std::size_t n = bg.rows();
            scratch.ensure(n, bg.cols());
            for (std::size_t r = 0; r < n; ++r) {
                const auto row = bg.row(r);
                std::copy(row.begin(), row.end(), scratch.rows.row(r).begin());
            }
            const auto preds = scratch.preds_span(n);
            for (std::size_t g = begin; g < end; ++g) {
                const double v = lo + (hi - lo) * static_cast<double>(g) /
                                          static_cast<double>(options.grid_points - 1);
                result.grid[g] = v;
                for (std::size_t r = 0; r < n; ++r) scratch.rows(r, feature) = v;
                model.predict_batch(scratch.rows, preds);
                double acc = 0.0;
                for (std::size_t r = 0; r < n; ++r) {
                    acc += preds[r];
                    if (options.keep_ice) result.ice[r][g] = preds[r];
                }
                result.mean[g] = acc / static_cast<double>(n);
            }
        });
    return result;
}

}  // namespace xnfv::xai
