#include "core/occlusion.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.hpp"
#include "mlcore/metrics.hpp"

namespace xnfv::xai {

Explanation Occlusion::explain(const xnfv::ml::Model& model, std::span<const double> x) {
    const xnfv::ThreadBudget budget(config_.threads);
    const double base =
        background_.empty() ? 0.0 : base_cache_.get(model, background_);
    return explain_one(model, x, base);
}

std::vector<Explanation> Occlusion::explain_batch(const xnfv::ml::Model& model,
                                                  const xnfv::ml::Matrix& instances) {
    const xnfv::ThreadBudget budget(config_.threads);
    // The base value depends only on (model, background): resolve it once
    // here instead of once per row.
    const double base =
        background_.empty() ? 0.0 : base_cache_.get(model, background_);
    std::vector<Explanation> out(instances.rows());
    xnfv::parallel_for(instances.rows(), config_.threads, [&](std::size_t r) {
        out[r] = explain_one(model, instances.row(r), base);
    });
    return out;
}

Explanation Occlusion::explain_one(const xnfv::ml::Model& model,
                                   std::span<const double> x, double base_value) const {
    const std::size_t d = model.num_features();
    if (x.size() != d) throw std::invalid_argument("Occlusion: input size mismatch");
    if (background_.empty()) throw std::invalid_argument("Occlusion: empty background");

    Explanation e;
    e.method = name();
    e.prediction = model.predict(x);
    e.attributions.assign(d, 0.0);
    // Base value: mean prediction over the background (the occlusion
    // attributions do not sum exactly to prediction - base; the evaluation
    // experiments quantify that gap).
    e.base_value = base_value;

    const auto& bg = background_.samples();
    const std::size_t bg_rows = bg.rows();
    // Features are occluded independently.  Each chunk materializes all of a
    // feature's probes (instance copies with column j swapped to background
    // values) into a reused scratch matrix and runs one predict_batch; only
    // column j changes between features, so the probe rows are rebuilt
    // incrementally.  Per-feature reduction stays in background-row order —
    // bitwise identical to the legacy per-probe predict() loop.
    xnfv::parallel_for_chunks(d, config_.threads, [&](std::size_t begin, std::size_t end) {
        ProbeScratch scratch;
        scratch.ensure(bg_rows, d);
        for (std::size_t b = 0; b < bg_rows; ++b) {
            auto row = scratch.rows.row(b);
            std::copy(x.begin(), x.end(), row.begin());
        }
        const auto preds = scratch.preds_span(bg_rows);
        for (std::size_t j = begin; j < end; ++j) {
            check_budget(config_.cancel);
            for (std::size_t b = 0; b < bg_rows; ++b) scratch.rows(b, j) = bg(b, j);
            model.predict_batch(scratch.rows, preds);
            double acc = 0.0;
            for (std::size_t b = 0; b < bg_rows; ++b) acc += preds[b];
            for (std::size_t b = 0; b < bg_rows; ++b) scratch.rows(b, j) = x[j];
            e.attributions[j] = e.prediction - acc / static_cast<double>(bg_rows);
        }
    });
    return e;
}

PermutationImportanceResult permutation_importance(const xnfv::ml::Model& model,
                                                   const xnfv::ml::Dataset& data,
                                                   xnfv::ml::Rng& rng, std::size_t repeats) {
    if (data.size() == 0)
        throw std::invalid_argument("permutation_importance: empty dataset");
    if (repeats == 0)
        throw std::invalid_argument("permutation_importance: repeats must be > 0");

    const auto error_of = [&](const std::vector<double>& preds) {
        if (data.task == xnfv::ml::Task::binary_classification)
            return 1.0 - xnfv::ml::roc_auc(data.y, preds);
        return xnfv::ml::mse(data.y, preds);
    };

    PermutationImportanceResult result;
    result.baseline_error = error_of(model.predict_batch(data.x));
    result.importance.assign(data.num_features(), 0.0);

    xnfv::ml::Matrix shuffled = data.x;
    std::vector<double> column(data.size());
    for (std::size_t f = 0; f < data.num_features(); ++f) {
        double acc = 0.0;
        for (std::size_t rep = 0; rep < repeats; ++rep) {
            for (std::size_t r = 0; r < data.size(); ++r) column[r] = data.x(r, f);
            rng.shuffle(column);
            for (std::size_t r = 0; r < data.size(); ++r) shuffled(r, f) = column[r];
            acc += error_of(model.predict_batch(shuffled));
        }
        // Restore the column before moving on.
        for (std::size_t r = 0; r < data.size(); ++r) shuffled(r, f) = data.x(r, f);
        result.importance[f] = acc / static_cast<double>(repeats) - result.baseline_error;
    }
    return result;
}

}  // namespace xnfv::xai
