// Partial dependence (PDP) and individual conditional expectation (ICE).
//
// PDP(f, j, v) = E_b[ f(b with b_j := v) ] over a grid of v; ICE keeps the
// per-background curves.  These are the global "shape" explanations used by
// figure F5 (offered load vs predicted latency saturation curve).
#pragma once

#include <vector>

#include "core/explanation.hpp"
#include "mlcore/model.hpp"

namespace xnfv::xai {

struct PdpResult {
    std::size_t feature = 0;
    std::vector<double> grid;      ///< evaluated feature values
    std::vector<double> mean;      ///< PDP curve (per grid point)
    /// ICE curves: ice[i] is the curve of background row i (empty unless
    /// requested).
    std::vector<std::vector<double>> ice;
};

struct PdpOptions {
    std::size_t grid_points = 20;
    bool keep_ice = false;
    /// Grid endpoints as background quantiles (guards against outliers).
    double lo_quantile = 0.02;
    double hi_quantile = 0.98;
    /// Worker threads for the grid sweep; 0 uses xnfv::default_threads().
    /// The budget covers the model's predict_batch calls too
    /// (xnfv::ThreadBudget), so 1 keeps the whole sweep on the calling
    /// thread.  The sweep is deterministic (no RNG), so any thread count
    /// yields the same curve.
    std::size_t threads = 0;
};

[[nodiscard]] PdpResult partial_dependence(const xnfv::ml::Model& model,
                                           const BackgroundData& background,
                                           std::size_t feature,
                                           const PdpOptions& options = {});

}  // namespace xnfv::xai
