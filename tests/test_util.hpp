// Shared fixtures and synthetic-data helpers for the xnfv test suite.
#pragma once

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <span>
#include <vector>

#include "mlcore/dataset.hpp"
#include "mlcore/model.hpp"
#include "mlcore/rng.hpp"

namespace xnfv::testutil {

/// y = intercept + sum w_i x_i + N(0, noise); x ~ U(-1, 1)^d.
inline xnfv::ml::Dataset make_linear_dataset(std::span<const double> weights, double intercept,
                                             std::size_t n, xnfv::ml::Rng& rng,
                                             double noise = 0.0) {
    xnfv::ml::Dataset d;
    d.task = xnfv::ml::Task::regression;
    for (std::size_t j = 0; j < weights.size(); ++j)
        d.feature_names.push_back("x" + std::to_string(j));
    std::vector<double> row(weights.size());
    for (std::size_t i = 0; i < n; ++i) {
        double y = intercept;
        for (std::size_t j = 0; j < weights.size(); ++j) {
            row[j] = rng.uniform(-1.0, 1.0);
            y += weights[j] * row[j];
        }
        if (noise > 0.0) y += rng.normal(0.0, noise);
        d.add(row, y);
    }
    return d;
}

/// Binary labels from a logistic model over U(-1,1)^d inputs.
inline xnfv::ml::Dataset make_logistic_dataset(std::span<const double> weights,
                                               double intercept, std::size_t n,
                                               xnfv::ml::Rng& rng) {
    xnfv::ml::Dataset d;
    d.task = xnfv::ml::Task::binary_classification;
    for (std::size_t j = 0; j < weights.size(); ++j)
        d.feature_names.push_back("x" + std::to_string(j));
    std::vector<double> row(weights.size());
    for (std::size_t i = 0; i < n; ++i) {
        double z = intercept;
        for (std::size_t j = 0; j < weights.size(); ++j) {
            row[j] = rng.uniform(-1.0, 1.0);
            z += weights[j] * row[j];
        }
        const double p = 1.0 / (1.0 + std::exp(-z));
        d.add(row, rng.bernoulli(p) ? 1.0 : 0.0);
    }
    return d;
}

/// Classic XOR: y = 1 iff sign(x0) != sign(x1); only learnable with
/// interactions, so it separates linear from nonlinear learners.
inline xnfv::ml::Dataset make_xor_dataset(std::size_t n, xnfv::ml::Rng& rng,
                                          bool as_classification = true) {
    xnfv::ml::Dataset d;
    d.task = as_classification ? xnfv::ml::Task::binary_classification
                               : xnfv::ml::Task::regression;
    d.feature_names = {"x0", "x1"};
    for (std::size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(-1.0, 1.0);
        const double b = rng.uniform(-1.0, 1.0);
        d.add(std::vector<double>{a, b}, (a > 0.0) != (b > 0.0) ? 1.0 : 0.0);
    }
    return d;
}

/// Uniform background matrix over [-1, 1]^d.
inline xnfv::ml::Matrix make_uniform_background(std::size_t rows, std::size_t d,
                                                xnfv::ml::Rng& rng) {
    xnfv::ml::Matrix m(rows, d);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < d; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
    return m;
}

/// Gate a model evaluation can block on — lets a test hold the dispatcher
/// inside a batch while it fills the queue behind it.
struct Gate {
    std::mutex m;
    std::condition_variable cv;
    bool open = false;
    bool entered = false;  ///< a thread has reached wait()
    void wait() {
        std::unique_lock lock(m);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [this] { return open; });
    }
    /// Blocks until some thread is (or was) held in wait().
    void wait_entered() {
        std::unique_lock lock(m);
        cv.wait(lock, [this] { return entered; });
    }
    void release() {
        {
            std::lock_guard lock(m);
            open = true;
        }
        cv.notify_all();
    }
};

/// Max absolute element-wise difference between two vectors.
inline double max_abs_diff(std::span<const double> a, std::span<const double> b) {
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

}  // namespace xnfv::testutil
