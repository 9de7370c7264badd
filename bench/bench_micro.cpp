// Micro-benchmarks of the hot paths (google-benchmark).
//
// These complement the experiment harnesses: tree prediction and TreeSHAP
// dominate the aggregation experiments, the WLS solve dominates KernelSHAP
// and LIME, and simulate_epoch dominates dataset generation.
//
// After the google-benchmark suite, main() runs the masked-probe inference
// section: rows/sec of a scalar predict() loop vs the blocked predict_batch
// kernels for each model family, written to BENCH_inference.json (override
// the path with XNFV_BENCH_JSON, the row count with XNFV_INFERENCE_ROWS).
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_util.hpp"
#include "core/parallel.hpp"
#include "core/tree_shap.hpp"
#include "mlcore/matrix.hpp"
#include "nfv/placement.hpp"
#include "nfv/simulator.hpp"

namespace ml = xnfv::ml;
namespace nfv = xnfv::nfv;
namespace xai = xnfv::xai;

namespace {

/// Shared state built once (static locals avoid rebuilding per benchmark).
const xnfv::bench::SlaTask& task() {
    static const auto t = xnfv::bench::make_sla_task(3000, 999);
    return t;
}

const ml::RandomForest& forest() {
    static const auto f = xnfv::bench::train_forest(task().train, 99, 50);
    return f;
}

void BM_TreePredict(benchmark::State& state) {
    const auto& f = forest();
    const auto x = task().test.x.row(0);
    for (auto _ : state) benchmark::DoNotOptimize(f.trees()[0].predict(x));
}
BENCHMARK(BM_TreePredict);

void BM_ForestPredict(benchmark::State& state) {
    const auto& f = forest();
    const auto x = task().test.x.row(0);
    for (auto _ : state) benchmark::DoNotOptimize(f.predict(x));
}
BENCHMARK(BM_ForestPredict);

void BM_TreeShapSingleTree(benchmark::State& state) {
    const auto& f = forest();
    const auto x = task().test.x.row(0);
    std::vector<double> phi(task().test.num_features());
    for (auto _ : state) {
        std::fill(phi.begin(), phi.end(), 0.0);
        benchmark::DoNotOptimize(xai::tree_shap_single(f.trees()[0], x, phi));
    }
}
BENCHMARK(BM_TreeShapSingleTree);

void BM_TreeShapForest(benchmark::State& state) {
    const auto& f = forest();
    const auto x = task().test.x.row(0);
    xai::TreeShap ts;
    for (auto _ : state) benchmark::DoNotOptimize(ts.explain(f, x));
}
BENCHMARK(BM_TreeShapForest);

void BM_WeightedLeastSquares(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t d = 18;
    ml::Rng rng(7);
    ml::Matrix x(n, d);
    std::vector<double> y(n), w(n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) x(r, c) = rng.uniform(-1, 1);
        y[r] = rng.uniform(-1, 1);
        w[r] = rng.uniform(0, 1);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(ml::weighted_least_squares(x, y, w, 1e-6));
}
BENCHMARK(BM_WeightedLeastSquares)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SimulateEpoch(benchmark::State& state) {
    auto infra = nfv::Infrastructure::homogeneous_pop(4, nfv::Server{});
    nfv::Deployment dep;
    for (int c = 0; c < 4; ++c) {
        std::string name = "c";
        name += std::to_string(c);
        nfv::make_chain(dep, name,
                        {nfv::VnfType::firewall, nfv::VnfType::ids, nfv::VnfType::nat},
                        2.0);
    }
    ml::Rng rng(1);
    nfv::place(dep, infra, nfv::PlacementStrategy::best_fit, rng);
    const std::vector<nfv::OfferedLoad> loads(
        4, nfv::OfferedLoad{.pps = 8e4, .active_flows = 1e4});
    for (auto _ : state)
        benchmark::DoNotOptimize(nfv::simulate_epoch(dep, infra, loads));
}
BENCHMARK(BM_SimulateEpoch);

void BM_DatasetRow(benchmark::State& state) {
    // End-to-end cost of producing one labelled training row.
    ml::Rng rng(2);
    xnfv::wl::BuildOptions opt;
    opt.num_samples = 32;
    const auto spec = xnfv::wl::standard_scenarios()[0];
    for (auto _ : state) {
        ml::Rng local = rng.split();
        benchmark::DoNotOptimize(xnfv::wl::build_dataset(spec, opt, local));
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_DatasetRow);

// --- Masked-probe inference: scalar predict() loop vs blocked kernels -----

/// Best-of-`reps` wall time of fn(), in seconds.
template <typename Fn>
double best_seconds(Fn&& fn, int reps) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        xnfv::bench::Stopwatch sw;
        fn();
        best = std::min(best, sw.ms() / 1000.0);
    }
    return best;
}

std::size_t env_size(const char* name, std::size_t fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return fallback;
    const long long parsed = std::atoll(v);
    return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

void run_masked_probe_inference() {
    const std::size_t rows = env_size("XNFV_INFERENCE_ROWS", 16384);
    const std::size_t samples = env_size("XNFV_INFERENCE_SAMPLES", 6000);
    const std::size_t trees = env_size("XNFV_INFERENCE_TREES", 300);
    const std::size_t rounds = env_size("XNFV_INFERENCE_ROUNDS", 500);
    const char* json_env = std::getenv("XNFV_BENCH_JSON");
    const std::string json_path =
        json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_inference.json";

    // Latency regression grows full-depth trees (the SLA-violation labels go
    // pure after a few splits), so the ensembles below reach the multi-MB
    // node footprint where the blocked layout matters.  The small single
    // tree stays in the table as the cache-resident reference point.
    const auto t = xnfv::bench::make_sla_task(samples, 999,
                                              xnfv::nfv::LabelKind::latency_ms);
    const std::size_t d = t.train.num_features();

    // Probe rows drawn from the training distribution's bounding box —
    // representative split traversal without rebuilding a workload dataset.
    ml::Rng rng(4321);
    ml::Matrix x(rows, d);
    const ml::Matrix& ref = t.train.x;
    for (std::size_t r = 0; r < rows; ++r) {
        const auto src = ref.row(rng.uniform_index(ref.rows()));
        for (std::size_t c = 0; c < d; ++c)
            x(r, c) = src[c] * rng.uniform(0.8, 1.2);
    }

    ml::Rng fit_rng(55);
    ml::DecisionTree tree(ml::DecisionTree::Config{.max_depth = 8});
    tree.fit(t.train);
    ml::Rng forest_rng(99);
    ml::RandomForest forest(ml::RandomForest::Config{
        .num_trees = trees,
        .tree = {.max_depth = 14, .min_samples_leaf = 1, .min_samples_split = 2}});
    forest.fit(t.train, forest_rng);
    ml::GradientBoostedTrees gbt(ml::GradientBoostedTrees::Config{
        .num_rounds = rounds,
        .tree = {.max_depth = 8, .min_samples_leaf = 1, .min_samples_split = 2}});
    gbt.fit(t.train, fit_rng);
    ml::LinearRegression linear;
    linear.fit(t.train);
    ml::Mlp mlp(ml::Mlp::Config{.hidden_layers = {32, 32}, .epochs = 10});
    mlp.fit(t.train, fit_rng);
    std::printf("\nforest: %zu trees; gbt: %zu rounds; train %zu rows x %zu features\n",
                forest.trees().size(), gbt.trees().size(), t.train.size(), d);
    const std::vector<std::pair<const char*, const ml::Model*>> models{
        {"tree", &tree},       {"forest", &forest}, {"gbt", &gbt},
        {"linear", &linear},   {"mlp", &mlp},
    };

    // threads=1 isolates the kernel layout effect: the ratio below is the
    // flattened/blocked speedup, not pool parallelism.
    xnfv::set_default_threads(1);
    xnfv::bench::print_header("inference", "masked-probe batch inference (threads=1)");
    std::printf("%-8s %12s %14s %14s %9s\n", "model", "rows", "scalar rows/s",
                "blocked rows/s", "speedup");
    xnfv::bench::print_rule();
    xnfv::bench::JsonArtifact artifact("masked_probe_inference");
    std::vector<double> out(rows);
    const int reps = 5;
    for (const auto& [name, model] : models) {
        const double scalar_s = best_seconds(
            [&] {
                for (std::size_t r = 0; r < rows; ++r) out[r] = model->predict(x.row(r));
            },
            reps);
        const double blocked_s = best_seconds([&] { model->predict_batch(x, out); }, reps);
        const double scalar_rps = static_cast<double>(rows) / scalar_s;
        const double blocked_rps = static_cast<double>(rows) / blocked_s;
        const double speedup = scalar_s / blocked_s;
        std::printf("%-8s %12zu %14.3e %14.3e %8.2fx\n", name, rows, scalar_rps,
                    blocked_rps, speedup);
        char obj[256];
        std::snprintf(obj, sizeof(obj),
                      "{\"model\": \"%s\", \"rows\": %zu, \"scalar_rows_per_sec\": %.6e, "
                      "\"blocked_rows_per_sec\": %.6e, \"speedup\": %.4f}",
                      name, rows, scalar_rps, blocked_rps, speedup);
        artifact.add_object(obj);
    }
    xnfv::set_default_threads(0);  // restore hardware default
    if (artifact.write(json_path))
        std::printf("wrote %s\n", json_path.c_str());
    else
        std::printf("FAILED to write %s\n", json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    run_masked_probe_inference();
    return 0;
}
