// ThreadPool / parallel_for / parallel_reduce unit tests.
//
// The contracts under test are exactly the ones the explanation engine
// leans on: every index visited exactly once regardless of thread count,
// worker exceptions propagate to the caller, pools are reusable across
// submissions, nested loops don't deadlock, and ordered reduction is
// bitwise-stable across thread counts.  An explainer's `threads` setting
// bounds its model evaluations too (ThreadBudget), not only its own sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/kernel_shap.hpp"
#include "core/lime.hpp"
#include "core/occlusion.hpp"
#include "core/parallel.hpp"
#include "core/pdp.hpp"
#include "mlcore/model.hpp"
#include "mlcore/rng.hpp"

namespace ml = xnfv::ml;
namespace xai = xnfv::xai;

TEST(ThreadPool, RunsSubmittedTasks) {
    xnfv::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([&counter] { ++counter; }));
    for (auto& f : futures) f.get();
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
    xnfv::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    auto f = pool.submit([] {});
    f.get();
}

TEST(ThreadPool, ReusableAcrossSubmissionBatches) {
    xnfv::ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int batch = 0; batch < 5; ++batch) {
        std::vector<std::future<void>> futures;
        for (int i = 0; i < 20; ++i)
            futures.push_back(pool.submit([&counter] { ++counter; }));
        for (auto& f : futures) f.get();
        EXPECT_EQ(counter.load(), (batch + 1) * 20);
    }
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
    xnfv::ThreadPool pool(2);
    auto f = pool.submit([] { throw std::runtime_error("worker boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
    // The pool survives a throwing task.
    auto ok = pool.submit([] {});
    ok.get();
}

TEST(ThreadPool, DrainsPendingTasksOnDestruction) {
    std::atomic<int> counter{0};
    {
        xnfv::ThreadPool pool(1);
        for (int i = 0; i < 50; ++i) (void)pool.submit([&counter] { ++counter; });
    }  // destructor must run all 50 before joining
    EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
    std::atomic<int> calls{0};
    xnfv::parallel_for(0, 8, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RangeSmallerThanThreadCountVisitsEachIndexOnce) {
    const std::size_t n = 3;
    std::vector<std::atomic<int>> visits(n);
    xnfv::parallel_for(n, 16, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
    const std::size_t n = 10'000;
    std::vector<std::atomic<int>> visits(n);
    xnfv::parallel_for(n, 7, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, ExceptionInWorkerTaskPropagatesToCaller) {
    EXPECT_THROW(xnfv::parallel_for(100, 4,
                                    [](std::size_t i) {
                                        if (i == 57) throw std::invalid_argument("index 57");
                                    }),
                 std::invalid_argument);
    // The shared pool keeps working afterwards.
    std::atomic<int> counter{0};
    xnfv::parallel_for(100, 4, [&](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, NestedLoopRunsInlineWithoutDeadlock) {
    std::atomic<int> inner_total{0};
    xnfv::parallel_for(8, 4, [&](std::size_t) {
        xnfv::parallel_for(10, 4, [&](std::size_t) { ++inner_total; });
    });
    EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParallelFor, StressManyIterationsUnderContention) {
    std::atomic<long> total{0};
    for (int iter = 0; iter < 200; ++iter)
        xnfv::parallel_for(500, 8, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 200L * 500L);
}

TEST(ParallelForChunks, CoversTheRangeWithDisjointChunks) {
    const std::size_t n = 1003;  // deliberately not a multiple of the thread count
    std::vector<std::atomic<int>> visits(n);
    xnfv::parallel_for_chunks(n, 6, [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        for (std::size_t i = begin; i < end; ++i) ++visits[i];
    });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelReduce, OrderedFoldIsBitwiseStableAcrossThreadCounts) {
    // Sum of magnitudes spanning ~16 decimal orders: any reassociation of
    // the fold changes the rounding, so bitwise equality across thread
    // counts proves the merge tree is fixed.
    const std::size_t n = 4096;
    ml::Rng rng(7);
    std::vector<double> values(n);
    for (auto& v : values) v = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-8, 8));

    const auto sum_with = [&](std::size_t threads) {
        return xnfv::parallel_reduce(
            n, threads, 0.0, [&](std::size_t i) { return values[i]; },
            [](double acc, double v) { return acc + v; });
    };
    const double t1 = sum_with(1);
    EXPECT_EQ(t1, sum_with(2));
    EXPECT_EQ(t1, sum_with(8));
    EXPECT_EQ(t1, sum_with(13));
}

TEST(DefaultThreads, OverrideAndRestore) {
    const std::size_t hw = xnfv::default_threads();
    EXPECT_GE(hw, 1u);
    xnfv::set_default_threads(3);
    EXPECT_EQ(xnfv::default_threads(), 3u);
    EXPECT_EQ(xnfv::resolve_threads(0), 3u);
    EXPECT_EQ(xnfv::resolve_threads(5), 5u);
    xnfv::set_default_threads(0);
    EXPECT_EQ(xnfv::default_threads(), hw);
}

TEST(ThreadBudget, NestedScopesRestoreTheOuterBudget) {
    const std::size_t def = xnfv::default_threads();
    {
        const xnfv::ThreadBudget outer(2);
        EXPECT_EQ(xnfv::resolve_threads(0), 2u);
        {
            const xnfv::ThreadBudget inner(3);
            EXPECT_EQ(xnfv::resolve_threads(0), 3u);
        }
        EXPECT_EQ(xnfv::resolve_threads(0), 2u);
    }
    EXPECT_EQ(xnfv::resolve_threads(0), def);
}

TEST(ThreadBudget, ExplicitRequestIsUnaffected) {
    const xnfv::ThreadBudget budget(1);
    EXPECT_EQ(xnfv::resolve_threads(5), 5u);
    EXPECT_EQ(xnfv::resolve_threads(1), 1u);
}

TEST(ThreadBudget, ZeroBudgetChangesNothing) {
    const std::size_t def = xnfv::default_threads();
    {
        const xnfv::ThreadBudget none(0);
        EXPECT_EQ(xnfv::resolve_threads(0), def);
    }
    const xnfv::ThreadBudget outer(2);
    {
        const xnfv::ThreadBudget none(0);
        EXPECT_EQ(xnfv::resolve_threads(0), 2u);
    }
    EXPECT_EQ(xnfv::resolve_threads(0), 2u);
}

TEST(ThreadBudget, SingleThreadExplainerEvaluatesModelOnCallingThread) {
    // With a process default above 1, predict_batch fans any batch of 64 or
    // more rows out over the shared pool unless a budget is in force, so
    // this fails on any core count if `threads = 1` stops at the
    // explainer's own loops.
    struct RestoreDefault {
        ~RestoreDefault() { xnfv::set_default_threads(0); }
    } restore;
    xnfv::set_default_threads(4);

    const auto caller = std::this_thread::get_id();
    std::atomic<bool> off_caller{false};
    const ml::LambdaModel model(3, [&](std::span<const double> x) {
        if (std::this_thread::get_id() != caller) off_caller = true;
        return x[0] + 2.0 * x[1] * x[2];
    });
    constexpr std::size_t kBgRows = 96;  // above predict_batch's 64-row cutoff
    ml::Matrix bg_x(kBgRows, 3);
    for (std::size_t r = 0; r < kBgRows; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            bg_x(r, c) = static_cast<double>((r * 7 + c * 3) % 11) / 11.0;
    const xai::BackgroundData bg(bg_x, kBgRows);
    ml::Matrix instances(2, 3, 0.5);
    instances(1, 0) = 0.25;

    const auto expect_on_caller = [&](const char* what, auto&& run) {
        off_caller = false;
        run();
        EXPECT_FALSE(off_caller.load()) << what << " evaluated the model off the calling thread";
    };
    {
        xai::KernelShap ks(bg, ml::Rng(7),
                           xai::KernelShap::Config{.max_coalitions = 32, .threads = 1});
        expect_on_caller("KernelShap::explain", [&] { (void)ks.explain(model, instances.row(0)); });
        expect_on_caller("KernelShap::explain_batch",
                         [&] { (void)ks.explain_batch(model, instances); });
    }
    {
        xai::Occlusion occ(bg, xai::Occlusion::Config{.threads = 1});
        expect_on_caller("Occlusion::explain", [&] { (void)occ.explain(model, instances.row(0)); });
        expect_on_caller("Occlusion::explain_batch",
                         [&] { (void)occ.explain_batch(model, instances); });
    }
    {
        xai::Lime lime(bg, ml::Rng(7), xai::Lime::Config{.num_samples = 128, .threads = 1});
        expect_on_caller("Lime::explain", [&] { (void)lime.explain(model, instances.row(0)); });
    }
    expect_on_caller("partial_dependence", [&] {
        (void)xai::partial_dependence(model, bg, 1, xai::PdpOptions{.grid_points = 4, .threads = 1});
    });
}

TEST(RngStream, KeyedStreamsAreReproducibleAndIndependent) {
    // Same (seed, index) -> identical sequence, no matter when constructed.
    auto a = ml::Rng::stream(42, 7);
    auto b = ml::Rng::stream(42, 7);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

    // Different indices (and seeds) diverge immediately.
    auto c = ml::Rng::stream(42, 8);
    auto d = ml::Rng::stream(43, 7);
    auto base = ml::Rng::stream(42, 7);
    const auto v = base.next_u64();
    EXPECT_NE(v, c.next_u64());
    EXPECT_NE(v, d.next_u64());
}
