#include "core/parallel.hpp"

#include <atomic>

namespace xnfv {

namespace {

/// Set for the lifetime of every pool worker thread (see inside_worker()).
thread_local bool t_inside_worker = false;

/// Innermost ThreadBudget of this thread; 0 = none in force.
thread_local std::size_t t_budget = 0;

std::atomic<std::size_t> g_default_threads{0};  // 0 = hardware_concurrency

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
    const std::size_t n = std::max<std::size_t>(1, num_threads);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> result = packaged.get_future();
    {
        const std::lock_guard lock(mutex_);
        tasks_.push_back(std::move(packaged));
    }
    cv_.notify_one();
    return result;
}

bool ThreadPool::inside_worker() noexcept { return t_inside_worker; }

void ThreadPool::worker_loop() {
    t_inside_worker = true;
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty()) return;  // stopping and drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();  // exceptions are captured into the task's future
    }
}

std::size_t default_threads() noexcept {
    const std::size_t n = g_default_threads.load(std::memory_order_relaxed);
    if (n > 0) return n;
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : hc;
}

void set_default_threads(std::size_t n) noexcept {
    g_default_threads.store(n, std::memory_order_relaxed);
}

std::size_t resolve_threads(std::size_t requested) noexcept {
    if (requested != 0) return requested;
    return t_budget != 0 ? t_budget : default_threads();
}

ThreadBudget::ThreadBudget(std::size_t threads) noexcept : outer_(t_budget) {
    if (threads != 0) t_budget = threads;
}

ThreadBudget::~ThreadBudget() { t_budget = outer_; }

ThreadPool& detail::shared_pool() {
    static ThreadPool pool(default_threads());
    return pool;
}

}  // namespace xnfv
