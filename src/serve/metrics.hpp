// Service metrics: lock-free counters and bucketed latency histograms.
//
// The online explanation service records every event on its hot path —
// enqueue, reject, batch flush, cache hit/miss, completion — so an operator
// can read queue depth, batch-size distribution, cache hit rate, and
// p50/p95/p99 service time from one text report.  Everything here is
// thread-safe: counters are single atomics, histograms are arrays of atomic
// bucket counts (relaxed ordering; a report is a statistical snapshot, not a
// linearizable one).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/errors.hpp"
#include "serve/explainers.hpp"

namespace xnfv::serve {

/// Monotonic event counter.
class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    /// Zeroes the tally (per-phase SLO measurement via op=stats_reset).
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth) that also tracks its high-water mark.
class Gauge {
public:
    void set(std::uint64_t v) noexcept {
        value_.store(v, std::memory_order_relaxed);
        std::uint64_t seen = max_.load(std::memory_order_relaxed);
        while (v > seen && !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t max() const noexcept {
        return max_.load(std::memory_order_relaxed);
    }
    /// Restarts the high-water mark from the current level; the level itself
    /// is live state (queue depth, open connections) and survives a reset.
    void reset() noexcept {
        max_.store(value_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
    std::atomic<std::uint64_t> max_{0};
};

/// Histogram over non-negative integer samples (microseconds, batch sizes)
/// with geometric bucket bounds: 1, 2, 4, ... 2^62, plus an underflow bucket
/// for 0.  Quantiles are estimated by linear interpolation inside the
/// containing bucket — coarse but monotone, and good enough for a p99 on a
/// log-scale latency distribution.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 64;

    void record(std::uint64_t sample) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double mean() const noexcept;
    [[nodiscard]] std::uint64_t min() const noexcept;
    [[nodiscard]] std::uint64_t max() const noexcept;

    /// Estimated q-quantile, q in [0, 1].  Returns 0 on an empty histogram.
    [[nodiscard]] double quantile(double q) const noexcept;

    /// Forgets every recorded sample (per-phase SLO measurement).
    void reset() noexcept;

private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{UINT64_MAX};
    std::atomic<std::uint64_t> max_{0};
};

/// Everything the service measures, grouped for snapshotting.
struct ServiceMetrics {
    Counter requests_accepted;   ///< submissions that entered the queue
    Counter requests_rejected;   ///< submissions refused at the door
    Counter requests_completed;  ///< responses delivered (hit or computed)
    Counter requests_degraded;   ///< responses served below full fidelity
    Counter batches;             ///< batches executed
    Counter cache_hits;
    Counter cache_misses;
    /// Per-ServeError failure tally, indexed by the enum value: submit-time
    /// rejections and error responses alike land here, so one array answers
    /// "what is failing and why".
    std::array<Counter, kNumServeErrors> errors_by_reason;
    Counter worker_respawns;     ///< dead dispatcher threads restarted
    Counter worker_stalls;       ///< watchdog heartbeat-staleness episodes
    Counter snapshot_writes;     ///< cache snapshots persisted
    Counter snapshot_records_loaded;
    Counter snapshot_records_skipped;  ///< corrupt/truncated records dropped
    Counter model_evals;         ///< model rows evaluated across all explainers
    Counter drift_checks;        ///< attribution-drift window comparisons run
    Counter drift_flushes;       ///< drift-triggered cache epoch bumps
    /// Computed explanations served by an exact fast path (flat-tree
    /// TreeSHAP or analytic integrated gradients) instead of a probe loop.
    Counter fast_path_hits;
    /// Per-explainer slices, indexed like kExplainerNames: computed
    /// explanations, fast-path subset, and the compute-latency histogram.
    std::array<Counter, kNumExplainers> explainer_requests;
    std::array<Counter, kNumExplainers> explainer_fast_hits;
    std::array<Histogram, kNumExplainers> explainer_compute_us;
    Gauge queue_depth;
    Histogram batch_size;        ///< requests per flushed batch
    Histogram service_time_us;   ///< enqueue -> response, per request
    Histogram compute_time_us;   ///< model/explainer time, per cache miss
    Histogram probe_rows;        ///< model rows evaluated, per computed explanation

    void count_error(ServeError error) noexcept {
        const auto i = static_cast<std::size_t>(error);
        if (i != 0 && i < kNumServeErrors) errors_by_reason[i].inc();
    }

    /// Zeroes every counter and histogram and restarts gauge high-water
    /// marks, so the next stats snapshot covers only what happened after the
    /// reset (the op=stats_reset contract).  Live levels (queue depth) and
    /// registry facts (model fingerprints, cache occupancy) are untouched.
    void reset() noexcept;
};

/// Per-explainer slice of a stats snapshot (only explainers that computed
/// at least one explanation are reported): how many explanations each
/// method computed, how many of those rode an exact fast path, and the
/// method's compute-latency distribution — the observability half of the
/// fast-path contract (a regression that silently drops tree traffic off
/// the flat kernel shows up here as fast_path_hits diverging from
/// requests).
struct ExplainerSliceStats {
    std::string name;
    std::uint64_t requests = 0;        ///< computed explanations (cache misses)
    std::uint64_t fast_path_hits = 0;  ///< subset served by an exact fast path
    double compute_us_p50 = 0.0;
    double compute_us_p99 = 0.0;
    double compute_us_mean = 0.0;
};

/// Per-model slice of a stats snapshot (one line of the "models" section;
/// one element of the `models` array in the ND-JSON stats payload).
struct ModelServiceStats {
    std::string name;
    std::string fingerprint;  ///< current version, lower-case hex
    std::uint64_t admitted = 0;
    std::uint64_t rejected_quota = 0;
    std::uint64_t swaps = 0;
    std::uint64_t evals = 0;
    std::uint64_t completed = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_epoch = 0;
    std::uint64_t queued = 0;  ///< jobs currently in this model's class FIFO
    std::uint64_t weight = 1;
    std::uint64_t quota = 0;
    double base_value = 0.0;
    /// Circuit-breaker state (0 closed, 1 open, 2 half-open) and lifetime
    /// open transitions / rejected admissions for this tenant.
    std::uint64_t breaker_state = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t breaker_rejected = 0;
};

/// Immutable snapshot of ServiceMetrics plus cache occupancy, renderable as
/// the operator-facing text report (and as the `stats` request's payload).
struct ServiceStats {
    std::uint64_t requests_accepted = 0;
    std::uint64_t requests_rejected = 0;
    std::uint64_t requests_completed = 0;
    std::uint64_t requests_degraded = 0;
    std::uint64_t batches = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_entries = 0;
    std::array<std::uint64_t, kNumServeErrors> errors_by_reason{};
    std::uint64_t worker_respawns = 0;
    std::uint64_t worker_stalls = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t snapshot_writes = 0;
    std::uint64_t snapshot_records_loaded = 0;
    std::uint64_t snapshot_records_skipped = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t queue_depth_max = 0;
    double batch_size_mean = 0.0;
    std::uint64_t batch_size_max = 0;
    double service_us_p50 = 0.0;
    double service_us_p95 = 0.0;
    double service_us_p99 = 0.0;
    double service_us_mean = 0.0;
    double compute_us_mean = 0.0;
    /// Total model rows evaluated by explainers (probe volume), and its
    /// per-computed-explanation distribution — the cost side of the
    /// batched-inference path.
    std::uint64_t model_evals = 0;
    double probe_rows_p50 = 0.0;
    double probe_rows_mean = 0.0;
    std::uint64_t probe_rows_max = 0;
    /// Explanations computed on an exact fast path, and the per-explainer
    /// breakdown (ExplainerSliceStats; empty until something computes).
    std::uint64_t fast_path_hits = 0;
    std::vector<ExplainerSliceStats> explainers;
    /// Drift-triggered invalidation: windows compared, epoch bumps, and the
    /// current cache epoch (mixed into every cache key).
    std::uint64_t drift_checks = 0;
    std::uint64_t drift_flushes = 0;
    std::uint64_t cache_epoch = 0;

    /// TCP front-end section (src/net/); all-zero with `net_enabled` false
    /// when the service runs in-process only.
    bool net_enabled = false;
    /// Event-loop shards serving (1 = the single-loop server; >1 = the
    /// thread-per-core ShardedServer, whose stats are cross-shard sums).
    std::uint64_t net_shards = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_active = 0;
    std::uint64_t connections_active_max = 0;
    std::uint64_t connections_rejected = 0;
    std::uint64_t connections_closed_idle = 0;
    std::uint64_t connections_closed_backpressure = 0;
    std::uint64_t net_bytes_in = 0;
    std::uint64_t net_bytes_out = 0;
    std::uint64_t net_requests = 0;  ///< frames answered over TCP
    double conn_requests_p50 = 0.0;  ///< per-connection request count quantiles
    double conn_requests_mean = 0.0;
    std::uint64_t conn_requests_max = 0;
    /// Resilience layer: socket-level chaos faults fired, retried rids
    /// answered from the per-connection dedup window, and shard threads
    /// respawned by the supervisor.
    std::uint64_t net_faults_injected = 0;
    std::uint64_t net_retry_duplicates = 0;
    std::uint64_t net_shard_respawns = 0;

    /// Multi-model registry section: live entries in registration order.
    /// A single-model service reports exactly one entry (its default model).
    std::uint64_t models_registered = 0;
    std::uint64_t model_swaps = 0;  ///< hot swaps applied across all models
    std::vector<ModelServiceStats> models;

    /// Hit fraction in [0, 1]; 0 when no lookups happened yet.
    [[nodiscard]] double cache_hit_rate() const noexcept;

    /// Multi-line text report, e.g. for `xnfv_cli serve` op=stats.
    [[nodiscard]] std::string to_string() const;
};

}  // namespace xnfv::serve
