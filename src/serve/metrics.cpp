#include "serve/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace xnfv::serve {

namespace {

/// Bucket index for a sample: 0 holds the value 0, bucket i >= 1 holds
/// [2^(i-1), 2^i).  bit_width(1)=1 -> bucket 1, bit_width(2..3)=2 -> 2, ...
[[nodiscard]] std::size_t bucket_of(std::uint64_t sample) noexcept {
    if (sample == 0) return 0;
    return std::min<std::size_t>(std::bit_width(sample), Histogram::kBuckets - 1);
}

/// Inclusive value range covered by bucket i (see bucket_of).
[[nodiscard]] std::pair<double, double> bucket_range(std::size_t i) noexcept {
    if (i == 0) return {0.0, 0.0};
    const double lo = static_cast<double>(std::uint64_t{1} << (i - 1));
    return {lo, 2.0 * lo - 1.0};
}

}  // namespace

void Histogram::record(std::uint64_t sample) noexcept {
    buckets_[bucket_of(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (sample < seen &&
           !min_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (sample > seen &&
           !max_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
    }
}

double Histogram::mean() const noexcept {
    const auto n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::min() const noexcept {
    const auto v = min_.load(std::memory_order_relaxed);
    return v == UINT64_MAX ? 0 : v;
}

std::uint64_t Histogram::max() const noexcept {
    return max_.load(std::memory_order_relaxed);
}

double Histogram::quantile(double q) const noexcept {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested quantile among n samples (1-based, ceil).
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
        if (in_bucket == 0) continue;
        if (seen + in_bucket >= rank) {
            const auto [lo, hi] = bucket_range(i);
            // The final bucket also absorbs every sample past its nominal
            // range (bucket_of clamps bit_width), so interpolating against
            // the nominal bound under-reports heavy tails; the recorded max
            // is the true upper edge.  Inner buckets clamp to max() too, so
            // a quantile never exceeds any observed sample.
            const double top = static_cast<double>(max());
            const double hi_eff =
                i == kBuckets - 1 ? top : std::min(hi, top);
            const double frac =
                static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
            return lo + (hi_eff - lo) * frac;
        }
        seen += in_bucket;
    }
    return static_cast<double>(max());
}

void Histogram::reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

void ServiceMetrics::reset() noexcept {
    requests_accepted.reset();
    requests_rejected.reset();
    requests_completed.reset();
    requests_degraded.reset();
    batches.reset();
    cache_hits.reset();
    cache_misses.reset();
    for (auto& c : errors_by_reason) c.reset();
    worker_respawns.reset();
    worker_stalls.reset();
    snapshot_writes.reset();
    snapshot_records_loaded.reset();
    snapshot_records_skipped.reset();
    model_evals.reset();
    drift_checks.reset();
    drift_flushes.reset();
    fast_path_hits.reset();
    for (auto& c : explainer_requests) c.reset();
    for (auto& c : explainer_fast_hits) c.reset();
    for (auto& h : explainer_compute_us) h.reset();
    queue_depth.reset();
    batch_size.reset();
    service_time_us.reset();
    compute_time_us.reset();
    probe_rows.reset();
}

double ServiceStats::cache_hit_rate() const noexcept {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) / static_cast<double>(lookups);
}

std::string ServiceStats::to_string() const {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "service stats\n"
        "  requests    accepted %llu  rejected %llu  completed %llu  degraded %llu\n"
        "  queue       depth %llu  max-depth %llu\n"
        "  batches     %llu  mean-size %.2f  max-size %llu\n"
        "  cache       hits %llu  misses %llu  hit-rate %.3f  entries %llu  evictions %llu\n"
        "  latency-us  p50 %.1f  p95 %.1f  p99 %.1f  mean %.1f\n"
        "  compute-us  mean %.1f (per cache miss)\n",
        static_cast<unsigned long long>(requests_accepted),
        static_cast<unsigned long long>(requests_rejected),
        static_cast<unsigned long long>(requests_completed),
        static_cast<unsigned long long>(requests_degraded),
        static_cast<unsigned long long>(queue_depth),
        static_cast<unsigned long long>(queue_depth_max),
        static_cast<unsigned long long>(batches), batch_size_mean,
        static_cast<unsigned long long>(batch_size_max),
        static_cast<unsigned long long>(cache_hits),
        static_cast<unsigned long long>(cache_misses), cache_hit_rate(),
        static_cast<unsigned long long>(cache_entries),
        static_cast<unsigned long long>(cache_evictions), service_us_p50,
        service_us_p95, service_us_p99, service_us_mean, compute_us_mean);
    std::string out = buf;
    // Per-reason failure tally, only the reasons that actually occurred.
    std::string errors;
    for (std::size_t i = 1; i < kNumServeErrors; ++i) {
        if (errors_by_reason[i] == 0) continue;
        char item[64];
        std::snprintf(item, sizeof(item), "  %s %llu",
                      xnfv::serve::to_string(static_cast<ServeError>(i)),
                      static_cast<unsigned long long>(errors_by_reason[i]));
        errors += item;
    }
    if (!errors.empty()) out += "  errors    " + errors + "\n";
    if (model_evals != 0) {
        std::snprintf(buf, sizeof(buf),
                      "  probes      model-evals %llu  rows/explanation p50 %.1f  "
                      "mean %.1f  max %llu\n",
                      static_cast<unsigned long long>(model_evals), probe_rows_p50,
                      probe_rows_mean, static_cast<unsigned long long>(probe_rows_max));
        out += buf;
    }
    if (fast_path_hits != 0 || !explainers.empty()) {
        std::snprintf(buf, sizeof(buf), "  fast-path   hits %llu\n",
                      static_cast<unsigned long long>(fast_path_hits));
        out += buf;
        for (const auto& e : explainers) {
            std::snprintf(buf, sizeof(buf),
                          "    %-20s requests %llu  fast %llu  compute-us "
                          "p50 %.1f  p99 %.1f  mean %.1f\n",
                          e.name.c_str(),
                          static_cast<unsigned long long>(e.requests),
                          static_cast<unsigned long long>(e.fast_path_hits),
                          e.compute_us_p50, e.compute_us_p99, e.compute_us_mean);
            out += buf;
        }
    }
    if (drift_checks != 0 || drift_flushes != 0 || cache_epoch != 0) {
        std::snprintf(buf, sizeof(buf),
                      "  drift       checks %llu  flushes %llu  cache-epoch %llu\n",
                      static_cast<unsigned long long>(drift_checks),
                      static_cast<unsigned long long>(drift_flushes),
                      static_cast<unsigned long long>(cache_epoch));
        out += buf;
    }
    // Registry section only when the fleet is interesting (more than the
    // single default model, or a swap has happened).
    if (models_registered > 1 || model_swaps != 0) {
        std::snprintf(buf, sizeof(buf), "  models      registered %llu  swaps %llu\n",
                      static_cast<unsigned long long>(models_registered),
                      static_cast<unsigned long long>(model_swaps));
        out += buf;
        for (const auto& m : models) {
            std::snprintf(buf, sizeof(buf),
                          "    %-16s fp %s  admitted %llu  quota-rejected %llu  "
                          "swaps %llu  evals %llu  cache %llu  w %llu  q %llu\n",
                          m.name.c_str(), m.fingerprint.c_str(),
                          static_cast<unsigned long long>(m.admitted),
                          static_cast<unsigned long long>(m.rejected_quota),
                          static_cast<unsigned long long>(m.swaps),
                          static_cast<unsigned long long>(m.evals),
                          static_cast<unsigned long long>(m.cache_entries),
                          static_cast<unsigned long long>(m.weight),
                          static_cast<unsigned long long>(m.quota));
            out += buf;
            if (m.breaker_state != 0 || m.breaker_opens != 0 ||
                m.breaker_rejected != 0) {
                const char* state = m.breaker_state == 1   ? "open"
                                    : m.breaker_state == 2 ? "half-open"
                                                           : "closed";
                std::snprintf(buf, sizeof(buf),
                              "      breaker %s  opens %llu  rejected %llu\n", state,
                              static_cast<unsigned long long>(m.breaker_opens),
                              static_cast<unsigned long long>(m.breaker_rejected));
                out += buf;
            }
        }
    }
    if (net_enabled) {
        std::snprintf(
            buf, sizeof(buf),
            "  net         shards %llu  conns accepted %llu  active %llu "
            "(max %llu)  rejected %llu\n"
            "              closed idle %llu  backpressure %llu\n"
            "              bytes in %llu  out %llu  requests %llu  "
            "reqs/conn p50 %.1f  max %llu\n",
            static_cast<unsigned long long>(net_shards),
            static_cast<unsigned long long>(connections_accepted),
            static_cast<unsigned long long>(connections_active),
            static_cast<unsigned long long>(connections_active_max),
            static_cast<unsigned long long>(connections_rejected),
            static_cast<unsigned long long>(connections_closed_idle),
            static_cast<unsigned long long>(connections_closed_backpressure),
            static_cast<unsigned long long>(net_bytes_in),
            static_cast<unsigned long long>(net_bytes_out),
            static_cast<unsigned long long>(net_requests), conn_requests_p50,
            static_cast<unsigned long long>(conn_requests_max));
        out += buf;
        if (net_faults_injected != 0 || net_retry_duplicates != 0 ||
            net_shard_respawns != 0) {
            std::snprintf(buf, sizeof(buf),
                          "              chaos faults %llu  retry-duplicates %llu  "
                          "shard-respawns %llu\n",
                          static_cast<unsigned long long>(net_faults_injected),
                          static_cast<unsigned long long>(net_retry_duplicates),
                          static_cast<unsigned long long>(net_shard_respawns));
            out += buf;
        }
    }
    if (worker_respawns != 0 || worker_stalls != 0 || faults_injected != 0) {
        std::snprintf(buf, sizeof(buf),
                      "  faults      injected %llu  worker-respawns %llu  "
                      "worker-stalls %llu\n",
                      static_cast<unsigned long long>(faults_injected),
                      static_cast<unsigned long long>(worker_respawns),
                      static_cast<unsigned long long>(worker_stalls));
        out += buf;
    }
    if (snapshot_writes != 0 || snapshot_records_loaded != 0 ||
        snapshot_records_skipped != 0) {
        std::snprintf(buf, sizeof(buf),
                      "  snapshot    writes %llu  records-loaded %llu  "
                      "records-skipped %llu\n",
                      static_cast<unsigned long long>(snapshot_writes),
                      static_cast<unsigned long long>(snapshot_records_loaded),
                      static_cast<unsigned long long>(snapshot_records_skipped));
        out += buf;
    }
    return out;
}

}  // namespace xnfv::serve
