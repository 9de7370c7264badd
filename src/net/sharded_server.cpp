#include "net/sharded_server.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "serve/registry.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace xnfv::net {

namespace {

[[nodiscard]] std::size_t resolve_shards(std::size_t requested) {
    if (requested > 0) return requested;
    const auto hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void pin_to_cpu([[maybe_unused]] std::thread& thread,
                [[maybe_unused]] std::size_t cpu) {
#ifdef __linux__
    const auto ncpu = std::thread::hardware_concurrency();
    if (ncpu == 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu % ncpu, &set);
    // Best-effort: a denied affinity call (cgroup cpuset, RT policy) just
    // leaves the shard floating, which is still correct.
    ::pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#endif
}

/// mean over shards weighted by per-shard sample count.
[[nodiscard]] double weighted_mean(double acc_mean, std::uint64_t acc_n,
                                   double mean, std::uint64_t n) {
    const auto total = acc_n + n;
    if (total == 0) return 0.0;
    return (acc_mean * static_cast<double>(acc_n) +
            mean * static_cast<double>(n)) /
           static_cast<double>(total);
}

}  // namespace

ShardedServer::ShardedServer(std::shared_ptr<const xnfv::ml::Model> model,
                             xnfv::xai::BackgroundData background,
                             serve::ServiceConfig service_config,
                             ShardedServerConfig config)
    : config_(std::move(config)),
      model_(std::move(model)),
      background_(std::move(background)) {
    const std::size_t n = resolve_shards(config_.shards);
    config_.shards = n;
    budget_ = config_.net.budget
                  ? config_.net.budget
                  : std::make_shared<ConnectionBudget>(config_.net.max_connections);

    // Partition the cache: the fleet's total capacity stays what was asked
    // for, spread over per-shard slices (each internally hash-sharded), and
    // each slice carries its own drift epoch.  The per-shard config is
    // retained so the supervisor can rebuild a dead shard identically.
    per_shard_ = std::move(service_config);
    per_shard_.cache_capacity =
        std::max<std::size_t>(16, per_shard_.cache_capacity / n);

    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        shards_.push_back(std::make_unique<Shard>());
        build_shard_locked(i);
    }
}

void ShardedServer::build_shard_locked(std::size_t index) {
    auto& shard = *shards_[index];
    // Every model's snapshot file gets the shard suffix (the service
    // composes `<base>[.<fingerprint>].shardK`), keeping shard slices
    // distinct per model without rewriting the base path.  A respawned
    // shard's fresh service reloads exactly its own slice.
    serve::ServiceConfig cfg = per_shard_;
    if (!cfg.snapshot_path.empty() && config_.shards > 1)
        cfg.snapshot_suffix = ".shard" + std::to_string(index);
    shard.service =
        std::make_unique<serve::ExplanationService>(model_, background_, cfg);

    ServerConfig net = config_.net;
    net.reuseport = config_.shards > 1;
    net.budget = budget_;
    shard.server =
        std::make_unique<ExplanationServer>(*shard.service, std::move(net));
    shard.server->set_stats_provider([this] { return stats(); });
    // An admin op (load/swap/retire) reaching any shard must apply to
    // every shard's service, serialized so two concurrent ops cannot
    // interleave half-applied fleets.  Mutating ops are appended to the
    // admin log the supervisor replays into a respawned shard.
    shard.server->set_admin_provider([this](const serve::JsonValue& req) {
        const std::lock_guard<std::mutex> admin_lock(admin_mutex_);
        const std::lock_guard<std::mutex> shards_lock(shards_mutex_);
        if (req.get_string("op", "") == "stats_reset") {
            // Fleet-wide measurement window: zero every shard's service and
            // connection metrics under the same locks an admin op holds, so
            // a reset can never interleave with a half-applied fleet.  Not
            // logged — a respawned shard starts its metrics at zero anyway.
            for (const auto& s : shards_) {
                s->service->stats_reset();
                s->server->reset_net_metrics();
            }
            serve::JsonWriter w;
            w.field("ok", true);
            w.field("op", "stats_reset");
            return w.finish();
        }
        std::vector<serve::ExplanationService*> services;
        services.reserve(shards_.size());
        for (const auto& s : shards_) services.push_back(s->service.get());
        auto response = serve::handle_model_admin(req, services);
        const auto op = req.get_string("op", "");
        if (op == "load" || op == "swap" || op == "retire")
            admin_log_.push_back(req);
        return response;
    });
    if (row_lookup_) shard.server->set_row_lookup(row_lookup_);
}

ShardedServer::~ShardedServer() { stop_services(); }

void ShardedServer::set_row_lookup(RowLookup lookup) {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    row_lookup_ = std::move(lookup);
    for (auto& shard : shards_) shard->server->set_row_lookup(row_lookup_);
}

bool ShardedServer::start(std::string* error) {
    // Shard 0 resolves an ephemeral port; siblings then join its reuseport
    // group on the concrete port.  Anything bound before a failure is closed
    // when the object is destroyed.
    if (!shards_[0]->server->start(error)) return false;
    port_ = shards_[0]->server->port();
    for (std::size_t i = 1; i < shards_.size(); ++i) {
        auto& server = *shards_[i]->server;
        // Rebind the sibling's config onto the learned port.
        if (!server.bind_port(port_, error)) return false;
    }
    return true;
}

void ShardedServer::run() {
    {
        const std::lock_guard<std::mutex> lock(shards_mutex_);
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            auto& shard = *shards_[i];
            shard.thread = std::thread([&shard] { shard.server->run(); });
            if (config_.pin_threads && shards_.size() > 1)
                pin_to_cpu(shard.thread, i);
        }
    }
    // The caller's thread becomes the shard supervisor; it returns once
    // every shard has drained.
    supervise();
}

void ShardedServer::supervise() {
    bool drain_sent = false;
    for (;;) {
        std::this_thread::sleep_for(config_.heartbeat_interval);
        const bool draining = draining_.load(std::memory_order_acquire);
        if (draining && !drain_sent) {
            // The signal handler only stored a flag (taking locks there is
            // not async-signal-safe once respawns can swap servers); the
            // actual fan-out happens here, one interval later at most.
            const std::lock_guard<std::mutex> lock(shards_mutex_);
            for (auto& shard : shards_) shard->server->request_drain();
            drain_sent = true;
        }
        bool all_done = true;
        std::vector<std::size_t> dead;
        {
            const std::lock_guard<std::mutex> lock(shards_mutex_);
            for (std::size_t i = 0; i < shards_.size(); ++i) {
                auto& shard = *shards_[i];
                // A shard is down when its run() returned (its exit path
                // already closed every connection and released every budget
                // slot) or when a previous respawn failed to rebind.
                const bool down =
                    shard.server->finished() || !shard.thread.joinable();
                if (!down) all_done = false;
                else if (!draining) dead.push_back(i);
            }
        }
        if (draining) {
            if (all_done) break;
            continue;
        }
        for (const auto i : dead) {
            // admin_mutex_ before shards_mutex_, matching the admin
            // provider, because the respawn replays the admin log.
            const std::lock_guard<std::mutex> admin_lock(admin_mutex_);
            const std::lock_guard<std::mutex> shards_lock(shards_mutex_);
            respawn_shard_locked(i);
        }
    }
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    for (auto& shard : shards_)
        if (shard->thread.joinable()) shard->thread.join();
}

void ShardedServer::respawn_shard_locked(std::size_t index) {
    auto& shard = *shards_[index];
    if (shard.thread.joinable()) shard.thread.join();
    // Tear down in dependency order: the server first (detaching its
    // completion channel so in-flight completions land harmlessly), then
    // the service (drains its dispatcher and writes the .shardK cache
    // snapshot the replacement reloads).
    shard.server.reset();
    if (shard.service) shard.service->stop();
    shard.service.reset();
    build_shard_locked(index);
    // Re-apply every mutating admin op so tenants loaded after boot exist
    // on the replacement shard too (responses are discarded; an op that
    // fails against fresh state — e.g. a retire of a never-loaded model —
    // failed against the fleet originally as well).
    for (const auto& req : admin_log_) {
        const std::vector<serve::ExplanationService*> services{shard.service.get()};
        (void)serve::handle_model_admin(req, services);
    }
    std::string error;
    if (!shard.server->bind_port(port_, &error)) {
        // Shard stays threadless; the next supervisor pass retries.
        std::fprintf(stderr, "shard %zu respawn: bind failed: %s\n", index,
                     error.c_str());
        return;
    }
    shard.thread = std::thread([&shard] { shard.server->run(); });
    if (config_.pin_threads && shards_.size() > 1)
        pin_to_cpu(shard.thread, index);
    shard_respawns_.inc();
    // A drain requested mid-respawn must reach the replacement too.
    if (draining_.load(std::memory_order_acquire)) shard.server->request_drain();
}

void ShardedServer::request_drain() noexcept {
    draining_.store(true, std::memory_order_release);
}

void ShardedServer::stop_services() {
    if (services_stopped_.exchange(true)) return;
    for (auto& shard : shards_) {
        if (shard->thread.joinable()) {
            // run() was abandoned mid-serve (exception on the caller's
            // side); drain so the joins below cannot deadlock.
            shard->server->request_drain();
            shard->thread.join();
        }
        shard->service->stop();
    }
}

std::uint16_t ShardedServer::port() const noexcept {
    return shards_[0]->server->port();
}

serve::ServiceStats ShardedServer::stats() const {
    serve::ServiceStats agg;
    std::uint64_t batch_n = 0, svc_n = 0, compute_n = 0, probe_n = 0, conn_n = 0;
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    for (const auto& shard : shards_) {
        const auto s = shard->server->stats();
        agg.requests_accepted += s.requests_accepted;
        agg.requests_rejected += s.requests_rejected;
        agg.requests_completed += s.requests_completed;
        agg.requests_degraded += s.requests_degraded;
        agg.batches += s.batches;
        agg.cache_hits += s.cache_hits;
        agg.cache_misses += s.cache_misses;
        agg.cache_evictions += s.cache_evictions;
        agg.cache_entries += s.cache_entries;
        for (std::size_t i = 0; i < serve::kNumServeErrors; ++i)
            agg.errors_by_reason[i] += s.errors_by_reason[i];
        agg.worker_respawns += s.worker_respawns;
        agg.worker_stalls += s.worker_stalls;
        agg.faults_injected += s.faults_injected;
        agg.snapshot_writes += s.snapshot_writes;
        agg.snapshot_records_loaded += s.snapshot_records_loaded;
        agg.snapshot_records_skipped += s.snapshot_records_skipped;
        agg.queue_depth += s.queue_depth;
        agg.queue_depth_max += s.queue_depth_max;
        agg.batch_size_mean =
            weighted_mean(agg.batch_size_mean, batch_n, s.batch_size_mean, s.batches);
        batch_n += s.batches;
        agg.batch_size_max = std::max(agg.batch_size_max, s.batch_size_max);
        // Latency quantiles cannot be merged exactly from snapshots; the
        // worst shard is the conservative fleet answer.
        agg.service_us_p50 = std::max(agg.service_us_p50, s.service_us_p50);
        agg.service_us_p95 = std::max(agg.service_us_p95, s.service_us_p95);
        agg.service_us_p99 = std::max(agg.service_us_p99, s.service_us_p99);
        agg.service_us_mean = weighted_mean(agg.service_us_mean, svc_n,
                                            s.service_us_mean, s.requests_completed);
        svc_n += s.requests_completed;
        agg.compute_us_mean = weighted_mean(agg.compute_us_mean, compute_n,
                                            s.compute_us_mean, s.cache_misses);
        compute_n += s.cache_misses;
        agg.model_evals += s.model_evals;
        agg.probe_rows_p50 = std::max(agg.probe_rows_p50, s.probe_rows_p50);
        agg.probe_rows_mean = weighted_mean(agg.probe_rows_mean, probe_n,
                                            s.probe_rows_mean, s.cache_misses);
        probe_n += s.cache_misses;
        agg.probe_rows_max = std::max(agg.probe_rows_max, s.probe_rows_max);
        agg.fast_path_hits += s.fast_path_hits;
        // Per-explainer merge by name: counts sum; quantiles take the worst
        // shard (same convention as the fleet latency quantiles above) and
        // means weight by each shard's request count for that explainer.
        for (const auto& e : s.explainers) {
            serve::ExplainerSliceStats* acc = nullptr;
            for (auto& existing : agg.explainers)
                if (existing.name == e.name) { acc = &existing; break; }
            if (acc == nullptr) {
                agg.explainers.push_back(e);
                continue;
            }
            acc->compute_us_mean = weighted_mean(acc->compute_us_mean, acc->requests,
                                                 e.compute_us_mean, e.requests);
            acc->requests += e.requests;
            acc->fast_path_hits += e.fast_path_hits;
            acc->compute_us_p50 = std::max(acc->compute_us_p50, e.compute_us_p50);
            acc->compute_us_p99 = std::max(acc->compute_us_p99, e.compute_us_p99);
        }
        agg.drift_checks += s.drift_checks;
        agg.drift_flushes += s.drift_flushes;
        agg.cache_epoch = std::max(agg.cache_epoch, s.cache_epoch);
        agg.connections_accepted += s.connections_accepted;
        agg.connections_active += s.connections_active;
        agg.connections_active_max += s.connections_active_max;
        agg.connections_rejected += s.connections_rejected;
        agg.connections_closed_idle += s.connections_closed_idle;
        agg.connections_closed_backpressure += s.connections_closed_backpressure;
        agg.net_bytes_in += s.net_bytes_in;
        agg.net_bytes_out += s.net_bytes_out;
        agg.net_requests += s.net_requests;
        agg.net_retry_duplicates += s.net_retry_duplicates;
        agg.conn_requests_p50 = std::max(agg.conn_requests_p50, s.conn_requests_p50);
        agg.conn_requests_mean =
            weighted_mean(agg.conn_requests_mean, conn_n, s.conn_requests_mean,
                          s.connections_accepted);
        conn_n += s.connections_accepted;
        agg.conn_requests_max = std::max(agg.conn_requests_max, s.conn_requests_max);

        // Per-model merge by name: traffic counters sum across shards;
        // registry-level facts (swaps, weight, quota, fingerprint) are
        // replicated on every shard by the admin fan-out, so they take the
        // max/first instead of a sum that would multiply them by the shard
        // count.  Registration order is identical on every shard, so
        // appending unseen names preserves it.
        for (const auto& m : s.models) {
            serve::ModelServiceStats* acc = nullptr;
            for (auto& existing : agg.models)
                if (existing.name == m.name) { acc = &existing; break; }
            if (acc == nullptr) {
                agg.models.push_back(m);
                continue;
            }
            acc->admitted += m.admitted;
            acc->rejected_quota += m.rejected_quota;
            acc->evals += m.evals;
            acc->completed += m.completed;
            acc->cache_entries += m.cache_entries;
            acc->cache_evictions += m.cache_evictions;
            acc->queued += m.queued;
            acc->swaps = std::max(acc->swaps, m.swaps);
            acc->cache_epoch = std::max(acc->cache_epoch, m.cache_epoch);
            // Breaker: counters sum; the merged state takes the most severe
            // shard (open > half-open > closed).
            acc->breaker_opens += m.breaker_opens;
            acc->breaker_rejected += m.breaker_rejected;
            if (acc->breaker_state == 1 || m.breaker_state == 1)
                acc->breaker_state = 1;
            else if (acc->breaker_state == 2 || m.breaker_state == 2)
                acc->breaker_state = 2;
        }
        agg.models_registered = std::max(agg.models_registered, s.models_registered);
        agg.model_swaps = std::max(agg.model_swaps, s.model_swaps);
    }
    agg.net_enabled = true;
    agg.net_shards = shards_.size();
    // The chaos injector is one fleet-global object shared by every shard,
    // so its counters must not be summed once per shard: overwrite the
    // merged values with the single source of truth.
    if (config_.net.chaos) {
        agg.net_faults_injected = config_.net.chaos->total_fired();
        agg.errors_by_reason[static_cast<std::size_t>(
            serve::ServeError::net_fault_injected)] = agg.net_faults_injected;
    }
    agg.net_shard_respawns = shard_respawns_.value();
    agg.errors_by_reason[static_cast<std::size_t>(serve::ServeError::shard_respawn)] =
        agg.net_shard_respawns;
    return agg;
}

}  // namespace xnfv::net
