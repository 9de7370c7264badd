// Serving benchmark: one workload against the sharded ND-JSON front door.
//
//   servebench --workload hot_repeat|fresh_tree|mixed_tenants --seed N
//              --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//              [--src-hash HASH]
//
// An untraced run (--trace 0) makes kRounds fresh deployments.  Each is
// timed as set-up (dataset, training, server start, warm-up, balanced
// connect), then measured by a closed loop (capacity) and an open loop at
// the workload's fixed offered rate (latency from each request's due time).
// Replies are checked against one-shot references.  Throughput and latency
// are the best round's, set-up time the median round's.  A traced run (--trace 1) measures
// one deployment with per-request spans, replays the open-loop schedule into
// one in-process service, and times direct calls into ndjson, the cache, the
// explainers and predict_batch, then prints the per-layer metrics.  The
// last line of stdout is the result object; the stamp, phase counts and the
// trace go under --out-dir.  servebench/README.md has the full design.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "loadgen.hpp"
#include "serve/explanation_cache.hpp"
#include "serve/ndjson.hpp"
#include "serve/registry.hpp"
#include "workload.hpp"

namespace ml = xnfv::ml;
namespace net = xnfv::net;
namespace serve = xnfv::serve;
using namespace servebench;

namespace {

/// Fresh deployments per untraced run, each measured separately.
constexpr int kRounds = 15;
/// Set-ups a traced run makes before measuring on the last one.
constexpr int kTracedSetups = 3;
/// Untimed traffic before the first measurement of a process: the first
/// deployment takes seconds of load to reach its steady rate (thread pool,
/// allocator and scheduler warm-up), and later ones then start warm.
constexpr double kProcessWarmupS = 2.0;
/// Untimed traffic before each round's measurements, as a share of the round.
constexpr double kRoundWarmupShare = 0.1;
/// How long an open loop waits for stragglers after its last due instant.
constexpr double kGraceS = 2.0;
/// The generator stands in for clients on other machines, so it runs at a
/// raised priority and the server's threads cannot starve it on a small
/// host.  Best effort: without permission it runs at normal priority.
constexpr int kGeneratorNice = -10;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
    std::string git_sha = "unknown";
    std::string src_hash = "unknown";
};

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
    bool have[4] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) {
            error = "missing value for " + std::string(flag);
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
                have[0] = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
                have[1] = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                have[2] = args.seconds > 0.0 && args.seconds <= 600.0;
            } else if (flag == "--trace") {
                args.trace = value == "1";
                have[3] = value == "0" || value == "1";
            } else if (flag == "--out-dir") {
                args.out_dir = value;
            } else if (flag == "--git-sha") {
                args.git_sha = value;
            } else if (flag == "--src-hash") {
                args.src_hash = value;
            } else {
                error = "unknown flag " + std::string(flag);
                return false;
            }
        } catch (const std::exception&) {
            error = "bad value for " + std::string(flag) + ": " + value;
            return false;
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3])) {
        error = "--workload, --seed, --seconds (0, 600] and --trace 0|1 are required";
        return false;
    }
    if (!find_workload(args.workload)) {
        error = "unknown workload '" + args.workload + "' (expected " + workload_names() + ")";
        return false;
    }
    return true;
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Per-shard serving counters, read through service(s).stats() and merged
// here (the server's own merged quantiles are deliberately not used).

void reset_stats(net::ShardedServer& server) {
    for (std::size_t s = 0; s < server.shards(); ++s) server.service(s).stats_reset();
}

std::vector<serve::ServiceStats> read_stats(net::ShardedServer& server, Trace* trace,
                                            std::uint32_t parent) {
    std::vector<serve::ServiceStats> out;
    for (std::size_t s = 0; s < server.shards(); ++s) {
        const auto t = now_ns();
        out.push_back(server.service(s).stats());
        if (trace) trace->add("service.stats", t, now_ns(), parent, s);
    }
    return out;
}

struct Served {
    std::vector<std::uint64_t> submitted;  ///< per shard
    std::uint64_t completed = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t model_evals = 0;
    double service_us_mean = 0.0;  ///< weighted by completed requests
    double batch_size_mean = 0.0;  ///< weighted by batches
    std::uint64_t queue_depth_max = 0;
    /// Per explainer: computed explanations and their mean compute time.
    struct Slice {
        std::uint64_t requests = 0;
        double compute_us_mean = 0.0;
    };
    Slice tree_shap, kernel_shap, ig;

    [[nodiscard]] std::uint64_t total_submitted() const {
        std::uint64_t n = 0;
        for (const auto v : submitted) n += v;
        return n;
    }
};

/// `before` was read right after stats_reset(); the cache's eviction tally
/// is not part of the reset, so it is taken as a difference.
Served merge(const std::vector<serve::ServiceStats>& before,
             const std::vector<serve::ServiceStats>& after) {
    Served m;
    std::uint64_t batches = 0;
    double service_sum = 0.0, batch_sum = 0.0;
    for (std::size_t s = 0; s < after.size(); ++s) {
        const auto& a = after[s];
        m.submitted.push_back(a.requests_accepted + a.requests_rejected);
        m.completed += a.requests_completed;
        m.hits += a.cache_hits;
        m.misses += a.cache_misses;
        m.evictions += a.cache_evictions - before[s].cache_evictions;
        m.model_evals += a.model_evals;
        service_sum += a.service_us_mean * static_cast<double>(a.requests_completed);
        batches += a.batches;
        batch_sum += a.batch_size_mean * static_cast<double>(a.batches);
        m.queue_depth_max = std::max(m.queue_depth_max, a.queue_depth_max);
        for (const auto& e : a.explainers) {
            Served::Slice* slice = e.name == "tree_shap"     ? &m.tree_shap
                                   : e.name == "kernel_shap" ? &m.kernel_shap
                                   : e.name == "integrated_gradients" ? &m.ig
                                                                      : nullptr;
            if (!slice || e.requests == 0) continue;
            const double total = slice->compute_us_mean * static_cast<double>(slice->requests) +
                                 e.compute_us_mean * static_cast<double>(e.requests);
            slice->requests += e.requests;
            slice->compute_us_mean = total / static_cast<double>(slice->requests);
        }
    }
    if (m.completed) m.service_us_mean = service_sum / static_cast<double>(m.completed);
    if (batches) m.batch_size_mean = batch_sum / static_cast<double>(batches);
    return m;
}

// ---------------------------------------------------------------------------

void print_phase(const char* name, const PhaseCounts& c, std::uint64_t attempted) {
    std::printf("phase %-13s attempted=%llu sent=%llu ok=%llu failed=%llu mismatched=%llu "
                "unanswered=%llu\n",
                name, static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(c.sent), static_cast<unsigned long long>(c.ok),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.mismatched),
                static_cast<unsigned long long>(c.unanswered));
}

/// Open-loop latencies of the requests that repeat a hot row.
std::vector<double> repeat_latencies(const OpenResult& open, const Mix& mix,
                                     std::uint64_t first_n) {
    std::vector<double> out;
    for (std::size_t k = 0; k < open.latency_us.size(); ++k)
        if (mix.kind(first_n + k) == Kind::hot) out.push_back(open.latency_us[k]);
    return out;
}

double lag_p99(const OpenResult& open) {
    std::vector<double> lags;
    for (std::size_t k = 0; k < open.lag_us.size(); ++k)
        if (open.sent_ns[k] >= 0) lags.push_back(open.lag_us[k]);
    return quantile(std::move(lags), 0.99);
}

/// Runs `phase` on a fresh thread at kGeneratorNice and returns its result.
/// The phase must not start threads: they would inherit the priority.
template <class Phase>
auto on_generator_thread(Phase&& phase) {
    std::optional<decltype(phase())> result;
    std::exception_ptr error;
    std::thread thread([&] {
        ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), kGeneratorNice);
        try {
            result.emplace(phase());
        } catch (...) {
            error = std::current_exception();
        }
    });
    thread.join();
    if (error) std::rethrow_exception(error);
    return std::move(*result);
}

/// The nice value generator threads actually get (for the stamp).
int generator_nice() {
    return on_generator_thread(
        [] { return ::getpriority(PRIO_PROCESS, static_cast<id_t>(::gettid())); });
}

std::string stamp_json(const Args& args) {
    return "{\"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": \"" SERVEBENCH_COMPILER "\", \"build_type\": \"" SERVEBENCH_BUILD_TYPE
           "\", \"git_sha\": \"" + args.git_sha + "\", \"src_hash\": \"" + args.src_hash +
           "\", \"workload\": \"" + args.workload + "\", \"seed\": " +
           std::to_string(args.seed) + ", \"seconds\": " + json_double(args.seconds) +
           ", \"trace\": " + (args.trace ? "1" : "0") +
           ", \"generator_nice\": " + std::to_string(generator_nice()) + "}";
}

/// Times `count` calls of `call(i)`, one span each, and returns the
/// per-call microseconds.
template <class Call>
std::vector<double> time_calls(Trace& trace, std::string_view name, std::uint32_t parent,
                               std::size_t count, Call&& call) {
    const auto id = trace.intern(name);
    std::vector<double> us;
    us.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto t = now_ns();
        call(i);
        const auto e = now_ns();
        trace.add(id, t, e, parent, i);
        us.push_back(static_cast<double>(e - t) / 1e3);
    }
    return us;
}

/// Replays shard 0's share of an open-loop schedule into one in-process
/// service built like a shard (submit_async -> on_complete, no sockets, no
/// ND-JSON), so the TCP latency can be split into service and front door.
/// Returns each replayed request's latency from its due time; +inf when it
/// was rejected or failed.
std::vector<double> replay_service(Deployment& dep, const Mix& mix, const std::vector<std::int64_t>& due,
                      std::uint64_t first_n, Trace& trace, std::uint32_t parent) {
    auto config = dep.service_config();
    config.cache_capacity = std::max<std::size_t>(16, config.cache_capacity / kShards);
    serve::ExplanationService service(dep.forest(), dep.background(), config);
    warm(service, dep.data(), dep.hot_rows(), dep.mlp() != nullptr);

    std::vector<std::size_t> ks;
    for (std::size_t k = 0; k < due.size(); ++k)
        if (dep.conn_shard()[k % kConns] == 0) ks.push_back(k);
    std::vector<std::int64_t> done(ks.size(), -1);
    std::atomic<std::size_t> completed{0};
    std::size_t accepted = 0;

    const std::int64_t t0 = now_ns() + 1'000'000;
    on_generator_thread([&] {
        for (std::size_t i = 0; i < ks.size(); ++i) {
            auto request = mix.request(first_n + ks[i]);
            sleep_until_ns(t0 + due[ks[i]]);
            const auto rejected = service.submit_async(
                std::move(request), [&done, &completed, i](serve::ExplainResponse response) {
                    done[i] = response.ok ? now_ns() : -1;
                    completed.fetch_add(1, std::memory_order_release);
                });
            if (rejected == serve::ServeError::none) ++accepted;
        }
        return 0;
    });
    const std::int64_t give_up = now_ns() + static_cast<std::int64_t>(kGraceS * 1e9);
    while (completed.load(std::memory_order_acquire) < accepted && now_ns() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service.stop();  // joins the dispatcher: every callback has run

    const auto name = trace.intern("service.request");
    std::vector<double> latency_us(ks.size(), kInf);
    for (std::size_t i = 0; i < ks.size(); ++i) {
        const std::int64_t due_at = t0 + due[ks[i]];
        if (done[i] < 0) continue;
        latency_us[i] = static_cast<double>(done[i] - due_at) / 1e3;
        trace.add(name, due_at, done[i], parent, first_n + ks[i]);
    }
    return latency_us;
}

struct Outcome {
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched = 0;
    std::string phases_json;
};

void add_phase(Outcome& out, const std::string& name, const PhaseCounts& c,
               std::uint64_t attempted) {
    print_phase(name.c_str(), c, attempted);
    out.attempted += attempted;
    out.failed += c.errors();
    out.mismatched += c.mismatched;
    if (!out.phases_json.empty()) out.phases_json += ", ";
    out.phases_json += "\"" + name + "\": {\"attempted\": " +
                       std::to_string(attempted) + ", \"sent\": " + std::to_string(c.sent) +
                       ", \"ok\": " + std::to_string(c.ok) + ", \"failed\": " +
                       std::to_string(c.failed) + ", \"mismatched\": " +
                       std::to_string(c.mismatched) + ", \"unanswered\": " +
                       std::to_string(c.unanswered) + "}";
}

void add_setup_spans(Trace& trace, const std::vector<SetupTimes>& setups) {
    for (const auto& s : setups) {
        const auto root = trace.add("setup", s.dataset.start_ns, s.connect.end_ns);
        trace.add("setup.dataset", s.dataset.start_ns, s.dataset.end_ns, root);
        trace.add("setup.train", s.train.start_ns, s.train.end_ns, root);
        trace.add("setup.start", s.start.start_ns, s.start.end_ns, root);
        trace.add("setup.warm", s.warm.start_ns, s.warm.end_ns, root);
        trace.add("setup.connect", s.connect.start_ns, s.connect.end_ns, root);
    }
}

struct LayerCalls {
    double decode_us_p50 = 0.0;
    double render_us_p50 = 0.0;
    double lookup_us_p50 = 0.0;
    double insert_us_p50 = 0.0;
    double direct_us_p50[3] = {};  ///< tree_shap, kernel_shap, integrated_gradients
    double predict_rows_per_s = 0.0;
};

/// Direct single-threaded calls into each layer on the workload's own
/// requests (numbers from `first_n` on), one span per call.
LayerCalls measure_layers(Deployment& dep, Mix& mix, std::uint64_t first_n, Trace& trace) {
    LayerCalls out;
    const auto& config = dep.service_config();
    const std::size_t dim = dep.data().num_features();
    std::size_t sink = 0;  // keeps every timed call's result observable

    // serve.ndjson: decode the workload's request lines, render its replies.
    const auto ndjson_root = trace.add("layer.ndjson", now_ns(), now_ns());
    std::vector<std::string> lines(2000);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        mix.render(first_n + i, lines[i]);
        lines[i].pop_back();  // the newline belongs to the framer, not the parser
    }
    out.decode_us_p50 = median(time_calls(trace, "ndjson.decode", ndjson_root, lines.size(),
                                          [&](std::size_t i) {
                                              const auto req = serve::parse_json(lines[i]);
                                              const auto fx = serve::extract_features(req, dim);
                                              if (fx.error != serve::ServeError::none)
                                                  throw std::runtime_error("decode failed");
                                              sink += fx.features.size();
                                          }));
    std::vector<serve::ExplainResponse> replies;
    for (std::size_t i = 0; i < 64; ++i) replies.push_back(mix.reference(first_n + i));
    out.render_us_p50 = median(time_calls(trace, "ndjson.render", ndjson_root, 2000,
                                          [&](std::size_t i) {
                                              sink += serve::render_response(
                                                          replies[i % replies.size()])
                                                          .size();
                                          }));
    trace.close(ndjson_root, now_ns());

    // serve.cache: one shard's slice, probed with the workload's own keys;
    // a miss inserts, as the service does.
    const auto cache_root = trace.add("layer.cache", now_ns(), now_ns());
    serve::ExplanationCache cache(std::max<std::size_t>(16, config.cache_capacity / kShards),
                                  config.cache_shards);
    const std::uint64_t context = serve::fingerprint_model(*dep.forest());
    const auto lookup_id = trace.intern("cache.lookup");
    const auto insert_id = trace.intern("cache.insert");
    std::vector<double> lookup_us, insert_us, x;
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const std::uint64_t n = first_n + i;
        mix.features(n, x);
        const serve::CacheKey key(x, config.cache_quantum,
                                  context ^ static_cast<std::uint64_t>(mix.kind(n)));
        auto t = now_ns();
        const bool hit = cache.lookup(key).has_value();
        auto e = now_ns();
        trace.add(lookup_id, t, e, cache_root, n);
        lookup_us.push_back(static_cast<double>(e - t) / 1e3);
        if (hit) continue;
        t = now_ns();
        cache.insert(key, replies[i % replies.size()].explanation);
        e = now_ns();
        trace.add(insert_id, t, e, cache_root, n);
        insert_us.push_back(static_cast<double>(e - t) / 1e3);
    }
    trace.close(cache_root, now_ns());
    out.lookup_us_p50 = median(lookup_us);
    out.insert_us_p50 = median(insert_us);

    // core explainers, single-threaded, on the workload's rows.
    const auto explain_root = trace.add("layer.explain", now_ns(), now_ns());
    std::vector<std::vector<double>> rows(200);
    for (std::size_t i = 0; i < rows.size(); ++i) mix.features(first_n + i, rows[i]);
    const auto mlp = dep.mlp() ? dep.mlp() : train_mlp(dep.data());
    serve::ExplainerLimits limits;
    limits.ig_steps = config.ig_steps;
    const auto direct = [&](const char* method, const ml::Model& model, std::size_t calls) {
        const auto explainer =
            serve::make_explainer(method, dep.background(), config.seed, 1, limits);
        return median(time_calls(trace, std::string("explain.") + method + ".direct",
                                 explain_root, calls, [&](std::size_t i) {
                                     sink += explainer->explain(model, rows[i])
                                                 .attributions.size();
                                 }));
    };
    out.direct_us_p50[0] = direct("tree_shap", *dep.forest(), rows.size());
    out.direct_us_p50[1] = direct("kernel_shap", *dep.forest(), 8);
    out.direct_us_p50[2] = direct("integrated_gradients", *mlp, rows.size());
    trace.close(explain_root, now_ns());

    // mlcore: batched forest inference on a block the size of a KernelSHAP
    // probe batch.
    const auto ml_root = trace.add("layer.mlcore", now_ns(), now_ns());
    ml::Matrix block(4096, dim);
    for (std::size_t r = 0; r < block.rows(); ++r) {
        const auto src = dep.data().x.row(r % dep.data().size());
        std::copy(src.begin(), src.end(), block.row(r).begin());
    }
    std::vector<double> scores(block.rows());
    const double batch_us =
        median(time_calls(trace, "mlcore.predict_batch", ml_root, 10, [&](std::size_t) {
            dep.forest()->predict_batch(block, scores);
            sink += scores.size();
        }));
    trace.close(ml_root, now_ns());
    out.predict_rows_per_s = static_cast<double>(block.rows()) / (batch_us / 1e6);
    if (sink == 0) throw std::runtime_error("layer calls produced nothing");
    return out;
}


/// Byte-compares the round's sampled fresh replies and books mismatches.
void verify(const Mix& mix, Outcome& out, std::size_t (&checked)[kNumKinds]) {
    const auto sample = mix.verify_sample();
    out.failed += sample.mismatched;
    out.mismatched += sample.mismatched;
    for (std::size_t k = 0; k < kNumKinds; ++k) checked[k] += sample.per_kind[k];
}

void print_verification(const std::size_t (&checked)[kNumKinds], const Outcome& out) {
    std::printf("verify: every hot reply byte-compared on arrival; fresh sample of %zu "
                "replies byte-compared (fresh_tree %zu, fresh_mlp %zu, fresh_kernel %zu); "
                "%llu mismatched\n",
                checked[1] + checked[2] + checked[3], checked[1], checked[2], checked[3],
                static_cast<unsigned long long>(out.mismatched));
}

struct OpenPhase {
    std::vector<std::int64_t> schedule;
    std::uint64_t first_n = 0;
    OpenResult result;
    Served served;  ///< per-shard counters over exactly this phase
};

/// One open loop at the workload's rate, bracketed by per-shard
/// stats_reset() / stats() so the serving counters cover only this phase.
OpenPhase run_open(Deployment& dep, const Traffic& traffic, const WorkloadSpec& spec,
                   std::uint64_t schedule_seed, double seconds, std::uint64_t& n,
                   Trace* trace = nullptr, std::uint32_t parent = 0) {
    OpenPhase p;
    p.schedule = paced_schedule(schedule_seed, spec.open_rate, seconds, kConns);
    p.first_n = n;
    n += p.schedule.size();
    auto& server = dep.server();
    reset_stats(server);
    const auto before = read_stats(server, trace, parent);
    p.result = on_generator_thread([&] {
        return dep.generator().open_loop(traffic, p.first_n, p.schedule, kGraceS, trace, parent);
    });
    const auto after = read_stats(server, trace, parent);
    p.served = merge(before, after);
    return p;
}

double throughput_of(const ClosedResult& c) {
    return static_cast<double>(c.good_in_window) / c.seconds;
}

/// CPU seconds this process has used so far, all threads.
double process_cpu_s() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto s = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
    };
    return s(usage.ru_utime) + s(usage.ru_stime);
}

ClosedResult run_closed(Deployment& dep, const Traffic& traffic, double seconds,
                        std::uint64_t& n, Trace* trace = nullptr, std::uint32_t parent = 0) {
    const double cpu = process_cpu_s();
    auto r = on_generator_thread([&] {
        return dep.generator().closed_loop(traffic, n, kWindow, seconds, trace, parent);
    });
    std::printf("closed loop: %.0f req/s, %.2f cores busy\n", throughput_of(r),
                (process_cpu_s() - cpu) / r.seconds);
    return r;
}

void print_open(const std::string& label, const WorkloadSpec& spec, const OpenPhase& p,
                const Mix& mix, std::size_t redials) {
    const auto& lat = p.result.latency_us;
    std::printf("%s: offered %.0f req/s, %zu requests, p50 %.1f us, p90 %.1f us, p99 %.1f us, "
                "repeat p90 %.1f us, lag p99 %.1f us, shard skew %.3f, redials %zu\n",
                label.c_str(), spec.open_rate, p.schedule.size(), quantile(lat, 0.50),
                quantile(lat, 0.90), quantile(lat, 0.99),
                quantile(repeat_latencies(p.result, mix, p.first_n), 0.90),
                lag_p99(p.result), skew(p.served.submitted), redials);
}

/// End-to-end run: kRounds fresh deployments, each measured by a closed
/// loop and an open loop.  Throughput and latency are the best round's:
/// on a shared host, CPU steal comes in episodes that span several rounds
/// and only ever makes a round worse, so the best round is the one that
/// measures the program rather than its neighbours (a regression in the
/// program shows in every round).  Set-up time is the median.
Outcome run_untraced(const Args& args, const WorkloadSpec& spec) {
    Outcome out;
    std::vector<double> setup_s, throughput, p50, p90;
    std::size_t checked[kNumKinds] = {};
    std::uint64_t n = 0;
    const double round_s = args.seconds / kRounds;
    for (int r = 0; r < kRounds; ++r) {
        Deployment dep(spec, args.seed);
        setup_s.push_back(dep.times().total());
        // Reference building is verification, not set-up.
        Mix mix(spec, dep, args.seed);
        mix.prepare_references();
        const Traffic traffic = mix.traffic();
        const std::string round = "round" + std::to_string(r);

        // Untimed warm-up traffic: lazy allocations and pool start-up are
        // paid before the clock runs, as in a long-lived server.
        const auto warmup =
            run_closed(dep, traffic, r == 0 ? kProcessWarmupS : kRoundWarmupShare * round_s, n);
        add_phase(out, round + ".warmup", warmup.counts, warmup.counts.sent);
        const auto closed = run_closed(dep, traffic, 0.4 * round_s, n);
        add_phase(out, round + ".closed", closed.counts, closed.counts.sent);
        throughput.push_back(throughput_of(closed));

        const auto open = run_open(dep, traffic, spec, hash3(args.seed, 9, r), 0.6 * round_s, n);
        add_phase(out, round + ".open", open.result.counts, open.schedule.size());
        print_open(round + " open loop", spec, open, mix, dep.redials());
        p50.push_back(quantile(open.result.latency_us, 0.50));
        p90.push_back(quantile(open.result.latency_us, 0.90));
        verify(mix, out, checked);
    }
    print_verification(checked, out);

    Metrics& m = out.metrics;
    m.add("throughput_rps", *std::max_element(throughput.begin(), throughput.end()), "req/s");
    m.add("p50_us", *std::min_element(p50.begin(), p50.end()), "us");
    m.add("p90_us", *std::min_element(p90.begin(), p90.end()), "us");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
}

/// Per-layer run: set up kTracedSetups times, then on the last deployment
/// an untraced and a traced closed loop (their difference is the tracing
/// overhead), a traced open loop, the in-process service replay of the same
/// schedule, and direct calls into each layer.
Outcome run_traced(const Args& args, const WorkloadSpec& spec, Trace& trace) {
    Outcome out;
    std::vector<SetupTimes> setups;
    std::unique_ptr<Deployment> dep;
    for (int r = 0; r < kTracedSetups; ++r) {
        dep.reset();
        dep = std::make_unique<Deployment>(spec, args.seed);
        setups.push_back(dep->times());
    }
    add_setup_spans(trace, setups);
    Mix mix(spec, *dep, args.seed);
    mix.prepare_references();
    const Traffic traffic = mix.traffic();
    std::size_t checked[kNumKinds] = {};
    std::uint64_t n = 0;

    const auto warmup = run_closed(*dep, traffic, kProcessWarmupS, n);
    add_phase(out, "warmup", warmup.counts, warmup.counts.sent);
    const auto closed = run_closed(*dep, traffic, 0.1 * args.seconds, n);
    add_phase(out, "closed", closed.counts, closed.counts.sent);
    const auto closed_root = trace.add("phase.closed", now_ns(), now_ns());
    const auto traced = run_closed(*dep, traffic, 0.1 * args.seconds, n, &trace, closed_root);
    trace.close(closed_root, now_ns());
    add_phase(out, "closed_traced", traced.counts, traced.counts.sent);

    const auto open_root = trace.add("phase.open", now_ns(), now_ns());
    const auto open = run_open(*dep, traffic, spec, hash3(args.seed, 9), 0.45 * args.seconds, n,
                               &trace, open_root);
    trace.close(open_root, now_ns());
    add_phase(out, "open_traced", open.result.counts, open.schedule.size());
    print_open("traced open loop", spec, open, mix, dep->redials());
    verify(mix, out, checked);
    print_verification(checked, out);

    const auto replay_root = trace.add("phase.service_replay", now_ns(), now_ns());
    const auto replay = replay_service(*dep, mix, open.schedule, open.first_n, trace, replay_root);
    trace.close(replay_root, now_ns());
    const auto replay_failed = static_cast<std::uint64_t>(
        std::count(replay.begin(), replay.end(), kInf));
    out.attempted += replay.size();
    out.failed += replay_failed;
    std::printf("phase %-13s attempted=%zu failed=%llu\n", "replay", replay.size(),
                static_cast<unsigned long long>(replay_failed));
    const LayerCalls calls = measure_layers(*dep, mix, n, trace);

    const auto& lat = open.result.latency_us;
    const Served& served = open.served;
    const double p50 = quantile(lat, 0.50);
    const double rtt_p50 = quantile(replay, 0.50);
    const auto ratio = [](double num, std::uint64_t den) {
        return den ? num / static_cast<double>(den) : 0.0;
    };
    const auto setup_median = [&setups](auto field) {
        std::vector<double> v;
        for (const auto& s : setups) v.push_back(field(s));
        return median(std::move(v));
    };

    Metrics& m = out.metrics;
    m.add("net.overhead_us_p50", p50 - rtt_p50 - calls.decode_us_p50 - calls.render_us_p50, "us");
    m.add("net.bytes_in_per_req",
          ratio(static_cast<double>(open.result.counts.bytes_out), open.result.counts.sent), "B");
    m.add("net.bytes_out_per_req",
          ratio(static_cast<double>(open.result.counts.bytes_in), open.result.counts.ok), "B");
    m.add("net.shard_skew", skew(served.submitted), "ratio");
    m.add("net.redials", static_cast<double>(dep->redials()), "count");
    m.add("ndjson.decode_us_p50", calls.decode_us_p50, "us");
    m.add("ndjson.render_us_p50", calls.render_us_p50, "us");
    m.add("service.rtt_us_p50", rtt_p50, "us");
    m.add("service.rtt_us_p90", quantile(replay, 0.90), "us");
    m.add("service.service_us_mean", served.service_us_mean, "us");
    m.add("service.batch_size_mean", served.batch_size_mean, "count");
    m.add("service.queue_depth_max", static_cast<double>(served.queue_depth_max), "count");
    m.add("cache.hit_rate", ratio(static_cast<double>(served.hits), served.hits + served.misses),
          "fraction");
    m.add("cache.lookup_us_p50", calls.lookup_us_p50, "us");
    m.add("cache.insert_us_p50", calls.insert_us_p50, "us");
    m.add("cache.evictions_per_req",
          ratio(static_cast<double>(served.evictions), served.total_submitted()), "count");
    m.add("explain.tree_shap_direct_us_p50", calls.direct_us_p50[0], "us");
    m.add("explain.kernel_shap_direct_us_p50", calls.direct_us_p50[1], "us");
    m.add("explain.ig_direct_us_p50", calls.direct_us_p50[2], "us");
    const Served::Slice slices[3] = {served.tree_shap, served.kernel_shap, served.ig};
    m.add("explain.tree_shap_served_us_mean", slices[0].compute_us_mean, "us");
    m.add("explain.kernel_shap_served_us_mean", slices[1].compute_us_mean, "us");
    m.add("explain.ig_served_us_mean", slices[2].compute_us_mean, "us");
    // Served compute time over what the same explanations cost on one idle
    // thread, weighted by how many of each were served (0: none computed).
    double served_us = 0.0, direct_us = 0.0;
    for (int i = 0; i < 3; ++i) {
        served_us += slices[i].compute_us_mean * static_cast<double>(slices[i].requests);
        direct_us += calls.direct_us_p50[i] * static_cast<double>(slices[i].requests);
    }
    m.add("explain.contention", direct_us > 0.0 ? served_us / direct_us : 0.0, "ratio");
    m.add("mlcore.model_evals_per_miss",
          ratio(static_cast<double>(served.model_evals), served.misses), "count");
    m.add("mlcore.predict_batch_rows_per_s", calls.predict_rows_per_s, "rows/s");
    m.add("setup.dataset_s", setup_median([](const SetupTimes& s) { return s.dataset.seconds(); }),
          "s");
    m.add("setup.train_s", setup_median([](const SetupTimes& s) { return s.train.seconds(); }),
          "s");
    m.add("setup.start_s", setup_median([](const SetupTimes& s) {
              return s.start.seconds() + s.connect.seconds();
          }),
          "s");
    m.add("setup.warm_s", setup_median([](const SetupTimes& s) { return s.warm.seconds(); }),
          "s");
    m.add("loadgen.lag_p99_us", lag_p99(open.result), "us");
    std::uint64_t repeats = 0;
    for (std::size_t k = 0; k < open.schedule.size(); ++k)
        repeats += mix.kind(open.first_n + k) == Kind::hot;
    m.add("workload.repeat_share", ratio(static_cast<double>(repeats), open.schedule.size()),
          "fraction");
    m.add("tail.p99_us", quantile(lat, 0.99), "us");
    m.add("trace.overhead_frac", 1.0 - throughput_of(traced) / throughput_of(closed), "fraction");
    m.add("repeat_p90_us", quantile(repeat_latencies(open.result, mix, open.first_n), 0.90),
          "us");
    m.add("error_frac", ratio(static_cast<double>(out.failed), out.attempted), "fraction");
    return out;
}

/// Self time per span name, for the layers file.
std::string layers_json(const Trace& trace) {
    std::string out = "[";
    for (const auto& l : trace.layers()) {
        if (out.size() > 1) out += ",\n  ";
        out += "{\"name\": \"" + l.name + "\", \"count\": " + std::to_string(l.count) +
               ", \"total_us\": " + json_double(l.total_us) +
               ", \"self_us\": " + json_double(l.self_us) + "}";
    }
    return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    std::string error;
    if (!parse_args(argc, argv, args, error)) {
        std::fprintf(stderr, "servebench: %s\n", error.c_str());
        return 2;
    }
    try {
        const WorkloadSpec& spec = *find_workload(args.workload);
        Trace trace(args.trace ? (1u << 21) : 0);
        const Outcome out = args.trace ? run_traced(args, spec, trace) : run_untraced(args, spec);
        const std::string stamp = stamp_json(args);
        std::printf("stamp: %s\n", stamp.c_str());

        const bool correct = out.mismatched == 0 && out.attempted > 0;
        const std::string result =
            "{\"correct\": " + std::string(correct ? "true" : "false") +
            ", \"attempted\": " + std::to_string(out.attempted) +
            ", \"failed\": " + std::to_string(out.failed) +
            ", \"metrics\": " + out.metrics.json() + "}";

        std::filesystem::create_directories(args.out_dir);
        const std::string base = args.out_dir + "/" + args.workload + (args.trace ? "-trace" : "");
        {
            std::ofstream f(base + ".json");
            f << "{\"stamp\": " << stamp << ",\n \"phases\": {" << out.phases_json
              << "},\n \"result\": " << result;
            if (args.trace) f << ",\n \"layers\": " << layers_json(trace);
            f << "}\n";
        }
        if (args.trace && !trace.write_csv(base + "-spans.csv"))
            std::fprintf(stderr, "servebench: could not write %s-spans.csv\n", base.c_str());
        std::printf("%s\n", result.c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}
