// The benchmark's three traffic mixes, the deployment each one is served by,
// and the one-shot references its replies are checked against.
//
// Every workload runs against an in-process net::ShardedServer with kShards
// shards on loopback, driven by one generator thread over kConns
// connections that are balanced across the shards before anything is
// timed.  The server only ever receives generated feature vectors (the
// "features" member), never row indices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/explanation.hpp"
#include "loadgen.hpp"
#include "mlcore/dataset.hpp"
#include "mlcore/forest.hpp"
#include "mlcore/mlp.hpp"
#include "net/sharded_server.hpp"
#include "serve/service.hpp"

namespace servebench {

inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kConns = 4;
/// Closed-loop requests in flight per connection: enough to keep every core
/// busy, so the closed loop measures capacity rather than round trips.
inline constexpr std::size_t kWindow = 32;
inline constexpr std::size_t kDatasetRows = 1200;
inline constexpr std::size_t kHotRows = 32;
/// Sized so that one KernelSHAP miss on the forest costs tens of ms.
inline constexpr std::size_t kBackgroundRows = 16;
/// Fleet-wide cache entries per model (split across the shards): holds the
/// hot set many times over, and is far smaller than a fresh stream.
inline constexpr std::size_t kCacheCapacity = 1024;
inline constexpr std::size_t kForestTrees = 80;
/// The served models are the same in every run: the training telemetry and
/// the fits use this fixed seed, and --seed varies only the traffic (hot
/// set, fresh rows, arrival phase, class order).  Otherwise every seed would
/// benchmark a differently shaped forest.
inline constexpr std::uint64_t kModelSeed = 2020;
/// Name the MLP tenant is registered under in mixed_tenants.
inline constexpr std::string_view kMlpModel = "mlp";

/// Request classes are assigned in blocks of this many consecutive requests,
/// so every stretch of traffic carries the workload's exact mix.
inline constexpr std::size_t kMixBlock = 20;

struct WorkloadSpec {
    std::string_view name;
    /// Service-wide default method ("tree_shap", or "auto" for per-model
    /// routing).
    std::string_view default_method;
    /// Requests of each class in every block of kMixBlock consecutive
    /// requests; the rest are fresh forest rows with the default method.
    std::size_t hot = 0;     ///< repeats of the warmed hot rows
    std::size_t mlp = 0;     ///< fresh rows for the MLP tenant
    std::size_t kernel = 0;  ///< fresh forest rows, "method":"kernel_shap"
    /// Offered rate of the open-loop phase, well below closed-loop capacity.
    double open_rate = 0.0;
};

/// The workload named `name`, or null.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
/// Names of every workload, for the usage message.
[[nodiscard]] std::string workload_names();

enum class Kind : std::uint8_t { hot, fresh_tree, fresh_mlp, fresh_kernel };
inline constexpr std::size_t kNumKinds = 4;

/// One timed set-up step, on the now_ns() clock.
struct Step {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    [[nodiscard]] double seconds() const noexcept {
        return static_cast<double>(end_ns - start_ns) / 1e9;
    }
};

struct SetupTimes {
    Step dataset;  ///< telemetry dataset build (workload module)
    Step train;    ///< model fitting (mlcore)
    Step start;    ///< server construction, listeners, shard threads
    Step warm;     ///< hot rows through every shard's cache
    Step connect;  ///< generator connections, balanced across shards
    [[nodiscard]] double total() const noexcept {
        return dataset.seconds() + train.seconds() + start.seconds() + warm.seconds() +
               connect.seconds();
    }
};

/// One complete set-up: data, models, a running sharded server, and the
/// generator's connections, balanced so every shard holds kConns / kShards.
class Deployment {
public:
    /// Builds everything and records how long each step took; `seed` picks
    /// the hot set (the models come from kModelSeed).  Throws
    /// std::runtime_error when the server cannot start or balancing fails.
    Deployment(const WorkloadSpec& spec, std::uint64_t seed);
    /// Closes the connections, drains the server and stops its services.
    ~Deployment();
    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    [[nodiscard]] const SetupTimes& times() const noexcept { return times_; }
    [[nodiscard]] xnfv::net::ShardedServer& server() noexcept { return *server_; }
    [[nodiscard]] Generator& generator() noexcept { return generator_; }
    [[nodiscard]] std::size_t redials() const noexcept { return redials_; }
    /// Shard each generator connection landed on.
    [[nodiscard]] const std::vector<std::size_t>& conn_shard() const noexcept {
        return conn_shard_;
    }

    [[nodiscard]] const xnfv::ml::Dataset& data() const noexcept { return data_; }
    [[nodiscard]] const std::vector<double>& col_sd() const noexcept { return col_sd_; }
    [[nodiscard]] const std::vector<std::size_t>& hot_rows() const noexcept { return hot_rows_; }
    [[nodiscard]] const xnfv::xai::BackgroundData& background() const noexcept {
        return background_;
    }
    [[nodiscard]] const std::shared_ptr<xnfv::ml::RandomForest>& forest() const noexcept {
        return forest_;
    }
    /// Null unless the workload sends MLP traffic.
    [[nodiscard]] const std::shared_ptr<xnfv::ml::Mlp>& mlp() const noexcept { return mlp_; }
    /// The configuration every shard's service was built from (its cache
    /// capacity is the fleet total; the server splits it across shards).
    [[nodiscard]] const xnfv::serve::ServiceConfig& service_config() const noexcept {
        return service_config_;
    }

private:
    void connect_balanced();

    xnfv::ml::Dataset data_;
    std::vector<double> col_sd_;
    std::vector<std::size_t> hot_rows_;
    xnfv::xai::BackgroundData background_;
    std::shared_ptr<xnfv::ml::RandomForest> forest_;
    std::shared_ptr<xnfv::ml::Mlp> mlp_;
    xnfv::serve::ServiceConfig service_config_;
    std::unique_ptr<xnfv::net::ShardedServer> server_;
    std::thread loop_;
    Generator generator_;
    std::vector<std::size_t> conn_shard_;
    std::size_t redials_ = 0;
    SetupTimes times_;
};

/// Sends every hot row (and, with an MLP tenant, a few rows for it) through
/// `service`, so the timed phases start with warm caches and warm pools.
void warm(xnfv::serve::ExplanationService& service, const xnfv::ml::Dataset& data,
          const std::vector<std::size_t>& hot_rows, bool with_mlp);

/// Trains the MLP tenant (mixed_tenants' second model; the traced run also
/// trains one for the direct integrated-gradients measurement).
[[nodiscard]] std::shared_ptr<xnfv::ml::Mlp> train_mlp(const xnfv::ml::Dataset& data);

/// The request stream of one workload and its correctness check.  Request n
/// is a pure function of (seed, n): its kind, and either a hot row or a
/// fresh row derived from a dataset row plus seeded jitter, so no two fresh
/// requests carry the same features.
class Mix {
public:
    Mix(const WorkloadSpec& spec, const Deployment& deployment, std::uint64_t seed);

    [[nodiscard]] Kind kind(std::uint64_t n) const noexcept;
    void features(std::uint64_t n, std::vector<double>& out) const;
    /// The in-process form of request n (for the service replay).
    [[nodiscard]] xnfv::serve::ExplainRequest request(std::uint64_t n) const;
    /// Appends request n's ND-JSON line, newline included.
    void render(std::uint64_t n, std::string& out);

    /// Builds the one-shot reference of every hot row.  Call before timing.
    void prepare_references();
    /// Verdict on the reply to request n: hot replies are byte-compared on
    /// the spot; fresh replies are checked for id and ok, and a seeded
    /// reservoir sample of them is kept for verify_sample().
    [[nodiscard]] Verdict check(std::uint64_t n, std::string_view line);
    [[nodiscard]] Traffic traffic();

    /// Byte-compares the sampled fresh replies against one-shot references.
    struct SampleCheck {
        std::size_t checked = 0;
        std::size_t mismatched = 0;
        std::size_t per_kind[kNumKinds] = {};
    };
    [[nodiscard]] SampleCheck verify_sample() const;

    /// What a one-shot make_explainer + explain call returns for request n
    /// (id 0, "cache_hit":false): the served answer under the determinism
    /// contract.
    [[nodiscard]] xnfv::serve::ExplainResponse reference(std::uint64_t n) const;

private:
    struct Sampled {
        std::uint64_t n = 0;
        std::string line;
    };
    struct Reservoir {
        std::size_t cap = 0;
        std::uint64_t seen = 0;
        std::vector<Sampled> slots;
    };

    const WorkloadSpec& spec_;
    const Deployment& dep_;
    std::uint64_t seed_;
    std::vector<std::string> hot_tail_;  ///< `,"features":[...]}\n` per hot row
    std::vector<std::string> hot_ref_;   ///< reference line per hot row
    Reservoir reservoir_[kNumKinds];
    std::vector<double> scratch_;
};

}  // namespace servebench
