#include "workload.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <span>
#include <stdexcept>

#include "mlcore/rng.hpp"
#include "serve/ndjson.hpp"
#include "workload/dataset_builder.hpp"
#include "workload/scenario.hpp"

namespace servebench {

namespace ml = xnfv::ml;
namespace net = xnfv::net;
namespace serve = xnfv::serve;
namespace xai = xnfv::xai;

namespace {

// Offered rates are 15-25% of each workload's closed-loop throughput_rps
// at the seed (4-vCPU x86 VM), low enough that latency stays service time
// rather than queueing when a shared host briefly loses capacity.
// mixed_tenants runs by name but is not gated in BENCHMARK.json: its tail
// is not steady on a shared host (servebench/README.md).
constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {.name = "hot_repeat", .default_method = "tree_shap", .hot = kMixBlock,
     .open_rate = 15000.0},
    {.name = "fresh_tree", .default_method = "tree_shap", .open_rate = 2000.0},
    {.name = "mixed_tenants", .default_method = "auto", .hot = 17, .mlp = 2, .kernel = 1,
     .open_rate = 300.0},
}};

/// Fresh replies sampled per Mix (one per round) and kind; KernelSHAP
/// references cost tens of ms each.
constexpr std::size_t kSampleCap[kNumKinds] = {0, 64, 32, 8};
/// Probe ids live far above any request number of a run.
constexpr std::uint64_t kProbeIdBase = 1ULL << 40;

void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, ec == std::errc{} ? end : buf);
}

/// Requests submitted to each shard's service so far (accepted or not).
std::vector<std::uint64_t> submitted_per_shard(net::ShardedServer& server) {
    std::vector<std::uint64_t> out(server.shards());
    for (std::size_t s = 0; s < server.shards(); ++s) {
        const auto st = server.service(s).stats();
        out[s] = st.requests_accepted + st.requests_rejected;
    }
    return out;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
    for (const auto& w : kWorkloads)
        if (w.name == name) return &w;
    return nullptr;
}

std::string workload_names() {
    std::string out;
    for (const auto& w : kWorkloads) {
        if (!out.empty()) out += '|';
        out += w.name;
    }
    return out;
}

std::shared_ptr<ml::Mlp> train_mlp(const ml::Dataset& data) {
    ml::Rng rng(hash3(kModelSeed, 3));
    auto mlp = std::make_shared<ml::Mlp>(
        ml::Mlp::Config{.hidden_layers = {32, 32}, .epochs = 30});
    mlp->fit(data, rng);
    return mlp;
}

void warm(serve::ExplanationService& service, const ml::Dataset& data,
          const std::vector<std::size_t>& hot_rows, bool with_mlp) {
    const auto send = [&service](std::span<const double> x, std::string_view model) {
        serve::ExplainRequest request;
        request.features.assign(x.begin(), x.end());
        request.model = std::string(model);
        if (!service.explain_sync(std::move(request)).ok)
            throw std::runtime_error("warm-up request failed");
    };
    for (const std::size_t row : hot_rows) send(data.x.row(row), "");
    for (std::size_t row = 0; with_mlp && row < 8; ++row) send(data.x.row(row), kMlpModel);
}

Deployment::Deployment(const WorkloadSpec& spec, std::uint64_t seed) {
    times_.dataset.start_ns = now_ns();
    {
        ml::Rng rng(hash3(kModelSeed, 1));
        xnfv::wl::BuildOptions options;
        options.num_samples = kDatasetRows;
        data_ = xnfv::wl::build_mixed_dataset(xnfv::wl::standard_scenarios(), options, rng)
                    .data;
    }
    col_sd_ = data_.feature_stddevs();
    for (std::uint64_t i = 0; hot_rows_.size() < kHotRows; ++i) {
        const std::size_t row = hash3(seed, i, 2) % data_.size();
        if (std::find(hot_rows_.begin(), hot_rows_.end(), row) == hot_rows_.end())
            hot_rows_.push_back(row);
    }
    background_ = xai::BackgroundData(data_.x, kBackgroundRows);
    times_.dataset.end_ns = times_.train.start_ns = now_ns();

    {
        ml::Rng rng(hash3(kModelSeed, 2));
        forest_ = std::make_shared<ml::RandomForest>(
            ml::RandomForest::Config{.num_trees = kForestTrees});
        forest_->fit(data_, rng);
    }
    if (spec.mlp > 0) mlp_ = train_mlp(data_);
    times_.train.end_ns = times_.start.start_ns = now_ns();

    service_config_.method = std::string(spec.default_method);
    service_config_.cache_capacity = kCacheCapacity;
    // Admission never sheds here: the open loop runs at a third of capacity
    // and the closed loop holds kConns * window requests at most.
    service_config_.queue_depth = 4096;
    if (mlp_)
        service_config_.extra_models.push_back(
            serve::ModelSpec{.name = std::string(kMlpModel), .model = mlp_});
    net::ShardedServerConfig net_config;
    net_config.shards = kShards;
    net_config.net.max_connections = 64;
    // Connections are closed before the drain, so nothing lingers.
    net_config.net.drain_linger = std::chrono::milliseconds(200);
    server_ = std::make_unique<net::ShardedServer>(forest_, background_, service_config_,
                                                   net_config);
    std::string error;
    if (!server_->start(&error)) throw std::runtime_error("server start failed: " + error);
    loop_ = std::thread([this] { server_->run(); });
    times_.start.end_ns = times_.warm.start_ns = now_ns();

    for (std::size_t s = 0; s < server_->shards(); ++s)
        warm(server_->service(s), data_, hot_rows_, mlp_ != nullptr);
    times_.warm.end_ns = times_.connect.start_ns = now_ns();

    connect_balanced();
    times_.connect.end_ns = now_ns();
}

void Deployment::connect_balanced() {
    // A probe request on a fresh connection bumps exactly one shard's
    // submission counter, which names the shard SO_REUSEPORT picked.
    // Connections landing on a shard that already holds its share are
    // closed and dialled again.
    ShardBalancer balancer(kShards, kConns);
    std::string probe_tail = ",\"features\":";
    const auto x = data_.x.row(hot_rows_.front());
    append_array(probe_tail, std::vector<double>(x.begin(), x.end()));
    probe_tail += '}';
    for (std::uint64_t attempt = 0; !balancer.balanced(); ++attempt) {
        if (attempt >= 256) throw std::runtime_error("could not balance connections");
        std::string error;
        const int fd = dial(server_->port(), error);
        if (fd < 0) throw std::runtime_error("dial failed: " + error);
        std::string probe = "{\"op\":\"explain\",\"id\":";
        append_u64(probe, kProbeIdBase + attempt);
        probe += probe_tail;
        const auto before = submitted_per_shard(*server_);
        std::string reply;
        const bool answered = roundtrip(fd, probe, reply, 5000);
        const auto after = submitted_per_shard(*server_);
        const std::size_t shard = grown_shard(before, after);
        if (!answered || !response_ok(reply, kProbeIdBase + attempt) || shard == npos) {
            close_fd(fd);
            throw std::runtime_error("probe request failed: " + reply);
        }
        if (balancer.offer(shard)) {
            generator_.adopt(fd);
            conn_shard_.push_back(shard);
        } else {
            close_fd(fd);
        }
    }
    redials_ = balancer.redials();
}

Deployment::~Deployment() {
    generator_.close_all();
    if (server_) {
        server_->request_drain();
        if (loop_.joinable()) loop_.join();
        server_->stop_services();
    }
}

Mix::Mix(const WorkloadSpec& spec, const Deployment& deployment, std::uint64_t seed)
    : spec_(spec), dep_(deployment), seed_(seed) {
    for (const std::size_t row : dep_.hot_rows()) {
        const auto x = dep_.data().x.row(row);
        std::string tail = ",\"features\":";
        append_array(tail, std::vector<double>(x.begin(), x.end()));
        tail += "}\n";
        hot_tail_.push_back(std::move(tail));
    }
    // Sample buffers are allocated up front so checking allocates nothing
    // while the workload runs.
    for (std::size_t k = 0; k < kNumKinds; ++k) {
        reservoir_[k].cap = kSampleCap[k];
        reservoir_[k].slots.resize(kSampleCap[k]);
        for (auto& slot : reservoir_[k].slots) slot.line.reserve(2048);
    }
    scratch_.reserve(dep_.data().num_features());
}

Kind Mix::kind(std::uint64_t n) const noexcept {
    if (spec_.hot == kMixBlock) return Kind::hot;
    if (spec_.hot + spec_.mlp + spec_.kernel == 0) return Kind::fresh_tree;
    const std::size_t rank = stratified_rank(seed_, n, kMixBlock);
    if (rank < spec_.hot) return Kind::hot;
    if (rank < spec_.hot + spec_.mlp) return Kind::fresh_mlp;
    if (rank < spec_.hot + spec_.mlp + spec_.kernel) return Kind::fresh_kernel;
    return Kind::fresh_tree;
}

namespace {

std::size_t hot_index(std::uint64_t seed, std::uint64_t n) {
    return hash3(seed, n, 2) % kHotRows;
}

}  // namespace

void Mix::features(std::uint64_t n, std::vector<double>& out) const {
    const auto& x = dep_.data().x;
    if (kind(n) == Kind::hot) {
        const auto row = x.row(dep_.hot_rows()[hot_index(seed_, n)]);
        out.assign(row.begin(), row.end());
        return;
    }
    // A dataset row moved by up to 5% of each feature's spread: realistic
    // telemetry that no other request of the run repeats.
    const auto base = x.row(hash3(seed_, n, 3) % x.rows());
    const auto& sd = dep_.col_sd();
    out.resize(base.size());
    for (std::size_t j = 0; j < base.size(); ++j)
        out[j] = base[j] + 0.05 * sd[j] * (2.0 * unit(hash3(seed_, n, 16 + j)) - 1.0);
}

serve::ExplainRequest Mix::request(std::uint64_t n) const {
    serve::ExplainRequest r;
    r.id = n;
    features(n, r.features);
    const Kind k = kind(n);
    if (k == Kind::fresh_mlp) r.model = std::string(kMlpModel);
    if (k == Kind::fresh_kernel) r.method = "kernel_shap";
    return r;
}

void Mix::render(std::uint64_t n, std::string& out) {
    out += "{\"op\":\"explain\",\"id\":";
    append_u64(out, n);
    const Kind k = kind(n);
    if (k == Kind::hot) {
        out += hot_tail_[hot_index(seed_, n)];
        return;
    }
    if (k == Kind::fresh_mlp) out += ",\"model\":\"mlp\"";
    if (k == Kind::fresh_kernel) out += ",\"method\":\"kernel_shap\"";
    out += ",\"features\":";
    features(n, scratch_);
    append_array(out, scratch_);
    out += "}\n";
}

serve::ExplainResponse Mix::reference(std::uint64_t n) const {
    // The concrete method each kind must be served with: "auto" routes a
    // forest to tree_shap and an MLP to integrated_gradients.
    const Kind k = kind(n);
    const bool mlp = k == Kind::fresh_mlp;
    const std::string method = mlp                       ? "integrated_gradients"
                               : k == Kind::fresh_kernel ? "kernel_shap"
                                                         : "tree_shap";
    serve::ExplainerLimits limits;
    limits.ig_steps = dep_.service_config().ig_steps;
    const auto explainer = serve::make_explainer(method, dep_.background(),
                                                 dep_.service_config().seed, 0, limits);
    std::vector<double> x;
    features(n, x);
    serve::ExplainResponse r;
    r.ok = true;
    r.explanation = mlp ? explainer->explain(*dep_.mlp(), x)
                        : explainer->explain(*dep_.forest(), x);
    return r;
}

void Mix::prepare_references() {
    hot_ref_.assign(kHotRows, std::string());
    // Any request number that maps to hot row h gives h's reference.
    std::size_t found = 0;
    for (std::uint64_t n = 0; found < kHotRows && spec_.hot > 0; ++n) {
        if (kind(n) != Kind::hot) continue;
        auto& ref = hot_ref_[hot_index(seed_, n)];
        if (!ref.empty()) continue;
        ref = serve::render_response(reference(n));
        ++found;
    }
}

Verdict Mix::check(std::uint64_t n, std::string_view line) {
    if (!response_ok(line, n)) return Verdict::failed;
    const Kind k = kind(n);
    if (k == Kind::hot)
        return same_response(line, n, hot_ref_[hot_index(seed_, n)]) ? Verdict::ok
                                                                     : Verdict::mismatch;
    auto& r = reservoir_[static_cast<std::size_t>(k)];
    const std::uint64_t seen = r.seen++;
    const std::uint64_t slot = seen < r.cap ? seen : hash3(seed_, seen, 7) % (seen + 1);
    if (slot < r.cap) {
        r.slots[slot].n = n;
        r.slots[slot].line.assign(line);
    }
    return Verdict::ok;
}

Traffic Mix::traffic() {
    return Traffic{
        [this](std::uint64_t n, std::string& out) { render(n, out); },
        [this](std::uint64_t n, std::string_view line) { return check(n, line); },
    };
}

Mix::SampleCheck Mix::verify_sample() const {
    SampleCheck out;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
        const auto& r = reservoir_[k];
        const std::size_t filled = std::min<std::uint64_t>(r.seen, r.cap);
        for (std::size_t i = 0; i < filled; ++i) {
            const auto& s = r.slots[i];
            const auto ref = serve::render_response(reference(s.n));
            ++out.checked;
            ++out.per_kind[k];
            if (!same_response(s.line, s.n, ref)) ++out.mismatched;
        }
    }
    return out;
}

}  // namespace servebench
