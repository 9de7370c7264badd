// Pure helpers of the serving benchmark: seeded hashing, the open-loop
// arrival schedule, latency quantiles, shard balancing, response
// comparison, the in-memory span trace and the result printer.  Nothing
// here touches a socket or the program under test, so all of it is covered
// by tests/test_helpers.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

/// Hash of (seed, a, b), e.g. (seed, request number, feature index), built
/// on the SplitMix64 finalizer.  The benchmark's only source of randomness,
/// so its inputs depend on the seed alone and never on the program's RNG.
[[nodiscard]] std::uint64_t hash3(std::uint64_t seed, std::uint64_t a,
                                  std::uint64_t b = 0) noexcept;
/// Uniform double in [0, 1) from a hash.
[[nodiscard]] double unit(std::uint64_t h) noexcept;

/// Arrivals paced at exactly `rate_per_s` over `duration_s` (a constant-rate
/// open loop, with a seeded phase within the first gap), as offsets from the
/// phase start in nanoseconds.  The count is rounded down to a multiple of
/// `multiple`, so request k going to connection k % multiple gives every
/// connection exactly the same share.
[[nodiscard]] std::vector<std::int64_t> paced_schedule(std::uint64_t seed, double rate_per_s,
                                                       double duration_s, std::size_t multiple);

/// Stratified assignment: the rank, in [0, block), of request n among the
/// `block` consecutive requests of its block under a seeded shuffle.  Every
/// block holds each rank exactly once, so a class given r ranks gets exactly
/// r requests out of every `block`, in seeded positions.
[[nodiscard]] std::size_t stratified_rank(std::uint64_t seed, std::uint64_t n,
                                          std::size_t block);

/// Nearest-rank q-quantile (q in [0, 1]) of `values`, which may hold
/// +infinity for requests that failed or were never answered.  Sorts its
/// argument; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Decides which dialled connections to keep so that every shard ends up
/// holding the same number of them (`conns` must be a multiple of `shards`).
class ShardBalancer {
public:
    ShardBalancer(std::size_t shards, std::size_t conns);

    /// A new connection landed on `shard`: true = keep it, false = close it
    /// and dial again (counted in redials()).
    [[nodiscard]] bool offer(std::size_t shard);
    [[nodiscard]] bool balanced() const noexcept;
    [[nodiscard]] std::size_t redials() const noexcept { return redials_; }
    [[nodiscard]] const std::vector<std::size_t>& held() const noexcept { return held_; }

private:
    std::size_t per_shard_;
    std::vector<std::size_t> held_;
    std::size_t redials_ = 0;
};

/// Index of the single entry that grew by exactly one between two per-shard
/// counter snapshots; `npos` when none or several changed.  This is how a
/// probe request reveals which shard accepted a connection.
[[nodiscard]] std::size_t grown_shard(std::span<const std::uint64_t> before,
                                      std::span<const std::uint64_t> after);
inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// max/min of per-shard request counts; 0 when a shard served nothing.
[[nodiscard]] double skew(std::span<const std::uint64_t> per_shard);

/// Byte comparison of a served response line against a reference rendered
/// with id 0 and "cache_hit":false: the line's id must equal `id` and every
/// other byte must match, except the cache_hit value, which depends on
/// timing and is blanked on both sides.
[[nodiscard]] bool same_response(std::string_view line, std::uint64_t id,
                                 std::string_view reference);

/// True for a response line whose id is `id` and that carries "ok":true.
[[nodiscard]] bool response_ok(std::string_view line, std::uint64_t id);

/// Appends `[v0,v1,...]` with shortest round-trip doubles.
void append_array(std::string& out, std::span<const double> values);

/// One timed interval of the benchmark's own calls into a layer.  Spans of
/// one request share `request`; `parent` is the 1-based index of the span
/// that caused this one (0 = root).
struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t request = 0;
};

/// In-memory span store, written out once at exit.  Single-threaded: spans
/// measured on other threads are recorded here after the fact.
class Trace {
public:
    explicit Trace(std::size_t reserve = 0) { spans_.reserve(reserve); }

    /// Id of a span name, for add() in hot loops.
    [[nodiscard]] std::uint32_t intern(std::string_view name);
    /// Records a span and returns its 1-based index (for children).
    std::uint32_t add(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
                      std::uint32_t parent = 0, std::uint64_t request = 0);
    std::uint32_t add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
                      std::uint32_t parent = 0, std::uint64_t request = 0) {
        return add(intern(name), start_ns, end_ns, parent, request);
    }
    /// Closes a span opened with add(name, start, start): sets its end.
    void close(std::uint32_t span, std::int64_t end_ns);

    struct LayerTime {
        std::string name;
        std::uint64_t count = 0;
        double total_us = 0.0;
        /// Duration minus the part of it covered by child spans.
        double self_us = 0.0;
    };
    /// Per span name, in first-recorded order.
    [[nodiscard]] std::vector<LayerTime> layers() const;

    /// Writes `name,start_ns,end_ns,parent,request` lines, one per span
    /// (span k is line k + 1 after the header).
    [[nodiscard]] bool write_csv(const std::string& path) const;

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

/// Ordered (name, value, unit) list rendered as the result's "metrics"
/// object.  Values print with all 17 significant digits.
class Metrics {
public:
    void add(std::string name, double value, std::string unit);
    [[nodiscard]] std::string json() const;

private:
    std::vector<std::string> names_;
    std::vector<double> values_;
    std::vector<std::string> units_;
};

/// Renders a double for JSON; non-finite values (a latency quantile that
/// fell on a failed request) print as 1e300, i.e. "infinitely late".
[[nodiscard]] std::string json_double(double v);

}  // namespace servebench
