#include "helpers.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

namespace servebench {

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

std::uint64_t hash3(std::uint64_t seed, std::uint64_t a, std::uint64_t b) noexcept {
    return mix64(mix64(mix64(seed) ^ a) ^ b);
}

double unit(std::uint64_t h) noexcept {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::vector<std::int64_t> paced_schedule(std::uint64_t seed, double rate_per_s,
                                         double duration_s, std::size_t multiple) {
    if (rate_per_s <= 0.0 || duration_s <= 0.0 || multiple == 0)
        throw std::invalid_argument("paced_schedule: rate, duration and multiple must be > 0");
    const double gap_ns = 1e9 / rate_per_s;
    const double phase = unit(hash3(seed, 0x5c4ed));
    auto count = static_cast<std::size_t>(std::max(0.0, duration_s * rate_per_s - phase));
    count -= count % multiple;
    std::vector<std::int64_t> due(count);
    for (std::size_t k = 0; k < count; ++k)
        due[k] = static_cast<std::int64_t>((phase + static_cast<double>(k)) * gap_ns);
    return due;
}

std::size_t stratified_rank(std::uint64_t seed, std::uint64_t n, std::size_t block) {
    const std::uint64_t first = n - n % block;
    const std::uint64_t mine = hash3(seed, n, 0x57a7);
    std::size_t rank = 0;
    for (std::uint64_t j = first; j < first + block; ++j) {
        const std::uint64_t other = hash3(seed, j, 0x57a7);
        rank += other < mine || (other == mine && j < n);
    }
    return rank;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

ShardBalancer::ShardBalancer(std::size_t shards, std::size_t conns)
    : per_shard_(shards == 0 ? 0 : conns / shards), held_(shards, 0) {
    if (shards == 0 || conns % shards != 0)
        throw std::invalid_argument("ShardBalancer: conns must be a multiple of shards");
}

bool ShardBalancer::offer(std::size_t shard) {
    if (shard < held_.size() && held_[shard] < per_shard_) {
        ++held_[shard];
        return true;
    }
    ++redials_;
    return false;
}

bool ShardBalancer::balanced() const noexcept {
    return std::all_of(held_.begin(), held_.end(),
                       [this](std::size_t h) { return h == per_shard_; });
}

std::size_t grown_shard(std::span<const std::uint64_t> before,
                        std::span<const std::uint64_t> after) {
    if (before.size() != after.size()) return npos;
    std::size_t found = npos;
    for (std::size_t s = 0; s < before.size(); ++s) {
        if (after[s] == before[s]) continue;
        if (after[s] != before[s] + 1 || found != npos) return npos;
        found = s;
    }
    return found;
}

double skew(std::span<const std::uint64_t> per_shard) {
    if (per_shard.empty()) return 0.0;
    const auto [lo, hi] = std::minmax_element(per_shard.begin(), per_shard.end());
    if (*lo == 0) return 0.0;
    return static_cast<double>(*hi) / static_cast<double>(*lo);
}

namespace {

constexpr std::string_view kIdPrefix = "{\"id\":";
constexpr std::string_view kHitKey = "\"cache_hit\":";

/// Splits `line` at its cache_hit value: the bytes before the value and the
/// bytes after it.  False when the key or a boolean value is missing.
bool split_at_hit(std::string_view line, std::string_view& head, std::string_view& tail) {
    const auto key = line.find(kHitKey);
    if (key == std::string_view::npos) return false;
    const auto value = key + kHitKey.size();
    head = line.substr(0, value);
    const auto rest = line.substr(value);
    if (rest.starts_with("true")) {
        tail = rest.substr(4);
    } else if (rest.starts_with("false")) {
        tail = rest.substr(5);
    } else {
        return false;
    }
    return true;
}

/// Strips `{"id":<digits>` and returns the digits' value in `id`.
bool strip_id(std::string_view& line, std::uint64_t& id) {
    if (!line.starts_with(kIdPrefix)) return false;
    line.remove_prefix(kIdPrefix.size());
    const auto [end, ec] = std::from_chars(line.data(), line.data() + line.size(), id);
    if (ec != std::errc{}) return false;
    line.remove_prefix(static_cast<std::size_t>(end - line.data()));
    return true;
}

}  // namespace

bool same_response(std::string_view line, std::uint64_t id, std::string_view reference) {
    std::uint64_t got_id = 0, ref_id = 0;
    if (!strip_id(line, got_id) || got_id != id) return false;
    if (!strip_id(reference, ref_id)) return false;
    std::string_view got_head, got_tail, ref_head, ref_tail;
    if (!split_at_hit(line, got_head, got_tail) || !split_at_hit(reference, ref_head, ref_tail))
        return false;
    return got_head == ref_head && got_tail == ref_tail;
}

bool response_ok(std::string_view line, std::uint64_t id) {
    std::uint64_t got = 0;
    return strip_id(line, got) && got == id && line.starts_with(",\"ok\":true");
}

void append_array(std::string& out, std::span<const double> values) {
    out += '[';
    char buf[32];
    for (std::size_t j = 0; j < values.size(); ++j) {
        if (j) out += ',';
        const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), values[j]);
        out.append(buf, ec == std::errc{} ? end : buf);
    }
    out += ']';
}

std::uint32_t Trace::intern(std::string_view name) {
    auto it = std::find(names_.begin(), names_.end(), name);
    if (it == names_.end()) it = names_.insert(names_.end(), std::string(name));
    return static_cast<std::uint32_t>(it - names_.begin());
}

std::uint32_t Trace::add(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
                         std::uint32_t parent, std::uint64_t request) {
    spans_.push_back(Span{name, parent, start_ns, end_ns, request});
    return static_cast<std::uint32_t>(spans_.size());
}

void Trace::close(std::uint32_t span, std::int64_t end_ns) {
    if (span >= 1 && span <= spans_.size()) spans_[span - 1].end_ns = end_ns;
}

std::vector<Trace::LayerTime> Trace::layers() const {
    // Children grouped by parent, each group sorted by start, so a parent's
    // covered time is the length of the union of its children's intervals
    // clipped to its own.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
    for (const auto& s : spans_)
        if (s.parent >= 1 && s.parent <= spans_.size())
            children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);

    std::vector<LayerTime> out(names_.size());
    for (std::size_t n = 0; n < names_.size(); ++n) out[n].name = names_[n];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0, reach = s.start_ns;
        for (const auto& [a, b] : kids) {
            const auto lo = std::max(a, reach), hi = std::min(b, s.end_ns);
            if (hi > lo) covered += hi - lo;
            reach = std::max(reach, std::min(b, s.end_ns));
        }
        auto& layer = out[s.name];
        ++layer.count;
        const auto total = static_cast<double>(s.end_ns - s.start_ns);
        layer.total_us += total / 1e3;
        layer.self_us += (total - static_cast<double>(covered)) / 1e3;
    }
    return out;
}

bool Trace::write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("name,start_ns,end_ns,parent,request\n", f);
    for (const auto& s : spans_)
        std::fprintf(f, "%s,%lld,%lld,%u,%llu\n", names_[s.name].c_str(),
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                     s.parent, static_cast<unsigned long long>(s.request));
    return std::fclose(f) == 0;
}

void Metrics::add(std::string name, double value, std::string unit) {
    names_.push_back(std::move(name));
    values_.push_back(value);
    units_.push_back(std::move(unit));
}

std::string Metrics::json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (i) out += ", ";
        out += "\"" + names_[i] + "\": {\"value\": " + json_double(values_[i]) +
               ", \"unit\": \"" + units_[i] + "\"}";
    }
    return out + "}";
}

std::string json_double(double v) {
    if (!std::isfinite(v)) return "1e300";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace servebench
