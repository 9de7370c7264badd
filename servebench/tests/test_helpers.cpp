// Tests of the serving benchmark's own helpers: quantiles, the open-loop
// schedule and request stratification, shard balancing, reply comparison
// and the span trace.  Plain
// main() with a CHECK macro, so the benchmark needs no test framework.
//
//   cmake -S servebench -B .bench_build && cmake --build .bench_build
//   ctest --test-dir .bench_build --output-on-failure
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

using namespace servebench;
constexpr double kInf = std::numeric_limits<double>::infinity();

void quantiles() {
    CHECK(quantile({}, 0.5) == 0.0);
    CHECK(quantile({7.0}, 0.0) == 7.0);
    CHECK(quantile({7.0}, 1.0) == 7.0);
    // Nearest rank: ceil(q * n)-th smallest.
    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    CHECK(quantile(ten, 0.5) == 5.0);
    CHECK(quantile(ten, 0.9) == 9.0);
    CHECK(quantile(ten, 0.91) == 10.0);
    CHECK(quantile(ten, 0.0) == 1.0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    // Failed requests are infinitely late: once more than 10% fail, p90 is
    // infinite rather than the slowest success.
    std::vector<double> failing = {1, 2, 3, 4, 5, 6, 7, 8, kInf, kInf};
    CHECK(quantile(failing, 0.5) == 5.0);
    CHECK(std::isinf(quantile(failing, 0.9)));
    CHECK(json_double(kInf) == "1e300");
    CHECK(json_double(0.25) == "0.25");
}

void schedule() {
    const auto a = paced_schedule(42, 1000.0, 2.0, 4);
    const auto b = paced_schedule(42, 1000.0, 2.0, 4);
    const auto c = paced_schedule(43, 1000.0, 2.0, 4);
    CHECK(a == b);  // same seed, same arrivals
    CHECK(a != c);  // the seed moves the phase
    CHECK(a.size() % 4 == 0);  // every connection gets the same share
    CHECK(a.size() == 1996 || a.size() == 2000);
    bool paced = true, in_range = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (i && std::llabs(a[i] - a[i - 1] - 1'000'000) > 1) paced = false;
        if (a[i] < 0 || a[i] >= 2'000'000'000) in_range = false;
    }
    CHECK(paced);  // exactly 1 ms apart
    CHECK(in_range);
    CHECK(a.front() < 1'000'000);  // the phase lies within the first gap
    CHECK(paced_schedule(1, 10.0, 0.1, 4).empty());
}

void stratification() {
    // Within every block each rank appears once, and the order differs
    // between blocks and seeds.
    for (std::uint64_t block = 0; block < 50; ++block) {
        std::set<std::size_t> ranks;
        for (std::uint64_t i = 0; i < 20; ++i) ranks.insert(stratified_rank(7, block * 20 + i, 20));
        CHECK(ranks.size() == 20 && *ranks.rbegin() == 19);
    }
    std::size_t same_block = 0, same_seed = 0;
    for (std::uint64_t i = 0; i < 20; ++i) {
        same_block += stratified_rank(7, i, 20) == stratified_rank(7, 20 + i, 20);
        same_seed += stratified_rank(7, i, 20) == stratified_rank(8, i, 20);
    }
    CHECK(same_block < 20);
    CHECK(same_seed < 20);
    CHECK(stratified_rank(7, 5, 1) == 0);
}

void balancing() {
    ShardBalancer b(2, 4);
    CHECK(!b.balanced());
    CHECK(b.offer(0));
    CHECK(b.offer(0));
    CHECK(!b.offer(0));  // shard 0 already holds its two
    CHECK(!b.offer(0));
    CHECK(b.offer(1));
    CHECK(!b.balanced());
    CHECK(!b.offer(7));  // unknown shard: dial again
    CHECK(b.offer(1));
    CHECK(b.balanced());
    CHECK(b.redials() == 3);
    CHECK((b.held() == std::vector<std::size_t>{2, 2}));

    bool threw = false;
    try {
        ShardBalancer bad(2, 3);
    } catch (const std::exception&) {
        threw = true;
    }
    CHECK(threw);

    const std::vector<std::uint64_t> before = {10, 20};
    CHECK(grown_shard(before, std::vector<std::uint64_t>{10, 21}) == 1);
    CHECK(grown_shard(before, std::vector<std::uint64_t>{11, 20}) == 0);
    CHECK(grown_shard(before, std::vector<std::uint64_t>{10, 20}) == npos);
    CHECK(grown_shard(before, std::vector<std::uint64_t>{11, 21}) == npos);
    CHECK(grown_shard(before, std::vector<std::uint64_t>{12, 20}) == npos);

    CHECK(skew(std::vector<std::uint64_t>{500, 500}) == 1.0);
    CHECK(skew(std::vector<std::uint64_t>{600, 300}) == 2.0);
    CHECK(skew(std::vector<std::uint64_t>{600, 0}) == 0.0);
}

void replies() {
    const std::string ref =
        "{\"id\":0,\"ok\":true,\"cache_hit\":false,\"degraded\":false,"
        "\"method\":\"tree_shap\",\"prediction\":0.5,\"base_value\":0.25,"
        "\"attributions\":[0.125,0.125]}";
    const std::string miss =
        "{\"id\":17,\"ok\":true,\"cache_hit\":false,\"degraded\":false,"
        "\"method\":\"tree_shap\",\"prediction\":0.5,\"base_value\":0.25,"
        "\"attributions\":[0.125,0.125]}";
    const std::string hit =
        "{\"id\":17,\"ok\":true,\"cache_hit\":true,\"degraded\":false,"
        "\"method\":\"tree_shap\",\"prediction\":0.5,\"base_value\":0.25,"
        "\"attributions\":[0.125,0.125]}";
    const std::string off_by_one_ulp =
        "{\"id\":17,\"ok\":true,\"cache_hit\":true,\"degraded\":false,"
        "\"method\":\"tree_shap\",\"prediction\":0.5,\"base_value\":0.25,"
        "\"attributions\":[0.125,0.12500000000000003]}";
    const std::string error = "{\"id\":17,\"ok\":false,\"error_code\":\"queue_full\"}";
    CHECK(same_response(miss, 17, ref));
    CHECK(same_response(hit, 17, ref));  // cache_hit is blanked
    CHECK(!same_response(hit, 18, ref));  // wrong id
    CHECK(!same_response(off_by_one_ulp, 17, ref));
    CHECK(!same_response(error, 17, ref));
    CHECK(!same_response("garbage", 17, ref));
    CHECK(response_ok(hit, 17));
    CHECK(!response_ok(hit, 16));
    CHECK(!response_ok(error, 17));
    CHECK(!response_ok("", 0));

    std::string out;
    append_array(out, std::vector<double>{0.1, -2.0, 1e-300});
    CHECK(out == "[0.1,-2,1e-300]");
}

void spans() {
    Trace t;
    const auto root = t.add("request", 0, 1000);
    t.add("decode", 100, 300, root, 1);
    t.add("compute", 200, 600, root, 1);  // overlaps decode: union is 100..600
    t.add("render", 900, 1200, root, 1);  // runs past the parent: clipped at 1000
    const auto open = t.add("phase", 5000, 5000);
    t.close(open, 7000);
    const auto layers = t.layers();
    CHECK(layers.size() == 5);
    CHECK(layers[0].name == "request" && layers[0].count == 1);
    CHECK(std::abs(layers[0].total_us - 1.0) < 1e-12);
    CHECK(std::abs(layers[0].self_us - 0.4) < 1e-12);  // 1000 - 500 - 100 ns
    CHECK(std::abs(layers[1].self_us - 0.2) < 1e-12);
    CHECK(std::abs(layers[4].total_us - 2.0) < 1e-12);
    CHECK(t.spans()[4].end_ns == 7000);
    CHECK(t.intern("decode") == 1);
}

void metrics() {
    Metrics m;
    m.add("latency_ms", 1.5, "ms");
    m.add("setup_s", 0.1, "s");
    CHECK(m.json() ==
          "{\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, "
          "\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}");
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(hash3(1, i));
    CHECK(seen.size() == 1000);
    CHECK(unit(0) == 0.0 && unit(~0ULL) < 1.0);
}

}  // namespace

int main() {
    quantiles();
    schedule();
    stratification();
    balancing();
    replies();
    spans();
    metrics();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("servebench helpers: all checks passed\n");
    return 0;
}
