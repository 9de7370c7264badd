// Incremental ND-JSON frame decoding for the TCP wire path.
//
// The stdin loop gets whole lines from getline(); the socket path gets
// arbitrary byte chunks.  LineDecoder must therefore reassemble frames from
// any split — including mid-UTF-8-sequence — and turn every malformed line
// into a structured bad_request frame, never an exception and never a dead
// connection.  json_number, which renders every number on that wire, is
// pinned byte for byte to printf's "%.17g".
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "serve/errors.hpp"
#include "serve/ndjson.hpp"

namespace serve = xnfv::serve;

namespace {

using Frames = std::vector<serve::Frame>;

Frames feed_all(serve::LineDecoder& decoder, const std::string& bytes) {
    Frames frames;
    decoder.feed(bytes.data(), bytes.size(), frames);
    return frames;
}

/// Feeds one byte at a time — the worst split the kernel can produce.
Frames feed_bytewise(serve::LineDecoder& decoder, const std::string& bytes) {
    Frames frames;
    for (const char c : bytes) decoder.feed(&c, 1, frames);
    return frames;
}

TEST(LineDecoder, SingleLineOneFeed) {
    serve::LineDecoder d;
    const auto frames = feed_all(d, "{\"op\":\"stats\"}\n");
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].error, serve::ServeError::none);
    EXPECT_EQ(frames[0].text, "{\"op\":\"stats\"}");
    EXPECT_EQ(d.buffered(), 0u);
}

TEST(LineDecoder, MultipleLinesOneFeed) {
    serve::LineDecoder d;
    const auto frames = feed_all(d, "a\nb\nc\n");
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].text, "a");
    EXPECT_EQ(frames[1].text, "b");
    EXPECT_EQ(frames[2].text, "c");
}

TEST(LineDecoder, LineSplitAcrossFeeds) {
    serve::LineDecoder d;
    Frames frames;
    const std::string part1 = "{\"op\":\"explain\",\"ro";
    const std::string part2 = "w\":3}\n";
    EXPECT_EQ(d.feed(part1.data(), part1.size(), frames), 0u);
    EXPECT_EQ(d.buffered(), part1.size());
    EXPECT_EQ(d.feed(part2.data(), part2.size(), frames), 1u);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].text, "{\"op\":\"explain\",\"row\":3}");
}

TEST(LineDecoder, BytewiseFeedMatchesWholeFeed) {
    const std::string wire = "{\"id\":1}\n\n  \n{\"id\":2}\r\n";
    serve::LineDecoder whole;
    serve::LineDecoder bytewise;
    const auto a = feed_all(whole, wire);
    const auto b = feed_bytewise(bytewise, wire);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].text, b[i].text);
        EXPECT_EQ(a[i].error, b[i].error);
    }
}

TEST(LineDecoder, CrlfToleranceStripsOneCarriageReturn) {
    serve::LineDecoder d;
    const auto frames = feed_all(d, "{\"op\":\"quit\"}\r\n");
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].text, "{\"op\":\"quit\"}");
    // Only ONE trailing CR is wire framing; an inner CR is payload.
    serve::LineDecoder d2;
    const auto inner = feed_all(d2, "a\rb\r\r\n");
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_EQ(inner[0].text, "a\rb\r");
}

TEST(LineDecoder, BlankAndWhitespaceLinesSkipped) {
    serve::LineDecoder d;
    const auto frames = feed_all(d, "\n \t \n\r\n{\"id\":9}\n");
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].text, "{\"id\":9}");
}

TEST(LineDecoder, Utf8SplitAcrossReadsReassembles) {
    // "λ=π" — both λ (0xCE 0xBB) and π (0xCF 0x80) are two-byte sequences;
    // split the stream in the middle of each.
    const std::string line = "{\"note\":\"\xCE\xBB=\xCF\x80\"}\n";
    for (std::size_t cut = 1; cut + 1 < line.size(); ++cut) {
        serve::LineDecoder d;
        Frames frames;
        d.feed(line.data(), cut, frames);
        d.feed(line.data() + cut, line.size() - cut, frames);
        ASSERT_EQ(frames.size(), 1u) << "cut at " << cut;
        EXPECT_EQ(frames[0].error, serve::ServeError::none);
        EXPECT_EQ(frames[0].text, line.substr(0, line.size() - 1))
            << "cut at " << cut;
    }
}

TEST(LineDecoder, EmbeddedNulRejectedAsBadRequest) {
    serve::LineDecoder d;
    const std::string wire{"{\"a\":\0\"b\"}\nok\n", 14};
    const auto frames = feed_all(d, wire);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].error, serve::ServeError::bad_request);
    EXPECT_EQ(frames[0].message, "embedded NUL byte in request line");
    // The connection survives: the next line decodes normally.
    EXPECT_EQ(frames[1].error, serve::ServeError::none);
    EXPECT_EQ(frames[1].text, "ok");
}

TEST(LineDecoder, OversizedLineOneErrorThenRecovers) {
    serve::LineDecoder d(16);
    const std::string big(100, 'x');
    Frames frames;
    d.feed(big.data(), big.size(), frames);
    // Exactly one error frame no matter how much tail follows the breach.
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].error, serve::ServeError::bad_request);
    EXPECT_EQ(frames[0].message, "request line exceeds 16 bytes");
    // Decoder is not holding the oversized payload.
    EXPECT_EQ(d.buffered(), 0u);
    // The rest of the oversized line is discarded up to its newline; the
    // next line is decoded normally.
    const auto after = feed_all(d, "still-the-big-line\n{\"id\":1}\n");
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].error, serve::ServeError::none);
    EXPECT_EQ(after[0].text, "{\"id\":1}");
}

TEST(LineDecoder, OversizedLineSplitAcrossFeeds) {
    serve::LineDecoder d(8);
    Frames frames;
    const std::string a(6, 'a');
    const std::string b(6, 'b');
    d.feed(a.data(), a.size(), frames);
    EXPECT_TRUE(frames.empty());
    d.feed(b.data(), b.size(), frames);  // breaches mid-second-chunk
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].error, serve::ServeError::bad_request);
    const auto after = feed_all(d, "bbb\nnext\n");
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].text, "next");
}

TEST(LineDecoder, PartialLineAtEofStaysBuffered) {
    serve::LineDecoder d;
    const auto frames = feed_all(d, "half-a-request");
    EXPECT_TRUE(frames.empty());
    EXPECT_EQ(d.buffered(), 14u);
}

TEST(LineDecoder, MaxLineAccessor) {
    serve::LineDecoder d(4096);
    EXPECT_EQ(d.max_line(), 4096u);
    serve::LineDecoder clamped(0);  // clamped to at least 1
    EXPECT_EQ(clamped.max_line(), 1u);
}

// ---------------------------------------------------------------------------
// Property tests: the decoded frame sequence is a pure function of the byte
// stream — independent of how the kernel splits it into reads.  Seeded
// random schedules make the cases reproducible; any failure prints its seed.

/// One seeded-random wire stream mixing everything the decoder must survive:
/// valid JSON lines, malformed fragments, whitespace, CRLF endings, an
/// embedded NUL, multi-byte UTF-8 runs, and lines past the size cap.
std::string random_wire(std::mt19937_64& rng, std::size_t lines,
                        std::size_t max_line) {
    std::string wire;
    for (std::size_t i = 0; i < lines; ++i) {
        switch (rng() % 8) {
            case 0:
                wire += "{\"op\":\"explain\",\"row\":" + std::to_string(rng() % 100) +
                        "}";
                break;
            case 1:  // malformed JSON — framing must still carry it whole
                wire += "{\"op\":\"explain\",\"row\":";
                break;
            case 2:  // blank / whitespace-only (skipped by the decoder)
                wire += (rng() % 2) ? "" : " \t ";
                break;
            case 3: {  // oversize: breaches the cap, must yield ONE error
                wire += std::string(max_line + 1 + rng() % 40, 'x');
                break;
            }
            case 4:  // multi-byte UTF-8 payload (2-, 3-, and 4-byte runs)
                wire += "{\"note\":\"\xCE\xBB \xE2\x82\xAC \xF0\x9F\x9A\x80\"}";
                break;
            case 5:  // inner CR is payload, not framing
                wire += "{\"a\":\"x\ry\"}";
                break;
            case 6:  // embedded NUL -> structured bad_request
                wire += std::string("{\"z\":\0}", 7);
                break;
            default:
                wire += "{\"id\":" + std::to_string(rng() % 1000) + "}";
                break;
        }
        wire += (rng() % 4 == 0) ? "\r\n" : "\n";
    }
    return wire;
}

TEST(LineDecoderFuzz, FramesIndependentOfSplitSchedule) {
    // 64 random streams x 8 random split schedules each, all compared to
    // the whole-buffer reference decode of the same bytes.
    for (std::uint64_t stream_seed = 1; stream_seed <= 64; ++stream_seed) {
        std::mt19937_64 rng(0x5eed0000 + stream_seed);
        const auto wire = random_wire(rng, 12 + rng() % 20, /*max_line=*/64);

        serve::LineDecoder whole(64);
        Frames reference;
        whole.feed(wire.data(), wire.size(), reference);

        for (std::uint64_t split_seed = 1; split_seed <= 8; ++split_seed) {
            std::mt19937_64 split_rng(0xca11ab1e + split_seed * 7919);
            serve::LineDecoder d(64);
            Frames got;
            std::size_t at = 0;
            while (at < wire.size()) {
                const std::size_t chunk =
                    std::min<std::size_t>(wire.size() - at, split_rng() % 18);
                d.feed(wire.data() + at, chunk, got);
                at += chunk;
            }
            ASSERT_EQ(got.size(), reference.size())
                << "stream " << stream_seed << " split " << split_seed;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].text, reference[i].text)
                    << "stream " << stream_seed << " split " << split_seed
                    << " frame " << i;
                EXPECT_EQ(got[i].error, reference[i].error)
                    << "stream " << stream_seed << " split " << split_seed
                    << " frame " << i;
                EXPECT_EQ(got[i].message, reference[i].message)
                    << "stream " << stream_seed << " split " << split_seed
                    << " frame " << i;
            }
            EXPECT_EQ(d.buffered(), whole.buffered())
                << "stream " << stream_seed << " split " << split_seed;
        }
    }
}

TEST(LineDecoderFuzz, BytewiseEqualsWholeOnRandomStreams) {
    // The pathological 1-byte-read schedule over the same random mixes.
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        std::mt19937_64 rng(0xb17e0000 + seed);
        const auto wire = random_wire(rng, 10 + rng() % 16, /*max_line=*/48);
        serve::LineDecoder whole(48);
        Frames reference;
        whole.feed(wire.data(), wire.size(), reference);
        serve::LineDecoder d(48);
        Frames got;
        for (const char c : wire) d.feed(&c, 1, got);
        ASSERT_EQ(got.size(), reference.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].text, reference[i].text) << "seed " << seed;
            EXPECT_EQ(got[i].error, reference[i].error) << "seed " << seed;
        }
    }
}

TEST(LineDecoderFuzz, RandomSplitsOfConcatenatedKnownStreamsNeverDesync) {
    // Adversarial back-to-back recovery: oversize breach immediately
    // followed by a valid frame, repeated, under random splits — the
    // decoder must re-sync at every newline.
    std::string wire;
    for (int i = 0; i < 20; ++i) {
        wire += std::string(100, 'y') + "\n";        // breach (cap is 32)
        wire += "{\"ok\":" + std::to_string(i) + "}\n";  // must survive
    }
    serve::LineDecoder whole(32);
    Frames reference;
    whole.feed(wire.data(), wire.size(), reference);
    ASSERT_EQ(reference.size(), 40u);  // 20 error frames + 20 valid frames
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        std::mt19937_64 rng(0xdec0de00 + seed);
        serve::LineDecoder d(32);
        Frames got;
        std::size_t at = 0;
        while (at < wire.size()) {
            const std::size_t chunk =
                std::min<std::size_t>(wire.size() - at, 1 + rng() % 7);
            d.feed(wire.data() + at, chunk, got);
            at += chunk;
        }
        ASSERT_EQ(got.size(), reference.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i].text, reference[i].text)
                << "seed " << seed << " frame " << i;
    }
}

// ------------------------------------------------------- json_number ---

/// The reference json_number must match byte for byte: printf "%.17g".
std::string printf_17g(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

TEST(JsonNumber, MatchesPrintf17gOnEdgeValues) {
    const double edges[] = {0.0,
                            -0.0,
                            1.0,
                            -1.0,
                            0.1,
                            1.0 / 3.0,
                            1e16,
                            -1e16,
                            9007199254740993.0,  // 2^53 + 1, rounds to even
                            123456789012345678.0,
                            1e21,
                            1e-5,
                            1e-4,
                            0.063333333333333339,
                            DBL_MAX,
                            -DBL_MAX,
                            DBL_MIN,
                            DBL_TRUE_MIN,
                            -DBL_TRUE_MIN,
                            std::nextafter(DBL_MIN, 0.0),  // largest subnormal
                            DBL_EPSILON};
    for (const double v : edges) EXPECT_EQ(serve::json_number(v), printf_17g(v)) << v;
}

TEST(JsonNumber, NonFiniteRendersAsNull) {
    EXPECT_EQ(serve::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(serve::json_number(-std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(serve::json_number(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(serve::json_number(-std::numeric_limits<double>::infinity()), "null");
    // And inside a writer, where the response renderer uses it.
    serve::JsonWriter w;
    w.field("x", std::numeric_limits<double>::infinity());
    w.field_array("xs", {1.5, std::numeric_limits<double>::quiet_NaN()});
    EXPECT_EQ(w.finish(), R"({"x":null,"xs":[1.5,null]})");
}

TEST(JsonNumber, MatchesPrintf17gOnSeededRandomBitPatterns) {
    // Every exponent range, both signs, subnormals included: raw 64-bit
    // patterns, skipping only non-finite ones (those render as null above).
    std::mt19937_64 rng(0x5eed17);
    std::size_t compared = 0;
    for (int i = 0; i < 200000; ++i) {
        const double v = std::bit_cast<double>(rng());
        if (!std::isfinite(v)) continue;
        ASSERT_EQ(serve::json_number(v), printf_17g(v)) << std::hexfloat << v;
        ++compared;
    }
    // Attribution-like magnitudes: small doubles with short decimal forms.
    std::uniform_real_distribution<double> small(-10.0, 10.0);
    for (int i = 0; i < 50000; ++i) {
        const double v = small(rng);
        ASSERT_EQ(serve::json_number(v), printf_17g(v)) << std::hexfloat << v;
        ++compared;
    }
    EXPECT_GT(compared, 240000u);
}

}  // namespace
