#include "serve/ndjson.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace xnfv::serve {

namespace {

/// Appends json_number(v) to `out` without a temporary string.  The
/// precision form of to_chars is specified to produce exactly printf's
/// "%.17g" bytes, at a fraction of its cost (no locale, no format parsing).
void append_json_number(std::string& out, double v) {
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];  // "%.17g" needs at most 24: sign, 17 digits, '.', "e-308"
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

/// Recursive-descent parser over a string; tracks position for errors.
class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parse_document() {
        JsonValue v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after JSON value");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json parse error at byte " + std::to_string(pos_) +
                                 ": " + what);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* lit) {
        std::size_t n = 0;
        while (lit[n] != '\0') ++n;
        if (text_.compare(pos_, n, lit) != 0) return false;
        pos_ += n;
        return true;
    }

    JsonValue parse_value() {
        skip_ws();
        JsonValue v;
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"':
                v.type = JsonValue::Type::string;
                v.string = parse_string();
                return v;
            case 't':
                if (!consume_literal("true")) fail("bad literal");
                v.type = JsonValue::Type::boolean;
                v.boolean = true;
                return v;
            case 'f':
                if (!consume_literal("false")) fail("bad literal");
                v.type = JsonValue::Type::boolean;
                v.boolean = false;
                return v;
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return v;
            default: return parse_number();
        }
    }

    JsonValue parse_object() {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::object;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            v.object.emplace(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::array;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code += h - '0';
                        else if (h >= 'a' && h <= 'f') code += 10 + h - 'a';
                        else if (h >= 'A' && h <= 'F') code += 10 + h - 'A';
                        else fail("bad \\u escape");
                    }
                    // UTF-8 encode the BMP code point (surrogates unpaired
                    // are passed through as-is; requests are ASCII anyway).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
            fail("invalid number");
        char* end = nullptr;
        const std::string token = text_.substr(start, pos_ - start);
        const double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') fail("invalid number '" + token + "'");
        JsonValue v;
        v.type = JsonValue::Type::number;
        v.number = value;
        return v;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
    if (type != Type::object) return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
    const JsonValue* v = find(key);
    return (v != nullptr && v->type == Type::string) ? v->string : fallback;
}

double JsonValue::get_number(const std::string& key, double fallback) const {
    const JsonValue* v = find(key);
    return (v != nullptr && v->type == Type::number) ? v->number : fallback;
}

JsonValue parse_json(const std::string& text) {
    return Parser(text).parse_document();
}

FeatureExtraction extract_features(const JsonValue& request, std::size_t expected_dim) {
    FeatureExtraction out;
    const auto reject = [&out](ServeError error, std::string message) {
        out.features.clear();
        out.error = error;
        out.message = std::move(message);
        return out;
    };
    const JsonValue* member = request.find("features");
    if (member == nullptr || member->type != JsonValue::Type::array)
        return reject(ServeError::bad_request, "'features' must be an array");
    if (member->array.size() != expected_dim)
        return reject(ServeError::bad_request,
                      "'features' has " + std::to_string(member->array.size()) +
                          " elements, model expects " + std::to_string(expected_dim));
    out.features.reserve(expected_dim);
    for (std::size_t i = 0; i < member->array.size(); ++i) {
        const JsonValue& v = member->array[i];
        if (v.type != JsonValue::Type::number)
            return reject(ServeError::bad_request,
                          "'features[" + std::to_string(i) + "]' is not a number");
        if (!std::isfinite(v.number))
            return reject(ServeError::bad_features,
                          "'features[" + std::to_string(i) + "]' is not finite");
        out.features.push_back(v.number);
    }
    return out;
}

LineDecoder::LineDecoder(std::size_t max_line)
    : max_line_(std::max<std::size_t>(1, max_line)) {}

void LineDecoder::complete_line(std::vector<Frame>& frames) {
    // CRLF tolerance: the newline is never appended; strip one trailing CR.
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    const bool skipped = skipping_;
    const bool nul = has_nul_;
    skipping_ = false;
    has_nul_ = false;
    if (skipped) {
        line_.clear();
        return;  // the oversize error frame was already emitted
    }
    if (nul) {
        line_.clear();
        frames.push_back(Frame{"", ServeError::bad_request,
                               "embedded NUL byte in request line"});
        return;
    }
    if (line_.find_first_not_of(" \t") == std::string::npos) {
        line_.clear();  // blank line: skipped, matching the stdin loop
        return;
    }
    Frame f;
    f.text = std::move(line_);
    line_.clear();
    frames.push_back(std::move(f));
}

std::size_t LineDecoder::feed(const char* data, std::size_t n,
                              std::vector<Frame>& frames) {
    const std::size_t before = frames.size();
    for (std::size_t i = 0; i < n; ++i) {
        const char c = data[i];
        if (c == '\n') {
            complete_line(frames);
            continue;
        }
        if (skipping_) continue;  // discarding an oversized line's tail
        if (c == '\0') has_nul_ = true;
        line_.push_back(c);
        if (line_.size() > max_line_) {
            frames.push_back(
                Frame{"", ServeError::bad_request,
                      "request line exceeds " + std::to_string(max_line_) +
                          " bytes"});
            line_.clear();
            has_nul_ = false;
            skipping_ = true;
        }
    }
    return frames.size() - before;
}

std::string render_response(const ExplainResponse& r) {
    JsonWriter w;
    w.field("id", r.id);
    w.field("ok", r.ok);
    if (r.ok) {
        w.field("cache_hit", r.cache_hit);
        w.field("degraded", r.degraded);
        if (r.degraded) w.field("budget_used", r.budget_used);
        w.field("method", r.explanation.method);
        w.field("prediction", r.explanation.prediction);
        w.field("base_value", r.explanation.base_value);
        w.field_array("attributions", r.explanation.attributions);
        // Interaction pairs appear only when the request opted in
        // ("interactions": k > 0), so the plain response stays byte-identical
        // to the pre-interaction wire format.
        if (!r.explanation.interactions.empty()) {
            std::string pairs = "[";
            for (const auto& p : r.explanation.interactions) {
                if (pairs.size() > 1) pairs += ',';
                JsonWriter pw;
                pw.field("i", static_cast<std::uint64_t>(p.i));
                pw.field("j", static_cast<std::uint64_t>(p.j));
                pw.field("h2", p.h2);
                pairs += pw.finish();
            }
            pairs += ']';
            w.field_raw("interactions", pairs);
        }
    } else {
        w.field("error_code", to_string(r.error_code));
        w.field("error", r.error);
    }
    return w.finish();
}

std::string render_stats(const ServiceStats& s) {
    JsonWriter w;
    w.field("ok", true);
    w.field("op", "stats");
    w.field("requests_accepted", s.requests_accepted);
    w.field("requests_rejected", s.requests_rejected);
    w.field("requests_completed", s.requests_completed);
    w.field("requests_degraded", s.requests_degraded);
    w.field("batches", s.batches);
    w.field("batch_size_mean", s.batch_size_mean);
    w.field("cache_hits", s.cache_hits);
    w.field("cache_misses", s.cache_misses);
    w.field("cache_hit_rate", s.cache_hit_rate());
    w.field("cache_evictions", s.cache_evictions);
    w.field("cache_epoch", s.cache_epoch);
    w.field("drift_checks", s.drift_checks);
    w.field("drift_flushes", s.drift_flushes);
    w.field("service_us_p50", s.service_us_p50);
    w.field("service_us_p95", s.service_us_p95);
    w.field("service_us_p99", s.service_us_p99);
    w.field("model_evals", s.model_evals);
    w.field("probe_rows_p50", s.probe_rows_p50);
    w.field("probe_rows_mean", s.probe_rows_mean);
    w.field("probe_rows_max", s.probe_rows_max);
    w.field("fast_path_hits", s.fast_path_hits);
    {
        // Per-explainer slices, only explainers that computed something.
        std::string explainers = "[";
        for (const ExplainerSliceStats& e : s.explainers) {
            if (explainers.size() > 1) explainers += ',';
            JsonWriter ew;
            ew.field("name", e.name);
            ew.field("requests", e.requests);
            ew.field("fast_path_hits", e.fast_path_hits);
            ew.field("compute_us_p50", e.compute_us_p50);
            ew.field("compute_us_p99", e.compute_us_p99);
            ew.field("compute_us_mean", e.compute_us_mean);
            explainers += ew.finish();
        }
        explainers += ']';
        w.field_raw("explainers", explainers);
    }
    w.field("worker_respawns", s.worker_respawns);
    w.field("worker_stalls", s.worker_stalls);
    w.field("faults_injected", s.faults_injected);
    w.field("snapshot_writes", s.snapshot_writes);
    w.field("snapshot_records_loaded", s.snapshot_records_loaded);
    w.field("snapshot_records_skipped", s.snapshot_records_skipped);
    if (s.net_enabled) {
        w.field("net_shards", s.net_shards);
        w.field("connections_accepted", s.connections_accepted);
        w.field("connections_active", s.connections_active);
        w.field("connections_rejected", s.connections_rejected);
        w.field("connections_closed_idle", s.connections_closed_idle);
        w.field("connections_closed_backpressure", s.connections_closed_backpressure);
        w.field("net_bytes_in", s.net_bytes_in);
        w.field("net_bytes_out", s.net_bytes_out);
        w.field("net_requests", s.net_requests);
        w.field("conn_requests_p50", s.conn_requests_p50);
        w.field("conn_requests_max", s.conn_requests_max);
        w.field("net_faults_injected", s.net_faults_injected);
        w.field("net_retry_duplicates", s.net_retry_duplicates);
        w.field("net_shard_respawns", s.net_shard_respawns);
    }
    {
        // {"queue_full":2,...} — only reasons that occurred.
        std::string by_reason = "{";
        for (std::size_t i = 1; i < kNumServeErrors; ++i) {
            if (s.errors_by_reason[i] == 0) continue;
            if (by_reason.size() > 1) by_reason += ',';
            by_reason += '"';
            by_reason += to_string(static_cast<ServeError>(i));
            by_reason += "\":" + std::to_string(s.errors_by_reason[i]);
        }
        by_reason += '}';
        w.field_raw("errors_by_reason", by_reason);
    }
    w.field("models_registered", s.models_registered);
    w.field("model_swaps", s.model_swaps);
    {
        // Per-model registry slice, in registration order.
        std::string models = "[";
        for (const ModelServiceStats& m : s.models) {
            if (models.size() > 1) models += ',';
            JsonWriter mw;
            mw.field("name", m.name);
            mw.field("fingerprint", m.fingerprint);
            mw.field("admitted", m.admitted);
            mw.field("rejected_quota", m.rejected_quota);
            mw.field("swaps", m.swaps);
            mw.field("evals", m.evals);
            mw.field("completed", m.completed);
            mw.field("cache_entries", m.cache_entries);
            mw.field("cache_evictions", m.cache_evictions);
            mw.field("cache_epoch", m.cache_epoch);
            mw.field("queued", m.queued);
            mw.field("weight", m.weight);
            mw.field("quota", m.quota);
            mw.field("base_value", m.base_value);
            mw.field("breaker_state", m.breaker_state);
            mw.field("breaker_opens", m.breaker_opens);
            mw.field("breaker_rejected", m.breaker_rejected);
            models += mw.finish();
        }
        models += ']';
        w.field_raw("models", models);
    }
    w.field("report", s.to_string());
    return w.finish();
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    return out;
}

std::string json_number(double v) {
    std::string out;
    append_json_number(out, v);
    return out;
}

void JsonWriter::key_prefix(const std::string& key) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += json_escape(key);
    body_ += "\":";
}

void JsonWriter::field(const std::string& key, const std::string& value) {
    key_prefix(key);
    body_ += '"';
    body_ += json_escape(value);
    body_ += '"';
}

void JsonWriter::field(const std::string& key, const char* value) {
    field(key, std::string(value));
}

void JsonWriter::field(const std::string& key, double value) {
    key_prefix(key);
    append_json_number(body_, value);
}

void JsonWriter::field(const std::string& key, std::uint64_t value) {
    key_prefix(key);
    body_ += std::to_string(value);
}

void JsonWriter::field(const std::string& key, bool value) {
    key_prefix(key);
    body_ += value ? "true" : "false";
}

void JsonWriter::field_array(const std::string& key, const std::vector<double>& values) {
    key_prefix(key);
    body_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) body_ += ',';
        append_json_number(body_, values[i]);
    }
    body_ += ']';
}

void JsonWriter::field_raw(const std::string& key, const std::string& json) {
    key_prefix(key);
    body_ += json;
}

}  // namespace xnfv::serve
