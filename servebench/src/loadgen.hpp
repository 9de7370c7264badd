// Single-threaded ND-JSON load generator over a fixed set of loopback
// connections.
//
// One thread drives every connection through ppoll(), in two modes:
//   * closed loop — each connection keeps `window` requests in flight and
//     sends the next one as soon as a reply arrives (capacity);
//   * open loop   — request k is due at a scheduled instant and goes out on
//     connection k % conns whether or not earlier requests were answered;
//     its latency is measured from the due instant, so a stalled server or
//     a late generator shows up in the numbers instead of hiding in a
//     slower send rate.  A request that fails, is refused or is never
//     answered counts as infinitely late.
// The server answers each connection in request order, so replies are
// matched to requests first-in first-out per connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <poll.h>

#include "helpers.hpp"

namespace servebench {

/// Nanoseconds on the steady clock since the process started measuring.
[[nodiscard]] std::int64_t now_ns();
/// Sleeps until now_ns() reaches `t`.
void sleep_until_ns(std::int64_t t);

enum class Verdict : std::uint8_t { ok, failed, mismatch };

/// What the generator asks of a workload: the request line for sequence
/// number n (appended, with its trailing newline) and a verdict on the
/// reply to it.  `check` sees the reply only for the duration of the call.
struct Traffic {
    std::function<void(std::uint64_t n, std::string& out)> render;
    std::function<Verdict(std::uint64_t n, std::string_view line)> check;
};

/// Per-phase request accounting.  failed covers error replies, refused
/// sends (dead connection) and requests still unanswered at the end.
struct PhaseCounts {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t bytes_out = 0;  ///< request bytes written
    std::uint64_t bytes_in = 0;   ///< reply bytes read

    [[nodiscard]] std::uint64_t errors() const noexcept {
        return failed + mismatched + unanswered;
    }
    PhaseCounts& operator+=(const PhaseCounts& o) noexcept;
};

struct ClosedResult {
    PhaseCounts counts;
    std::uint64_t good_in_window = 0;  ///< ok replies received before the end
    double seconds = 0.0;
};

struct OpenResult {
    PhaseCounts counts;
    std::vector<double> latency_us;  ///< per scheduled request; +inf = failed
    std::vector<double> lag_us;      ///< how late each request was sent
    std::vector<std::int64_t> sent_ns, done_ns;  ///< absolute; done -1 = none
};

/// Blocking helpers for connection set-up (probe requests).
[[nodiscard]] int dial(std::uint16_t port, std::string& error);
[[nodiscard]] bool roundtrip(int fd, std::string_view line, std::string& reply,
                             int timeout_ms);
void close_fd(int fd) noexcept;

class Generator {
public:
    Generator() = default;
    ~Generator();
    Generator(const Generator&) = delete;
    Generator& operator=(const Generator&) = delete;

    /// Takes ownership of a connected socket and makes it non-blocking.
    void adopt(int fd);
    /// Closes every connection (the server then sees EOF).
    void close_all() noexcept;

    /// Closed loop for `seconds`; requests are numbered from `next_n`, which
    /// is advanced past the last one sent.  With a trace, every answered
    /// request becomes a "net.request" span under `parent`.
    ClosedResult closed_loop(const Traffic& traffic, std::uint64_t& next_n,
                             std::size_t window, double seconds, Trace* trace = nullptr,
                             std::uint32_t parent = 0);

    /// Open loop over `due_ns` (offsets from the phase start): request k is
    /// number first_n + k on connection k % conns.  After the last due
    /// instant, waits up to `grace_s` for outstanding replies.
    OpenResult open_loop(const Traffic& traffic, std::uint64_t first_n,
                         const std::vector<std::int64_t>& due_ns, double grace_s,
                         Trace* trace = nullptr, std::uint32_t parent = 0);

private:
    struct InFlight {
        std::uint64_t n;
        std::size_t k;  ///< open-loop schedule index (unused when closed)
        std::int64_t sent_ns;
    };
    struct Conn {
        int fd = -1;
        bool dead = false;
        std::string out;  ///< bytes not yet accepted by the kernel
        std::size_t out_off = 0;
        std::string in;   ///< bytes received past the last full line
        std::deque<InFlight> inflight;
    };

    /// Appends request n to `c`'s output; flush() writes it.
    void send(Conn& c, const Traffic& traffic, std::uint64_t n, std::size_t k,
              std::int64_t t, PhaseCounts& counts);
    void flush(Conn& c);
    /// Waits until `deadline_ns` at most for readiness, then reads every
    /// ready connection and hands each complete line to `on_line`.
    void pump(std::int64_t deadline_ns, PhaseCounts& counts,
              const std::function<void(Conn&, std::string_view)>& on_line);
    /// Marks a broken connection dead; its in-flight requests fail.
    void kill(Conn& c, const std::function<void(const InFlight&)>& on_lost);

    std::vector<Conn> conns_;
    std::vector<pollfd> poll_fds_;  ///< pump() scratch, reused across calls
    std::vector<Conn*> poll_owners_;
};

}  // namespace servebench
