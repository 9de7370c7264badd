#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <limits>
#include <thread>

namespace servebench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

timespec to_timespec(std::int64_t ns) {
    if (ns < 0) ns = 0;
    return timespec{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
}

}  // namespace

namespace {

std::chrono::steady_clock::time_point epoch() {
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

}  // namespace

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch())
        .count();
}

void sleep_until_ns(std::int64_t t) {
    std::this_thread::sleep_until(epoch() + std::chrono::nanoseconds(t));
}

PhaseCounts& PhaseCounts::operator+=(const PhaseCounts& o) noexcept {
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
    mismatched += o.mismatched;
    unanswered += o.unanswered;
    bytes_out += o.bytes_out;
    bytes_in += o.bytes_in;
    return *this;
}

int dial(std::uint16_t port, std::string& error) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        error = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool roundtrip(int fd, std::string_view line, std::string& reply, int timeout_ms) {
    std::string out(line);
    out += '\n';
    for (std::size_t off = 0; off < out.size();) {
        const auto n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        off += static_cast<std::size_t>(n);
    }
    reply.clear();
    char buf[4096];
    while (true) {
        pollfd p{fd, POLLIN, 0};
        const int ready = ::poll(&p, 1, timeout_ms);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) return false;
        const auto n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        reply.append(buf, static_cast<std::size_t>(n));
        if (const auto nl = reply.find('\n'); nl != std::string::npos) {
            reply.resize(nl);
            return true;
        }
    }
}

void close_fd(int fd) noexcept {
    if (fd >= 0) ::close(fd);
}

Generator::~Generator() { close_all(); }

void Generator::adopt(int fd) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    Conn c;
    c.fd = fd;
    conns_.push_back(std::move(c));
}

void Generator::close_all() noexcept {
    for (auto& c : conns_) close_fd(c.fd);
    conns_.clear();
}

void Generator::send(Conn& c, const Traffic& traffic, std::uint64_t n, std::size_t k,
                     std::int64_t t, PhaseCounts& counts) {
    const auto before = c.out.size();
    traffic.render(n, c.out);
    counts.bytes_out += c.out.size() - before;
    ++counts.sent;
    c.inflight.push_back(InFlight{n, k, t});
}

void Generator::flush(Conn& c) {
    while (c.out_off < c.out.size()) {
        const auto n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                              MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            break;  // EAGAIN waits for POLLOUT; a hard error surfaces on read
        }
    }
    if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
    }
}

void Generator::kill(Conn& c, const std::function<void(const InFlight&)>& on_lost) {
    for (const auto& f : c.inflight) on_lost(f);
    c.inflight.clear();
    close_fd(c.fd);
    c.fd = -1;
    c.dead = true;
}

void Generator::pump(std::int64_t deadline_ns, PhaseCounts& counts,
                     const std::function<void(Conn&, std::string_view)>& on_line) {
    auto& fds = poll_fds_;
    auto& owners = poll_owners_;
    fds.clear();
    owners.clear();
    for (auto& c : conns_) {
        if (c.dead) continue;
        const short events = static_cast<short>(
            POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0));
        fds.push_back(pollfd{c.fd, events, 0});
        owners.push_back(&c);
    }
    if (fds.empty()) return;
    const timespec timeout = to_timespec(deadline_ns - now_ns());
    const int rc = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (rc <= 0) return;

    char buf[1 << 16];
    for (std::size_t i = 0; i < fds.size(); ++i) {
        Conn& c = *owners[i];
        if (fds[i].revents & POLLOUT) flush(c);
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        bool broken = false;
        while (true) {
            const auto n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
            if (n > 0) {
                c.in.append(buf, static_cast<std::size_t>(n));
                counts.bytes_in += static_cast<std::uint64_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            broken = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
            break;
        }
        std::size_t start = 0;
        for (auto nl = c.in.find('\n'); nl != std::string::npos;
             nl = c.in.find('\n', start)) {
            on_line(c, std::string_view(c.in).substr(start, nl - start));
            start = nl + 1;
        }
        c.in.erase(0, start);
        flush(c);  // requests the replies made room for go out in one write
        if (broken)
            kill(c, [&counts](const InFlight&) { ++counts.failed; });
    }
}

ClosedResult Generator::closed_loop(const Traffic& traffic, std::uint64_t& next_n,
                                    std::size_t window, double seconds, Trace* trace,
                                    std::uint32_t parent) {
    ClosedResult r;
    PhaseCounts& counts = r.counts;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t grace_end = end + 5'000'000'000LL;
    const std::uint32_t span_name = trace ? trace->intern("net.request") : 0;

    const auto on_line = [&](Conn& c, std::string_view line) {
        if (c.inflight.empty()) {
            ++counts.failed;  // a reply nobody asked for
            return;
        }
        const InFlight f = c.inflight.front();
        c.inflight.pop_front();
        const std::int64_t t = now_ns();
        switch (traffic.check(f.n, line)) {
            case Verdict::ok:
                ++counts.ok;
                if (t <= end) ++r.good_in_window;
                break;
            case Verdict::failed: ++counts.failed; break;
            case Verdict::mismatch: ++counts.mismatched; break;
        }
        if (trace) trace->add(span_name, f.sent_ns, t, parent, f.n);
        if (t < end) send(c, traffic, next_n++, 0, t, counts);
    };

    for (auto& c : conns_) {
        for (std::size_t w = 0; w < window && !c.dead; ++w)
            send(c, traffic, next_n++, 0, now_ns(), counts);
        flush(c);
    }
    while (true) {
        std::size_t pending = 0;
        for (const auto& c : conns_) pending += c.inflight.size();
        const std::int64_t t = now_ns();
        if (pending == 0 && (t >= end || std::all_of(conns_.begin(), conns_.end(),
                                                     [](const Conn& c) { return c.dead; })))
            break;
        if (t >= grace_end) {
            for (auto& c : conns_)
                if (!c.inflight.empty())
                    kill(c, [&counts](const InFlight&) { ++counts.unanswered; });
            break;
        }
        pump(t < end ? end : grace_end, counts, on_line);
    }
    r.seconds = static_cast<double>(end - start) / 1e9;
    return r;
}

OpenResult Generator::open_loop(const Traffic& traffic, std::uint64_t first_n,
                                const std::vector<std::int64_t>& due_ns, double grace_s,
                                Trace* trace, std::uint32_t parent) {
    OpenResult r;
    PhaseCounts& counts = r.counts;
    const std::size_t total = due_ns.size();
    r.latency_us.assign(total, kInf);
    r.lag_us.assign(total, 0.0);
    r.sent_ns.assign(total, -1);
    r.done_ns.assign(total, -1);
    if (total == 0 || conns_.empty()) return r;
    const std::uint32_t span_name = trace ? trace->intern("net.request") : 0;

    // Start a little ahead so the first due instant is not already late.
    const std::int64_t t0 = now_ns() + 1'000'000;
    const std::int64_t grace_end =
        t0 + due_ns.back() + static_cast<std::int64_t>(grace_s * 1e9);

    const auto on_line = [&](Conn& c, std::string_view line) {
        if (c.inflight.empty()) {
            ++counts.failed;
            return;
        }
        const InFlight f = c.inflight.front();
        c.inflight.pop_front();
        const std::int64_t t = now_ns();
        r.done_ns[f.k] = t;
        switch (traffic.check(f.n, line)) {
            case Verdict::ok:
                ++counts.ok;
                r.latency_us[f.k] = static_cast<double>(t - (t0 + due_ns[f.k])) / 1e3;
                break;
            case Verdict::failed: ++counts.failed; break;
            case Verdict::mismatch: ++counts.mismatched; break;
        }
        if (trace) trace->add(span_name, f.sent_ns, t, parent, f.n);
    };

    std::size_t next = 0;
    while (true) {
        for (std::int64_t t = now_ns(); next < total && t0 + due_ns[next] <= t;
             ++next, t = now_ns()) {
            Conn& c = conns_[next % conns_.size()];
            if (c.dead) {
                ++counts.failed;  // refused: the connection is gone
                continue;
            }
            send(c, traffic, first_n + next, next, t, counts);
            flush(c);
            r.sent_ns[next] = t;
            r.lag_us[next] = static_cast<double>(t - (t0 + due_ns[next])) / 1e3;
        }
        std::size_t pending = 0;
        for (const auto& c : conns_) pending += c.inflight.size();
        if (next == total && pending == 0) break;
        if (now_ns() >= grace_end) {
            // Replies that arrive later would desynchronize the FIFO match of
            // the next phase, so connections with stragglers are closed.
            for (auto& c : conns_)
                if (!c.inflight.empty())
                    kill(c, [&counts](const InFlight&) { ++counts.unanswered; });
            break;
        }
        pump(next < total ? t0 + due_ns[next] : grace_end, counts, on_line);
    }
    return r;
}

}  // namespace servebench
