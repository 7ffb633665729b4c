#include "servebench/harness/gen.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <deque>
#include <map>

#include "src/elements/elements.h"
#include "src/lang/printer.h"

namespace servebench {

using clara::serve::InsightRequest;
using clara::serve::InsightResponse;

namespace {

// A request unanswered this long means the daemon lost it.
constexpr int64_t kStallNs = 60'000'000'000;
// The id is a u64 after the u16 message tag.
constexpr size_t kResponseHeaderBytes = 2 + 8;

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

const std::string& InlineSource(const std::string& element) {
  static std::map<std::string, std::string> cache;
  auto it = cache.find(element);
  if (it == cache.end()) {
    it = cache.emplace(element, clara::ToSource(clara::MakeElementByName(element))).first;
  }
  return it->second;
}

std::string Errno(const char* what) { return std::string(what) + ": " + std::strerror(errno); }

}  // namespace

uint32_t KeyBodies::Add(std::string_view body) {
  for (size_t i = 0; i < bodies.size(); ++i) {
    if (bodies[i] == body) {
      return static_cast<uint32_t>(i);
    }
  }
  bodies.emplace_back(body);
  return static_cast<uint32_t>(bodies.size() - 1);
}

bool ResponseBody(std::string_view payload, const InsightResponse& parsed,
                  std::string_view* body) {
  size_t envelope = clara::serve::EncodeResponseWithBody(parsed.id, "", parsed.breakdown,
                                                         parsed.retry_after_ms)
                        .size();
  if (payload.size() < envelope) {
    return false;
  }
  *body = payload.substr(kResponseHeaderBytes, payload.size() - envelope);
  return true;
}

struct Generator::Conn {
  struct Inflight {
    uint64_t id;
    uint32_t key;
    int64_t due_ns;
    int64_t sent_ns;
  };
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  clara::serve::FrameReader in;
  std::deque<Inflight> inflight;

  ~Conn() {
    if (fd >= 0) {
      ::close(fd);
    }
  }

  // Sends as much of the outbound buffer as the socket takes.
  bool Flush(std::string* error) {
    while (out_off < out.size()) {
      ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        *error = Errno("send to daemon");
        return false;
      }
    }
    out.clear();
    out_off = 0;
    return true;
  }

  // Reads what is available into the frame reader. False on EOF or error.
  bool Fill(std::string* error) {
    char buf[1 << 16];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        in.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      }
      *error = n == 0 ? "daemon closed the connection" : Errno("recv from daemon");
      return false;
    }
  }
};

Generator::Generator() = default;
Generator::~Generator() = default;

bool Generator::Connect(const std::string& socket_path, int connections, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (int i = 0; i < connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c->fd < 0) {
      *error = Errno("socket");
      return false;
    }
    if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = Errno(("connect " + socket_path).c_str());
      return false;
    }
    ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
  return true;
}

bool Generator::Run(const Phase& ph, std::vector<KeyBodies>* bodies, PhaseResult* out,
                    std::string* error) {
  // Wake-ups from ppoll land within a microsecond of the due time instead of
  // the default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  size_t nconn = std::min<size_t>(static_cast<size_t>(ph.connections), conns_.size());
  std::vector<uint32_t>& order = *ph.order;
  const int64_t t0 = NowNs();
  const double interval_ns = ph.open_loop ? 1e9 / ph.rate : 0;
  size_t next = 0;
  size_t outstanding = 0;
  bool more = !ph.open_loop && static_cast<bool>(ph.extend);
  int64_t last_progress = t0;
  int64_t last_answer = t0;
  out->answers.clear();

  auto send_next = [&](Conn& c, int64_t due) {
    const Key& k = (*ph.keys)[order[next]];
    InsightRequest req;
    req.id = next_id_++;
    if (k.inline_src) {
      req.source = InlineSource(k.element);
    } else {
      req.element = k.element;
    }
    req.workload = k.workload;
    clara::serve::AppendFrame(&c.out, clara::serve::EncodeRequest(req));
    c.inflight.push_back({req.id, order[next], due, NowNs()});
    ++next;
    ++outstanding;
  };

  auto receive = [&](Conn& c) -> bool {
    if (!c.Fill(error)) {
      return false;
    }
    std::string frame;
    while (c.in.Next(&frame)) {
      int64_t now = NowNs();
      InsightResponse resp;
      std::string err;
      std::string_view body;
      if (!clara::serve::ParseResponse(frame, &resp, &err) ||
          !ResponseBody(frame, resp, &body)) {
        *error = "undecodable frame from daemon: " + err;
        return false;
      }
      if (c.inflight.empty() || c.inflight.front().id != resp.id) {
        *error = "answer id " + std::to_string(resp.id) + " does not match the request sent";
        return false;
      }
      Conn::Inflight f = c.inflight.front();
      c.inflight.pop_front();
      --outstanding;
      if (bodies->size() <= f.key) {
        bodies->resize(ph.keys->size());
      }
      Answer a;
      a.key = f.key;
      a.body = (*bodies)[f.key].Add(body);
      a.latency_us = static_cast<double>(now - (ph.open_loop ? f.due_ns : f.sent_ns)) / 1e3;
      a.rtt_us = static_cast<double>(now - f.sent_ns) / 1e3;
      a.lag_us = ph.open_loop ? static_cast<double>(f.sent_ns - f.due_ns) / 1e3 : 0;
      a.breakdown = resp.breakdown;
      out->answers.push_back(a);
      last_progress = last_answer = now;
    }
    if (c.in.TakeOversized() != 0) {
      *error = "oversized frame from daemon";
      return false;
    }
    return true;
  };

  std::vector<pollfd> fds(nconn);
  for (;;) {
    int64_t now = NowNs();
    if (ph.open_loop) {
      while (next < order.size() && outstanding < kMaxOutstanding) {
        int64_t due = t0 + static_cast<int64_t>(static_cast<double>(next) * interval_ns);
        if (due > now) {
          break;
        }
        send_next(*conns_[next % nconn], due);
      }
    } else {
      for (size_t i = 0; i < nconn; ++i) {
        if (!conns_[i]->inflight.empty()) {
          continue;
        }
        if (next == order.size() && more) {
          more = ph.extend(static_cast<double>(now - t0) / 1e9);
        }
        if (next == order.size()) {
          break;
        }
        send_next(*conns_[i], now);
      }
    }
    for (size_t i = 0; i < nconn; ++i) {
      if (!conns_[i]->Flush(error)) {
        return false;
      }
    }
    if (next == order.size() && outstanding == 0 && !more) {
      break;
    }
    now = NowNs();
    if (outstanding > 0 && now - last_progress > kStallNs) {
      *error = std::to_string(outstanding) + " request(s) unanswered after " +
               std::to_string(kStallNs / 1'000'000'000) + " s";
      return false;
    }
    int64_t wait_ns = 100'000'000;
    if (ph.open_loop && next < order.size() && outstanding < kMaxOutstanding) {
      int64_t due = t0 + static_cast<int64_t>(static_cast<double>(next) * interval_ns);
      wait_ns = std::max<int64_t>(0, due - now);
    }
    for (size_t i = 0; i < nconn; ++i) {
      fds[i].fd = conns_[i]->fd;
      fds[i].events = static_cast<short>(POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) {
      *error = Errno("ppoll");
      return false;
    }
    for (size_t i = 0; i < nconn && rc > 0; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !receive(*conns_[i])) {
        return false;
      }
    }
  }
  out->seconds = static_cast<double>(last_answer - t0) / 1e9;
  return true;
}

bool Generator::Control(clara::serve::ControlOp op, std::string* json, std::string* error) {
  Conn& c = *conns_.at(0);
  clara::serve::ControlRequest req;
  req.op = op;
  clara::serve::AppendFrame(&c.out, clara::serve::EncodeControlRequest(req));
  int64_t start = NowNs();
  std::string frame;
  while (!c.in.Next(&frame)) {
    if (!c.Flush(error)) {
      return false;
    }
    if (NowNs() - start > kStallNs) {
      *error = "control request unanswered";
      return false;
    }
    pollfd p{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    if (::poll(&p, 1, 100) > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !c.Fill(error)) {
      return false;
    }
  }
  clara::serve::ControlResponse resp;
  if (!clara::serve::ParseControlResponse(frame, &resp, error) || !resp.ok) {
    *error = "control " + std::string(clara::serve::ControlOpName(op)) + ": " +
             (resp.ok ? *error : resp.error);
    return false;
  }
  *json = std::move(resp.json);
  return true;
}

}  // namespace servebench
