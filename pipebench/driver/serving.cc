// The online half of the benchmark (`serve_reload`): a real sisg_serve
// process answers two callers over loopback while the model is hot-swapped
// underneath it, every third publish corrupt. Traced runs add an open-loop
// Poisson phase, on a second server start, for the latency a fixed arrival
// rate sees.
//
// The request generator is one busy-polling thread multiplexing every
// connection: each request is timed from the instant it was due, so a
// stall anywhere (server, loopback or generator) is charged to every
// request it delayed, and the generator's own lateness is reported.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/net_util.h"
#include "common/rng.h"
#include "core/matching_engine.h"
#include "serve/chaos.h"
#include "serve/wire.h"

namespace pipebench {
namespace {

using sisg::Status;

// Arena shape: large enough that the int8 batch scan, not the socket path,
// is where the server spends its time.
constexpr uint32_t kItems = 100000;
constexpr uint32_t kDim = 64;
constexpr uint32_t kK = 10;
// Timed phases are a closed loop: each of kConnections callers sends its
// next request as soon as its previous reply arrives. On a shared virtual
// machine its median moved about 2% between runs where an open loop's moved
// 15-30% (README.md), because a busy server never sleeps and wakes late.
constexpr uint32_t kConnections = 2;
// Closed-loop requests drawn per second of phase, far above the ~750/s two
// callers reach on this arena.
constexpr double kClosedDrawPerSecond = 5000.0;
// Traced runs only: an open-loop phase with Poisson arrivals at a rate
// fixed at design time to about 40% of the closed-loop capacity (never
// derived at run time, so a slower server shows up as latency).
constexpr double kOpenRatePerSecond = 280.0;
constexpr double kOpenSeconds = 10.0;
constexpr double kWarmupSeconds = 1.0;
constexpr double kDrainSeconds = 3.0;
// Server starts timed for setup_s: kSetupBefore before the timed phase (the
// last one serves it) and kSetupAfter after it, so the median samples the
// host at both ends of the run rather than in one second of it.
constexpr int kSetupBefore = 5;
constexpr int kSetupAfter = 4;
constexpr uint32_t kCheckEvery = 16;  // every 16th reply is checked offline
constexpr uint64_t kWarmupIds = uint64_t{1} << 40;  // id base of the warm-up
constexpr uint64_t kOpenIds = uint64_t{2} << 40;    // of the open-loop phase
// Reload schedule: kPublishes evenly spaced flips of LATEST, every
// kCorruptEvery-th one corrupt, so 10 good swaps and 5 rollbacks.
constexpr int kPublishes = 15;
constexpr int kCorruptEvery = 3;
constexpr uint32_t kReloadPollMs = 100;

bool IsCorrupt(int publish) {
  return publish % kCorruptEvery == kCorruptEvery - 1;
}

std::string TokenOf(int publish) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%s%02d", IsCorrupt(publish) ? "c" : "g",
                publish);
  return buf;
}

/// Arena that serves `version` (the registry counts 1 for the start-up
/// model and one more per good publish). Good publishes alternate between
/// a second arena and the start-up one, so consecutive versions answer
/// differently and a checked reply shows which version produced it.
std::string PrefixOfVersion(const std::string& dir, uint64_t version) {
  return dir + (version % 2 == 0 ? "/next" : "/base");
}

/// A sisg_serve child process; the destructor stops and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Starts the server and waits until its port file appears, which it
  /// writes only after loading, validating and listening. Returns the
  /// seconds that took, or a negative value on failure.
  double Start(const std::string& bin, const std::vector<std::string>& flags,
               const std::string& port_file, const std::string& log) {
    std::vector<std::string> argv_s = {bin};
    argv_s.insert(argv_s.end(), flags.begin(), flags.end());
    argv_s.push_back("--port_file");
    argv_s.push_back(port_file);
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    ::unlink(port_file.c_str());
    const double t0 = NowSeconds();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The server must not outlive a driver that is killed mid-run.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    if (pid_ < 0) return -1.0;
    while (NowSeconds() - t0 < 60.0) {
      // Complete once the server's "<port>\n" line is all there.
      std::ifstream in(port_file);
      std::string line;
      if (std::getline(in, line) && !in.eof()) {
        port_ = static_cast<uint16_t>(std::strtoul(line.c_str(), nullptr, 10));
        return NowSeconds() - t0;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return -1.0;
      }
      ::usleep(500);
    }
    return -1.0;
  }

  /// SIGTERM (graceful drain), then reap; SIGKILL if the drain hangs.
  /// Returns true when the server exited 0.
  bool Stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const double t0 = NowSeconds();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowSeconds() - t0 > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  int pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  int pid_ = -1;
  uint16_t port_ = 0;
};

/// One scheduled request and what became of it.
struct Request {
  double scheduled = 0;  // seconds since the phase began
  double sent = -1;
  double done = -1;
  uint32_t item = 0;
  uint32_t conn = 0;
  sisg::serve::WireStatus status = sisg::serve::WireStatus::kOk;
  bool answered = false;
  uint64_t version = 0;
  // A sampled reply that differed from the offline engine of its version,
  // or carried a version that was never published.
  bool wrong = false;
};

/// A sampled reply kept for the offline comparison after timing.
struct Sample {
  uint64_t request = 0;  // index into the phase's requests
  uint32_t item = 0;
  uint64_t version = 0;
  std::vector<sisg::ScoredId> results;
};

/// The reload schedule and what the replies showed of it. The generator
/// loop flips LATEST itself at the scheduled instants, so the driver needs
/// no second thread and the flip and the reply clocks are the same.
struct ReloadPlan {
  std::string watch_dir;
  std::vector<double> at;  // phase seconds of each publish
  size_t next = 0;
  int good = 0;
  int corrupt = 0;
  std::map<uint64_t, double> flipped;     // version -> phase seconds
  std::map<uint64_t, double> first_seen;  // version -> phase seconds
  uint64_t max_seen = 1;                  // the start-up arena is version 1
  std::vector<std::string> errors;
};

struct Conn {
  int fd = -1;
  sisg::serve::FrameReader reader;
  std::string out;  // encoded frames not yet accepted by the socket
  uint64_t last_version = 0;
};

/// Every request of one open-loop phase and what the checks need of them.
struct PhaseResult {
  std::vector<Request> requests;
  std::vector<Sample> samples;
  uint64_t transport_errors = 0;
  uint64_t order_violations = 0;  // model_version went backwards
  uint64_t bad_ids = 0;           // reply for an unknown request
  double t0 = 0;                  // absolute start, NowSeconds() clock
};

void Flush(Conn* c, PhaseResult* r) {
  while (!c->out.empty()) {
    const ssize_t n = ::send(c->fd, c->out.data(), c->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c->out.erase(0, static_cast<size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      ++r->transport_errors;
      c->out.clear();
      return;
    }
  }
}

bool WriteLatest(const std::string& watch_dir, const std::string& token) {
  const std::string tmp = watch_dir + "/LATEST.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << token;
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), (watch_dir + "/LATEST").c_str()) == 0;
}

/// Publishes the plan's next token (pre-written artifacts; only LATEST
/// moves, by an atomic rename).
void Publish(ReloadPlan* plan, double now) {
  const int i = static_cast<int>(plan->next++);
  if (!WriteLatest(plan->watch_dir, TokenOf(i))) {
    plan->errors.push_back("cannot write LATEST");
    return;
  }
  if (IsCorrupt(i)) {
    ++plan->corrupt;
  } else {
    plan->flipped[static_cast<uint64_t>(++plan->good) + 1] = now;
  }
}

/// Runs one phase of `seconds` over `conns`: Poisson arrivals at `rate`
/// per second, or a closed loop when `rate` is 0. Flips LATEST on `plan`'s
/// schedule when it is given. Every request is drawn from `rng` before the
/// clock starts. Request i goes out with id `id_base` + i, so a late reply
/// from an earlier phase cannot pass for one of this phase's.
PhaseResult RunPhase(std::vector<Conn>* conns, double seconds, double rate,
                     sisg::Rng* rng, uint64_t id_base, bool keep_samples,
                     ReloadPlan* plan, Tracer* tracer) {
  PhaseResult r;
  // Closed loop: each connection's first request is due at once, every
  // later one when a reply frees a connection (set on receipt below).
  const bool closed = rate <= 0;
  const auto closed_draw =
      static_cast<size_t>(seconds * kClosedDrawPerSecond);
  double t = 0;
  while (true) {
    if (closed) {
      if (r.requests.size() >= closed_draw) break;
      t = r.requests.size() < conns->size()
              ? 0.0
              : std::numeric_limits<double>::infinity();
    } else {
      t += -std::log(1.0 - rng->UniformDouble()) / rate;
      if (t >= seconds) break;
    }
    Request q;
    q.scheduled = t;
    q.item = static_cast<uint32_t>(rng->UniformU64(kItems));
    q.conn = static_cast<uint32_t>(r.requests.size() % conns->size());
    r.requests.push_back(q);
  }
  const size_t n = r.requests.size();
  size_t next = 0, answered = 0;
  size_t next_closed = conns->size();  // next request a freed caller sends
  std::vector<pollfd> pfds(conns->size());
  char buf[1 << 16];
  r.t0 = NowSeconds();
  const double drain_end = seconds + kDrainSeconds;
  while (true) {
    double now = NowSeconds() - r.t0;
    if (plan != nullptr && plan->next < plan->at.size() &&
        plan->at[plan->next] <= now && now < seconds) {
      Publish(plan, now);
    }
    // Send everything that is due. The end of the phase is checked after
    // the pacing wait and before each send, so no request leaves after it.
    while (next < n && r.requests[next].scheduled <= now && now < seconds) {
      Request& q = r.requests[next];
      Conn& c = (*conns)[q.conn];
      sisg::serve::QueryRequest req;
      req.request_id = id_base + next;
      req.item = q.item;
      req.k = kK;
      sisg::serve::EncodeQuery(req, &c.out);
      q.sent = now;
      Flush(&c, &r);
      ++next;
      now = NowSeconds() - r.t0;
    }
    const bool sending = next < n && now < seconds;
    if (!sending && answered >= next) break;
    if (now >= drain_end) break;
    for (size_t i = 0; i < conns->size(); ++i) {
      pfds[i].fd = (*conns)[i].fd;
      pfds[i].events = POLLIN | ((*conns)[i].out.empty() ? 0 : POLLOUT);
      pfds[i].revents = 0;
    }
    // Busy-poll: a timed sleep on a virtual machine wakes milliseconds
    // late, which would delay sends and replies alike.
    const timespec zero{};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &zero, nullptr);
    if (ready <= 0) continue;
    for (size_t i = 0; i < conns->size(); ++i) {
      Conn& c = (*conns)[i];
      if (pfds[i].revents & POLLOUT) Flush(&c, &r);
      if (!(pfds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      while (true) {
        const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
        if (got > 0) {
          if (!c.reader.Feed(buf, static_cast<size_t>(got)).ok()) {
            ++r.transport_errors;
          }
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          ++r.transport_errors;
        }
        break;
      }
      const double done = NowSeconds() - r.t0;
      sisg::serve::Frame frame;
      bool have = false;
      while (c.reader.Next(&frame, &have).ok() && have) {
        sisg::serve::QueryResponse resp;
        if (frame.type != sisg::serve::MsgType::kResponse ||
            !sisg::serve::DecodeResponse(frame.payload, frame.payload_len,
                                         &resp)
                 .ok() ||
            resp.request_id < id_base || resp.request_id - id_base >= n ||
            r.requests[resp.request_id - id_base].answered) {
          ++r.bad_ids;
          continue;
        }
        const uint64_t i = resp.request_id - id_base;
        Request& q = r.requests[i];
        q.answered = true;
        q.done = done;
        if (closed && next_closed < n) {
          r.requests[next_closed].scheduled = done;
          r.requests[next_closed].conn = q.conn;
          ++next_closed;
        }
        q.status = resp.status;
        q.version = resp.model_version;
        ++answered;
        if (resp.status != sisg::serve::WireStatus::kOk) continue;
        if (resp.model_version < c.last_version) ++r.order_violations;
        c.last_version = std::max(c.last_version, resp.model_version);
        if (plan != nullptr && resp.model_version > plan->max_seen) {
          plan->max_seen = resp.model_version;
          plan->first_seen[resp.model_version] = done;
        }
        if (keep_samples && i % kCheckEvery == 0) {
          r.samples.push_back(
              {i, q.item, resp.model_version, std::move(resp.results)});
        }
      }
    }
  }
  if (tracer->enabled()) {
    for (size_t i = 0; i < n; ++i) {
      const Request& q = r.requests[i];
      if (q.answered) {
        tracer->AddRoot("serve.request",
                        static_cast<uint64_t>((r.t0 + q.scheduled) * 1e9),
                        static_cast<uint64_t>((r.t0 + q.done) * 1e9),
                        static_cast<int64_t>(i));
      }
    }
  }
  return r;
}

/// Reads one field of one histogram or counter out of the server's JSON
/// metrics export ("name": {... "field": value ...} or "name": value).
double MetricField(const std::string& json, const std::string& name,
                   const std::string& field) {
  const size_t at = json.find("\"" + name + "\":");
  if (at == std::string::npos) return 0.0;
  size_t from = at + name.size() + 3;
  if (!field.empty()) {
    from = json.find("\"" + field + "\":", from);
    if (from == std::string::npos) return 0.0;
    from += field.size() + 3;
  }
  return std::strtod(json.c_str() + from, nullptr);
}

size_t CountLines(const std::string& path, const std::string& needle) {
  std::ifstream in(path);
  std::string line;
  size_t n = 0;
  while (std::getline(in, line)) n += line.find(needle) != std::string::npos;
  return n;
}

/// Opens kConnections non-blocking connections to the server on `port`.
bool Connect(uint16_t port, std::vector<Conn>* conns) {
  *conns = std::vector<Conn>(kConnections);
  for (Conn& c : *conns) {
    if (Fail(sisg::ConnectTcp("127.0.0.1", port, &c.fd), "connect") ||
        Fail(sisg::SetNonBlocking(c.fd, true), "nonblocking")) {
      return false;
    }
  }
  return true;
}

void CloseAll(std::vector<Conn>* conns) {
  for (Conn& c : *conns) ::close(c.fd);
  conns->clear();
}

/// Per-phase request outcomes: latency from the due instant (+inf unless
/// answered OK) and generator lateness of every request that was sent.
struct PhaseStats {
  std::vector<double> lat;
  std::vector<double> lag;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t deadline = 0;
  uint64_t errors = 0;
};

/// Counts every sent request of a phase into `outcome`: one that was
/// answered OK and, when sampled, matched the offline engine succeeds;
/// anything else fails the run.
PhaseStats Tally(const PhaseResult& r, const std::string& phase,
                 Outcome* outcome) {
  PhaseStats st;
  for (size_t i = 0; i < r.requests.size(); ++i) {
    const Request& q = r.requests[i];
    if (q.sent < 0) continue;  // due after the end of the phase
    st.lag.push_back(q.sent - q.scheduled);
    const bool good = q.answered && q.status == sisg::serve::WireStatus::kOk;
    st.lat.push_back(good ? q.done - q.scheduled
                          : std::numeric_limits<double>::infinity());
    const std::string what = phase + " request " + std::to_string(i);
    if (!good) {
      if (!q.answered) {
        ++st.errors;
        outcome->Fail(what + " was not answered");
        continue;
      }
      if (q.status == sisg::serve::WireStatus::kBusy) {
        ++st.busy;
      } else if (q.status == sisg::serve::WireStatus::kDeadlineExceeded) {
        ++st.deadline;
      } else {
        ++st.errors;
      }
      outcome->Fail(what + " answered " +
                    sisg::serve::WireStatusName(q.status));
      continue;
    }
    ++st.ok;
    if (q.wrong) {
      outcome->Fail(what + " (item " + std::to_string(q.item) + ", version " +
                    std::to_string(q.version) +
                    ") differs from the offline engine of its version");
    } else {
      outcome->Ok();
    }
  }
  return st;
}

}  // namespace

int GenServing(const Args& args) {
  // The publisher also points <dir>/LATEST at each arena it writes; the
  // server watches <dir>/watch, so that pointer is never read.
  if (Fail(sisg::serve::PublishSynthArena(args.dir, "base", kItems, kDim,
                                          args.seed, true),
           "base arena") ||
      Fail(sisg::serve::PublishSynthArena(args.dir, "next", kItems, kDim,
                                          args.seed * 7919 + 1, true),
           "second arena")) {
    return 1;
  }
  const std::string watch = args.dir + "/watch";
  ::mkdir(watch.c_str(), 0755);
  // The corrupt artifact: the second arena with bytes flipped mid-payload,
  // so only the checksum can tell.
  const std::string corrupt = args.dir + "/corrupt.arena";
  {
    std::ifstream in(args.dir + "/next.arena", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    for (size_t i = 0; i < 16; ++i) bytes[bytes.size() / 2 + i] ^= 0x5a;
    std::ofstream out(corrupt, std::ios::binary);
    out << bytes;
  }
  // Tokens are hard links, so every publish is pre-written and no artifact
  // is written while timing.
  uint64_t good = 0;
  for (int i = 0; i < kPublishes; ++i) {
    const std::string tok = watch + "/" + TokenOf(i);
    const std::string src =
        IsCorrupt(i) ? args.dir + "/next"
                     : PrefixOfVersion(args.dir, ++good + 1);
    const std::string src_arena = IsCorrupt(i) ? corrupt : src + ".arena";
    if (::link(src_arena.c_str(), (tok + ".arena").c_str()) != 0 ||
        ::link((src + ".qarena").c_str(), (tok + ".qarena").c_str()) != 0) {
      std::cerr << "cannot link " << tok << ": " << std::strerror(errno)
                << "\n";
      return 1;
    }
  }
  return 0;
}

int RunServing(const Args& args) {
  const double calib = PrintHostTag();
  if (args.serve_bin.empty()) {
    std::cerr << "--serve_bin is required for serving workloads\n";
    return 2;
  }
  if (args.seconds < kPublishes + 1) {
    // Publishes closer than the reloader's poll and load would coalesce.
    std::cerr << "serve_reload needs --seconds >= " << kPublishes + 1 << "\n";
    return 2;
  }
  // The generator loop and the server's I/O and dispatch threads do the
  // work; two more threads keep the cores they leave idle from halting
  // until the last phase is over.
  KeepAwake awake(kThreadBudget - 2);
  const std::string metrics_path = args.dir + "/server_metrics.json";
  const std::string log_path = args.dir + "/server.log";
  const std::string watch = args.dir + "/watch";
  ::unlink((watch + "/LATEST").c_str());
  const std::vector<std::string> serve_flags = {
      "--arena", args.dir + "/base", "--mmap", "--quant", "int8",
      "--port", "0", "--io_threads", "1", "--dispatch_threads", "1",
      "--scan_threads", "1"};
  std::vector<std::string> watch_flags = serve_flags;
  watch_flags.insert(watch_flags.end(),
                     {"--watch_dir", watch, "--reload_interval_ms",
                      std::to_string(kReloadPollMs)});
  std::vector<std::string> flags = watch_flags;
  if (args.trace) flags.insert(flags.end(), {"--metrics_out", metrics_path});

  // Set-up: exec until ready; the last of these servers is measured.
  std::vector<double> setups;
  ServerProcess server;
  for (int i = 0; i < kSetupBefore; ++i) {
    if (i > 0) server.Stop();
    const double s =
        server.Start(args.serve_bin, flags, args.dir + "/port", log_path);
    if (s < 0) {
      std::cerr << "sisg_serve did not become ready; see " << log_path << "\n";
      return 1;
    }
    setups.push_back(s);
  }

  std::vector<Conn> conns;
  if (!Connect(server.port(), &conns)) return 1;
  Tracer off(false);
  Tracer tracer(args.trace);
  sisg::Rng rng(args.seed);
  // Warm-up, a closed loop like the timed phase: faults the mapped arena
  // in. Its latencies count toward no gated metric, but every reply must
  // be OK.
  const PhaseResult warm = RunPhase(&conns, kWarmupSeconds, 0, &rng,
                                    kWarmupIds, false, nullptr, &off);
  ReloadPlan plan;
  plan.watch_dir = watch;
  for (int i = 0; i < kPublishes; ++i) {
    plan.at.push_back(args.seconds * (i + 1) / (kPublishes + 1));
  }
  PhaseResult r =
      RunPhase(&conns, args.seconds, 0, &rng, 0, true, &plan, &tracer);
  CloseAll(&conns);
  const double rss = PeakRssMb(server.pid());
  const bool clean_exit = server.Stop();
  const size_t rolled_back = CountLines(log_path, "rejected version");
  // The later starts serve the start-up arena and have nothing to reload.
  ::unlink((watch + "/LATEST").c_str());
  for (int i = 0; i < kSetupAfter; ++i) {
    ServerProcess again;
    const double s = again.Start(args.serve_bin, watch_flags,
                                 args.dir + "/port", args.dir + "/setup.log");
    if (s < 0 || !again.Stop()) {
      std::cerr << "sisg_serve did not start or stop cleanly; see "
                << args.dir << "/setup.log\n";
      return 1;
    }
    setups.push_back(s);
  }

  // Traced runs only: the same arena under a fixed arrival rate, on a
  // server started afresh, so that the first server's metrics export
  // covers exactly the warm-up and the closed loop.
  PhaseResult open_warm, open;
  bool open_clean_exit = true;
  if (args.trace) {
    ServerProcess open_server;
    if (open_server.Start(args.serve_bin, serve_flags, args.dir + "/port",
                          args.dir + "/open_server.log") < 0 ||
        !Connect(open_server.port(), &conns)) {
      std::cerr << "sisg_serve for the open loop did not start\n";
      return 1;
    }
    open_warm = RunPhase(&conns, kWarmupSeconds, 0, &rng, kWarmupIds, false,
                         nullptr, &off);
    open = RunPhase(&conns, kOpenSeconds, kOpenRatePerSecond, &rng, kOpenIds,
                    false, nullptr, &off);
    CloseAll(&conns);
    open_clean_exit = open_server.Stop();
  }
  awake.Stop();

  // Output checks. A sampled reply is compared bit for bit with an offline
  // engine loaded from the arena of the version that answered; a version
  // that was never published cannot be right.
  Outcome outcome;
  const uint64_t max_version = static_cast<uint64_t>(plan.good) + 1;
  std::map<uint64_t, std::vector<const Sample*>> by_version;
  for (const Sample& s : r.samples) {
    if (s.version < 1 || s.version > max_version) {
      r.requests[s.request].wrong = true;
    } else {
      by_version[s.version].push_back(&s);
    }
  }
  for (const auto& [version, samples] : by_version) {
    const std::string prefix = PrefixOfVersion(args.dir, version);
    sisg::MatchingEngine engine;
    if (Fail(LoadServingEngine(prefix, true, &engine), "reference engine")) {
      outcome.Fail("cannot load the reference engine " + prefix);
      continue;
    }
    std::vector<uint32_t> items;
    for (const Sample* s : samples) items.push_back(s->item);
    const auto want = engine.QueryBatch(items, kK, kThreadBudget);
    for (size_t i = 0; i < samples.size(); ++i) {
      if (!SameAnswers(samples[i]->results, want[i])) {
        r.requests[samples[i]->request].wrong = true;
      }
    }
  }
  const PhaseStats warm_st = Tally(warm, "warm-up", &outcome);
  const PhaseStats st = Tally(r, "closed-loop", &outcome);
  Tally(open_warm, "open-loop warm-up", &outcome);
  const PhaseStats open_st = Tally(open, "open-loop", &outcome);
  if (!clean_exit || !open_clean_exit) {
    outcome.Fail("sisg_serve did not drain cleanly");
  }
  const PhaseResult* phases[] = {&warm, &r, &open_warm, &open};
  for (const PhaseResult* phase : phases) {
    if (phase->transport_errors + phase->bad_ids > 0) {
      outcome.Fail(std::to_string(phase->transport_errors) +
                   " transport errors, " + std::to_string(phase->bad_ids) +
                   " unmatched replies");
    }
    if (phase->order_violations > 0) {
      outcome.Fail("model_version decreased on a connection " +
                   std::to_string(phase->order_violations) + " times");
    }
  }
  std::vector<double> swap_lag;
  for (const std::string& e : plan.errors) outcome.Fail(e);
  for (const auto& [version, flip] : plan.flipped) {
    const auto seen = plan.first_seen.find(version);
    if (seen == plan.first_seen.end()) {
      outcome.Fail("no reply carried version " + std::to_string(version));
    } else if (seen->second < flip) {
      // A version that answers before its good publish came from a
      // corrupt one.
      outcome.Fail("version " + std::to_string(version) +
                   " answered before its publish");
    } else {
      swap_lag.push_back(seen->second - flip);
    }
  }
  if (plan.good < 10 || static_cast<int>(rolled_back) != plan.corrupt) {
    outcome.Fail(std::to_string(plan.good) + " good swaps and " +
                 std::to_string(rolled_back) + " of " +
                 std::to_string(plan.corrupt) +
                 " corrupt publishes rolled back");
  }

  const std::vector<double>& lat = st.lat;
  const uint64_t sent = lat.size();
  const double p50 = Median(lat) * 1e3;
  const double p90 = Quantile(lat, 0.90) * 1e3;
  const double p99 = Quantile(lat, 0.99) * 1e3;
  std::cout << "closed loop, " << kConnections << " callers: " << sent
            << " sent, " << st.ok << " ok, " << st.busy << " busy, "
            << st.deadline << " deadline, " << st.errors << " errors, "
            << r.samples.size() << " replies checked; latency p50 " << p50
            << " ms, p90 " << p90 << " ms, p99 " << p99 << " ms\n";
  if (args.trace) {
    std::cout << "open loop, " << kOpenRatePerSecond << " req/s: "
              << open_st.lat.size() << " sent, " << open_st.ok
              << " ok; latency p50 " << Median(open_st.lat) * 1e3
              << " ms, p90 " << Quantile(open_st.lat, 0.90) * 1e3
              << " ms, p99 " << Quantile(open_st.lat, 0.99) * 1e3
              << " ms; generator lag p99 "
              << Quantile(open_st.lag, 0.99) * 1e3 << " ms\n";
  }
  std::cout << "reload: " << plan.good << " good, " << plan.corrupt
            << " corrupt, " << rolled_back << " rolled back; swap lag p50 "
            << Median(swap_lag) * 1e3 << " ms\n";

  Report report;
  if (!args.trace) {
    report.Set("setup_s", Median(setups), "s");
    report.Set("lat_p50_ms", p50, "ms");
    report.Set("peak_rss_mb", rss, "MB");
    report.Set("ok_ratio", outcome.ok_ratio(), "ratio");
  } else {
    std::string json;
    {
      std::ifstream in(metrics_path);
      std::stringstream ss;
      ss << in.rdbuf();
      json = ss.str();
    }
    const double queue_ms =
        MetricField(json, "serve.queue_wait_seconds", "p50") * 1e3;
    const double scan_ms =
        MetricField(json, "serve.batch_scan_seconds", "p50") * 1e3;
    const double request_ms =
        MetricField(json, "serve.request_seconds", "p50") * 1e3;
    const double batch = MetricField(json, "serve.batch_size", "p50");
    // The export covers the warm-up and the closed loop, so the residual
    // compares it with the client's p50 over the same requests.
    std::vector<double> served = warm_st.lat;
    served.insert(served.end(), lat.begin(), lat.end());
    const double client_ms = Median(served) * 1e3;
    std::cout << "serve stages (server export over warm-up + closed loop, "
                 "p50): queue wait "
              << queue_ms << " ms, batch scan " << scan_ms << " ms, request "
              << request_ms << " ms, batch size " << batch
              << "; client p50 over the same requests " << client_ms
              << " ms, residual " << client_ms - request_ms << " ms\n";

    // The scan alone, driven in-process on the served arena: one query,
    // and a batch of the size the server coalesced.
    sisg::MatchingEngine engine;
    double scan1 = 0, scan_med = 0;
    const uint32_t med_batch =
        std::max<uint32_t>(1, static_cast<uint32_t>(std::lround(batch)));
    if (!Fail(LoadServingEngine(args.dir + "/base", true, &engine),
              "scan engine")) {
      const auto time_batch = [&](uint32_t size) {
        std::vector<uint32_t> items(size), ks(size, kK);
        std::vector<double> us;
        for (int rep = 0; rep < 50; ++rep) {
          for (uint32_t& it : items) {
            it = static_cast<uint32_t>(rng.UniformU64(kItems));
          }
          const double t0 = NowSeconds();
          const auto res =
              engine.QueryBatchCoalesced(items.data(), ks.data(), size);
          us.push_back((NowSeconds() - t0) * 1e6);
          if (res.size() != size) std::cerr << "short batch\n";
        }
        return Median(us);
      };
      scan1 = time_batch(1);
      scan_med = time_batch(med_batch);
    }
    // Computed, not measured: the int8 code block (64-byte padded rows plus
    // per-row scale and min) streams once per batch; each query then
    // re-reads its fp32 shortlist rows for the exact rerank.
    const double row_bytes = std::ceil(kDim / 64.0) * 64.0;
    const double shortlist = std::max(4.0 * kK, 32.0) + 1.0;
    const double bytes = kItems * (row_bytes + 8.0) +
                         med_batch * shortlist * kDim * 4.0;

    std::set<uint64_t> versions;
    for (const Request& q : r.requests) {
      if (q.answered && q.status == sisg::serve::WireStatus::kOk) {
        versions.insert(q.version);
      }
    }
    report.Set("serve.sent", static_cast<double>(sent), "count");
    report.Set("serve.ok", static_cast<double>(st.ok), "count");
    report.Set("serve.busy", static_cast<double>(st.busy), "count");
    report.Set("serve.deadline", static_cast<double>(st.deadline), "count");
    report.Set("serve.errors", static_cast<double>(st.errors), "count");
    report.Set("serve.client_p50_ms", p50, "ms");
    report.Set("serve.client_p90_ms", p90, "ms");
    report.Set("serve.client_p99_ms", p99, "ms");
    report.Set("serve.open_p50_ms", Median(open_st.lat) * 1e3, "ms");
    report.Set("serve.open_p90_ms", Quantile(open_st.lat, 0.90) * 1e3, "ms");
    report.Set("serve.open_p99_ms", Quantile(open_st.lat, 0.99) * 1e3, "ms");
    report.Set("serve.queue_wait_p50_ms", queue_ms, "ms");
    report.Set("serve.batch_scan_p50_ms", scan_ms, "ms");
    report.Set("serve.batch_size_p50", batch, "count");
    report.Set("serve.request_p50_ms", request_ms, "ms");
    report.Set("serve.residual_p50_ms", client_ms - request_ms, "ms");
    report.Set("core.scan_batch1_us", scan1, "us");
    report.Set("core.scan_batch_med_us", scan_med, "us");
    report.Set("core.scan_batch_size", med_batch, "count");
    report.Set("core.bytes_streamed_per_batch", bytes, "bytes");
    report.Set("reload.good_published", plan.good, "count");
    report.Set("reload.corrupt_published", plan.corrupt, "count");
    report.Set("reload.swap_lag_p50_ms", Median(swap_lag) * 1e3, "ms");
    report.Set("reload.swap_lag_max_ms", Quantile(swap_lag, 1.0) * 1e3,
               "ms");
    report.Set("reload.versions_seen", static_cast<double>(versions.size()),
               "count");
    report.Set("reload.rolled_back", static_cast<double>(rolled_back), "count");
    report.Set("driver.lag_p99_ms", Quantile(open_st.lag, 0.99) * 1e3, "ms");
    report.Set("host.calib_ms", calib, "ms");
  }
  if (tracer.enabled() &&
      !tracer.WriteJsonLines(args.dir + "/trace.jsonl")) {
    std::cerr << "cannot write " << args.dir << "/trace.jsonl\n";
  }
  const bool correct = outcome.correct();
  report.Print(correct, outcome.attempted, outcome.failed);
  return correct ? 0 : 1;
}

}  // namespace pipebench
