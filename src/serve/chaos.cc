#include "serve/chaos.h"

#include <cstdlib>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/io_util.h"
#include "common/net_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/matching_engine.h"
#include "serve/client.h"
#include "serve/wire.h"

namespace sisg::serve {

namespace {

/// Bounded per-attack socket budget: an attack must never wedge the worker
/// loop, even against a server that stops reading.
constexpr uint32_t kAttackIoTimeoutMs = 2000;

enum class Attack : uint32_t {
  kDisconnect,
  kGarbage,
  kTruncate,
  kSlowloris,
  kChurn,
};

/// Opens a raw attack connection with bounded timeouts; returns -1 when the
/// server refuses (counted by the caller as a failed probe only if probes
/// fail too — a refused attack is not a server defect).
int OpenAttackSocket(const std::string& host, uint16_t port) {
  int fd = -1;
  if (!ConnectTcp(host, port, &fd, kAttackIoTimeoutMs).ok()) return -1;
  if (!SetSocketTimeouts(fd, kAttackIoTimeoutMs, kAttackIoTimeoutMs).ok()) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void BestEffortWrite(int fd, const void* data, size_t n) {
  (void)WriteAllBlocking(fd, data, n);  // the peer closing mid-write is fine
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace

StatusOr<ChaosPlan> ChaosPlan::Parse(const std::string& spec) {
  ChaosPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq != std::string::npos) {
      const std::string key = entry.substr(0, eq);
      const std::string value = entry.substr(eq + 1);
      if (key == "seed") {
        if (!ParseU64(value, &plan.seed)) {
          return Status::InvalidArgument("chaos plan: bad seed '" + value +
                                         "'");
        }
      } else {
        return Status::InvalidArgument("chaos plan: unknown key '" + key +
                                       "'");
      }
      continue;
    }
    if (entry == "all") {
      plan.mid_frame_disconnect = plan.garbage_frames =
          plan.truncated_frames = plan.slowloris = plan.connection_churn =
              true;
    } else if (entry == "disconnect") {
      plan.mid_frame_disconnect = true;
    } else if (entry == "garbage") {
      plan.garbage_frames = true;
    } else if (entry == "truncate") {
      plan.truncated_frames = true;
    } else if (entry == "slowloris") {
      plan.slowloris = true;
    } else if (entry == "churn") {
      plan.connection_churn = true;
    } else {
      return Status::InvalidArgument("chaos plan: unknown mode '" + entry +
                                     "'");
    }
  }
  return plan;
}

std::string ChaosPlan::ToString() const {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (mid_frame_disconnect) add("disconnect");
  if (garbage_frames) add("garbage");
  if (truncated_frames) add("truncate");
  if (slowloris) add("slowloris");
  if (connection_churn) add("churn");
  if (out.empty()) out = "none";
  return out + ",seed=" + std::to_string(seed);
}

void RunChaosWorker(const std::string& host, uint16_t port,
                    const ChaosPlan& plan, uint32_t num_items,
                    uint64_t deadline_ns, uint64_t worker_id,
                    ChaosStats* stats) {
  std::vector<Attack> modes;
  if (plan.mid_frame_disconnect) modes.push_back(Attack::kDisconnect);
  if (plan.garbage_frames) modes.push_back(Attack::kGarbage);
  if (plan.truncated_frames) modes.push_back(Attack::kTruncate);
  if (plan.slowloris) modes.push_back(Attack::kSlowloris);
  if (plan.connection_churn) modes.push_back(Attack::kChurn);
  if (modes.empty() || num_items == 0) return;

  Rng rng(plan.seed ^ (worker_id * 0x9e3779b97f4a7c15ULL));
  while (MonotonicNanos() < deadline_ns) {
    const Attack attack = modes[rng.UniformU64(modes.size())];
    stats->attacks.fetch_add(1, std::memory_order_relaxed);
    switch (attack) {
      case Attack::kDisconnect: {
        // A well-formed query frame cut off mid-payload, then hangup: the
        // server must simply discard the partial frame with the connection.
        const int fd = OpenAttackSocket(host, port);
        if (fd < 0) break;
        QueryRequest req;
        req.request_id = rng.Next();
        req.item = static_cast<uint32_t>(rng.UniformU64(num_items));
        req.k = 10;
        std::string frame;
        EncodeQuery(req, &frame);
        const size_t cut = kFrameHeaderBytes +
                           rng.UniformU64(frame.size() - kFrameHeaderBytes);
        BestEffortWrite(fd, frame.data(), cut);
        ::close(fd);
        stats->disconnects.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case Attack::kGarbage: {
        // Random bytes: almost surely a bad magic — a typed protocol error
        // and a clean close, never a crash or a partial decode.
        const int fd = OpenAttackSocket(host, port);
        if (fd < 0) break;
        uint8_t junk[64];
        const size_t n = 1 + rng.UniformU64(sizeof(junk));
        for (size_t i = 0; i < n; ++i) {
          junk[i] = static_cast<uint8_t>(rng.Next());
        }
        BestEffortWrite(fd, junk, n);
        ::close(fd);
        stats->garbage.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case Attack::kTruncate: {
        // A valid header whose declared payload never arrives (or an
        // oversized declared length): either parks as a partial frame until
        // idle eviction, or poisons the stream immediately.
        const int fd = OpenAttackSocket(host, port);
        if (fd < 0) break;
        QueryRequest req;
        req.request_id = rng.Next();
        req.item = 0;
        req.k = 1;
        std::string frame;
        EncodeQuery(req, &frame);
        if (rng.Bernoulli(0.5)) {
          // Oversized declared length -> immediate typed rejection.
          const uint32_t huge = kMaxPayloadBytes + 1 +
                                static_cast<uint32_t>(rng.UniformU64(1 << 20));
          frame.replace(4, 4, reinterpret_cast<const char*>(&huge), 4);
          BestEffortWrite(fd, frame.data(), kFrameHeaderBytes);
        } else {
          // Honest header, missing payload bytes.
          BestEffortWrite(fd, frame.data(),
                          kFrameHeaderBytes + rng.UniformU64(8));
        }
        ::close(fd);
        stats->truncated.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case Attack::kSlowloris: {
        // One byte at a time with stalls: the idle sweep must evict the
        // connection rather than let it pin a slot forever.
        const int fd = OpenAttackSocket(host, port);
        if (fd < 0) break;
        QueryRequest req;
        req.request_id = rng.Next();
        req.item = static_cast<uint32_t>(rng.UniformU64(num_items));
        req.k = 5;
        std::string frame;
        EncodeQuery(req, &frame);
        const size_t dribble = 4 + rng.UniformU64(frame.size() - 4);
        for (size_t i = 0; i < dribble && MonotonicNanos() < deadline_ns;
             ++i) {
          BestEffortWrite(fd, frame.data() + i, 1);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ::close(fd);
        stats->slowloris.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case Attack::kChurn: {
        // Connect/close storms: accepts and frees must balance under load.
        const uint64_t n = 2 + rng.UniformU64(6);
        for (uint64_t i = 0; i < n; ++i) {
          const int fd = OpenAttackSocket(host, port);
          if (fd >= 0) ::close(fd);
        }
        stats->churns.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }

    // After every attack: one honest probe on a fresh connection. The
    // server surviving abuse means exactly this keeps succeeding.
    ClientOptions copt;
    copt.connect_timeout_ms = kAttackIoTimeoutMs;
    copt.io_timeout_ms = kAttackIoTimeoutMs;
    auto client = ServeClient::Connect(host, port, copt);
    bool ok = false;
    if (client.ok()) {
      QueryResponse resp;
      const uint32_t item = static_cast<uint32_t>(rng.UniformU64(num_items));
      const Status st = client->Query(item, 10, &resp);
      // BUSY / DEADLINE / SHUTTING_DOWN are healthy typed answers under
      // load; only transport/protocol failures count against the server.
      ok = st.ok();
    }
    stats->probes_ok.fetch_add(ok ? 1 : 0, std::memory_order_relaxed);
    stats->probes_failed.fetch_add(ok ? 0 : 1, std::memory_order_relaxed);
  }
}

StatusOr<MatchingEngine> BuildSynthEngine(uint32_t items, uint32_t dim,
                                          uint64_t seed) {
  if (items == 0 || dim == 0) {
    return Status::InvalidArgument("synth engine: items and dim must be > 0");
  }
  Rng rng(seed);
  std::vector<float> in(static_cast<size_t>(items) * dim);
  for (float& v : in) v = static_cast<float>(rng.Gaussian());
  MatchingEngine engine;
  SISG_RETURN_IF_ERROR(engine.Build(std::move(in), {}, items, dim,
                                    SimilarityMode::kCosineInput));
  return engine;
}

Status PublishSynthArena(const std::string& dir, const std::string& token,
                         uint32_t items, uint32_t dim, uint64_t seed,
                         bool with_int8) {
  SISG_ASSIGN_OR_RETURN(MatchingEngine engine,
                        BuildSynthEngine(items, dim, seed));
  // Artifacts first...
  SISG_RETURN_IF_ERROR(engine.SaveArena(dir + "/" + token + ".arena"));
  if (with_int8) {
    SISG_RETURN_IF_ERROR(engine.EnableInt8());
    SISG_RETURN_IF_ERROR(engine.SaveInt8(dir + "/" + token + ".qarena"));
  }
  // ...pointer last, atomically: a reloader polling mid-publish sees either
  // the old complete version or the new complete version, never a torn one.
  return WriteFileAtomic(dir + "/LATEST", token + "\n");
}

}  // namespace sisg::serve
