#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "common/simd.h"
#include "core/matching_engine.h"

namespace pipebench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int64_t Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const auto index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  spans_[index].start_ns = NowNs();
  return index;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::AddRoot(const std::string& name, uint64_t start_ns,
                     uint64_t end_ns, int64_t request) {
  if (!enabled_) return;
  spans_.push_back(Span{name, start_ns, end_ns, -1, request});
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
  }
  // Children of one parent run one after another on the driver thread, so
  // subtracting their durations removes exactly the covered interval.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[s.parent] -= static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

unsigned HostCores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

double CalibrateMillis() {
  // A fixed dependent integer chain: no memory traffic, no allocation, so
  // its time moves only with the core's clock and with competing load.
  const double t0 = NowSeconds();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = (NowSeconds() - t0) * 1e3;
  // Keeps the loop observable.
  if (x == 42) std::fprintf(stderr, "calibration sentinel\n");
  return ms;
}

double PrintHostTag() {
  const double calib = CalibrateMillis();
#if defined(__clang__)
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::cout << "host: nproc=" << HostCores() << " simd="
            << sisg::SimdLevelName(sisg::GetSimdOps().level) << " compiler=\""
            << compiler << " " << __VERSION__ << "\" build="
            << PIPEBENCH_BUILD_TYPE << " calib_ms=" << calib << "\n";
  return calib;
}

KeepAwake::KeepAwake(unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      // Never spin at normal priority: that would compete with the server.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

void KeepAwake::Stop() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + (pid == 0 ? std::string("self")
                                         : std::to_string(pid)) +
                   "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

uint64_t HashFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  uint64_t h = 0xcbf29ce484222325ULL;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

bool Fail(const sisg::Status& st, const std::string& what) {
  if (st.ok()) return false;
  std::cerr << what << ": " << st.ToString() << "\n";
  return true;
}

sisg::Status LoadServingEngine(const std::string& prefix, bool use_mmap,
                               sisg::MatchingEngine* engine) {
  SISG_RETURN_IF_ERROR(engine->LoadArena(prefix + ".arena", use_mmap));
  return engine->EnableInt8FromFile(prefix + ".qarena", use_mmap);
}

bool SameAnswers(const std::vector<sisg::ScoredId>& a,
                 const std::vector<sisg::ScoredId>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  }
  return true;
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    char num[64];
    // All digits; JSON has no infinity, so an unmeasurable value prints as
    // a huge finite number instead of breaking the line.
    const double x = std::isfinite(v.value)
                         ? v.value
                         : std::numeric_limits<double>::max();
    std::snprintf(num, sizeof(num), "%.17g", x);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void Outcome::Fail(const std::string& why) {
  ++attempted;
  if (++failed <= 10) std::cerr << "CHECK FAILED: " << why << "\n";
}

}  // namespace pipebench
