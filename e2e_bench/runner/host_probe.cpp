#include "runner/host_probe.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <ctime>

namespace e2e {

namespace {

// One burst is about 8 ms on a 2.0 GHz x86-64 core; one every kProbePeriod
// takes under 10% of a CPU.
constexpr int kArithmeticRounds = 2000000;
constexpr std::size_t kSweepFloats = std::size_t{1} << 18;  // 1 MiB: fits a core's L2
constexpr int kSweeps = 200;
constexpr auto kProbePeriod = std::chrono::milliseconds(100);

volatile float g_sink;

// Throughput-bound floating-point work in eight independent vector-wide
// chains: first on registers, then streaming a buffer the size of a core's L2.
// The burst's time tracks what a co-scheduled tenant takes from the program's
// kernels: the core's arithmetic throughput and its private caches.
__attribute__((noinline)) void burst(const std::vector<float>& sweep) {
  float acc[64];
  float add[64];
  for (int i = 0; i < 64; ++i) {
    acc[i] = 0.0f;
    add[i] = 1e-3f * static_cast<float>(i);
  }
  for (int round = 0; round < kArithmeticRounds; ++round) {
    for (int i = 0; i < 64; ++i) acc[i] = acc[i] * 0.999f + add[i];
  }
  for (int pass = 0; pass < kSweeps; ++pass) {
    for (std::size_t j = 0; j < sweep.size(); j += 64) {
      for (int i = 0; i < 64; ++i) acc[i] = acc[i] * 0.999f + sweep[j + static_cast<std::size_t>(i)];
    }
  }
  float sum = 0.0f;
  for (const float a : acc) sum += a;
  g_sink = sum;
}

void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

std::vector<int> pin_process(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (static_cast<int>(cpus.size()) > count) cpus.erase(cpus.begin(), cpus.end() - count);
  if (!cpus.empty()) pin_thread(cpus);
  return cpus;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

HostProbe::HostProbe(std::vector<int> cpus) : cpus_(std::move(cpus)) {
  thread_ = std::thread([this] { loop(); });
}

HostProbe::~HostProbe() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  changed_.notify_all();
  thread_.join();
}

void HostProbe::loop() {
  const auto step = kProbePeriod / static_cast<int>(std::max<std::size_t>(cpus_.size(), 1));
  const std::vector<float> sweep(kSweepFloats, 1e-3f);
  for (std::size_t k = 0;; ++k) {
    if (!cpus_.empty()) pin_thread({cpus_[k % cpus_.size()]});
    const auto start = Clock::now();
    const double cpu0 = thread_cpu_s();
    burst(sweep);
    const double cpu = thread_cpu_s() - cpu0;
    std::unique_lock<std::mutex> lock(mutex_);
    bursts_.push_back({start, cpu});
    changed_.notify_all();
    if (changed_.wait_until(lock, start + step, [this] { return stop_; })) return;
  }
}

double HostProbe::median_s(Clock::time_point from, Clock::time_point to) {
  std::unique_lock<std::mutex> lock(mutex_);
  changed_.wait(lock, [this] { return !bursts_.empty(); });
  std::vector<double> inside;
  for (const Burst& b : bursts_) {
    if (b.start >= from && b.start <= to) inside.push_back(b.cpu_s);
  }
  if (inside.empty()) {
    const auto distance = [&](const Burst& b) {
      return b.start < from ? from - b.start : b.start - to;
    };
    inside.push_back(std::min_element(bursts_.begin(), bursts_.end(),
                                      [&](const Burst& a, const Burst& b) {
                                        return distance(a) < distance(b);
                                      })
                         ->cpu_s);
  }
  std::nth_element(inside.begin(), inside.begin() + inside.size() / 2, inside.end());
  return inside[inside.size() / 2];
}

}  // namespace e2e
