// Host-speed probe. On a shared host, other tenants contend for the physical
// core behind each virtual CPU, so the same session runs up to 50% slower for
// seconds at a time, and the slowdown differs from one virtual CPU to the
// next. The runner therefore pins itself to fixed CPUs (pin_process) and runs
// a HostProbe thread that time-shares those CPUs with the program: every
// kProbePeriod it runs a short, fixed burst of floating-point work on one of
// them in turn and records the burst's thread CPU time. The median burst time
// over an interval measures how fast those cores ran then; run.py scales the
// interval's timings by it. The burst is the benchmark's own code, so no
// change to the program moves it.
#pragma once

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "runner/trace.hpp"

namespace e2e {

// Pins the calling thread, and so every thread it starts afterwards, to the
// last `count` CPUs it may run on (all of them if it may run on fewer).
// Returns the CPUs.
std::vector<int> pin_process(int count);

// CPU time of the calling thread.
double thread_cpu_s();

class HostProbe {
 public:
  // Starts the probe thread; it visits `cpus` round-robin.
  explicit HostProbe(std::vector<int> cpus);
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  // Median burst time of the bursts started in [from, to]; when none did,
  // of the one nearest to the interval. Waits for the first burst.
  double median_s(Clock::time_point from, Clock::time_point to);

 private:
  struct Burst {
    Clock::time_point start;
    double cpu_s;
  };
  void loop();

  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable changed_;  // a burst recorded, or stop_ set
  std::vector<Burst> bursts_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace e2e
