#include "service/crash_point.hpp"

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <mutex>
#include <optional>
#include <string_view>

#include "util/parse_number.hpp"

namespace nptsn {
namespace {

// Fast-path gate: crash_point() bails on one relaxed load while disarmed.
std::atomic<bool> g_armed{false};

std::mutex g_mutex;  // guards everything below
std::string g_name;
int g_at_hit = 0;
int g_hits = 0;
std::function<void(const char*)> g_hook;

}  // namespace

void crash_point(const char* name) {
  if (!g_armed.load(std::memory_order_relaxed)) return;

  std::function<void(const char*)> hook;
  {
    std::lock_guard lock(g_mutex);
    if (g_at_hit <= 0 || g_name != name) return;
    if (++g_hits != g_at_hit) return;
    hook = g_hook;
  }
  if (hook) {
    hook(name);
    return;
  }
  // Die the hard way: no unwinding, no atexit, no buffered-stream flushing
  // beyond this diagnostic — the closest user-space stand-in for power loss.
  std::fprintf(stderr, "crash point fired: %s\n", name);
  std::fflush(stderr);
  ::raise(SIGKILL);
  std::abort();  // unreachable unless SIGKILL is somehow blocked
}

void arm_crash_point(const std::string& name, int at_hit) {
  std::lock_guard lock(g_mutex);
  g_name = name;
  g_at_hit = at_hit;
  g_hits = 0;
  g_armed.store(at_hit > 0, std::memory_order_relaxed);
}

void disarm_crash_points() {
  std::lock_guard lock(g_mutex);
  g_name.clear();
  g_at_hit = 0;
  g_hits = 0;
  g_armed.store(false, std::memory_order_relaxed);
}

bool arm_crash_point_from_env() {
  const char* spec = std::getenv("NPTSN_CRASH_POINT");
  if (spec == nullptr || *spec == '\0') return false;
  std::string name = spec;
  int at_hit = 1;
  const std::size_t at = name.rfind('@');
  if (at != std::string::npos) {
    // One whole decimal >= 1: "@2x" arms nothing rather than hit 2.
    const std::optional<int> hit =
        parse_decimal(std::string_view(name).substr(at + 1), 1, INT_MAX);
    if (!hit) return false;
    at_hit = *hit;
    name.resize(at);
  }
  if (name.empty()) return false;
  arm_crash_point(name, at_hit);
  return true;
}

void set_crash_point_hook(std::function<void(const char*)> hook) {
  std::lock_guard lock(g_mutex);
  g_hook = std::move(hook);
}

const std::vector<std::string>& known_crash_points() {
  static const std::vector<std::string> points = {
      "journal.append.before_write",   // record not yet on disk
      "journal.append.after_write",    // written but not fsynced (torn-tail risk)
      "journal.append.after_fsync",    // durable, caller not yet told
      "journal.compact.before_publish",  // snapshot tmp written, not renamed
      "journal.compact.after_publish",   // snapshot live, old segments remain
      "journal.compact.after_cleanup",   // compaction complete
      "service.accept.after_journal",  // kAccepted durable, not yet queued
      "service.start.after_journal",   // kStarted durable, session not yet run
      "service.terminal.before_journal",  // session finished, terminal not durable
      "service.answer.before_set",     // terminal durable, promise not yet set
  };
  return points;
}

}  // namespace nptsn
