#include "util/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>

#include "util/parse_number.hpp"

namespace nptsn {
namespace io {
namespace {

// Fast-path gate: wrappers fall straight through to the raw syscall on one
// relaxed load while no fault is armed.
std::atomic<bool> g_armed{false};
std::atomic<std::int64_t> g_injected{0};

std::mutex g_mutex;  // guards the schedule and the per-site hit counters
std::vector<IoFault> g_schedule;
std::map<std::string, int> g_hits;

bool site_matches(const std::string& pattern, const char* site) {
  if (!pattern.empty() && pattern.back() == '*') {
    return std::strncmp(site, pattern.c_str(), pattern.size() - 1) == 0;
  }
  return pattern == site;
}

// Consults the schedule for one crossing of `site`. Returns true when a fault
// fires, with the errno to inject in *error (0 = short write).
bool should_fail(const char* site, bool is_write, int* error) {
  if (!g_armed.load(std::memory_order_relaxed)) return false;
  std::lock_guard lock(g_mutex);
  if (g_schedule.empty()) return false;
  const int hit = ++g_hits[site];
  for (const IoFault& fault : g_schedule) {
    if (!site_matches(fault.site, site)) continue;
    if (hit < fault.at_hit) continue;
    if (fault.count >= 0 && hit >= fault.at_hit + fault.count) continue;
    if (fault.error == 0 && !is_write) continue;  // short write needs a write
    *error = fault.error;
    g_injected.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

struct ErrnoName {
  const char* name;
  int value;
};

constexpr ErrnoName kErrnoNames[] = {
    {"ENOSPC", ENOSPC}, {"EIO", EIO},       {"EMFILE", EMFILE},
    {"ENFILE", ENFILE}, {"EINTR", EINTR},   {"EAGAIN", EAGAIN},
    {"EDQUOT", EDQUOT}, {"EROFS", EROFS},   {"ENOMEM", ENOMEM},
    {"ENOBUFS", ENOBUFS}, {"ENODEV", ENODEV}, {"EBADF", EBADF},
    {"SHORT", 0},
};

// "ENOSPC" / "SHORT" / "28" -> errno value; -1 on garbage.
int parse_errno(const std::string& text) {
  for (const ErrnoName& entry : kErrnoNames) {
    if (text == entry.name) return entry.value;
  }
  return parse_decimal(text, 0, INT_MAX).value_or(-1);
}

// SITE:ERRNO[@HIT][xCOUNT] -> IoFault; false on garbage. Every number is one
// whole decimal (parse_decimal), so "@2junk" arms nothing rather than hit 2.
bool parse_fault(const std::string& spec, IoFault* fault) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  fault->site = spec.substr(0, colon);
  std::string rest = spec.substr(colon + 1);

  fault->at_hit = 1;
  fault->count = 1;
  const std::size_t x = rest.rfind('x');
  if (x != std::string::npos) {
    // A negative count is forever; 0 would never fire.
    const std::optional<int> count =
        parse_decimal(std::string_view(rest).substr(x + 1), INT_MIN, INT_MAX);
    if (!count || *count == 0) return false;
    fault->count = *count;
    rest.resize(x);
  }
  const std::size_t at = rest.rfind('@');
  if (at != std::string::npos) {
    const std::optional<int> at_hit =
        parse_decimal(std::string_view(rest).substr(at + 1), 1, INT_MAX);
    if (!at_hit) return false;
    fault->at_hit = *at_hit;
    rest.resize(at);
  }
  const int error = parse_errno(rest);
  if (error < 0) return false;
  fault->error = error;
  return true;
}

}  // namespace

int open(const char* site, const char* path, int flags, unsigned int mode) {
  int error = 0;
  if (should_fail(site, /*is_write=*/false, &error)) {
    errno = error == 0 ? EIO : error;
    return -1;
  }
  return ::open(path, flags, mode);
}

ssize_t write(const char* site, int fd, const void* buf, std::size_t count) {
  int error = 0;
  if (should_fail(site, /*is_write=*/true, &error)) {
    if (error == 0) {
      // Short write: consume at most half, at least one byte, and report it —
      // a success the caller must notice and loop over.
      const std::size_t short_count = count > 1 ? count / 2 : count;
      return ::write(fd, buf, short_count);
    }
    errno = error;
    return -1;
  }
  return ::write(fd, buf, count);
}

ssize_t pwrite(const char* site, int fd, const void* buf, std::size_t count,
               off_t offset) {
  int error = 0;
  if (should_fail(site, /*is_write=*/true, &error)) {
    if (error == 0) {
      const std::size_t short_count = count > 1 ? count / 2 : count;
      return ::pwrite(fd, buf, short_count, offset);
    }
    errno = error;
    return -1;
  }
  return ::pwrite(fd, buf, count, offset);
}

int fsync(const char* site, int fd) {
  int error = 0;
  if (should_fail(site, /*is_write=*/false, &error)) {
    errno = error == 0 ? EIO : error;
    return -1;
  }
  return ::fsync(fd);
}

int rename(const char* site, const char* from, const char* to) {
  int error = 0;
  if (should_fail(site, /*is_write=*/false, &error)) {
    errno = error == 0 ? EIO : error;
    return -1;
  }
  return ::rename(from, to);
}

int close(const char* site, int fd) {
  int error = 0;
  if (should_fail(site, /*is_write=*/false, &error)) {
    // A close failure still closes the descriptor on Linux; mirror that so an
    // injected fault cannot leak fds through the very paths it stresses.
    ::close(fd);
    errno = error == 0 ? EIO : error;
    return -1;
  }
  return ::close(fd);
}

int unlink(const char* site, const char* path) {
  int error = 0;
  if (should_fail(site, /*is_write=*/false, &error)) {
    errno = error == 0 ? EIO : error;
    return -1;
  }
  return ::unlink(path);
}

int write_all(const char* site, int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = write(site, fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    off += static_cast<std::size_t>(n);
  }
  return 0;
}

IoErrorClass classify_io_errno(int err) {
  switch (err) {
    case ENOSPC:
    case EDQUOT:
    case EROFS:
    case ENODEV:
    case EBADF:
      return IoErrorClass::kPersistent;
    default:
      // EINTR, EAGAIN, EIO, EMFILE, ENFILE, ENOMEM, ENOBUFS, and anything
      // unrecognized: give the environment a bounded chance to recover. A
      // fault that keeps firing through the retry budget is escalated to
      // persistent by the caller, so misclassifying an exotic errno as
      // transient costs a few retries, never correctness.
      return IoErrorClass::kTransient;
  }
}

const char* to_string(IoErrorClass cls) {
  return cls == IoErrorClass::kTransient ? "transient" : "persistent";
}

void arm_io_fault(const IoFault& fault) {
  std::lock_guard lock(g_mutex);
  g_schedule.push_back(fault);
  g_armed.store(true, std::memory_order_relaxed);
}

void disarm_io_faults() {
  std::lock_guard lock(g_mutex);
  g_schedule.clear();
  g_hits.clear();
  g_injected.store(0, std::memory_order_relaxed);
  g_armed.store(false, std::memory_order_relaxed);
}

int arm_io_faults_from_env() {
  const char* spec = std::getenv("NPTSN_IO_FAULT");
  if (spec == nullptr || *spec == '\0') return 0;
  int armed = 0;
  std::string text = spec;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t semi = text.find(';', start);
    if (semi == std::string::npos) semi = text.size();
    const std::string part = text.substr(start, semi - start);
    if (!part.empty()) {
      IoFault fault;
      if (parse_fault(part, &fault)) {
        arm_io_fault(fault);
        ++armed;
      }
    }
    start = semi + 1;
  }
  return armed;
}

std::int64_t io_faults_injected() {
  return g_injected.load(std::memory_order_relaxed);
}

const std::vector<std::string>& known_io_sites() {
  static const std::vector<std::string> sites = {
      // journal append path
      "journal.segment.open",     // new active segment creation
      "journal.append.write",     // record bytes landing in the active segment
      "journal.append.fsync",     // the durability barrier of every append
      "journal.segment.close",    // sealing a full segment (deferred errors)
      "journal.dir.open",         // directory fd for the rename barrier
      "journal.dir.fsync",        // directory-entry durability
      // journal compaction path
      "journal.compact.open",     // snapshot tmp creation
      "journal.compact.write",    // snapshot body
      "journal.compact.fsync",    // snapshot durability
      "journal.compact.close",
      "journal.compact.rename",   // atomic publish
      "journal.compact.unlink",   // history cleanup
      // checkpoint writer (trainer state, pending requests, corpus entries)
      "checkpoint.open",
      "checkpoint.write",
      "checkpoint.fsync",
      "checkpoint.close",
      "checkpoint.rename",
      "checkpoint.dir.open",
      "checkpoint.dir.fsync",
      // durability probe of the degraded-mode re-arm path
      "journal.probe.fsync",
  };
  return sites;
}

}  // namespace io
}  // namespace nptsn
