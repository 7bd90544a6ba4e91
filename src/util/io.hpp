// Injectable I/O layer: every durability-bearing syscall in the repo goes
// through these wrappers so the environmental-fault soak can drive the real
// error paths (DESIGN.md §15).
//
// The crash-point harness (service/crash_point.hpp) proves the journal
// survives a DEAD PROCESS; this layer exists to prove the service survives a
// SICK ENVIRONMENT — a disk that fills (ENOSPC), a controller that hiccups
// (EIO), a process that exhausts file descriptors (EMFILE), a signal storm
// (EINTR), a kernel that writes fewer bytes than asked. Each wrapper names
// its call SITE ("journal.append.write", "checkpoint.fsync", ...); an armed
// fault schedule matches sites by name, counts crossings, and makes the
// wrapped syscall fail with a chosen errno — deterministically, so a seeded
// soak reproduces the same fault sequence on any machine.
//
// Fault kinds:
//   * errno faults: the call returns -1 with the scheduled errno for `count`
//     consecutive crossings starting at `at_hit` (count < 0 = forever — a
//     persistent fault, e.g. a full disk that never heals on its own);
//   * EINTR storms: an errno fault with error == EINTR; well-written callers
//     retry through it, and the soak verifies they all do;
//   * short writes: write/pwrite consume roughly half the buffer and report
//     the truncated byte count — not an error at all, which is exactly why
//     unlooped ::write calls are bugs.
//
// Disarmed cost: one relaxed atomic load per call (same discipline as
// crash_point). Nothing in production arms a fault: arming happens only in
// tests or via the NPTSN_IO_FAULT environment variable planted by the soak
// harness around a real daemon.
//
// Error classification (classify_io_errno) is the shared vocabulary of the
// degraded-mode machinery: TRANSIENT errors deserve a bounded retry with
// backoff (the storm passes), PERSISTENT ones mean the environment itself is
// broken and the caller must degrade — stop promising durability, keep
// serving, and probe for healing — instead of dying.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace nptsn {
namespace io {

// --- wrapped syscalls --------------------------------------------------------
// Identical contracts to the raw syscalls (including errno on failure); the
// only addition is the site name the fault scheduler matches against. None of
// them retry internally — retry policy belongs to the caller, which is the
// behaviour under test.

int open(const char* site, const char* path, int flags, unsigned int mode = 0);
ssize_t write(const char* site, int fd, const void* buf, std::size_t count);
ssize_t pwrite(const char* site, int fd, const void* buf, std::size_t count,
               off_t offset);
int fsync(const char* site, int fd);
int rename(const char* site, const char* from, const char* to);
int close(const char* site, int fd);
int unlink(const char* site, const char* path);

// Writes the whole buffer, absorbing EINTR and short writes; returns 0 on
// success or the errno of the write that failed. The buffer may be PARTIALLY
// written on failure — for framed append-only files that is a torn tail the
// caller must abandon (rotate segments), never append after.
int write_all(const char* site, int fd, const std::uint8_t* data, std::size_t size);

// --- fault classification ----------------------------------------------------

enum class IoErrorClass {
  kTransient,   // bounded retry with backoff is worth it (EINTR, EAGAIN,
                // EMFILE/ENFILE fd pressure, EIO hiccups, ENOMEM/ENOBUFS)
  kPersistent,  // retrying cannot help until the environment changes
                // (ENOSPC, EDQUOT, EROFS, ENODEV, EBADF logic errors)
};
IoErrorClass classify_io_errno(int err);
const char* to_string(IoErrorClass cls);

// --- fault injection ---------------------------------------------------------

struct IoFault {
  // Site to target. Exact match, or a prefix ending in '*' ("journal.*").
  std::string site;
  int error = 0;        // errno to inject; 0 = short write (write/pwrite only)
  int at_hit = 1;       // 1-based crossing of `site` at which to start firing
  int count = 1;        // consecutive crossings that fire; < 0 = forever
};

// Arms one fault (appended to the schedule; several can be live at once, e.g.
// an EINTR storm on writes plus ENOSPC on fsync). Thread-safe.
void arm_io_fault(const IoFault& fault);
// Clears the whole schedule and every site hit counter.
void disarm_io_faults();

// Reads NPTSN_IO_FAULT and arms accordingly. Grammar, ';'-separated:
//   SITE:ERRNO[@HIT][xCOUNT]
// where ERRNO is a symbolic name (ENOSPC, EIO, EMFILE, EINTR, EAGAIN, ...) or
// a number, or SHORT for a short write. HIT (>= 1), COUNT (nonzero; < 0 =
// forever) and a numeric ERRNO are whole decimal numbers: a part with a
// malformed one ("@2junk") arms nothing. Examples:
//   journal.append.fsync:ENOSPC@3x-1   third fsync onward fails with ENOSPC
//   checkpoint.write:EINTR@1x16        a 16-deep EINTR storm
//   journal.*:EIO@2                    one EIO on the second journal syscall
// Returns the number of faults armed (0 when unset/empty/unparseable).
int arm_io_faults_from_env();

// Total faults injected since the last disarm — soak assertions use this to
// prove the schedule actually fired.
std::int64_t io_faults_injected();

// The compiled-in site names, for harnesses that enumerate (errno x site).
// Sites are registered at first crossing too, but this list is the stable
// documented set the CI matrix iterates.
const std::vector<std::string>& known_io_sites();

}  // namespace io
}  // namespace nptsn
