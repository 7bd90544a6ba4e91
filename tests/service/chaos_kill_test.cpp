// Out-of-process chaos-kill harness (DESIGN.md §14): run the REAL
// nptsn_serve daemon, SIGKILL it at randomized journal/execution crash
// points (and once from the outside, mid-burst), restart it over the same
// journal, and audit the durability contract — zero lost acknowledged
// requests, zero double-answers, every request terminal after the re-run.
//
// The daemon binary path is compiled in as NPTSN_SERVE_BIN. Iteration count
// defaults low for local ctest; CI raises it via NPTSN_CHAOS_ITERS.
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/problem.hpp"
#include "service/crash_point.hpp"
#include "service/journal.hpp"
#include "testing/fault_injector.hpp"
#include "testing/test_problems.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

using nptsn::testing::corrupt_file_byte;
using nptsn::testing::tiny_problem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "nptsn_chaos_" + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct RunResult {
  bool exited = false;   // normal exit (vs killed by a signal)
  int exit_code = -1;    // valid when exited
  int term_signal = 0;   // valid when !exited
  std::string output;    // combined stdout+stderr
};

// fork/exec the serve daemon, optionally with NPTSN_CRASH_POINT and/or
// NPTSN_IO_FAULT planted, and optionally signalling it from outside after
// `signal_after_ms` (SIGKILL for the chaos kills; SIGUSR1 for the stats dump).
RunResult run_serve(const std::vector<std::string>& args, const std::string& crash_point,
                    int signal_after_ms = 0, int signal_to_send = SIGKILL,
                    const std::string& io_fault = "") {
  static int run_counter = 0;
  const std::string out_path =
      ::testing::TempDir() + "nptsn_chaos_out_" + std::to_string(::getpid()) + "_" +
      std::to_string(run_counter++) + ".log";

  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    if (crash_point.empty()) {
      ::unsetenv("NPTSN_CRASH_POINT");
    } else {
      ::setenv("NPTSN_CRASH_POINT", crash_point.c_str(), 1);
    }
    if (io_fault.empty()) {
      ::unsetenv("NPTSN_IO_FAULT");
    } else {
      ::setenv("NPTSN_IO_FAULT", io_fault.c_str(), 1);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(NPTSN_SERVE_BIN));
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(NPTSN_SERVE_BIN, argv.data());
    ::_exit(127);
  }

  if (signal_after_ms > 0) {
    ::usleep(static_cast<useconds_t>(signal_after_ms) * 1000);
    ::kill(pid, signal_to_send);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);

  RunResult result;
  if (WIFEXITED(status)) {
    result.exited = true;
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.term_signal = WTERMSIG(status);
  }
  std::ifstream in(out_path);
  result.output.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  std::remove(out_path.c_str());
  return result;
}

std::vector<std::string> serve_args(const std::string& journal_dir) {
  // Tiny budgets: the contract under test is durability, not plan quality.
  return {"--journal", journal_dir, "--epochs", "1",       "--steps",    "16",
          "--seed",    "7",         "gen:11:4:2", "gen:12:4:2"};
}

int occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

// Audits the journal after the recovery run: every request terminal (has a
// persisted answer), none live, and each answered exactly once in `output`.
void audit_journal(const std::string& dir, std::size_t expect_requests,
                   const std::string& output) {
  RequestJournal journal({dir});
  auto recovered = journal.take_recovered();
  ASSERT_EQ(recovered.size(), expect_requests) << "requests lost or duplicated";
  for (const auto& item : recovered) {
    EXPECT_TRUE(item.replay.has_value())
        << item.request.id << " is still live after a completed recovery run";
    // One result line per id: recovered-or-fresh, never both (no double
    // answer, no re-execution of an already-answered request).
    EXPECT_EQ(occurrences(output, "] " + item.request.id + ":"), 1) << output;
  }
}

TEST(ChaosKill, RandomizedCrashPointsLoseNoAcknowledgedRequest) {
  int iterations = 6;
  if (const char* env = std::getenv("NPTSN_CHAOS_ITERS")) {
    iterations = std::atoi(env);
    ASSERT_GT(iterations, 0);
  }
  const auto& points = known_crash_points();
  Rng rng(0xC4A05);
  int kills = 0;

  for (int iter = 0; iter < iterations; ++iter) {
    const std::string dir = fresh_dir("points_" + std::to_string(iter));
    const std::string point =
        points[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(points.size()) - 1))];
    const int at_hit = rng.uniform_int(1, 3);
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + point + "@" +
                 std::to_string(at_hit));

    const RunResult crashed =
        run_serve(serve_args(dir), point + "@" + std::to_string(at_hit));
    if (!crashed.exited) {
      // The planted point fired: the daemon died by SIGKILL mid-flight.
      EXPECT_EQ(crashed.term_signal, SIGKILL) << crashed.output;
      ++kills;
    } else {
      // The point never fired this run (e.g. compaction points below the
      // threshold): the run must then have completed normally.
      EXPECT_TRUE(crashed.exit_code == 0 || crashed.exit_code == 1) << crashed.output;
    }

    // "Restart with the same command line" — the documented recovery story.
    const RunResult recovered = run_serve(serve_args(dir), "");
    ASSERT_TRUE(recovered.exited) << "recovery run died";
    EXPECT_TRUE(recovered.exit_code == 0 || recovered.exit_code == 1)
        << "exit " << recovered.exit_code << "\n"
        << recovered.output;
    audit_journal(dir, 2, recovered.output);
    std::filesystem::remove_all(dir);
  }
  // The deterministic point sequence must actually exercise the kill path.
  EXPECT_GE(kills, 1);
}

TEST(ChaosKill, ExternalSigkillMidBurstRecoversEveryRequest) {
  const std::string dir = fresh_dir("midburst");
  // A burst big enough that an external kill lands mid-run.
  const std::vector<std::string> args = {"--journal", dir,          "--epochs",
                                         "4",         "--steps",    "64",
                                         "--seed",    "7",          "gen:11:4:2",
                                         "gen:12:4:2", "gen:13:4:2", "gen:14:4:2"};

  const RunResult killed = run_serve(args, "", /*signal_after_ms=*/300);
  if (!killed.exited) {
    EXPECT_EQ(killed.term_signal, SIGKILL);
  }
  // (If the machine was fast enough to finish in 300ms, the re-run below
  // still must replay everything — the audit holds either way.)

  const RunResult recovered = run_serve(args, "");
  ASSERT_TRUE(recovered.exited) << "recovery run died";
  EXPECT_TRUE(recovered.exit_code == 0 || recovered.exit_code == 1)
      << "exit " << recovered.exit_code << "\n"
      << recovered.output;
  audit_journal(dir, 4, recovered.output);
  std::filesystem::remove_all(dir);
}

// Environmental-fault composition (DESIGN.md §15): the REAL daemon runs with
// an I/O fault schedule armed from NPTSN_IO_FAULT — the same grammar the CI
// fault-soak job uses. The contract: the process NEVER dies of storage
// trouble (it degrades, sheds, or retries), and a heal run over the same
// journal converges to every request answered exactly once.
TEST(ChaosKill, EnvironmentalFaultsNeverKillTheDaemon) {
  const std::vector<std::string> faults = {
      "journal.append.fsync:EIO@1x2",       // transient hiccup: retried through
      "journal.append.write:EINTR@1x32",    // signal storm: absorbed
      "journal.append.write:SHORT@1x8",     // partial writes: looped over
      "journal.append.fsync:ENOSPC@2x-1",   // disk fills mid-burst: degrade
      "journal.*:ENOSPC@3x-1",              // disk fills anywhere: degrade
  };
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::string dir = fresh_dir("iofault_" + std::to_string(i));
    SCOPED_TRACE(faults[i]);

    const RunResult faulted = run_serve(serve_args(dir), "", 0, SIGKILL, faults[i]);
    // The whole point: a sick disk is an operational state, not a crash.
    ASSERT_TRUE(faulted.exited) << "daemon died of signal " << faulted.term_signal
                                << " under " << faults[i] << "\n"
                                << faulted.output;
    EXPECT_TRUE(faulted.exit_code == 0 || faulted.exit_code == 1)
        << "exit " << faulted.exit_code << "\n"
        << faulted.output;
    EXPECT_NE(faulted.output.find("fault(s) armed from NPTSN_IO_FAULT"),
              std::string::npos)
        << faulted.output;

    // Heal and restart with the same command line: shed requests run fresh,
    // surviving ones replay — either way, two answers, each exactly once.
    const RunResult healed = run_serve(serve_args(dir), "");
    ASSERT_TRUE(healed.exited) << "heal run died";
    EXPECT_TRUE(healed.exit_code == 0 || healed.exit_code == 1)
        << "exit " << healed.exit_code << "\n"
        << healed.output;
    audit_journal(dir, 2, healed.output);
    std::filesystem::remove_all(dir);
  }
}

// Satellite: SIGUSR1 makes the running daemon dump its operational stats —
// shard health, fault counters, journal segments — without disturbing the
// burst in flight.
TEST(ChaosKill, SigUsr1DumpsStatsWithoutDisruption) {
  const std::string dir = fresh_dir("sigusr1");
  const std::vector<std::string> args = {"--journal", dir,          "--epochs",
                                         "4",         "--steps",    "64",
                                         "--seed",    "7",          "gen:11:4:2",
                                         "gen:12:4:2", "gen:13:4:2", "gen:14:4:2"};

  const RunResult result = run_serve(args, "", /*signal_after_ms=*/100, SIGUSR1);
  ASSERT_TRUE(result.exited) << "daemon died of signal " << result.term_signal;
  EXPECT_TRUE(result.exit_code == 0 || result.exit_code == 1)
      << "exit " << result.exit_code << "\n"
      << result.output;
  EXPECT_NE(result.output.find("=== nptsn_serve stats ==="), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("=== end stats ==="), std::string::npos);
  EXPECT_NE(result.output.find("journal:"), std::string::npos);
  // The burst itself was not disturbed: all four requests answered once.
  audit_journal(dir, 4, result.output);
  std::filesystem::remove_all(dir);
}

// Satellite: the pending-request recovery path tolerates on-disk damage —
// one corrupt pending file is skipped with a warning, the rest of the
// backlog still runs.
TEST(ChaosKill, PendingDirSkipsCorruptFilesAndRunsTheRest) {
  const std::string dir = fresh_dir("pending");
  const auto write_pending = [&](const std::string& id) {
    PlanningRequest request;
    request.id = id;
    request.problem_bytes = problem_bytes(tiny_problem());
    ByteWriter out;  // mirror of nptsn_serve's pending-request payload (v2)
    out.str(request.id);
    out.str(request.label);
    out.i64(request.priority);
    out.i64(request.epochs);
    out.i64(request.steps_per_epoch);
    out.u64(request.seed);
    out.i64(request.max_attempts);
    out.blob(request.problem_bytes);
    const std::string path = dir + "/pending-" + id + ".req";
    save_checkpoint_file(path, /*kPendingRequestVersion=*/2, out.data());
    return path;
  };
  write_pending("survivor");
  corrupt_file_byte(write_pending("damaged"), 40);  // inside the payload

  const RunResult result = run_serve(
      {"--epochs", "1", "--steps", "16", "pending-dir:" + dir}, "");
  ASSERT_TRUE(result.exited);
  // Not a usage (2) or I/O (3) error: the damage was contained.
  EXPECT_TRUE(result.exit_code == 0 || result.exit_code == 1) << result.output;
  EXPECT_NE(result.output.find("skipping corrupt pending file"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("pending-damaged.req"), std::string::npos);
  EXPECT_EQ(occurrences(result.output, "] survivor:"), 1) << result.output;
  EXPECT_EQ(occurrences(result.output, "] damaged:"), 0) << result.output;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nptsn
