// The nptsn_* command-line tools read every numeric flag strictly: a value
// that is not one whole decimal number in the flag's range is a usage error
// (exit 2) before any work starts, not the 0, 5 or SIZE_MAX that atoi, atof
// and strtoull would make of "abc", "5x" or "-1". Runs the real binaries,
// whose paths are compiled in as
// NPTSN_{SERVE,AUDIT,STRESS,BENCH_COMPARE,MICRO_ANALYZER}_BIN.
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace {

// Runs `binary args...` with stdout and stderr discarded; its exit status,
// or -1 when it did not exit normally.
int run(const char* binary, const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    std::vector<char*> argv = {const_cast<char*>(binary)};
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(binary, argv.data());
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(NumericFlags, ServeRejectsMalformedNumbersAsUsageErrors) {
  const std::vector<std::vector<std::string>> malformed = {
      {"--epochs", "abc", "ads"},       {"--epochs", "5x", "ads"},
      {"--epochs", "0", "ads"},         {"--steps", "", "ads"},
      {"--queue-capacity", "-1", "ads"}, {"--seed", "0x10", "ads"},
      {"--shards", "1.5", "ads"},       {"--session-wall", "nan", "ads"},
      {"--admission-timeout", "-2", "ads"}, {"--min-order", "4097", "ads"},
      {"--repeat", "2147483648", "ads"}, {"ads@high"},
      {"ads@"},                          {"ads@-2147483648"},
  };
  for (const auto& args : malformed) {
    EXPECT_EQ(run(NPTSN_SERVE_BIN, args), 2) << args.front() << " " << args.back();
  }
  // Well-formed numbers get past parsing: the missing problem file is an I/O
  // error (exit 3), reported before the service starts.
  EXPECT_EQ(run(NPTSN_SERVE_BIN, {"--epochs", "2", "--seed", "18446744073709551615",
                                  "--queue-capacity", "8", "--session-wall", "1.5e1",
                                  "ads@-3", "problem:/nonexistent/nptsn.problem"}),
            3);
}

TEST(NumericFlags, AuditRejectsMalformedNumbersAsUsageErrors) {
  const std::vector<std::string> base = {"--certificate", "/nonexistent/nptsn.cert",
                                         "--scenario", "ads"};
  for (const auto& [flag, value] : std::vector<std::pair<std::string, std::string>>{
           {"--flows", "3x"}, {"--flows", "-1"}, {"--flow-seed", "-1"},
           {"--budget", "fast"}, {"--deadline-ms", "-0.5"}, {"--deadline-ms", "inf"}}) {
    std::vector<std::string> args = base;
    args.push_back(flag);
    args.push_back(value);
    EXPECT_EQ(run(NPTSN_AUDIT_BIN, args), 2) << flag << " " << value;
  }
  std::vector<std::string> args = base;
  for (const char* arg : {"--flows", "3", "--budget", "0.5", "--deadline-ms", "250"}) {
    args.push_back(arg);
  }
  EXPECT_EQ(run(NPTSN_AUDIT_BIN, args), 3) << "the unreadable certificate";
}

TEST(NumericFlags, StressRejectsMalformedNumbersAsUsageErrors) {
  for (const auto& [flag, value] : std::vector<std::pair<std::string, std::string>>{
           {"--seed", "seven"}, {"--restarts", "0"}, {"--rounds", "4.0"},
           {"--top", "12 "}, {"--tick-budget", "-5"}, {"--min-order", "two"},
           {"--budget-scale", "0.5"}}) {
    EXPECT_EQ(run(NPTSN_STRESS_BIN, {"--replay", "/nonexistent", flag, value}), 2)
        << flag << " " << value;
  }
  EXPECT_EQ(run(NPTSN_STRESS_BIN, {"--replay", "/nonexistent", "--seed", "7", "--restarts",
                                   "2", "--budget-scale", "4"}),
            3)
      << "no corpus under the replay directory";
}

TEST(NumericFlags, BenchCompareRejectsMalformedThresholdsAsUsageErrors) {
  // A speedup that fell 2.0 -> 1.6 is 1.25x slower: inside a 1.3 threshold,
  // outside 1.2.
  const std::string stem = ::testing::TempDir() + "nptsn_bench_compare_" +
                           std::to_string(::getpid());
  const std::string baseline = stem + "_baseline.json";
  const std::string fresh = stem + "_fresh.json";
  std::ofstream(baseline) << R"({"speedup": 2.0})";
  std::ofstream(fresh) << R"({"speedup": 1.6})";

  for (const char* threshold : {"1.3x", "abc", "", "0.5", "-1.3", "inf", "nan", " 1.3"}) {
    EXPECT_EQ(run(NPTSN_BENCH_COMPARE_BIN, {"--threshold", threshold, baseline, fresh}), 2)
        << "--threshold '" << threshold << "'";
  }
  EXPECT_EQ(run(NPTSN_BENCH_COMPARE_BIN, {"--threshold", "1.3", baseline, fresh}), 0);
  EXPECT_EQ(run(NPTSN_BENCH_COMPARE_BIN, {"--threshold", "1.2", baseline, fresh}), 1);
  EXPECT_EQ(run(NPTSN_BENCH_COMPARE_BIN, {"--threshold", "1", baseline, baseline}), 0);
  std::remove(baseline.c_str());
  std::remove(fresh.c_str());
}

TEST(NumericFlags, MicroAnalyzerRejectsMalformedMaxordAsUsageError) {
  // atoi once made "2x" order 2, "abc" the non-sweep mode (exit 0), and a
  // trailing --maxord was ignored.
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"--maxord", "2x"}, {"--maxord", "abc"}, {"--maxord", ""}, {"--maxord", "-1"},
           {"--maxord", "9"}, {"--maxord", " 2"}, {"--fast", "--maxord"},
           {"--maxord", "2x", "--help"}}) {
    EXPECT_EQ(run(NPTSN_MICRO_ANALYZER_BIN, args), 2) << args[0] << " " << args[1];
  }
  // A well-formed order gets past parsing, to --help's usage line.
  EXPECT_EQ(run(NPTSN_MICRO_ANALYZER_BIN, {"--maxord", "2", "--help"}), 0);
}

}  // namespace
