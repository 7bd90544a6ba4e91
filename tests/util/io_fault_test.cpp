// Unit tests for the injectable I/O layer (util/io.hpp): site matching and
// hit scheduling, errno faults, EINTR storms, short writes, the NPTSN_IO_FAULT
// grammar, and the transient/persistent errno classification the degraded-mode
// machinery is built on.
#include "util/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace nptsn {
namespace {

class IoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { io::disarm_io_faults(); }
  void TearDown() override {
    io::disarm_io_faults();
    ::unsetenv("NPTSN_IO_FAULT");
  }

  // A real scratch file, so the wrappers' pass-through path is exercised too.
  int open_scratch() {
    path_ = ::testing::TempDir() + "nptsn_io_fault_scratch_" + std::to_string(::getpid());
    std::filesystem::remove(path_);
    const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    EXPECT_GE(fd, 0);
    return fd;
  }

  std::string path_;
};

const std::uint8_t kPayload[] = {1, 2, 3, 4, 5, 6, 7, 8};

TEST_F(IoFaultTest, DisarmedCallsPassThrough) {
  const int fd = open_scratch();
  EXPECT_EQ(io::write_all("t.write", fd, kPayload, sizeof(kPayload)), 0);
  EXPECT_EQ(io::fsync("t.fsync", fd), 0);
  EXPECT_EQ(io::close("t.close", fd), 0);
  EXPECT_EQ(io::io_faults_injected(), 0);
  EXPECT_EQ(std::filesystem::file_size(path_), sizeof(kPayload));
}

TEST_F(IoFaultTest, ErrnoFaultFiresAtScheduledHitThenClears) {
  io::arm_io_fault({"t.write", ENOSPC, /*at_hit=*/2, /*count=*/1});
  const int fd = open_scratch();
  EXPECT_EQ(io::write("t.write", fd, kPayload, 4), 4);  // hit 1: before at_hit
  errno = 0;
  EXPECT_EQ(io::write("t.write", fd, kPayload, 4), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(io::write("t.write", fd, kPayload, 4), 4);  // count exhausted
  EXPECT_EQ(io::io_faults_injected(), 1);
  ::close(fd);
}

TEST_F(IoFaultTest, PrefixPatternMatchesSiteFamily) {
  io::arm_io_fault({"journal.*", EIO, 1, /*count=*/-1});
  const int fd = open_scratch();
  EXPECT_EQ(io::write("journal.append.write", fd, kPayload, 4), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(io::fsync("journal.append.fsync", fd), -1);
  EXPECT_EQ(io::write("checkpoint.write", fd, kPayload, 4), 4);  // different family
  ::close(fd);
}

TEST_F(IoFaultTest, ShortWriteConsumesHalfAndWriteAllLoopsOverIt) {
  io::arm_io_fault({"t.write", /*error=*/0, 1, /*count=*/3});  // 3 short writes
  const int fd = open_scratch();
  // A raw short write reports the truncated count; it is NOT an error.
  const ssize_t n = io::write("t.write", fd, kPayload, sizeof(kPayload));
  EXPECT_EQ(n, static_cast<ssize_t>(sizeof(kPayload) / 2));
  // write_all absorbs the remaining short writes and lands every byte.
  EXPECT_EQ(io::write_all("t.write", fd, kPayload + n,
                          sizeof(kPayload) - static_cast<std::size_t>(n)),
            0);
  EXPECT_EQ(io::close("t.close", fd), 0);
  EXPECT_EQ(std::filesystem::file_size(path_), sizeof(kPayload));
  EXPECT_EQ(io::io_faults_injected(), 3);
}

TEST_F(IoFaultTest, ShortWriteSpecIsSkippedForNonWriteCalls) {
  io::arm_io_fault({"t.fsync", /*error=*/0, 1, /*count=*/-1});
  const int fd = open_scratch();
  EXPECT_EQ(io::fsync("t.fsync", fd), 0);  // short write needs a write call
  ::close(fd);
}

TEST_F(IoFaultTest, WriteAllAbsorbsAnEintrStorm) {
  io::arm_io_fault({"t.write", EINTR, 1, /*count=*/16});
  const int fd = open_scratch();
  EXPECT_EQ(io::write_all("t.write", fd, kPayload, sizeof(kPayload)), 0);
  EXPECT_EQ(io::io_faults_injected(), 16);
  EXPECT_EQ(io::close("t.close", fd), 0);
  EXPECT_EQ(std::filesystem::file_size(path_), sizeof(kPayload));
}

TEST_F(IoFaultTest, WriteAllReportsNonEintrErrno) {
  io::arm_io_fault({"t.write", ENOSPC, 1, /*count=*/-1});
  const int fd = open_scratch();
  EXPECT_EQ(io::write_all("t.write", fd, kPayload, sizeof(kPayload)), ENOSPC);
  ::close(fd);
}

TEST_F(IoFaultTest, InjectedCloseFailureStillClosesTheDescriptor) {
  io::arm_io_fault({"t.close", EIO, 1, 1});
  const int fd = open_scratch();
  errno = 0;
  EXPECT_EQ(io::close("t.close", fd), -1);
  EXPECT_EQ(errno, EIO);
  // The fd must really be gone — the fault layer must not leak descriptors
  // through the very paths it stresses.
  EXPECT_EQ(::write(fd, kPayload, 1), -1);
  EXPECT_EQ(errno, EBADF);
}

TEST_F(IoFaultTest, OpenRenameUnlinkFaultsFire) {
  io::arm_io_fault({"t.open", EMFILE, 1, 1});
  io::arm_io_fault({"t.rename", EIO, 1, 1});
  io::arm_io_fault({"t.unlink", EIO, 1, 1});
  const std::string path = ::testing::TempDir() + "nptsn_io_fault_ops_" + std::to_string(::getpid());
  EXPECT_EQ(io::open("t.open", path.c_str(), O_WRONLY | O_CREAT, 0644), -1);
  EXPECT_EQ(errno, EMFILE);
  EXPECT_EQ(io::rename("t.rename", path.c_str(), (path + ".x").c_str()), -1);
  EXPECT_EQ(io::unlink("t.unlink", path.c_str()), -1);
}

TEST_F(IoFaultTest, ClassificationSeparatesTransientFromPersistent) {
  using io::IoErrorClass;
  EXPECT_EQ(io::classify_io_errno(ENOSPC), IoErrorClass::kPersistent);
  EXPECT_EQ(io::classify_io_errno(EROFS), IoErrorClass::kPersistent);
  EXPECT_EQ(io::classify_io_errno(EDQUOT), IoErrorClass::kPersistent);
  EXPECT_EQ(io::classify_io_errno(EBADF), IoErrorClass::kPersistent);
  EXPECT_EQ(io::classify_io_errno(EINTR), IoErrorClass::kTransient);
  EXPECT_EQ(io::classify_io_errno(EIO), IoErrorClass::kTransient);
  EXPECT_EQ(io::classify_io_errno(EMFILE), IoErrorClass::kTransient);
  EXPECT_EQ(io::classify_io_errno(EAGAIN), IoErrorClass::kTransient);
  EXPECT_STREQ(io::to_string(IoErrorClass::kTransient), "transient");
  EXPECT_STREQ(io::to_string(IoErrorClass::kPersistent), "persistent");
}

TEST_F(IoFaultTest, EnvGrammarArmsSchedules) {
  // "@2junk" is not a hit number, so that part arms nothing. Armed at hit 2
  // it would fail the second write below with EIO.
  ::setenv("NPTSN_IO_FAULT", "t.write:ENOSPC@3x-1;t.fsync:SHORT;garbage;t.write:EIO@2junk",
           1);
  EXPECT_EQ(io::arm_io_faults_from_env(), 2);  // the malformed specs are skipped
  const int fd = open_scratch();
  EXPECT_EQ(io::write("t.write", fd, kPayload, 4), 4);
  EXPECT_EQ(io::write("t.write", fd, kPayload, 4), 4);
  EXPECT_EQ(io::write("t.write", fd, kPayload, 4), -1);  // @3 onward, forever
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(io::write("t.write", fd, kPayload, 4), -1);
  ::close(fd);
}

TEST_F(IoFaultTest, EnvGrammarAcceptsNumericErrno) {
  ::setenv("NPTSN_IO_FAULT", ("t.write:" + std::to_string(EIO)).c_str(), 1);
  EXPECT_EQ(io::arm_io_faults_from_env(), 1);
  const int fd = open_scratch();
  EXPECT_EQ(io::write("t.write", fd, kPayload, 4), -1);
  EXPECT_EQ(errno, EIO);
  ::close(fd);
}

TEST_F(IoFaultTest, KnownSitesCoverJournalCheckpointAndProbe) {
  const std::vector<std::string>& sites = io::known_io_sites();
  const auto has = [&](const char* site) {
    return std::find(sites.begin(), sites.end(), site) != sites.end();
  };
  EXPECT_TRUE(has("journal.append.write"));
  EXPECT_TRUE(has("journal.append.fsync"));
  EXPECT_TRUE(has("journal.compact.rename"));
  EXPECT_TRUE(has("checkpoint.fsync"));
  EXPECT_TRUE(has("journal.probe.fsync"));
}

}  // namespace
}  // namespace nptsn
