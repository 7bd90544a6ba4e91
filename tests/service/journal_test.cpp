// Unit tests for the write-ahead request journal: framing and scan-back,
// torn-tail and bit-flip tolerance, recovery merge semantics (dedup,
// attempts accounting, replay), and snapshot compaction — including a crash
// between compaction publish and cleanup, which must leave a
// merge-consistent, scannable journal.
#include "service/journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/problem.hpp"
#include "service/crash_point.hpp"
#include "testing/fault_injector.hpp"

namespace nptsn {
namespace {

using nptsn::testing::corrupt_file_byte;
using nptsn::testing::truncate_file;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "nptsn_journal_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

PlanningRequest request_named(const std::string& id, std::size_t payload = 16) {
  PlanningRequest request;
  request.id = id;
  request.label = "label-" + id;
  request.priority = 3;
  request.epochs = 2;
  request.steps_per_epoch = 32;
  request.seed = 7;
  request.max_attempts = 2;
  request.problem_bytes.assign(payload, static_cast<std::uint8_t>(id.back()));
  return request;
}

ProblemFp fp_of(const PlanningRequest& request) {
  return problem_fingerprint128(request.problem_bytes);
}

PlanningResponse done_response(const std::string& id) {
  PlanningResponse response;
  response.id = id;
  response.label = "label-" + id;
  response.status = ResponseStatus::kPlanned;
  response.feasible = true;
  response.best_cost = 12.5;
  response.topology_bytes = {9, 8, 7};
  response.certificate_bytes = {6, 5};
  response.epochs_completed = 2;
  return response;
}

TEST(RequestJournal, AppendedRecordsScanBackInOrder) {
  const std::string dir = fresh_dir("roundtrip");
  const PlanningRequest request = request_named("a");
  {
    RequestJournal journal({dir});
    journal.append_accepted(request, fp_of(request));
    journal.append_started("a", 1);
    journal.append_retry("a", 1, "nbf fault", 0.25);
    journal.append_started("a", 2);
    journal.append_terminal(done_response("a"), 2);
  }

  const JournalScan scan = scan_journal(dir);
  EXPECT_TRUE(scan.warnings.empty());
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.records[0].type, JournalRecordType::kAccepted);
  EXPECT_EQ(scan.records[0].request.label, "label-a");
  EXPECT_EQ(scan.records[0].request.priority, 3);
  EXPECT_EQ(scan.records[0].request.max_attempts, 2);
  EXPECT_EQ(scan.records[0].request.problem_bytes, request.problem_bytes);
  EXPECT_EQ(scan.records[0].fp, fp_of(request));
  EXPECT_EQ(scan.records[1].type, JournalRecordType::kStarted);
  EXPECT_EQ(scan.records[1].attempt, 1);
  EXPECT_EQ(scan.records[2].type, JournalRecordType::kRetry);
  EXPECT_EQ(scan.records[2].error, "nbf fault");
  EXPECT_DOUBLE_EQ(scan.records[2].backoff_seconds, 0.25);
  EXPECT_EQ(scan.records[3].attempt, 2);
  EXPECT_EQ(scan.records[4].type, JournalRecordType::kDone);
  EXPECT_EQ(scan.records[4].response.topology_bytes, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(scan.records[4].digest, response_digest(scan.records[4].response));
  std::filesystem::remove_all(dir);
}

TEST(RequestJournal, MissingDirectoryScansEmptyAndIsCreatedOnOpen) {
  const std::string dir = fresh_dir("fresh");
  EXPECT_TRUE(scan_journal(dir).records.empty());
  RequestJournal journal({dir});
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_TRUE(journal.take_recovered().empty());
  EXPECT_TRUE(journal.recovery_warnings().empty());
  std::filesystem::remove_all(dir);
}

TEST(RequestJournal, RecoveryMergesLiveAndTerminalStatePerRequest) {
  const std::string dir = fresh_dir("merge");
  const PlanningRequest live = request_named("live");
  const PlanningRequest finished = request_named("done");
  {
    RequestJournal journal({dir});
    journal.append_accepted(live, fp_of(live));
    journal.append_started("live", 1);
    journal.append_retry("live", 1, "fault", 0.1);
    journal.append_accepted(finished, fp_of(finished));
    journal.append_started("done", 1);
    journal.append_terminal(done_response("done"), 1);
  }

  RequestJournal reopened({dir});
  auto recovered = reopened.take_recovered();
  ASSERT_EQ(recovered.size(), 2u);
  // map order: "done" < "live"
  EXPECT_EQ(recovered[0].request.id, "done");
  ASSERT_TRUE(recovered[0].replay.has_value());
  EXPECT_EQ(recovered[0].replay->status, ResponseStatus::kPlanned);
  EXPECT_DOUBLE_EQ(recovered[0].replay->best_cost, 12.5);
  EXPECT_EQ(recovered[1].request.id, "live");
  EXPECT_FALSE(recovered[1].replay.has_value());
  EXPECT_TRUE(recovered[1].started);
  // One observed kRetry = one consumed attempt; the crash itself costs none.
  EXPECT_EQ(recovered[1].attempts_used, 1);
  EXPECT_EQ(recovered[1].request.problem_bytes, live.problem_bytes);
  // Second take is empty (the service consumed them).
  EXPECT_TRUE(reopened.take_recovered().empty());
  std::filesystem::remove_all(dir);
}

TEST(RequestJournal, TornTailIsDroppedWithWarningNeverARefusal) {
  const std::string dir = fresh_dir("torn");
  const PlanningRequest a = request_named("a");
  const PlanningRequest b = request_named("b", 64);
  {
    RequestJournal journal({dir});
    journal.append_accepted(a, fp_of(a));
    journal.append_terminal(done_response("a"), 1);
    journal.append_accepted(b, fp_of(b));
  }
  // Tear the last record: keep all but its final 10 bytes (a crash mid-append).
  const JournalScan before = scan_journal(dir);
  ASSERT_EQ(before.segments.size(), 1u);
  const auto size = std::filesystem::file_size(before.segments[0]);
  truncate_file(before.segments[0], static_cast<std::size_t>(size) - 10);

  RequestJournal reopened({dir});
  EXPECT_FALSE(reopened.recovery_warnings().empty());
  auto recovered = reopened.take_recovered();
  // "a" survives whole (terminal, replayable); torn "b" is gone — lost before
  // its accept record was durable, i.e. before the caller was acknowledged.
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].request.id, "a");
  EXPECT_TRUE(recovered[0].replay.has_value());
  std::filesystem::remove_all(dir);
}

TEST(RequestJournal, BitFlippedRecordDropsRestOfSegmentWithWarning) {
  const std::string dir = fresh_dir("bitflip");
  const PlanningRequest a = request_named("a");
  {
    RequestJournal journal({dir});
    journal.append_accepted(a, fp_of(a));
    journal.append_started("a", 1);
  }
  const JournalScan before = scan_journal(dir);
  ASSERT_EQ(before.records.size(), 2u);
  corrupt_file_byte(before.segments[0], 20);  // inside the first record's payload

  const JournalScan after = scan_journal(dir);
  EXPECT_TRUE(after.records.empty());
  ASSERT_FALSE(after.warnings.empty());
  EXPECT_NE(after.warnings[0].find("checksum"), std::string::npos);
  // The journal still opens (warn-and-continue, not refuse-to-start).
  RequestJournal reopened({dir});
  EXPECT_TRUE(reopened.take_recovered().empty());
  EXPECT_FALSE(reopened.recovery_warnings().empty());
  std::filesystem::remove_all(dir);
}

TEST(RequestJournal, OverloadedShedIsNeverResurrected) {
  const std::string dir = fresh_dir("overload");
  const PlanningRequest shed = request_named("shed");
  {
    RequestJournal journal({dir});
    journal.append_accepted(shed, fp_of(shed));
    PlanningResponse response;
    response.id = "shed";
    response.status = ResponseStatus::kOverloaded;
    journal.append_terminal(response, 0);
  }
  RequestJournal reopened({dir});
  EXPECT_TRUE(reopened.take_recovered().empty());
  std::filesystem::remove_all(dir);
}

TEST(RequestJournal, CompactionDropsDeliveredHistoryAndKeepsLiveState) {
  const std::string dir = fresh_dir("compact");
  RequestJournal::Config config{dir};
  config.compact_min_delivered = 2;
  const PlanningRequest live = request_named("live");
  {
    RequestJournal journal(config);
    for (int i = 0; i < 2; ++i) {
      const std::string id = "done-" + std::to_string(i);
      PlanningRequest request = request_named(id);
      journal.append_accepted(request, fp_of(request));
      journal.append_terminal(done_response(id), 1);
    }
    journal.append_accepted(live, fp_of(live));
    journal.append_retry("live", 1, "fault", 0.1);
    // Delivering the second terminal crosses the threshold and compacts.
    journal.acknowledge_delivered("done-0");
    journal.acknowledge_delivered("done-1");
    EXPECT_GE(journal.stats().compactions, 1);
  }

  RequestJournal reopened(config);
  auto recovered = reopened.take_recovered();
  // Delivered terminals are gone; the live request survived compaction with
  // its payload and attempts intact.
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].request.id, "live");
  EXPECT_EQ(recovered[0].attempts_used, 1);
  EXPECT_EQ(recovered[0].request.problem_bytes, live.problem_bytes);
  EXPECT_EQ(recovered[0].request.max_attempts, 2);
  std::filesystem::remove_all(dir);
}

TEST(RequestJournal, CrashBetweenCompactPublishAndCleanupMergesConsistently) {
  const std::string dir = fresh_dir("compact_crash");
  RequestJournal::Config config{dir};
  config.compact_min_delivered = 1;
  const PlanningRequest live = request_named("live");

  struct CompactCrash {};
  set_crash_point_hook([](const char*) { throw CompactCrash{}; });
  arm_crash_point("journal.compact.after_publish");
  {
    RequestJournal journal(config);
    PlanningRequest request = request_named("done");
    journal.append_accepted(request, fp_of(request));
    journal.append_terminal(done_response("done"), 1);
    journal.append_accepted(live, fp_of(live));
    // The snapshot publishes, then the "process dies" before old segments
    // are unlinked: both the snapshot and the history are left on disk.
    EXPECT_THROW(journal.acknowledge_delivered("done"), CompactCrash);
  }
  disarm_crash_points();
  set_crash_point_hook(nullptr);

  // Overlapping segments (history + snapshot) must merge to one consistent
  // state per request: recovery is idempotent, nothing duplicates or vanishes.
  RequestJournal reopened(config);
  auto recovered = reopened.take_recovered();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].request.id, "done");
  EXPECT_TRUE(recovered[0].replay.has_value());
  EXPECT_EQ(recovered[1].request.id, "live");
  EXPECT_FALSE(recovered[1].replay.has_value());
  std::filesystem::remove_all(dir);
}

TEST(RequestJournal, SegmentsRotateAtTheConfiguredSize) {
  const std::string dir = fresh_dir("rotate");
  RequestJournal::Config config{dir};
  config.segment_bytes = 1024;
  config.compact_min_delivered = 1000;  // keep compaction out of this test
  {
    RequestJournal journal(config);
    for (int i = 0; i < 8; ++i) {
      // Appended piecewise: GCC 12 warns falsely (-Wrestrict) on
      // `"r" + std::to_string(i)`.
      std::string id = "r";
      id += std::to_string(i);
      const PlanningRequest request = request_named(id, 256);
      journal.append_accepted(request, fp_of(request));
    }
    EXPECT_GE(journal.stats().rotations, 1);
    EXPECT_EQ(journal.stats().appends, 8);
    EXPECT_EQ(journal.stats().live, 8);
  }
  EXPECT_GE(scan_journal(dir).segments.size(), 2u);
  RequestJournal reopened(config);
  EXPECT_EQ(reopened.take_recovered().size(), 8u);
  std::filesystem::remove_all(dir);
}

TEST(RequestJournal, ResponseDigestCoversAnswerDefiningBytes) {
  PlanningResponse a = done_response("x");
  PlanningResponse b = a;
  EXPECT_EQ(response_digest(a), response_digest(b));
  b.topology_bytes[0] ^= 1;
  EXPECT_NE(response_digest(a), response_digest(b));
  PlanningResponse c = a;
  c.status = ResponseStatus::kInfeasible;
  EXPECT_NE(response_digest(a), response_digest(c));
  // Non-answer metadata (timing) does not perturb the digest.
  PlanningResponse d = a;
  d.plan_seconds = 99.0;
  d.queue_seconds = 42.0;
  EXPECT_EQ(response_digest(a), response_digest(d));
}

}  // namespace
}  // namespace nptsn
