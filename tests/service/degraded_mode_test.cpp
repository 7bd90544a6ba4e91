// Degraded-mode durability under injected environmental faults (DESIGN.md
// §15): transient errors retry with backoff, persistent errors flip the
// journal into DEGRADED instead of throwing, in-flight answers go out flagged
// non-durable, a healed disk re-arms through the probe and reconciles every
// entry that mutated while degraded, and an ENOSPC mid-compaction leaves a
// journal whose overlapping segments merge idempotently. Plus a seeded
// (site x errno) soak over every journal I/O site.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/problem.hpp"
#include "service/crash_point.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"
#include "testing/test_problems.hpp"
#include "util/io.hpp"

namespace nptsn {
namespace {

using nptsn::testing::tiny_problem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "nptsn_degraded_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Every test leaves the process-global fault machinery clean, pass or fail.
class DegradedMode : public ::testing::Test {
 protected:
  void SetUp() override {
    io::disarm_io_faults();
    disarm_crash_points();
  }
  void TearDown() override {
    io::disarm_io_faults();
    disarm_crash_points();
    set_crash_point_hook(nullptr);
  }
};

RequestJournal::Config fast_journal(const std::string& dir) {
  RequestJournal::Config config;
  config.dir = dir;
  config.io_retry_base_seconds = 0.0001;  // keep backoff sleeps invisible
  return config;
}

PlanningRequest request_named(const std::string& id) {
  PlanningRequest request;
  request.id = id;
  request.label = "label-" + id;
  request.max_attempts = 2;
  request.problem_bytes.assign(16, static_cast<std::uint8_t>(id.back()));
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
  response.epochs_completed = 2;
  return response;
}

// --- journal-level -----------------------------------------------------------

TEST_F(DegradedMode, PersistentFaultDegradesAndShedsUnacknowledged) {
  const std::string dir = fresh_dir("persistent");
  RequestJournal journal(fast_journal(dir));
  io::arm_io_fault({"journal.append.fsync", ENOSPC, 1, /*count=*/-1});

  const PlanningRequest request = request_named("a");
  EXPECT_EQ(journal.append_accepted(request, fp_of(request)), AppendOutcome::kDegraded);
  EXPECT_FALSE(journal.durable());
  EXPECT_FALSE(journal.degraded_reason().empty());

  RequestJournal::Stats stats = journal.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.degraded_entered, 1);
  // The shed request was NOT entered: nothing for a later re-arm to resurrect.
  EXPECT_EQ(stats.live, 0);

  // Once degraded, further appends shed immediately without touching the disk.
  const PlanningRequest next = request_named("b");
  EXPECT_EQ(journal.append_accepted(next, fp_of(next)), AppendOutcome::kDegraded);

  // Heal the disk: the probe re-arms and durable appends resume.
  io::disarm_io_faults();
  EXPECT_TRUE(journal.try_rearm());
  EXPECT_TRUE(journal.durable());
  EXPECT_EQ(journal.append_accepted(request, fp_of(request)), AppendOutcome::kDurable);
  EXPECT_EQ(journal.stats().live, 1);
  EXPECT_GE(journal.stats().rearms, 1);
  std::filesystem::remove_all(dir);
}

TEST_F(DegradedMode, TransientFaultRetriesThenLandsTheRecordWhole) {
  const std::string dir = fresh_dir("transient");
  RequestJournal journal(fast_journal(dir));
  // Two EIO hiccups on the durability barrier, then the storm passes.
  io::arm_io_fault({"journal.append.fsync", EIO, 1, /*count=*/2});

  const PlanningRequest request = request_named("a");
  EXPECT_EQ(journal.append_accepted(request, fp_of(request)), AppendOutcome::kDurable);
  EXPECT_TRUE(journal.durable());

  const RequestJournal::Stats stats = journal.stats();
  EXPECT_EQ(stats.io_retries, 2);
  // Each failed append may have torn the tail: the damaged segment is sealed
  // and the record re-lands whole in a fresh one.
  EXPECT_EQ(stats.segments_abandoned, 2);
  EXPECT_EQ(stats.live, 1);
  std::filesystem::remove_all(dir);
}

TEST_F(DegradedMode, ExhaustedTransientRetryBudgetDegrades) {
  const std::string dir = fresh_dir("exhausted");
  RequestJournal::Config config = fast_journal(dir);
  config.io_retry_attempts = 2;
  RequestJournal journal(config);
  io::arm_io_fault({"journal.append.fsync", EIO, 1, /*count=*/-1});  // never heals

  const PlanningRequest request = request_named("a");
  EXPECT_EQ(journal.append_accepted(request, fp_of(request)), AppendOutcome::kDegraded);
  EXPECT_FALSE(journal.durable());
  EXPECT_EQ(journal.stats().io_retries, 2);  // the full budget, no more
  std::filesystem::remove_all(dir);
}

TEST_F(DegradedMode, EintrStormIsAbsorbedWithoutRetryAccounting) {
  const std::string dir = fresh_dir("eintr");
  RequestJournal journal(fast_journal(dir));
  io::arm_io_fault({"journal.append.write", EINTR, 1, /*count=*/16});

  const PlanningRequest request = request_named("a");
  EXPECT_EQ(journal.append_accepted(request, fp_of(request)), AppendOutcome::kDurable);
  // write_all retries EINTR in place: no abandoned segments, no backoff.
  const RequestJournal::Stats stats = journal.stats();
  EXPECT_EQ(stats.io_retries, 0);
  EXPECT_EQ(stats.segments_abandoned, 0);
  EXPECT_EQ(io::io_faults_injected(), 16);
  std::filesystem::remove_all(dir);
}

TEST_F(DegradedMode, ShortWritesAreLoopedOverAndTheJournalScansClean) {
  const std::string dir = fresh_dir("short");
  const PlanningRequest request = request_named("a");
  {
    RequestJournal journal(fast_journal(dir));
    io::arm_io_fault({"journal.append.write", /*error=*/0, 1, /*count=*/6});
    EXPECT_EQ(journal.append_accepted(request, fp_of(request)), AppendOutcome::kDurable);
    EXPECT_EQ(journal.append_started("a", 1), AppendOutcome::kDurable);
    EXPECT_EQ(journal.append_terminal(done_response("a"), 1), AppendOutcome::kDurable);
    EXPECT_GE(io::io_faults_injected(), 6);
  }
  io::disarm_io_faults();

  const JournalScan scan = scan_journal(dir);
  EXPECT_TRUE(scan.warnings.empty()) << scan.warnings.front();
  RequestJournal reopened(fast_journal(dir));
  const auto recovered = reopened.take_recovered();
  ASSERT_EQ(recovered.size(), 1u);
  ASSERT_TRUE(recovered[0].replay.has_value());
  EXPECT_EQ(recovered[0].replay->best_cost, 12.5);
  std::filesystem::remove_all(dir);
}

TEST_F(DegradedMode, DegradedTerminalIsReconciledOnRearmAndReplaysAfterRestart) {
  const std::string dir = fresh_dir("reconcile");
  const PlanningRequest request = request_named("a");
  {
    RequestJournal journal(fast_journal(dir));
    EXPECT_EQ(journal.append_accepted(request, fp_of(request)), AppendOutcome::kDurable);
    EXPECT_EQ(journal.append_started("a", 1), AppendOutcome::kDurable);

    // The disk fills exactly between the accept and the terminal.
    io::arm_io_fault({"journal.append.fsync", ENOSPC, 1, /*count=*/-1});
    EXPECT_EQ(journal.append_terminal(done_response("a"), 1), AppendOutcome::kDegraded);
    EXPECT_FALSE(journal.durable());

    // Heal; the re-arm probe re-journals the terminal that only lived in
    // memory while degraded.
    io::disarm_io_faults();
    EXPECT_TRUE(journal.try_rearm());
    const RequestJournal::Stats stats = journal.stats();
    EXPECT_EQ(stats.rearms, 1);
    EXPECT_GE(stats.reconciled, 1);
    EXPECT_FALSE(stats.degraded);
  }

  // Restart: the reconciliation records overlap the pre-fault segments; the
  // merge must converge to ONE request with its persisted answer.
  RequestJournal reopened(fast_journal(dir));
  const auto recovered = reopened.take_recovered();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].request.id, "a");
  ASSERT_TRUE(recovered[0].replay.has_value());
  EXPECT_EQ(recovered[0].replay->status, ResponseStatus::kPlanned);
  EXPECT_EQ(recovered[0].replay->topology_bytes, (std::vector<std::uint8_t>{9, 8, 7}));
  std::filesystem::remove_all(dir);
}

TEST_F(DegradedMode, FailedProbeKeepsTheJournalDegraded) {
  const std::string dir = fresh_dir("probe");
  RequestJournal journal(fast_journal(dir));
  io::arm_io_fault({"journal.append.fsync", ENOSPC, 1, /*count=*/-1});
  const PlanningRequest request = request_named("a");
  EXPECT_EQ(journal.append_accepted(request, fp_of(request)), AppendOutcome::kDegraded);

  // The write fault heals but the probe's own fsync fails once: the journal
  // must stay degraded rather than declare victory on a sick disk.
  io::disarm_io_faults();
  io::arm_io_fault({"journal.probe.fsync", EIO, 1, /*count=*/1});
  EXPECT_FALSE(journal.try_rearm());
  EXPECT_FALSE(journal.durable());
  // Next probe (fault exhausted) succeeds.
  EXPECT_TRUE(journal.try_rearm());
  EXPECT_TRUE(journal.durable());
  std::filesystem::remove_all(dir);
}

// Satellite (c): ENOSPC mid-compaction. The abandoned snapshot tmp must never
// be scanned as a segment, the pre-compaction segments must stay intact, and
// a restart over the overlapping state must merge to one entry per request.
TEST_F(DegradedMode, EnospcMidCompactionLeavesAMergeConsistentJournal) {
  const std::string dir = fresh_dir("compact");
  RequestJournal::Config config = fast_journal(dir);
  config.compact_min_delivered = 1;  // compact eagerly
  {
    RequestJournal journal(config);
    for (const std::string id : {"a", "b"}) {
      const PlanningRequest request = request_named(id);
      ASSERT_EQ(journal.append_accepted(request, fp_of(request)), AppendOutcome::kDurable);
      ASSERT_EQ(journal.append_started(id, 1), AppendOutcome::kDurable);
      ASSERT_EQ(journal.append_terminal(done_response(id), 1), AppendOutcome::kDurable);
    }

    // The disk fills while the compaction snapshot is being fsynced.
    io::arm_io_fault({"journal.compact.fsync", ENOSPC, 1, /*count=*/1});
    journal.acknowledge_delivered("a");  // crosses compact_min_delivered
    EXPECT_FALSE(journal.durable());     // ENOSPC is persistent: degraded
    EXPECT_EQ(journal.stats().compactions, 0);

    // The failed snapshot left no tmp file behind and no segment was lost.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      EXPECT_EQ(entry.path().extension(), ".seg") << entry.path();
    }
    io::disarm_io_faults();
    EXPECT_TRUE(journal.try_rearm());
    EXPECT_TRUE(journal.durable());
  }

  // All pre-fault records are still there and merge idempotently.
  const JournalScan scan = scan_journal(dir);
  EXPECT_TRUE(scan.warnings.empty()) << scan.warnings.front();
  RequestJournal reopened(config);
  const auto recovered = reopened.take_recovered();
  ASSERT_EQ(recovered.size(), 2u);
  for (const auto& item : recovered) {
    ASSERT_TRUE(item.replay.has_value()) << item.request.id;
    EXPECT_EQ(item.replay->status, ResponseStatus::kPlanned);
  }
  std::filesystem::remove_all(dir);
}

// Seeded (site x errno) soak over every journal I/O site. The invariants —
// the same ones the CI fault-soak job asserts around the real daemon:
//   1. no fault injection ever throws or aborts;
//   2. a request whose accept was acknowledged kDurable is recoverable with
//      its answer after heal + re-arm + restart;
//   3. a request shed with kDegraded leaves no trace to resurrect.
TEST_F(DegradedMode, SiteByErrnoSoakNeverAbortsAndNeverLosesAcknowledgedWork) {
  const int kErrnos[] = {ENOSPC, EIO, EINTR, EMFILE, /*SHORT=*/0};
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;  // deterministic at_hit sequence
  int combos = 0;

  for (const std::string& site : io::known_io_sites()) {
    if (site.rfind("journal.", 0) != 0) continue;
    for (const int error : kErrnos) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const int at_hit = 1 + static_cast<int>(seed >> 61);  // 1..8
      const std::string tag = site + ":" + std::to_string(error);
      const std::string dir =
          fresh_dir("soak_" + std::to_string(combos++));

      RequestJournal::Config config = fast_journal(dir);
      config.compact_min_delivered = 1;  // exercise the compact sites too
      std::vector<std::string> durable_ids;
      {
        io::arm_io_fault({site, error, at_hit, /*count=*/2});
        RequestJournal journal(config);
        for (const std::string id : {"r0", "r1", "r2"}) {
          const PlanningRequest request = request_named(id);
          if (journal.append_accepted(request, fp_of(request)) ==
              AppendOutcome::kDurable) {
            durable_ids.push_back(id);
          }
          journal.append_started(id, 1);
          journal.append_terminal(done_response(id), 1);
        }
        // Deliver r0's answer: crossing compact_min_delivered exercises the
        // compaction sites under the armed fault.
        journal.acknowledge_delivered("r0");
        io::disarm_io_faults();
        EXPECT_TRUE(journal.try_rearm()) << tag;
        EXPECT_TRUE(journal.durable()) << tag;
      }

      // Heal + restart. r1/r2 were never delivered, so if their accept was
      // acknowledged durable they MUST recover, exactly once, answer intact.
      // r0 was delivered: it may legitimately be compacted away, but it must
      // never recover without its answer or more than once.
      RequestJournal reopened(config);
      const auto recovered = reopened.take_recovered();
      for (const auto& item : recovered) {
        const bool acknowledged =
            std::find(durable_ids.begin(), durable_ids.end(), item.request.id) !=
            durable_ids.end();
        EXPECT_TRUE(acknowledged) << tag << " resurrected " << item.request.id;
      }
      for (const std::string& id : durable_ids) {
        int copies = 0;
        for (const auto& item : recovered) {
          if (item.request.id != id) continue;
          ++copies;
          EXPECT_TRUE(item.replay.has_value()) << tag << " lost answer of " << id;
        }
        EXPECT_LE(copies, 1) << tag << " duplicated " << id;
        if (id != "r0") {
          EXPECT_EQ(copies, 1) << tag << " lost " << id;
        }
      }
      std::filesystem::remove_all(dir);
    }
  }
  EXPECT_GE(combos, 50);  // 13 journal sites x 5 fault kinds
}

// --- service-level -----------------------------------------------------------

NptsnConfig small_session() {
  NptsnConfig c;
  c.path_actions = 4;
  c.gcn_layers = 1;
  c.mlp_hidden = {16};
  c.embedding_dim = 8;
  c.epochs = 2;
  c.steps_per_epoch = 32;
  c.train_actor_iters = 3;
  c.train_critic_iters = 3;
  c.seed = 21;
  return c;
}

ServiceConfig small_service(const std::string& journal_dir) {
  ServiceConfig config;
  config.session = small_session();
  config.journal_dir = journal_dir;
  config.retry_base_seconds = 0.001;
  config.retry_max_seconds = 0.01;
  config.durability_probe_seconds = 0.01;  // heal fast in tests
  return config;
}

PlanningRequest tiny_request(const std::string& id) {
  PlanningRequest request;
  request.id = id;
  request.problem_bytes = problem_bytes(tiny_problem());
  return request;
}

template <typename Done>
bool wait_until(const Done& done, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

bool wait_until_durable(const PlannerService& service, double timeout_seconds) {
  return wait_until([&] { return service.stats().durable; }, timeout_seconds);
}

TEST_F(DegradedMode, ServiceShedsWhileDegradedAndHealsThroughTheProbe) {
  const std::string dir = fresh_dir("svc_shed");
  PlannerService service(small_service(dir));

  const PlanningResponse healthy = service.submit(tiny_request("before")).get();
  ASSERT_TRUE(healthy.status == ResponseStatus::kPlanned ||
              healthy.status == ResponseStatus::kInfeasible);
  EXPECT_TRUE(healthy.durable);

  // Disk fills: admission sheds un-acknowledged instead of lying about
  // durability, and the process stays up.
  io::arm_io_fault({"journal.append.fsync", ENOSPC, 1, /*count=*/-1});
  const PlanningResponse shed = service.submit(tiny_request("shed")).get();
  EXPECT_EQ(shed.status, ResponseStatus::kDegraded);
  EXPECT_FALSE(shed.durable);
  EXPECT_NE(shed.error.find("degraded"), std::string::npos);
  EXPECT_FALSE(service.stats().durable);
  EXPECT_EQ(service.counters().degraded, 1);

  // Disk heals: the background probe re-arms without any operator action.
  io::disarm_io_faults();
  ASSERT_TRUE(wait_until_durable(service, 5.0));
  // The probe flips the journal durable just before it counts the re-arm, so
  // the counter gets the same wait.
  EXPECT_TRUE(wait_until([&] { return service.counters().rearmed >= 1; }, 5.0));

  const PlanningResponse after = service.submit(tiny_request("after")).get();
  ASSERT_TRUE(after.status == ResponseStatus::kPlanned ||
              after.status == ResponseStatus::kInfeasible);
  EXPECT_TRUE(after.durable);
  service.shutdown(PlannerService::Shutdown::kDrain);

  // The shed request left nothing to resurrect.
  RequestJournal reopened({dir});
  for (const auto& item : reopened.take_recovered()) {
    EXPECT_NE(item.request.id, "shed");
  }
  std::filesystem::remove_all(dir);
}

TEST_F(DegradedMode, InFlightAnswerIsDeliveredNonDurableThenReplaysAfterHeal) {
  const std::string dir = fresh_dir("svc_nondurable");
  PlanningResponse first;
  {
    PlannerService service(small_service(dir));
    // Fill the disk exactly between the session finishing and its terminal
    // record: the accept is already durable, the answer is not.
    arm_crash_point("service.terminal.before_journal", 1);
    set_crash_point_hook([](const char*) {
      io::arm_io_fault({"journal.append.fsync", ENOSPC, 1, /*count=*/-1});
    });

    first = service.submit(tiny_request("job")).get();
    ASSERT_TRUE(first.status == ResponseStatus::kPlanned ||
                first.status == ResponseStatus::kInfeasible);
    // The session is never held hostage to a sick disk: the answer goes out,
    // honestly flagged.
    EXPECT_FALSE(first.durable);
    EXPECT_EQ(service.counters().non_durable, 1);

    // Heal; the probe reconciles the in-memory terminal onto disk.
    disarm_crash_points();
    set_crash_point_hook(nullptr);
    io::disarm_io_faults();
    ASSERT_TRUE(wait_until_durable(service, 5.0));
    service.shutdown(PlannerService::Shutdown::kDrain);
  }

  // Restart: the reconciled terminal replays — the request is NOT re-executed
  // and the answer matches what the caller was already given.
  PlannerService restarted(small_service(dir));
  auto recovered = restarted.take_recovered();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(recovered[0].replayed);
  const PlanningResponse replay = recovered[0].response.get();
  EXPECT_EQ(replay.status, first.status);
  EXPECT_DOUBLE_EQ(replay.best_cost, first.best_cost);
  EXPECT_EQ(replay.topology_bytes, first.topology_bytes);
  EXPECT_EQ(restarted.counters().replayed, 1);
  restarted.shutdown(PlannerService::Shutdown::kDrain);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nptsn
