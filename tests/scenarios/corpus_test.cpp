#include "scenarios/corpus.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "core/planner.hpp"
#include "scenarios/stress_search.hpp"
#include "tsn/recovery.hpp"

namespace nptsn {
namespace {

CorpusEntry sample_entry() {
  GeneratorParams params;
  params.zones = 3;
  params.switches_per_zone = 2;
  params.flow_count = 5;
  CorpusEntry entry;
  entry.params = params;
  entry.seed = 21;
  entry.tick_budget = 777;
  entry.kind = OffenderKind::kAuditReject;
  entry.score = 1e6 + 3;
  entry.detail = "sample offender";
  entry.problem_bytes = problem_bytes(generate(params, entry.seed));
  return entry;
}

void expect_equal(const CorpusEntry& a, const CorpusEntry& b) {
  EXPECT_EQ(a.generator_version, b.generator_version);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.tick_budget, b.tick_budget);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.problem_bytes, b.problem_bytes);
}

TEST(CorpusTest, EntryRoundTripsBitExactly) {
  const CorpusEntry entry = sample_entry();

  ByteWriter out;
  save_corpus_entry(entry, out);
  ByteReader in(out.data());
  const CorpusEntry loaded = load_corpus_entry(in);
  in.expect_exhausted("corpus entry");
  expect_equal(entry, loaded);

  // Canonical layout: re-serializing the loaded entry reproduces the bytes.
  ByteWriter again;
  save_corpus_entry(loaded, again);
  EXPECT_EQ(out.data(), again.data());
}

TEST(CorpusTest, FileRoundTripAndCorruptionDetection) {
  const CorpusEntry entry = sample_entry();
  const std::string path = testing::TempDir() + "/roundtrip.corpus";
  save_corpus_entry_file(path, entry);
  expect_equal(entry, load_corpus_entry_file(path));

  // One flipped payload byte must fail the checkpoint frame's checksum.
  {
    std::ifstream in_stream(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in_stream)),
                            std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x20;
    std::ofstream out_stream(path, std::ios::binary | std::ios::trunc);
    out_stream.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_corpus_entry_file(path), CheckpointError);
}

TEST(CorpusTest, LoaderRejectsBadKindAndBudget) {
  CorpusEntry entry = sample_entry();
  entry.tick_budget = 0;
  ByteWriter out;
  save_corpus_entry(entry, out);
  ByteReader in(out.data());
  EXPECT_THROW(load_corpus_entry(in), CheckpointError);

  CorpusEntry bad_kind = sample_entry();
  ByteWriter out2;
  out2.u32(bad_kind.generator_version);
  save_params(bad_kind.params, out2);
  out2.u64(bad_kind.seed);
  out2.i64(bad_kind.tick_budget);
  out2.u8(99);  // out-of-range offender kind
  out2.f64(bad_kind.score);
  out2.str(bad_kind.detail);
  out2.blob(bad_kind.problem_bytes);
  ByteReader in2(out2.data());
  EXPECT_THROW(load_corpus_entry(in2), CheckpointError);
}

TEST(CorpusTest, FileNameIsFingerprintDerived) {
  const CorpusEntry entry = sample_entry();
  const std::string name = corpus_file_name(entry);
  EXPECT_EQ(name.rfind("stress_audit-reject_", 0), 0u);
  EXPECT_EQ(name.substr(name.size() - 7), ".corpus");
  EXPECT_EQ(name, corpus_file_name(entry));  // stable
}

TEST(CorpusTest, ListingMissingDirectoryIsEmpty) {
  EXPECT_TRUE(list_corpus_files(testing::TempDir() + "/no-such-dir").empty());
}

// --- the committed regression corpus -----------------------------------------

TEST(CorpusTest, CommittedCorpusIsPopulatedAndDistinct) {
  const auto files = list_corpus_files(NPTSN_CORPUS_DIR);
  ASSERT_GE(files.size(), 10u) << "the committed corpus shrank below its floor";
  std::set<std::uint64_t> fingerprints;
  for (const std::string& file : files) {
    const CorpusEntry entry = load_corpus_entry_file(file);
    const PlanningProblem problem = entry.problem();
    EXPECT_NO_THROW(problem.validate()) << file;
    EXPECT_GT(entry.tick_budget, 0) << file;
    EXPECT_FALSE(entry.detail.empty()) << file;
    fingerprints.insert(problem_fingerprint(problem));
  }
  EXPECT_EQ(fingerprints.size(), files.size()) << "corpus entries must be distinct";
}

TEST(CorpusTest, CommittedCorpusProvenanceRegenerates) {
  // Version-matched provenance cross-check: while the generator mapping is
  // unchanged, (params, seed) must regenerate the stored bytes exactly. If
  // generate() legitimately changes, bump kGeneratorVersion — entries from
  // older versions are replay-only.
  for (const std::string& file : list_corpus_files(NPTSN_CORPUS_DIR)) {
    const CorpusEntry entry = load_corpus_entry_file(file);
    if (entry.generator_version != kGeneratorVersion) continue;
    EXPECT_EQ(problem_bytes(generate(entry.params, entry.seed)), entry.problem_bytes)
        << file << ": generate() drifted without a kGeneratorVersion bump";
  }
}

TEST(CorpusTest, CommittedCorpusReplaysInsideTheEnvelope) {
  // The acceptance bar for the hardened envelope: every committed offender —
  // instances FOUND BY searching for planner failure — runs to clean
  // termination, spends at most 2x its recorded tick budget, and explains
  // itself via stopped_reason whenever it was truncated.
  const auto files = list_corpus_files(NPTSN_CORPUS_DIR);
  ASSERT_FALSE(files.empty());
  const HeuristicRecovery nbf;
  for (const std::string& file : files) {
    const CorpusEntry entry = load_corpus_entry_file(file);
    const PlanningProblem problem = entry.problem();

    NptsnConfig config;
    config.epochs = 2;
    config.steps_per_epoch = 48;
    config.mlp_hidden = {32, 32};
    config.path_actions = 4;
    config.num_workers = 1;
    config.nn_threads = 1;
    config.seed = entry.seed;
    config.audit_mode = AuditMode::kFinal;
    config.health_checks = true;
    config.deadline = Deadline::after(/*wall_seconds=*/0.0, entry.tick_budget);

    PlanningResult result;
    EXPECT_NO_THROW(result = plan(problem, nbf, config)) << file;
    EXPECT_LE(config.deadline->ticks(), 2 * entry.tick_budget) << file;
    if (config.deadline->expired()) {
      EXPECT_FALSE(result.stopped_reason.empty())
          << file << ": truncated runs must say why they stopped";
    }
  }
}

}  // namespace
}  // namespace nptsn
