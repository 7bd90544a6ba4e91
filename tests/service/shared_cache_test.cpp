// Concurrency, eviction, and exactness tests for the cross-problem cache
// layer: EngineSharedCache (NBF verdicts + whole outcomes),
// AdjacencyStageCache (staged GCN adjacency forms), and PolicyStore
// (warm-start weights). The stress tests run under TSan in CI's sanitizer
// matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/engine_cache.hpp"
#include "nn/stage_cache.hpp"
#include "rl/warm_start.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

ProblemFp fp(std::uint64_t a, std::uint64_t b) {
  ProblemFp result;
  result.a = a;
  result.b = b;
  return result;
}

GraphFp graph_fp(std::uint64_t a, std::uint64_t b, std::uint32_t edges) {
  GraphFp result;
  result.a = a;
  result.b = b;
  result.edges = edges;
  return result;
}

// --- EngineSharedCache ------------------------------------------------------

TEST(EngineSharedCache, VerdictRoundTripAndBindingIsolation) {
  EngineSharedCache cache;
  const EngineSharedCache::Binding binding{fp(1, 2), /*salt=*/7};
  const GraphFp rfp = graph_fp(10, 20, 5);
  const std::vector<NodeId> failed = {3, 8};
  const std::vector<EdgeKey> no_links;

  NbfVerdict out;
  EXPECT_FALSE(cache.lookup_verdict(binding, rfp, failed, no_links, &out));

  NbfVerdict verdict;
  verdict.ok = false;
  verdict.errors = {{3, 8}, {3, 9}};
  verdict.origin = graph_fp(99, 98, 12);
  cache.publish_verdict(binding, rfp, failed, no_links, verdict);

  ASSERT_TRUE(cache.lookup_verdict(binding, rfp, failed, no_links, &out));
  EXPECT_EQ(out.ok, verdict.ok);
  EXPECT_EQ(out.errors, verdict.errors);
  EXPECT_EQ(out.origin.a, verdict.origin.a);

  // A different salt (analysis options / NBF construction) must never see
  // the entry — that is the cache-key soundness boundary.
  const EngineSharedCache::Binding other_salt{fp(1, 2), /*salt=*/8};
  EXPECT_FALSE(cache.lookup_verdict(other_salt, rfp, failed, no_links, &out));
  // Same for a different problem fingerprint and a different failed set.
  const EngineSharedCache::Binding other_problem{fp(1, 3), /*salt=*/7};
  EXPECT_FALSE(cache.lookup_verdict(other_problem, rfp, failed, no_links, &out));
  EXPECT_FALSE(cache.lookup_verdict(binding, rfp, {3}, no_links, &out));
  // Mixed-frontier keys: the same switch set with a failed link is a
  // DIFFERENT NBF input and must never alias the switch-only entry.
  EXPECT_FALSE(cache.lookup_verdict(binding, rfp, failed, {EdgeKey{1, 2}}, &out));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.verdict_hits, 1u);
  EXPECT_EQ(stats.verdict_misses, 5u);
  EXPECT_GE(stats.entries, 1u);
}

TEST(EngineSharedCache, OutcomeRoundTrip) {
  EngineSharedCache cache;
  const EngineSharedCache::Binding binding{fp(5, 6), 0};
  const GraphFp topo = graph_fp(1, 2, 9);
  const std::vector<signed char> plan = {1, 0, -1, 1};

  AnalysisOutcome out;
  EXPECT_FALSE(cache.lookup_outcome(binding, topo, plan, &out));

  AnalysisOutcome outcome;
  outcome.reliable = true;
  outcome.nbf_calls = 123;
  outcome.scenarios_pruned = 4;
  outcome.max_order = 2;
  cache.publish_outcome(binding, topo, plan, outcome);

  ASSERT_TRUE(cache.lookup_outcome(binding, topo, plan, &out));
  EXPECT_TRUE(out.reliable);
  EXPECT_EQ(out.nbf_calls, 123);
  EXPECT_EQ(out.scenarios_pruned, 4);
  EXPECT_EQ(out.max_order, 2);

  // A different switch plan on the same topology is a different key.
  EXPECT_FALSE(cache.lookup_outcome(binding, topo, {1, 0, -1, 0}, &out));
}

TEST(EngineSharedCache, EvictsUnderTinyByteBudget) {
  EngineSharedCache::Config config;
  config.shards = 1;
  config.verdict_bytes_per_shard = 1 << 10;  // a handful of entries at most
  config.outcome_bytes_per_shard = 1 << 10;
  EngineSharedCache cache(config);

  const EngineSharedCache::Binding binding{fp(1, 1), 0};
  NbfVerdict verdict;
  verdict.ok = true;
  for (std::uint64_t i = 0; i < 200; ++i) {
    cache.publish_verdict(binding, graph_fp(i, i, 1), {static_cast<NodeId>(i)}, {}, verdict);
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.verdict_evictions, 0u);
  EXPECT_LE(stats.bytes, config.verdict_bytes_per_shard + config.outcome_bytes_per_shard);
  // The most recent publishes survive; ancient ones were evicted.
  NbfVerdict out;
  EXPECT_TRUE(cache.lookup_verdict(binding, graph_fp(199, 199, 1), {199}, {}, &out));
  EXPECT_FALSE(cache.lookup_verdict(binding, graph_fp(0, 0, 1), {0}, {}, &out));
}

TEST(EngineSharedCache, ClearEmptiesEveryShard) {
  EngineSharedCache cache;
  const EngineSharedCache::Binding binding{fp(2, 2), 0};
  for (std::uint64_t i = 0; i < 16; ++i) {
    cache.publish_verdict(binding, graph_fp(i, i, 1), {1}, {}, NbfVerdict{});
  }
  EXPECT_GT(cache.stats().entries, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// Many sessions hammering overlapping keys concurrently: publishes race
// benignly (identical pure-function results), lookups must either miss or
// return a fully formed verdict. TSan-clean is the point of this test.
TEST(EngineSharedCacheStress, ConcurrentPublishLookupIsRaceFree) {
  EngineSharedCache::Config config;
  config.shards = 2;
  config.verdict_bytes_per_shard = 64 << 10;  // force eviction churn too
  config.outcome_bytes_per_shard = 64 << 10;
  EngineSharedCache cache(config);

  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &hits, t] {
      const EngineSharedCache::Binding binding{fp(7, 7), 0};
      for (int i = 0; i < kIters; ++i) {
        // 64 overlapping keys shared by all threads.
        const std::uint64_t k = static_cast<std::uint64_t>((i * 13 + t * 5) % 64);
        const GraphFp rfp = graph_fp(k, k ^ 0xabcddcba, 3);
        const std::vector<NodeId> failed = {static_cast<NodeId>(k % 7)};
        const std::vector<EdgeKey> no_links;
        NbfVerdict verdict;
        verdict.ok = (k % 2) == 0;
        if (k % 2 == 0) verdict.errors = {{1, 2}};
        NbfVerdict out;
        if (cache.lookup_verdict(binding, rfp, failed, no_links, &out)) {
          // A hit is an exact replay of the (deterministic) published value.
          ASSERT_EQ(out.ok, verdict.ok);
          hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.publish_verdict(binding, rfp, failed, no_links, verdict);
        }
        AnalysisOutcome outcome;
        outcome.reliable = verdict.ok;
        outcome.nbf_calls = static_cast<std::int64_t>(k);
        AnalysisOutcome outcome_out;
        const std::vector<signed char> plan = {static_cast<signed char>(k % 3)};
        if (cache.lookup_outcome(binding, rfp, plan, &outcome_out)) {
          ASSERT_EQ(outcome_out.nbf_calls, outcome.nbf_calls);
        } else {
          cache.publish_outcome(binding, rfp, plan, outcome);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(hits.load(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.verdict_hits + stats.verdict_misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// --- AdjacencyStageCache ----------------------------------------------------

// The A_hat parts of two observations, as the encoder emits them (4 x 4 CSR
// rows each): a 4-node path whose end nodes carry self loops of weight
// `seed`, so different seeds give different content.
std::vector<std::shared_ptr<const CsrRows>> make_parts(double seed) {
  std::vector<std::shared_ptr<const CsrRows>> parts;
  for (int b = 0; b < 2; ++b) {
    Matrix block(4, 4);
    for (int r = 0; r < 4; ++r) {
      block.at(r, r) = r == 0 || r == 3 ? seed + b * 100.0 : 0.5;
      if (r + 1 < 4) block.at(r, r + 1) = block.at(r + 1, r) = 0.25;
    }
    parts.push_back(std::make_shared<const CsrRows>(4, std::vector<const Matrix*>{&block}));
  }
  return parts;
}

std::vector<const CsrRows*> raw(
    const std::vector<std::shared_ptr<const CsrRows>>& parts) {
  std::vector<const CsrRows*> out;
  for (const auto& part : parts) out.push_back(part.get());
  return out;
}

TEST(AdjacencyStageCache, IdenticalBlocksHitAndShareTheStagedForm) {
  AdjacencyStageCache cache;
  // Equal content in distinct part objects, as two sessions encode it.
  const auto first = cache.stage(raw(make_parts(1.0)));
  const auto second = cache.stage(raw(make_parts(1.0)));
  ASSERT_NE(first, nullptr);
  // A verified hit hands back the SAME staged object.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->rows(), 8);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.collisions, 0u);
}

TEST(AdjacencyStageCache, DifferentContentMisses) {
  AdjacencyStageCache cache;
  const auto parts = make_parts(1.0);
  const auto first = cache.stage(raw(parts));
  const auto second = cache.stage(raw(make_parts(2.0)));
  // The same parts in another order, and one part alone, are other batches.
  const auto swapped = cache.stage({parts[1].get(), parts[0].get()});
  const auto single = cache.stage({parts[0].get()});
  EXPECT_NE(first.get(), second.get());
  EXPECT_NE(first.get(), swapped.get());
  EXPECT_EQ(single->rows(), 4);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(AdjacencyStageCache, EvictionKeepsHandedOutFormsAlive) {
  // A budget small enough that a few staged forms evict each other.
  AdjacencyStageCache cache(/*max_bytes=*/2048);
  const auto keeper = cache.stage(raw(make_parts(0.0)));
  const std::size_t stored = keeper->nnz();
  for (int i = 1; i < 32; ++i) cache.stage(raw(make_parts(static_cast<double>(i))));
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 2048u);
  // The evicted-but-retained staged form is still fully usable.
  ASSERT_NE(keeper, nullptr);
  EXPECT_EQ(keeper->rows(), 8);
  EXPECT_EQ(keeper->nnz(), stored);
  EXPECT_EQ(keeper->csr_vals()[keeper->row_begin(4)], 100.0);
}

TEST(AdjacencyStageCacheStress, ConcurrentStagingIsRaceFree) {
  AdjacencyStageCache cache;
  // 8 overlapping contents across all threads, encoded once up front.
  std::vector<std::vector<std::shared_ptr<const CsrRows>>> contents;
  for (int c = 0; c < 8; ++c) contents.push_back(make_parts(static_cast<double>(c)));
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &contents] {
      for (int i = 0; i < 100; ++i) {
        const auto staged = cache.stage(raw(contents[static_cast<std::size_t>(i % 8)]));
        ASSERT_NE(staged, nullptr);
        ASSERT_EQ(staged->rows(), 8);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads) * 100);
  EXPECT_GT(stats.hits, 0u);
}

// --- PolicyStore ------------------------------------------------------------

ActorCritic::Config tiny_net_config() {
  ActorCritic::Config config;
  config.num_nodes = 3;
  config.feature_dim = 2;
  config.param_dim = 2;
  config.num_actions = 4;
  config.gcn_layers = 1;
  config.embedding_dim = 4;
  config.actor_hidden = {8};
  config.critic_hidden = {8};
  return config;
}

bool same_parameters(const ActorCritic& a, const ActorCritic& b) {
  const auto pa = a.all_parameters();
  const auto pb = b.all_parameters();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const Matrix& ma = pa[i].value();
    const Matrix& mb = pb[i].value();
    if (!ma.same_shape(mb)) return false;
    for (int k = 0; k < ma.size(); ++k) {
      if (ma.data()[k] != mb.data()[k]) return false;
    }
  }
  return true;
}

TEST(PolicyStore, WarmStartCopiesBestSameSignatureWeights) {
  PolicyStore store;
  Rng rng_a(1), rng_b(2);
  ActorCritic teacher(tiny_net_config(), rng_a);
  ActorCritic student(tiny_net_config(), rng_b);
  ASSERT_FALSE(same_parameters(teacher, student));

  EXPECT_FALSE(store.warm_start(student));  // empty store: miss
  store.publish(teacher, /*cost=*/10.0);
  EXPECT_TRUE(store.warm_start(student));
  EXPECT_TRUE(same_parameters(teacher, student));
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  // Two misses: the empty-store warm_start, and publish's resident check.
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.published, 1u);
}

TEST(PolicyStore, BestCostWins) {
  PolicyStore store;
  Rng rng_a(1), rng_b(2), rng_c(3);
  ActorCritic good(tiny_net_config(), rng_a);
  ActorCritic worse(tiny_net_config(), rng_b);
  ActorCritic better(tiny_net_config(), rng_c);

  store.publish(good, 10.0);
  store.publish(worse, 12.0);  // beaten by the resident entry
  EXPECT_EQ(store.stats().declined, 1u);

  ActorCritic probe(tiny_net_config(), rng_b);
  ASSERT_TRUE(store.warm_start(probe));
  EXPECT_TRUE(same_parameters(probe, good));

  store.publish(better, 8.0);  // strictly better: replaces
  EXPECT_EQ(store.stats().published, 2u);
  ASSERT_TRUE(store.warm_start(probe));
  EXPECT_TRUE(same_parameters(probe, better));
}

TEST(PolicyStore, SignatureSeparatesArchitectures) {
  PolicyStore store;
  Rng rng_a(1), rng_b(2);
  ActorCritic teacher(tiny_net_config(), rng_a);
  store.publish(teacher, 1.0);

  // Same everything except one hidden width: different signature, no hit.
  ActorCritic::Config other = tiny_net_config();
  other.actor_hidden = {16};
  ActorCritic student(other, rng_b);
  EXPECT_NE(PolicyStore::signature(tiny_net_config()), PolicyStore::signature(other));
  EXPECT_FALSE(store.warm_start(student));
}

TEST(PolicyStoreStress, ConcurrentPublishAndWarmStart) {
  PolicyStore store;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      ActorCritic net(tiny_net_config(), rng);
      for (int i = 0; i < 50; ++i) {
        store.publish(net, /*cost=*/static_cast<double>(100 - i + t));
        store.warm_start(net);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Exactly one architecture signature: one resident entry, best cost kept.
  EXPECT_EQ(store.stats().entries, 1u);
  EXPECT_GT(store.stats().hits, 0u);
}

}  // namespace
}  // namespace nptsn
