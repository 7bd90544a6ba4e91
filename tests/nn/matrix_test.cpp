#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "rl/ppo.hpp"
#include "testing/orion_batch.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define NPTSN_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NPTSN_TEST_ASAN 1
#endif
#endif

namespace nptsn {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_FALSE(m.empty());
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m.at(i, j), 1.5);
  }
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m.sum(), 0.0);
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0);
}

TEST(Matrix, FromInitializerList) {
  const auto m = Matrix::from({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 6.0);
}

TEST(Matrix, FromRejectsRaggedRows) {
  EXPECT_THROW(Matrix::from({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

// Negative dimensions throw the same std::invalid_argument as every other
// shape check, before anything is allocated (two negatives would otherwise
// wrap around to a positive element count).
TEST(Matrix, NegativeDimensionsThrowBeforeAllocating) {
  EXPECT_THROW(Matrix(-1, 5), std::invalid_argument);
  EXPECT_THROW(Matrix(3, -1), std::invalid_argument);
  EXPECT_THROW(Matrix(-2, -3), std::invalid_argument);
  EXPECT_THROW(Matrix::uninitialized(-1, 5), std::invalid_argument);
}

TEST(Matrix, IndexBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::invalid_argument);
  EXPECT_THROW(m.at(0, -1), std::invalid_argument);
}

TEST(Matrix, SumAndMaxAbs) {
  const auto m = Matrix::from({{1.0, -4.0}, {2.0, 0.5}});
  EXPECT_DOUBLE_EQ(m.sum(), -0.5);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(Matrix().max_abs(), 0.0);
}

TEST(Matrix, MatmulKnownResult) {
  const auto a = Matrix::from({{1.0, 2.0}, {3.0, 4.0}});
  const auto b = Matrix::from({{5.0, 6.0}, {7.0, 8.0}});
  const auto c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Matrix, MatmulRectangular) {
  const auto a = Matrix::from({{1.0, 0.0, 2.0}});         // 1x3
  const auto b = Matrix::from({{1.0}, {1.0}, {1.0}});     // 3x1
  const auto c = matmul(a, b);
  EXPECT_EQ(c.rows(), 1);
  EXPECT_EQ(c.cols(), 1);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 3.0);
}

TEST(Matrix, MatmulShapeChecked) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
}

TEST(Matrix, MatmulSparseSkipIsCorrect) {
  // The zero-skip fast path must not change results.
  const auto a = Matrix::from({{0.0, 2.0}, {0.0, 0.0}});
  const auto b = Matrix::from({{9.0, 9.0}, {1.0, 2.0}});
  const auto c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 0.0);
}

TEST(Matrix, Transpose) {
  const auto m = Matrix::from({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const auto t = transpose(m);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
}

TEST(Matrix, ElementwiseOps) {
  const auto a = Matrix::from({{1.0, 2.0}});
  const auto b = Matrix::from({{3.0, 5.0}});
  EXPECT_DOUBLE_EQ(add(a, b).at(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(sub(a, b).at(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(scale(a, 3.0).at(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(hadamard(a, b).at(0, 1), 10.0);
}

TEST(Matrix, ElementwiseShapeChecked) {
  EXPECT_THROW(add(Matrix(1, 2), Matrix(2, 1)), std::invalid_argument);
  EXPECT_THROW(hadamard(Matrix(1, 2), Matrix(1, 3)), std::invalid_argument);
}

TEST(Matrix, AccumulateInPlace) {
  auto a = Matrix::from({{1.0, 1.0}});
  accumulate(a, Matrix::from({{2.0, 3.0}}));
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 4.0);
  EXPECT_THROW(accumulate(a, Matrix(2, 2)), std::invalid_argument);
}

// --- large-buffer recycler --------------------------------------------------

// A matrix shape above the recycler's floor, and its byte size.
constexpr int kBigRows = 520;
constexpr int kBigCols = 64;
constexpr std::size_t kBigBytes = std::size_t{kBigRows} * kBigCols * sizeof(double);
static_assert(kBigBytes >= detail::kRecycleFloorBytes);

std::uint64_t fresh_since(const RecyclerCounters& before) {
  return recycler_counters().fresh - before.fresh;
}
std::uint64_t reused_since(const RecyclerCounters& before) {
  return recycler_counters().reused - before.reused;
}

TEST(BufferRecycler, ExactSizeRequestGetsTheParkedBlockBack) {
  const BufferRecycleScope scope;
  const RecyclerCounters before = recycler_counters();
  const double* first = nullptr;
  const double* second = nullptr;
  {
    const Matrix a(kBigRows, kBigCols);
    const Matrix b(kBigRows, kBigCols);
    first = a.data();
    second = b.data();
  }
  EXPECT_EQ(recycler_counters().parked_bytes, 2 * kBigBytes);
  EXPECT_EQ(fresh_since(before), 2u);

  // Another byte size does not take a parked block.
  const Matrix other(kBigRows + 1, kBigCols);
  EXPECT_EQ(fresh_since(before), 3u);
  EXPECT_EQ(reused_since(before), 0u);

  // Same byte size, any shape: the most recently parked block comes back
  // first (b was destroyed before a), and a filling constructor still fills
  // the block it reuses.
  const Matrix again = Matrix::uninitialized(kBigCols, kBigRows);
  EXPECT_EQ(again.data(), first);
  const Matrix filled(kBigRows, kBigCols, 2.5);
  EXPECT_EQ(filled.data(), second);
  EXPECT_EQ(filled.sum(), 2.5 * kBigRows * kBigCols);
  EXPECT_EQ(reused_since(before), 2u);
  EXPECT_EQ(fresh_since(before), 3u);
  EXPECT_EQ(recycler_counters().parked_bytes, 0u);
}

TEST(BufferRecycler, NothingIsParkedOutsideAScope) {
  const RecyclerCounters before = recycler_counters();
  for (int i = 0; i < 3; ++i) {
    const Matrix m(kBigRows, kBigCols);
    EXPECT_EQ(recycler_counters().parked_bytes, 0u);
  }
  EXPECT_EQ(fresh_since(before), 3u);
  EXPECT_EQ(reused_since(before), 0u);
  EXPECT_TRUE(recycler_parked_sizes().empty());
}

TEST(BufferRecycler, NestedScopesReleaseOnlyWhenTheOutermostExits) {
  const RecyclerCounters before = recycler_counters();
  {
    const BufferRecycleScope outer;
    {
      const BufferRecycleScope inner;
      { const Matrix m(kBigRows, kBigCols); }
      EXPECT_EQ(recycler_counters().parked_bytes, kBigBytes);
    }
    // The inner exit released nothing: the block is still there to reuse.
    EXPECT_EQ(recycler_counters().parked_bytes, kBigBytes);
    { const Matrix m(kBigRows, kBigCols); }
    EXPECT_EQ(fresh_since(before), 1u);
    EXPECT_EQ(reused_since(before), 1u);
  }
  EXPECT_EQ(recycler_counters().parked_bytes, 0u);
  EXPECT_TRUE(recycler_parked_sizes().empty());
}

TEST(BufferRecycler, ParkedBytesAreZeroAfterTheScopeExits) {
  {
    const BufferRecycleScope scope;
    for (const int rows : {kBigRows, kBigRows + 7, 2 * kBigRows}) {
      const Matrix m(rows, kBigCols);
    }
    EXPECT_EQ(recycler_counters().parked_bytes,
              (4 * kBigRows + 7) * std::size_t{kBigCols} * sizeof(double));
    EXPECT_EQ(recycler_parked_sizes().size(), 3u);
  }
  EXPECT_EQ(recycler_counters().parked_bytes, 0u);
  // A new scope starts empty: the old blocks went back to the heap.
  const BufferRecycleScope scope;
  const RecyclerCounters before = recycler_counters();
  const Matrix m(kBigRows, kBigCols);
  EXPECT_EQ(fresh_since(before), 1u);
  EXPECT_EQ(reused_since(before), 0u);
}

TEST(BufferRecycler, BlockFreedAfterItsScopeGoesToTheHeap) {
  std::optional<Matrix> survivor;
  {
    const BufferRecycleScope scope;
    survivor.emplace(kBigRows, kBigCols, 1.0);
  }
  survivor.reset();
  EXPECT_EQ(recycler_counters().parked_bytes, 0u);
  EXPECT_TRUE(recycler_parked_sizes().empty());
}

TEST(BufferRecycler, SubFloorAllocationsAreNeverParked) {
  constexpr int kFloorDoubles = static_cast<int>(detail::kRecycleFloorBytes / sizeof(double));
  const BufferRecycleScope scope;
  const RecyclerCounters before = recycler_counters();
  { const Matrix below(1, kFloorDoubles - 1); }
  { const Matrix small(16, 16); }
  EXPECT_EQ(recycler_counters().parked_bytes, 0u);
  EXPECT_EQ(fresh_since(before), 0u);
  { const Matrix at_floor(1, kFloorDoubles); }
  EXPECT_EQ(recycler_counters().parked_bytes, detail::kRecycleFloorBytes);
  EXPECT_EQ(fresh_since(before), 1u);
}

TEST(BufferRecycler, BlockFreedOnAnotherThreadIsSafe) {
  const BufferRecycleScope scope;
  auto to_heap = std::make_unique<Matrix>(kBigRows, kBigCols, 1.0);
  auto to_other_scope = std::make_unique<Matrix>(kBigRows, kBigCols, 2.0);
  // A thread with no scope returns the block to the heap; one with its own
  // scope parks it there and releases it when that scope closes. Neither
  // touches this thread's scope.
  std::thread([&] {
    to_heap.reset();
    EXPECT_EQ(recycler_counters().parked_bytes, 0u);
    const BufferRecycleScope other;
    to_other_scope.reset();
    EXPECT_EQ(recycler_counters().parked_bytes, kBigBytes);
  }).join();
  EXPECT_EQ(recycler_counters().parked_bytes, 0u);
  // And a block allocated there and freed here is parked here.
  std::unique_ptr<Matrix> from_other;
  std::thread([&] { from_other = std::make_unique<Matrix>(kBigRows, kBigCols); }).join();
  from_other.reset();
  EXPECT_EQ(recycler_counters().parked_bytes, kBigBytes);
}

TEST(BufferRecycler, AlternatingSizesCannotGrowParkedBytesWithoutBound) {
  const BufferRecycleScope scope;
  const RecyclerCounters before = recycler_counters();
  const int rows[] = {kBigRows, kBigRows + 1, kBigRows + 2};
  std::size_t all_three = 0;
  for (const int r : rows) all_three += static_cast<std::size_t>(r) * kBigCols * sizeof(double);
  for (int round = 0; round < 200; ++round) {
    // Allocation and release orders rotate every round, and the lifetimes
    // overlap differently each time.
    std::optional<Matrix> live[3];
    for (int i = 0; i < 3; ++i) live[(round + i) % 3].emplace(rows[(round + i) % 3], kBigCols);
    for (int i = 0; i < 3; ++i) live[(2 * round + i) % 3].reset();
    { const Matrix lone(rows[round % 3], kBigCols); }
    ASSERT_LE(recycler_counters().parked_bytes, all_three) << "round " << round;
  }
  // Exact-size reuse: one block per size was ever taken from the heap.
  EXPECT_EQ(fresh_since(before), 3u);
  EXPECT_EQ(recycler_counters().parked_bytes, all_three);
}

TEST(BufferRecycler, PpoIterationsAfterTheFirstAllocateNothingFresh) {
  const testing::OrionBatch orion = testing::orion_batch(32, 5);
  ASSERT_GE(std::size_t{32} * static_cast<std::size_t>(orion.net_config.num_nodes) *
                static_cast<std::size_t>(orion.net_config.feature_dim) * sizeof(double),
            detail::kRecycleFloorBytes)
      << "the stacked features must be above the floor";
  const auto update = [&](int actor_iters) {
    Rng rng(5);
    const ActorCritic net(orion.net_config, rng);
    Adam actor_opt(net.actor_parameters(), {.learning_rate = 1e-3});
    Adam critic_opt(net.critic_parameters(), {.learning_rate = 1e-3});
    PpoConfig config;
    config.train_actor_iters = actor_iters;
    config.train_critic_iters = 2;
    config.target_kl = std::numeric_limits<double>::infinity();
    const BufferRecycleScope scope;
    const RecyclerCounters before = recycler_counters();
    EXPECT_EQ(ppo_update(net, actor_opt, critic_opt, orion.batch, config).actor_iters_run,
              actor_iters);
    return std::make_pair(fresh_since(before), reused_since(before));
  };
  const auto [fresh3, reused3] = update(3);
  const auto [fresh6, reused6] = update(6);
  EXPECT_GT(fresh3, 0u);
  EXPECT_EQ(fresh6, fresh3) << "three more actor iterations took fresh blocks";
  EXPECT_GT(reused6, reused3);
}

#ifdef NPTSN_TEST_ASAN
TEST(BufferRecyclerDeathTest, ReadingAParkedBlockIsReported) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        const BufferRecycleScope scope;
        const double* dangling = nullptr;
        {
          const Matrix m(kBigRows, kBigCols, 1.0);
          dangling = m.data();
        }
        const volatile double* read = dangling + kBigCols;
        std::fprintf(stderr, "read %f\n", *read);
      },
      "use-after-poison");
}
#else
TEST(BufferRecyclerDeathTest, ReadingAParkedBlockIsReported) {
  GTEST_SKIP() << "parked blocks are poisoned only in AddressSanitizer builds";
}
#endif

}  // namespace
}  // namespace nptsn
