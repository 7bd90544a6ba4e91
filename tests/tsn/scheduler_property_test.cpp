// Parameterized property sweeps over the TT scheduler: for every (slot
// count, hop count, repetitions, discipline) combination, whatever the
// scheduler returns must satisfy the TAS invariants, and its capacity must
// match the combinatorial bound.
#include <gtest/gtest.h>

#include <tuple>

#include "tsn/scheduler.hpp"

namespace nptsn {
namespace {

using Params = std::tuple<int /*slots*/, int /*hops*/, int /*reps*/, TtDiscipline>;

class SchedulerSweep : public ::testing::TestWithParam<Params> {};

TEST_P(SchedulerSweep, AssignmentsSatisfyTasInvariants) {
  const auto [slots, hops, reps, discipline] = GetParam();
  if (slots % reps != 0) GTEST_SKIP();
  FlowTiming timing;
  timing.repetitions = reps;
  timing.period_slots = slots / reps;
  timing.deadline_slots = timing.period_slots;
  if (timing.deadline_slots < hops) GTEST_SKIP();  // cannot possibly fit

  SlotTable table(slots);
  Path path;
  for (int i = 0; i <= hops; ++i) path.push_back(i);

  int placed = 0;
  while (true) {
    const auto result = schedule_on_path(table, path, timing, discipline);
    if (!result) break;
    ++placed;
    ASSERT_EQ(result->size(), static_cast<std::size_t>(hops));
    for (std::size_t h = 0; h < result->size(); ++h) {
      // Slots strictly increase along the path and stay in the window.
      EXPECT_GE((*result)[h], 0);
      EXPECT_LT((*result)[h], timing.deadline_slots);
      if (h > 0) {
        EXPECT_GT((*result)[h], (*result)[h - 1]);
      }
      if (discipline == TtDiscipline::kNoWait && h > 0) {
        EXPECT_EQ((*result)[h], (*result)[h - 1] + 1);
      }
    }
    ASSERT_LT(placed, slots + 1) << "scheduler overfilled a link";
  }

  // Capacity bounds: each hop's directed link has period_slots usable slots;
  // a flow chain consumes one per hop.
  // A chain's first-hop slot is at most window - hops (slots strictly
  // increase and the last must fit), so at most window - hops + 1 identical
  // chains share a route — and the greedy earliest-slot assignment achieves
  // that bound under both disciplines.
  const int window = timing.deadline_slots;
  EXPECT_EQ(placed, window - hops + 1);

  // Occupancy accounting: placed chains x repetitions per link.
  for (int h = 0; h < hops; ++h) {
    EXPECT_EQ(table.occupancy(path[static_cast<std::size_t>(h)],
                              path[static_cast<std::size_t>(h) + 1]),
              placed * reps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerSweep,
    ::testing::Combine(::testing::Values(4, 8, 20), ::testing::Values(1, 2, 3, 5),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(TtDiscipline::kNoWait,
                                         TtDiscipline::kStoreAndForward)));

}  // namespace
}  // namespace nptsn
