#include "tsn/packed.hpp"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "tsn/sim_kernels.hpp"
#include "util/expect.hpp"

namespace nptsn {

namespace {

// Per-call working set. Distinct scratches are independent, which is what
// makes the session safe under concurrent recover() calls.
struct PackedScratch {
  explicit PackedScratch(const CsrGraph& gt) : search(gt) {}

  // Dijkstra and Yen over the staged CSR of Gt, with the scenario's failed
  // nodes and links as base bans.
  CsrSearch search;

  // Slot-table scratch: one occupancy word per directed edge, reset via the
  // touched list instead of a full clear.
  std::vector<std::uint64_t> slot_rows;
  std::vector<std::int32_t> touched;

  // Per-path scratch.
  std::vector<std::int32_t> hop_eids;
  std::vector<std::uint64_t> folds;
};

class PackedRecoverySession final : public NbfSession {
 public:
  PackedRecoverySession(const Topology& topology, int path_candidates,
                        TtDiscipline discipline)
      : topology_(&topology),
        problem_(&topology.problem()),
        path_candidates_(path_candidates),
        discipline_(discipline),
        csr_(topology.graph()),
        slots_(problem_->tsn.slots_per_base) {
    can_transit_.assign(static_cast<std::size_t>(csr_.num_nodes()), 1);
    for (NodeId v = 0; v < problem_->num_end_stations; ++v) {
      can_transit_[static_cast<std::size_t>(v)] = 0;
    }
    timings_.reserve(problem_->flows.size());
    for (const FlowSpec& flow : problem_->flows) {
      timings_.push_back(FlowTiming::of(*problem_, flow));
    }
  }

  NbfResult recover(const FailureScenario& scenario) const override {
    std::unique_ptr<PackedScratch> scratch = acquire();
    PackedScratch& s = *scratch;
    prepare(s, scenario);

    NbfResult result;
    result.state.resize(problem_->flows.size());
    for (std::size_t i = 0; i < problem_->flows.size(); ++i) {
      const FlowSpec& flow = problem_->flows[i];
      const FlowTiming& timing = timings_[i];
      bool placed = false;
      // A failed or inactive endpoint has no path, as in the scalar recovery.
      if (auto sp = s.search.shortest_path(flow.source, flow.destination, &can_transit_)) {
        std::vector<int> slots;
        if (schedule(s, *sp, timing, slots)) {
          result.state[i] = FlowAssignment{std::move(*sp), std::move(slots)};
          placed = true;
        } else if (path_candidates_ > 1) {
          const auto candidates = s.search.k_shortest_paths(
              flow.source, flow.destination, path_candidates_, &can_transit_);
          for (std::size_t c = 1; c < candidates.size() && !placed; ++c) {
            if (schedule(s, candidates[c], timing, slots)) {
              result.state[i] = FlowAssignment{candidates[c], std::move(slots)};
              placed = true;
            }
          }
        }
      }
      if (!placed) result.errors.emplace_back(flow.source, flow.destination);
    }

    std::ranges::sort(result.errors);
    result.errors.erase(std::unique(result.errors.begin(), result.errors.end()),
                        result.errors.end());
    release(std::move(scratch));
    return result;
  }

 private:
  std::unique_ptr<PackedScratch> acquire() const {
    {
      const std::lock_guard<std::mutex> lock(pool_mutex_);
      if (!pool_.empty()) {
        std::unique_ptr<PackedScratch> s = std::move(pool_.back());
        pool_.pop_back();
        return s;
      }
    }
    auto s = std::make_unique<PackedScratch>(csr_);
    s->slot_rows.assign(static_cast<std::size_t>(csr_.num_edge_ids()), 0);
    return s;
  }

  void release(std::unique_ptr<PackedScratch> s) const {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    pool_.push_back(std::move(s));
  }

  // Applies the scenario to the scratch as bans on the CSR search and clears
  // the slot table. Validation follows Topology::residual(): each failed node
  // must be part of the topology, and CsrSearch range-checks ids with
  // Graph's message, failed switches before failed links. So a malformed
  // scenario fails as on the scalar path, and a failed link that Gt lacks
  // is ignored there as here.
  void prepare(PackedScratch& s, const FailureScenario& scenario) const {
    for (const std::int32_t eid : s.touched) s.slot_rows[static_cast<std::size_t>(eid)] = 0;
    s.touched.clear();
    s.search.clear_bans();
    for (const NodeId v : scenario.failed_switches) {
      NPTSN_EXPECT(topology_->has_switch(v) || problem_->is_end_station(v),
                   "failed node is not part of the topology");
      s.search.ban_node(v);
    }
    for (const EdgeKey& link : scenario.failed_links) s.search.ban_edge(link.a, link.b);
  }

  // schedule_on_path() over the packed slot rows; identical search order and
  // reservations for both disciplines.
  bool schedule(PackedScratch& s, const Path& path, const FlowTiming& timing,
                std::vector<int>& slots_out) const {
    NPTSN_EXPECT(path.size() >= 2, "path must contain at least one link");
    const int hops = static_cast<int>(path.size()) - 1;
    s.hop_eids.resize(static_cast<std::size_t>(hops));
    s.folds.resize(static_cast<std::size_t>(hops));
    for (int i = 0; i < hops; ++i) {
      const std::int32_t eid =
          csr_.edge_id(path[static_cast<std::size_t>(i)], path[static_cast<std::size_t>(i) + 1]);
      NPTSN_ASSERT(eid >= 0, "packed schedule: path uses an unknown link");
      s.hop_eids[static_cast<std::size_t>(i)] = eid;
      s.folds[static_cast<std::size_t>(i)] = tsk::fold_occupancy_fast(
          s.slot_rows[static_cast<std::size_t>(eid)], timing.period_slots,
          timing.repetitions);
    }
    if (discipline_ == TtDiscipline::kNoWait) {
      const int start = tsk::nowait_start_fast(s.folds.data(), hops, timing.deadline_slots);
      if (start < 0) return false;
      slots_out.resize(static_cast<std::size_t>(hops));
      for (int i = 0; i < hops; ++i) {
        slots_out[static_cast<std::size_t>(i)] = start + i;
        reserve(s, s.hop_eids[static_cast<std::size_t>(i)], start + i, timing);
      }
      return true;
    }
    slots_out.clear();
    int earliest = 0;
    for (int i = 0; i < hops; ++i) {
      const int chosen = tsk::earliest_free_fast(s.folds[static_cast<std::size_t>(i)],
                                                 earliest, timing.deadline_slots);
      if (chosen < 0) {
        for (int j = 0; j < i; ++j) {
          release_slots(s, s.hop_eids[static_cast<std::size_t>(j)],
                        slots_out[static_cast<std::size_t>(j)], timing);
        }
        return false;
      }
      reserve(s, s.hop_eids[static_cast<std::size_t>(i)], chosen, timing);
      slots_out.push_back(chosen);
      earliest = chosen + 1;
    }
    return true;
  }

  void reserve(PackedScratch& s, std::int32_t eid, int slot, const FlowTiming& timing) const {
    std::uint64_t& row = s.slot_rows[static_cast<std::size_t>(eid)];
    if (row == 0) s.touched.push_back(eid);
    for (int k = 0; k < timing.repetitions; ++k) {
      row |= std::uint64_t{1} << ((slot + k * timing.period_slots) % slots_);
    }
  }

  void release_slots(PackedScratch& s, std::int32_t eid, int slot,
                     const FlowTiming& timing) const {
    std::uint64_t& row = s.slot_rows[static_cast<std::size_t>(eid)];
    for (int k = 0; k < timing.repetitions; ++k) {
      row &= ~(std::uint64_t{1} << ((slot + k * timing.period_slots) % slots_));
    }
  }

  const Topology* topology_;
  const PlanningProblem* problem_;
  int path_candidates_;
  TtDiscipline discipline_;

  CsrGraph csr_;  // Gt; its directed edge ids index the slot rows
  int slots_;
  TransitFilter can_transit_;
  std::vector<FlowTiming> timings_;

  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<PackedScratch>> pool_;
};

}  // namespace

std::unique_ptr<NbfSession> make_packed_recovery_session(const Topology& topology,
                                                         int path_candidates,
                                                         TtDiscipline discipline) {
  if (topology.problem().tsn.slots_per_base > tsk::kWordBits) return nullptr;
  return std::make_unique<PackedRecoverySession>(topology, path_candidates, discipline);
}

std::unique_ptr<NbfSession> HeuristicRecovery::stage(const Topology& topology) const {
  if (tsn_kernel() != TsnKernel::kFast) return nullptr;
  return make_packed_recovery_session(topology, path_candidates_, discipline_);
}

}  // namespace nptsn
