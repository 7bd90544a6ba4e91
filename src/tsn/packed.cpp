#include "tsn/packed.hpp"

#include <algorithm>
#include <mutex>
#include <string>
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

  // Scenario state.
  std::vector<std::uint64_t> alive;              // words
  std::vector<const std::uint64_t*> rows;        // n row pointers (base or patched)
  std::vector<std::uint64_t> patched;            // copies of failed-link endpoint rows

  // Reachability scratch.
  std::vector<std::uint64_t> visited, frontier, next;

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
        csr_(topology.graph()) {
    n_ = csr_.num_nodes();
    words_ = tsk::words_for(n_);
    slots_ = problem_->tsn.slots_per_base;

    adj_.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(words_), 0);
    alive_base_.assign(static_cast<std::size_t>(words_), 0);
    transit_.assign(static_cast<std::size_t>(words_), 0);
    eid_lookup_.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), -1);

    can_transit_.assign(static_cast<std::size_t>(n_), 1);
    for (NodeId v = 0; v < problem_->num_end_stations; ++v) {
      can_transit_[static_cast<std::size_t>(v)] = 0;
    }

    // Directed edge ids are the CSR's.
    for (NodeId v = 0; v < n_; ++v) {
      if (csr_.is_active(v)) tsk::set_bit(alive_base_.data(), v);
      if (can_transit_[static_cast<std::size_t>(v)] != 0) tsk::set_bit(transit_.data(), v);
      for (int e = csr_.row_begin(v); e < csr_.row_end(v); ++e) {
        const NodeId nb = csr_.target(e);
        tsk::set_bit(&adj_[static_cast<std::size_t>(v) * static_cast<std::size_t>(words_)],
                     nb);
        eid_lookup_[static_cast<std::size_t>(v) * static_cast<std::size_t>(n_) +
                    static_cast<std::size_t>(nb)] = e;
      }
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
      if (tsk::test_bit(s.alive.data(), flow.source) &&
          tsk::test_bit(s.alive.data(), flow.destination) &&
          tsk::reach_fast(s.rows.data(), words_, s.alive.data(), transit_.data(),
                          flow.source, flow.destination, s.visited.data(),
                          s.frontier.data(), s.next.data())) {
        // The reach guard has established that a path exists.
        auto sp = s.search.shortest_path(flow.source, flow.destination, &can_transit_);
        NPTSN_ASSERT(sp.has_value(), "packed recovery: destination unreachable after reach guard");
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
    s->alive.resize(static_cast<std::size_t>(words_));
    s->rows.resize(static_cast<std::size_t>(n_));
    s->visited.resize(static_cast<std::size_t>(words_));
    s->frontier.resize(static_cast<std::size_t>(words_));
    s->next.resize(static_cast<std::size_t>(words_));
    s->slot_rows.assign(static_cast<std::size_t>(csr_.num_edge_ids()), 0);
    return s;
  }

  void release(std::unique_ptr<PackedScratch> s) const {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    pool_.push_back(std::move(s));
  }

  // Applies the scenario to the scratch: alive mask and node bans, patched
  // adjacency rows and edge bans for failed links, clean slot table.
  // Mirrors Topology::residual()'s validation so malformed scenarios fail
  // the same way as the scalar path.
  void prepare(PackedScratch& s, const FailureScenario& scenario) const {
    for (const std::int32_t eid : s.touched) s.slot_rows[static_cast<std::size_t>(eid)] = 0;
    s.touched.clear();
    s.search.clear_bans();

    std::copy(alive_base_.begin(), alive_base_.end(), s.alive.begin());
    for (const NodeId v : scenario.failed_switches) {
      NPTSN_EXPECT(topology_->has_switch(v) || problem_->is_end_station(v),
                   "failed node is not part of the topology");
      NPTSN_EXPECT(v >= 0 && v < n_, "node id out of range: " + std::to_string(v));
      tsk::clear_bit(s.alive.data(), v);
      s.search.ban_node(v);
    }

    for (NodeId v = 0; v < n_; ++v) {
      s.rows[static_cast<std::size_t>(v)] =
          &adj_[static_cast<std::size_t>(v) * static_cast<std::size_t>(words_)];
    }
    s.patched.resize(2 * scenario.failed_links.size() * static_cast<std::size_t>(words_));
    std::size_t used = 0;
    for (const EdgeKey& link : scenario.failed_links) {
      NPTSN_EXPECT(link.a >= 0 && link.a < n_, "node id out of range: " + std::to_string(link.a));
      NPTSN_EXPECT(link.b >= 0 && link.b < n_, "node id out of range: " + std::to_string(link.b));
      if (eid_of(link.a, link.b) < 0) continue;  // not a planned link
      s.search.ban_edge(link.a, link.b);
      patch_row(s, used, link.a, link.b);
      patch_row(s, used, link.b, link.a);
    }
  }

  // Clears bit `v` from node `u`'s adjacency row, copying the row into the
  // scratch's patch area on first touch (base rows are shared and const).
  void patch_row(PackedScratch& s, std::size_t& used, NodeId u, NodeId v) const {
    const std::uint64_t* row = s.rows[static_cast<std::size_t>(u)];
    std::uint64_t* target;
    if (row >= s.patched.data() && row < s.patched.data() + s.patched.size()) {
      target = const_cast<std::uint64_t*>(row);  // already patched this call
    } else {
      target = s.patched.data() + used;
      used += static_cast<std::size_t>(words_);
      std::copy(row, row + words_, target);
      s.rows[static_cast<std::size_t>(u)] = target;
    }
    tsk::clear_bit(target, v);
  }

  std::int32_t eid_of(NodeId from, NodeId to) const {
    return eid_lookup_[static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
                       static_cast<std::size_t>(to)];
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
          eid_of(path[static_cast<std::size_t>(i)], path[static_cast<std::size_t>(i) + 1]);
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

  CsrGraph csr_;                          // Gt; its edge ids are the directed eids
  int n_ = 0;
  int words_ = 0;
  int slots_ = 0;
  std::vector<std::uint64_t> adj_;        // n * words adjacency bit-rows
  std::vector<std::uint64_t> alive_base_; // active nodes of Gt
  std::vector<std::uint64_t> transit_;    // transit-capable nodes
  std::vector<std::int32_t> eid_lookup_;  // dense (from, to) -> directed eid
  TransitFilter can_transit_;
  std::vector<FlowTiming> timings_;

  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<PackedScratch>> pool_;
};

}  // namespace

std::unique_ptr<NbfSession> make_packed_recovery_session(const Topology& topology,
                                                         int path_candidates,
                                                         TtDiscipline discipline) {
  const PlanningProblem& problem = topology.problem();
  if (topology.graph().num_nodes() > kPackedMaxNodes) return nullptr;
  if (problem.tsn.slots_per_base > tsk::kWordBits) return nullptr;
  return std::make_unique<PackedRecoverySession>(topology, path_candidates, discipline);
}

std::unique_ptr<NbfSession> HeuristicRecovery::stage(const Topology& topology) const {
  if (tsn_kernel() != TsnKernel::kFast) return nullptr;
  return make_packed_recovery_session(topology, path_candidates_, discipline_);
}

}  // namespace nptsn
