#include "tsn/simulator.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/expect.hpp"

namespace nptsn {
namespace {

struct Frame {
  std::size_t flow = 0;
  int repetition = 0;
  std::size_t next_hop = 0;  // index into the assignment's slot list
  int release_slot = 0;
  bool dropped = false;
  bool delivered = false;
  int delivery_slot = -1;
};

std::string frame_tag(const Frame& frame) {
  std::ostringstream os;
  os << "flow " << frame.flow << " frame " << frame.repetition;
  return os.str();
}

// The executor: materialized residual Graph, per-slot frame rescan,
// std::map wire occupancy. Deliberately the plain scalar form: the auditor
// replays every proof through it once per certificate, so it is an oracle,
// not a hot path.
void execute_reference(const Topology& topology, const FailureScenario& scenario,
                       const FlowState& state, std::vector<Frame>& frames,
                       SimulationReport& report) {
  const PlanningProblem& problem = topology.problem();
  const Graph residual = topology.residual(scenario);
  const int slots = problem.tsn.slots_per_base;
  auto violation = [&](const std::string& message) { report.violations.push_back(message); };

  // Execute slot by slot. At slot s, a frame whose next hop is reserved at
  // (slots[h] + repetition * period) transmits over (path[h] -> path[h+1]).
  std::map<std::pair<NodeId, NodeId>, const Frame*> wire;  // per-slot occupancy
  for (int s = 0; s < slots; ++s) {
    wire.clear();
    for (Frame& frame : frames) {
      if (frame.dropped || frame.delivered) continue;
      const FlowAssignment& a = *state[frame.flow];
      const FlowTiming timing = FlowTiming::of(problem, problem.flows[frame.flow]);
      if (frame.next_hop >= a.slots.size()) continue;
      const int due = a.slots[frame.next_hop] + frame.repetition * timing.period_slots;
      if (due != s) continue;

      const NodeId from = a.path[frame.next_hop];
      const NodeId to = a.path[frame.next_hop + 1];
      // Fail-silent loss: transmitting over a failed link or through a
      // failed node silently drops the frame.
      if (!residual.has_edge(from, to)) {
        frame.dropped = true;
        ++report.frames_dropped;
        violation(frame_tag(frame) + ": dropped on failed link (" +
                  std::to_string(from) + ", " + std::to_string(to) + ")");
        continue;
      }
      // TAS exclusivity: one frame per directed link per slot.
      const auto [it, inserted] = wire.try_emplace({from, to}, &frame);
      if (!inserted) {
        ++report.collisions;
        violation(frame_tag(frame) + ": collides with " + frame_tag(*it->second) +
                  " on link (" + std::to_string(from) + ", " + std::to_string(to) +
                  ") at slot " + std::to_string(s));
        frame.dropped = true;
        ++report.frames_dropped;
        continue;
      }

      ++frame.next_hop;
      if (frame.next_hop == a.slots.size()) {
        frame.delivered = true;
        frame.delivery_slot = s;
        ++report.frames_delivered;
        const FlowTiming t = FlowTiming::of(problem, problem.flows[frame.flow]);
        const int latency = s - frame.release_slot + 1;
        report.worst_latency_slots = std::max(report.worst_latency_slots, latency);
        if (latency > t.deadline_slots) {
          ++report.frames_late;
          violation(frame_tag(frame) + ": delivered after the deadline (latency " +
                    std::to_string(latency) + " slots)");
        }
      }
    }
  }
}

}  // namespace

SimulationReport simulate(const Topology& topology, const FailureScenario& scenario,
                          const FlowState& state) {
  const PlanningProblem& problem = topology.problem();
  NPTSN_EXPECT(state.size() == problem.flows.size(),
               "flow state arity does not match the problem");
  const int slots = problem.tsn.slots_per_base;

  SimulationReport report;
  auto violation = [&](const std::string& message) { report.violations.push_back(message); };

  // Static validation + frame creation.
  std::vector<Frame> frames;
  for (std::size_t f = 0; f < state.size(); ++f) {
    if (!state[f]) continue;
    const FlowAssignment& a = *state[f];
    const FlowSpec& flow = problem.flows[f];
    const FlowTiming timing = FlowTiming::of(problem, flow);

    if (a.path.size() < 2 || a.slots.size() + 1 != a.path.size()) {
      violation("flow " + std::to_string(f) + ": malformed assignment");
      continue;
    }
    if (a.path.front() != flow.source || a.path.back() != flow.destination) {
      violation("flow " + std::to_string(f) + ": path endpoints do not match the flow");
      continue;
    }
    bool causal = true;
    for (std::size_t h = 0; h < a.slots.size(); ++h) {
      if (a.slots[h] < 0 || a.slots[h] >= slots) {
        violation("flow " + std::to_string(f) + ": slot out of range");
        causal = false;
        break;
      }
      if (h > 0 && a.slots[h] <= a.slots[h - 1]) {
        violation("flow " + std::to_string(f) + ": non-causal slot order");
        causal = false;
        break;
      }
    }
    if (!causal) continue;
    // A hop beyond the flow's period window would collide with the next
    // frame's schedule.
    if (a.slots.back() >= timing.period_slots) {
      violation("flow " + std::to_string(f) + ": schedule exceeds the period window");
      continue;
    }

    for (int rep = 0; rep < timing.repetitions; ++rep) {
      Frame frame;
      frame.flow = f;
      frame.repetition = rep;
      frame.release_slot = rep * timing.period_slots;
      frames.push_back(frame);
      ++report.frames_injected;
    }
  }

  execute_reference(topology, scenario, state, frames, report);

  for (const Frame& frame : frames) {
    if (!frame.delivered && !frame.dropped) {
      violation(frame_tag(frame) + ": stranded mid-path at the end of the base period");
    }
  }

  report.ok = report.violations.empty() && report.frames_delivered == report.frames_injected;
  return report;
}

}  // namespace nptsn
