// Fault plans: seeded, fully deterministic descriptions of what goes wrong.
//
// The paper's on-line control protocol (Section 6, Figure 3) is correct
// only under reliable channels and assumptions A1/A2 -- Theorem 3 makes
// control impossible when they fail. A FaultPlan lets tests and benches
// break those assumptions ON PURPOSE, reproducibly: per-plane probabilities
// of dropping, duplicating, delay-spiking, or reordering a message, an
// explicit scripted schedule ("drop the 3rd control send"), and per-agent
// crash/restart events at chosen virtual times.
//
// Determinism rules (the same absolute rule as the rest of the system:
// same seed + same plan => byte-identical run):
//
//   * All fault randomness comes from one Rng seeded with FaultPlan::seed,
//     owned by the FaultInjector -- never from the engine's Rng, so
//     installing a plan does not perturb a single engine draw, and a plan
//     with all rates zero and no events is behaviorally invisible.
//   * Rate draws happen in a fixed per-message order (drop, duplicate,
//     spike, reorder -- short-circuiting after drop), indexed by the
//     deterministic send sequence of the simulation.
//   * The simulator is single-threaded, so no scheduling order can leak
//     into fault behavior.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/sim.hpp"

namespace predctrl::fault {

/// Fault probabilities for one message plane. All in [0, 1].
struct PlaneRates {
  double drop = 0.0;
  double duplicate = 0.0;
  /// Probability of an extra-delay spike drawn from [spike_min, spike_max].
  double delay_spike = 0.0;
  /// Probability of deferring delivery past the normal delay window (an
  /// explicit reorder against any FIFO expectation): the extra delay is
  /// drawn from [reorder_min, reorder_max].
  double reorder = 0.0;
  /// Probability of flipping payload bits in flight (Byzantine link). The
  /// message still arrives; detection is the receiver's job via the
  /// engine-stamped checksum. Drawn LAST in the injector's fixed order so
  /// adding corruption to a plan does not shift the plan's existing
  /// drop/duplicate/spike/reorder draw sequence.
  double corrupt = 0.0;

  bool any() const {
    return drop > 0 || duplicate > 0 || delay_spike > 0 || reorder > 0 || corrupt > 0;
  }
};

/// One partition epoch: from virtual time `from` until `until` (exclusive;
/// -1 = never heals), agents in different `groups` cannot exchange
/// application- or control-plane messages -- every such send is swallowed.
/// Agents not listed in any group are unaffected, and the kLocal plane
/// (co-located process/controller pairs) is never severed: a partition cuts
/// the network, not a process in half. The mask is a pure function of
/// virtual time, so enforcing it draws nothing from any Rng.
struct PartitionEpoch {
  sim::SimTime from = 0;
  sim::SimTime until = -1;  ///< exclusive end; -1 = the partition never heals
  std::vector<std::vector<sim::AgentId>> groups;

  bool covers(sim::SimTime t) const { return t >= from && (until < 0 || t < until); }
  /// Index of the group containing `id`, or -1 when unlisted.
  int32_t group_of(sim::AgentId id) const;
  /// True iff the epoch separates the two agents (both listed, different
  /// groups).
  bool severs(sim::AgentId a, sim::AgentId b) const;
};

/// One scheduled agent crash, with an optional restart.
struct CrashEvent {
  sim::AgentId agent = -1;
  sim::SimTime at = 0;           ///< must be > 0 (after every on_start)
  sim::SimTime restart_at = -1;  ///< -1 = the agent never comes back
};

/// One scripted fault: forces an action on the k-th send (0-based, counted
/// per plane across the whole run), regardless of the random rates.
struct ScriptedFault {
  enum class Action : uint8_t { kDrop, kDuplicate, kDelaySpike, kReorder, kCorrupt };
  sim::Message::Plane plane = sim::Message::Plane::kControl;
  int64_t send_index = 0;
  Action action = Action::kDrop;
};

struct FaultPlan {
  uint64_t seed = 1;
  /// Indexed by sim::Message::Plane (application, control, local). The
  /// local plane models co-located process/controller pairs, so faulting it
  /// is unusual -- but the knob exists.
  PlaneRates rates[3];
  /// Extra-delay range for delay spikes.
  sim::SimTime spike_min = 20'000;
  sim::SimTime spike_max = 100'000;
  /// Extra-delay range for reorder deferrals (should exceed the engine's
  /// max_delay so the deferred message genuinely lands behind later sends).
  sim::SimTime reorder_min = 10'000;
  sim::SimTime reorder_max = 40'000;
  std::vector<CrashEvent> crashes;
  std::vector<ScriptedFault> script;
  /// Time-varying link mask. Epochs must not overlap (validate() rejects
  /// it), so at most one is active at any instant.
  std::vector<PartitionEpoch> partitions;

  PlaneRates& plane(sim::Message::Plane p) { return rates[static_cast<size_t>(p)]; }
  const PlaneRates& plane(sim::Message::Plane p) const {
    return rates[static_cast<size_t>(p)];
  }

  /// The epoch covering virtual time `t`, or nullptr when the network is
  /// whole at `t`.
  const PartitionEpoch* partition_at(sim::SimTime t) const;

  /// True iff the plan can ever corrupt a payload (any corrupt rate > 0 or
  /// a scripted kCorrupt) -- the signal for the engine to start stamping
  /// per-message checksums.
  bool corrupts() const;

  /// True iff the plan can change anything at all. An inactive plan is
  /// byte-identical to running with no plan -- and callers (online/guard,
  /// mutex runners) use this to decide whether to arm the ack+retransmit
  /// layer, so an inactive plan also adds zero control-plane traffic.
  bool active() const;

  /// Validates rates, ranges, and event times; `num_agents` < 0 skips the
  /// agent-id range check (plans built before the engine exists).
  void validate(int32_t num_agents = -1) const;
};

}  // namespace predctrl::fault
