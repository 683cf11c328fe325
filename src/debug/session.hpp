// The active-debugging cycle -- paper, Sections 1 & 7.
//
// A Session wraps one scripted system and walks the paper's loop:
//
//   observe   -- run the system on the simulator and trace the deposet;
//   detect    -- find global states of the trace where a safety predicate
//                B = l_1 v ... v l_n breaks (weak-conjunctive detection of
//                !B, the detector of the paper's reference [4]);
//   control   -- synthesize the off-line control relation for B over the
//                trace (Figure 2) and compile it to an executable strategy;
//   replay    -- re-run the same system with the control messages enforced
//                and confirm the run never passes a violating global state.
//
// The on-line half of the cycle (guarding fresh runs) lives in
// online/scapegoat.hpp; examples/replicated_servers.cpp strings the whole
// Section 7 story together. Session::observe_guarded runs that on-line half
// under this roof -- optionally under an injected FaultPlan -- and wraps it
// in a liveness watchdog: a guarded run that quiesces with outstanding work
// (or completes only by releasing control) comes back as a structured
// ControlFailure naming the blocked cut, the scapegoat chain, and a
// recovery line, never as a hang.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/offline_disjunctive.hpp"
#include "control/strategy.hpp"
#include "fault/fault_plan.hpp"
#include "online/guard.hpp"
#include "predicates/detection.hpp"
#include "runtime/scripted.hpp"
#include "trace/recovery.hpp"

namespace predctrl::obs {
class FlightRecorder;
}

namespace predctrl::debug {

/// A disjunctive safety predicate over traced variables: local(p, vars) is
/// l_p evaluated on a state's variable values.
using LocalPredicate = sim::LocalPredicateFn;

/// Everything learned from one observation of the system.
struct Observation {
  sim::RunResult run;
  /// Truth table of the predicate over the traced states (filled by
  /// Session::observe when a predicate is installed).
  PredicateTable predicate;

  /// All consistent global states of the trace violating B (exhaustive;
  /// fine at debugging scale). These are the paper's G and H.
  std::vector<Cut> violating_cuts() const;
  /// The least violating cut, via the efficient detector.
  std::optional<Cut> first_violation() const;
  /// Did this particular run actually pass through a violating state?
  bool run_violated() const;
};

struct ControlOutcome {
  bool controllable = false;
  OfflineControlResult details;
  /// Compiled, executable strategy; meaningful iff controllable.
  std::optional<ControlStrategy> strategy;
};

/// The watchdog's verdict on a guarded run that did not complete cleanly.
/// Classification precedence: a crashed anti-token holder explains
/// everything downstream of it; then an active (or unhealed) network
/// partition that provably swallowed traffic; then Byzantine corruption
/// that actually flipped payloads; otherwise exhausted retransmissions
/// point at lost control messages; otherwise the system itself broke
/// assumption A1 (blocked while false -- the paper's impossibility
/// territory).
struct ControlFailure {
  enum class Kind : uint8_t {
    kNone,                 ///< the run completed normally
    kAssumptionViolated,   ///< A1 broken: a process blocked while false
    kLostControlMessage,   ///< handoff traffic lost beyond recovery
    kCrashedHolder,        ///< the scapegoat's controller crashed mid-hold
    kPartitioned,          ///< a link-mask epoch wedged the minority side
    kCorruptedLink,        ///< Byzantine bit-flips starved verified delivery
  };
  Kind kind = Kind::kNone;
  /// Human-readable one-line diagnosis.
  std::string detail;
  /// The global state (one state index per process) the run was stuck at --
  /// the frontier of the partial trace.
  Cut blocked_cut;
  /// Anti-token custody in adoption order (controller indices; the initial
  /// scapegoat first). The last entry is the holder at failure time.
  std::vector<int32_t> scapegoat_chain;
  /// Engine-level evidence: each blocked agent with its waiting reason, last
  /// delivered message, and pending timers.
  std::vector<sim::AgentQuiescence> blocked;
  /// Where a re-execution could safely resume: the greatest consistent cut
  /// under the partial trace's final states (trace/recovery.hpp).
  RecoveryLine recovery;
  /// The offending link mask, set iff kind == kPartitioned: the epoch whose
  /// severed links explain the wedge (still in force at quiescence, or the
  /// last one whose drops were never recovered).
  std::optional<fault::PartitionEpoch> partition;
  /// Causally-ordered flight timeline of the run (obs/flight_recorder.hpp),
  /// rendered as text -- the forensic history behind the verdict. Empty when
  /// the build compiles observability out.
  std::string flight_timeline;

  bool failed() const { return kind != Kind::kNone; }
};

/// Name of a ControlFailure kind, for logs and tools.
const char* to_string(ControlFailure::Kind kind);

/// Everything learned from one guarded (on-line controlled) observation.
struct GuardedObservation {
  Observation obs;
  online::ScapegoatTelemetry telemetry;
  /// kNone when the run completed with control intact.
  ControlFailure failure;
  /// True iff the run only completed because some controller released
  /// control (graceful degradation): the trace is complete but the safety
  /// guarantee lapsed from the release onward.
  bool degraded = false;
  /// The run's causal flight recorder (null when observability is compiled
  /// out, or when the caller supplied their own through SimOptions). Tools
  /// dump it as predctrl-flight-v1 JSON or re-merge it on demand.
  std::shared_ptr<obs::FlightRecorder> flight;
};

class Session {
 public:
  /// `system` is the program under debug; `predicate` the safety property to
  /// maintain; `options` the simulated network.
  Session(sim::ScriptedSystem system, LocalPredicate predicate,
          sim::SimOptions options = {});

  /// Runs the system once (seed selects the schedule) and returns the trace.
  Observation observe(uint64_t seed) const;

  /// Runs the system once with every process gated by an on-line scapegoat
  /// controller maintaining B (the predicate installed in this session),
  /// optionally under an injected fault plan. The local truth table is
  /// computed statically from the scripts (their variables evolve
  /// schedule-independently) and adjusted by enforce_online_assumptions.
  /// Never hangs: if the run quiesces with outstanding work, or completes
  /// only by releasing control, the watchdog classifies the failure and the
  /// partial trace is still returned in `obs`.
  GuardedObservation observe_guarded(uint64_t seed,
                                     const online::ScapegoatOptions& strategy = {},
                                     const fault::FaultPlan* faults = nullptr) const;

  /// Off-line control (Figure 2) for the predicate over an observation.
  ControlOutcome synthesize_control(const Observation& obs,
                                    const OfflineControlOptions& options = {}) const;

  /// Controlled replay: the same system, the same kind of schedule, plus the
  /// strategy's control messages.
  Observation replay(const ControlOutcome& control, uint64_t seed) const;

  const sim::ScriptedSystem& system() const { return system_; }

 private:
  Observation observe_impl(uint64_t seed, const ControlStrategy* strategy) const;

  sim::ScriptedSystem system_;
  LocalPredicate predicate_;
  sim::SimOptions options_;
};

}  // namespace predctrl::debug
