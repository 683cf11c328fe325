// Scripted application processes on the simulator: the bridge between the
// deposet model and executable runs.
//
// A Script is the paper's "local execution" made concrete: a sequence of
// instructions, each performing one event (local step, message send, or
// message receive) and entering one new local state with updated variables.
// Running a ScriptedSystem:
//
//   * records the resulting computation as a deposet plus state entry times
//     (the Tracer half of the observe/replay cycle), and
//   * optionally enforces a compiled ControlStrategy (the Replayer half):
//     before entering a state with a wait obligation the process blocks
//     until the matching control token -- sent when the source state was
//     exited -- arrives on the control plane.
//
// Message matching is by per-channel sequence number, so the deposet
// produced by a run is a function of the scripts alone; delivery delays
// only change *when* cuts happen, never the causal structure. That gives
// the round-trip property tests their teeth: deposet -> scripts -> run ->
// traced deposet is the identity. The same holds for variables: state
// (p, k) carries the script's initial_vars overlaid with the updates of its
// first k instructions, whatever the schedule, so runs record no variable
// values at all -- predicate tables are read from the scripts for the
// traced prefix (RunResult::predicate_table).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "causality/clock_matrix.hpp"
#include "causality/vector_clock.hpp"
#include "control/strategy.hpp"
#include "runtime/sim.hpp"
#include "trace/cut.hpp"
#include "trace/deposet.hpp"
#include "trace/random_trace.hpp"

namespace predctrl::fault {
struct FaultPlan;
}

namespace predctrl::sim {

/// Local variable values of one state. Ordered map: deterministic rendering.
using VarMap = std::map<std::string, int64_t>;

/// Local-plane protocol between a gated process and its guard (an on-line
/// controller such as online::ScapegoatController):
///   kGateWantFalse  process -> guard  permission to enter a false state
///   kGateGrant      guard -> process  transition may proceed
///   kGateNowTrue    process -> guard  local predicate is true again
enum GateMsg : int32_t {
  kGateWantFalse = 100,
  kGateGrant = 101,
  kGateNowTrue = 102,
};

/// Detection-plane protocol between processes and an on-line detector
/// (online/wcp_detector.hpp):
///   kDetectCandidate  a: state index; clock: the state's vector clock --
///                     sent for every state satisfying the watched local
///                     condition;
///   kDetectDone       the process reached its final state.
enum DetectMsg : int32_t {
  kDetectCandidate = 130,
  kDetectDone = 131,
};

/// On-line detection of a scripted run (see run_scripts): each process
/// streams the vector clocks of its condition-satisfying states to a
/// detector agent while the computation runs.
struct OnlineDetection {
  /// conditions[p][k] = c_p at state (p, k); shapes must match the scripts.
  PredicateTable conditions;
  /// Called after the n process agents are registered; must add the
  /// detector and return its agent id.
  std::function<AgentId(SimEngine&)> make_detector;
};

/// On-line gating of a scripted run (see run_scripts): each process asks its
/// guard before any true->false transition of its local predicate and
/// reports false->true transitions, so an on-line strategy can maintain
/// B = l_1 v ... v l_n on a computation nobody traced beforehand.
struct OnlineGating {
  /// truth[p][k] = l_p at state (p, k); shapes must match the scripts.
  PredicateTable truth;
  /// Called after the n process agents (ids 0..n-1) are registered; must add
  /// one guard agent per process and return their ids in process order.
  std::function<std::vector<AgentId>(SimEngine&)> make_guards;
  /// Called after the run, while the engine (and the guard agents) still
  /// exist -- the hook through which callers harvest controller telemetry
  /// (scapegoat chain, link stats) before run_scripts tears the engine down.
  std::function<void(SimEngine&)> on_quiesce;
};

/// One instruction = one event = one new local state.
struct Instr {
  enum class Kind : uint8_t { kLocal, kSend, kRecv };
  Kind kind = Kind::kLocal;
  /// Compute time consumed before the event fires.
  SimTime duration = 1'000;
  /// Peer process (not agent id) for kSend / kRecv.
  ProcessId peer = -1;
  /// Variable assignments applied upon entering the new state.
  VarMap updates;
};

/// A process's full behaviour: initial variables plus its event list.
struct Script {
  VarMap initial_vars;
  std::vector<Instr> instrs;
};

using ScriptedSystem = std::vector<Script>;

/// A local predicate over one state's variables: l_p(vars).
using LocalPredicateFn = std::function<bool(ProcessId, const VarMap&)>;

/// Evaluates `local` on every state of every script -- the truth table of a
/// variable-defined disjunctive predicate over any complete run of `system`
/// (a state's variables do not depend on the schedule).
PredicateTable script_predicate_table(const ScriptedSystem& system,
                                      const LocalPredicateFn& local);

/// Everything observed from one run.
struct RunResult {
  /// The traced computation (application messages only; control causality is
  /// in the strategy, not re-traced).
  Deposet deposet;
  /// clocks[p][k] = the clock row process p computed ON-LINE when it
  /// entered state k (one append_row per state; piggybacked on application
  /// messages). This very matrix is adopted as the deposet's causal
  /// knowledge (DeposetBuilder::build_with_clocks) -- nothing is
  /// recomputed post hoc -- so the tests cross-check it against an
  /// independently batch-computed slab instead.
  AppendableClockMatrix clocks;
  /// (time, state) entry log per process; state k was entered at
  /// entry_times[p][k] (state 0 at time 0).
  std::vector<std::vector<SimTime>> entry_times;
  SimStats stats;
  /// Agents still waiting at quiescence: non-empty means deadlock.
  std::vector<std::pair<AgentId, std::string>> blocked;
  bool deadlocked = false;
  /// Full per-agent quiescence context (last delivered message, pending
  /// timers, crash state) -- the watchdog's evidence when `deadlocked`.
  QuiescenceReport quiescence;

  /// The sequence of global states this run actually passed through
  /// (state entries ordered by time; simultaneous entries advance together).
  std::vector<Cut> cut_timeline() const;

  /// Evaluates `local` on every traced state's variables: the truth table
  /// of a variable-defined disjunctive predicate over the traced
  /// computation. `system` must be the system that produced this run; each
  /// process's variables are read from its script for the
  /// deposet.length(p) states it entered (a wedged or crashed run traces a
  /// prefix).
  PredicateTable predicate_table(const ScriptedSystem& system,
                                 const LocalPredicateFn& local) const;
};

/// Runs the system to quiescence. With a strategy, control tokens enforce
/// the compiled relation (off-line replay); with gating, processes are
/// guarded by on-line controllers. The run can then deadlock only if the
/// strategy was compiled with check_deadlock=false (experiments), the
/// gated system violates assumption A1, or scripts themselves are
/// mismatched. With an ACTIVE fault plan (fault/fault_plan.hpp), a
/// FaultInjector is installed for the run: messages may drop / duplicate /
/// delay and agents may crash per the plan, all deterministically from the
/// plan's own seed. An inactive (or null) plan leaves the run byte-identical
/// to a build without the fault plane.
RunResult run_scripts(const ScriptedSystem& system, const SimOptions& options,
                      const ControlStrategy* strategy = nullptr,
                      const OnlineGating* gating = nullptr,
                      const OnlineDetection* detection = nullptr,
                      const fault::FaultPlan* faults = nullptr);

/// Converts any deposet into an executable system: each event becomes an
/// instruction (sends/receives derived from the message edges), with
/// durations drawn from [min_duration, max_duration] and a boolean variable
/// "ok" tracking `predicate` (when given) so the traced run carries the
/// local predicates along.
ScriptedSystem scripts_from_deposet(const Deposet& deposet, const PredicateTable* predicate,
                                    Rng& rng, SimTime min_duration = 500,
                                    SimTime max_duration = 2'000);

/// The "ok" local predicate matching scripts_from_deposet's annotation.
bool ok_var(ProcessId p, const VarMap& vars);

}  // namespace predctrl::sim
