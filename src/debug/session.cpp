#include "debug/session.hpp"

#include <algorithm>
#include <memory>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "online/guard.hpp"
#include "predicates/global_predicate.hpp"
#include "trace/lattice.hpp"
#include "trace/recovery.hpp"
#include "util/check.hpp"

namespace predctrl::debug {

namespace {
// !B for disjunctive B: every local predicate false at once.
PredicateTable negate_table(const PredicateTable& table) {
  PredicateTable neg = table;
  for (auto& row : neg)
    for (size_t k = 0; k < row.size(); ++k) row[k] = !row[k];
  return neg;
}
}  // namespace

std::vector<Cut> Observation::violating_cuts() const {
  PREDCTRL_OBS_SPAN(span, "session.detect", "session");
  auto cuts = all_conjunctive_cuts(run.deposet, negate_table(predicate));
  span.add_arg("violations", static_cast<int64_t>(cuts.size()));
  PREDCTRL_OBS_RECORD("session.phase.detect.wall_us", span.elapsed_us());
  return cuts;
}

std::optional<Cut> Observation::first_violation() const {
  PREDCTRL_OBS_SPAN(span, "session.detect", "session");
  ConjunctiveDetection d = detect_weak_conjunctive(run.deposet, negate_table(predicate));
  span.add_arg("detected", static_cast<int64_t>(d.detected ? 1 : 0));
  PREDCTRL_OBS_RECORD("session.phase.detect.wall_us", span.elapsed_us());
  if (!d.detected) return std::nullopt;
  return d.first_cut;
}

bool Observation::run_violated() const {
  for (const Cut& c : run.cut_timeline())
    if (!eval_disjunctive(predicate, c)) return true;
  return false;
}

Session::Session(sim::ScriptedSystem system, LocalPredicate predicate,
                 sim::SimOptions options)
    : system_(std::move(system)), predicate_(std::move(predicate)),
      options_(options) {
  PREDCTRL_CHECK(!system_.empty(), "empty system");
  PREDCTRL_CHECK(static_cast<bool>(predicate_), "null predicate");
}

Observation Session::observe(uint64_t seed) const { return observe_impl(seed, nullptr); }

const char* to_string(ControlFailure::Kind kind) {
  switch (kind) {
    case ControlFailure::Kind::kNone: return "none";
    case ControlFailure::Kind::kAssumptionViolated: return "assumption-violated";
    case ControlFailure::Kind::kLostControlMessage: return "lost-control-message";
    case ControlFailure::Kind::kCrashedHolder: return "crashed-holder";
    case ControlFailure::Kind::kPartitioned: return "partitioned";
    case ControlFailure::Kind::kCorruptedLink: return "corrupted-link";
  }
  return "unknown";
}

namespace {

// The liveness watchdog's classifier. Runs over the quiescence report,
// controller telemetry, and fault plan of a guarded run that either stalled
// (deadlocked) or degraded; precedence: crashed holder > partition >
// corrupted link > lost control messages > A1.
ControlFailure classify_control_failure(const GuardedObservation& g, int32_t n,
                                        const fault::FaultPlan* faults) {
  ControlFailure f;
  const sim::RunResult& run = g.obs.run;

  // The frontier of the partial trace: the last state each process entered.
  f.blocked_cut = Cut(n);
  for (ProcessId p = 0; p < n; ++p)
    f.blocked_cut[p] =
        static_cast<int32_t>(run.entry_times[static_cast<size_t>(p)].size()) - 1;

  f.scapegoat_chain.reserve(g.telemetry.chain.size());
  for (const auto& [at, controller] : g.telemetry.chain)
    f.scapegoat_chain.push_back(controller);
  f.blocked = run.quiescence.blocked;
  f.recovery = compute_recovery_line(run.deposet, latest_checkpoints(run.deposet));

  // Guards occupy agent ids [n, 2n) -- a crashed guard whose controller
  // still reports is_scapegoat() (state frozen at the crash) is a crashed
  // anti-token holder.
  for (sim::AgentId a : run.quiescence.crashed) {
    const int32_t guard_index = a - n;
    if (guard_index < 0 || guard_index >= n) continue;
    if (std::find(g.telemetry.holders_at_end.begin(), g.telemetry.holders_at_end.end(),
                  guard_index) == g.telemetry.holders_at_end.end())
      continue;
    f.kind = ControlFailure::Kind::kCrashedHolder;
    f.detail = "controller " + std::to_string(guard_index) +
               " crashed while holding the anti-token; handoffs aimed at it can "
               "never complete";
    return f;
  }

  // A partition that swallowed traffic explains a wedged minority side: the
  // severed links are a deterministic mask, so no amount of retransmission
  // heals them while the epoch holds -- and drops during an epoch that
  // later healed stay lost if nothing retransmitted them. Evidence: the
  // offending epoch itself.
  if (faults != nullptr && run.stats.partition_drops > 0 && g.obs.run.deadlocked) {
    const sim::SimTime end = run.stats.end_time;
    const fault::PartitionEpoch* offending = faults->partition_at(end);
    const bool still_split = offending != nullptr;
    if (offending == nullptr) {
      // Healed before quiescence: blame the last epoch that was in force.
      for (const fault::PartitionEpoch& e : faults->partitions)
        if (e.from <= end && (offending == nullptr || e.from > offending->from))
          offending = &e;
    }
    if (offending != nullptr) {
      f.kind = ControlFailure::Kind::kPartitioned;
      f.partition = *offending;
      f.detail = "network partition severed " +
                 std::to_string(run.stats.partition_drops) + " message(s); " +
                 (still_split
                      ? std::string("the partition was still in force at quiescence -- "
                                    "the minority side can never make progress")
                      : std::string("messages severed before the heal were never "
                                    "recovered"));
      return f;
    }
  }

  // Byzantine corruption that actually flipped payloads starves verified
  // delivery: quarantined control traffic self-heals by nak+retransmit, but
  // a corrupted APPLICATION message is discarded at the receiver with no
  // retransmission below it -- the receive wedges forever.
  if (run.stats.corrupted_messages > 0 && g.obs.run.deadlocked) {
    f.kind = ControlFailure::Kind::kCorruptedLink;
    f.detail = "Byzantine link corrupted " + std::to_string(run.stats.corrupted_messages) +
               " message(s) in flight (" + std::to_string(g.telemetry.corrupt_quarantined) +
               " quarantined by control links); a discarded application payload "
               "has no retransmission layer beneath it, so its receiver is "
               "wedged";
    return f;
  }

  if (g.telemetry.link_give_ups > 0) {
    f.kind = ControlFailure::Kind::kLostControlMessage;
    f.detail = "control messages lost beyond retransmission (" +
               std::to_string(g.telemetry.link_give_ups) + " give-ups after " +
               std::to_string(g.telemetry.retransmits) + " retransmits)";
    if (g.telemetry.control_released())
      f.detail += "; control released by controller " +
                  std::to_string(g.telemetry.released.front()) +
                  " -- run completed degraded";
    return f;
  }

  f.kind = ControlFailure::Kind::kAssumptionViolated;
  f.detail = run.quiescence.crashed.empty()
                 ? std::string(
                       "guarded run blocked with control intact: the system "
                       "violates assumption A1 (a process blocks while its local "
                       "predicate is false)")
                 : std::string("agent outage stalled the run: a crashed agent "
                               "blocks forever, violating the progress assumption A1");
  return f;
}

}  // namespace

GuardedObservation Session::observe_guarded(uint64_t seed,
                                            const online::ScapegoatOptions& strategy,
                                            const fault::FaultPlan* faults) const {
  PREDCTRL_OBS_SPAN(span, "session.observe_guarded", "session");
  const int32_t n = static_cast<int32_t>(system_.size());

  // Static truth table: a script's variables at state (p, k) are
  // initial_vars overlaid with updates[0..k-1], independent of scheduling,
  // so l_p over every reachable state is known before any run.
  PredicateTable script_truth = sim::script_predicate_table(system_, predicate_);
  const PredicateTable truth = online::enforce_online_assumptions(system_, script_truth);

  sim::SimOptions opt = options_;
  opt.seed = seed;

  GuardedObservation g;
#if PREDCTRL_OBS_ENABLED
  // Arm the causal flight recorder unless the caller installed their own.
  // Recording is strictly passive: the run is byte-identical with or without
  // it (tests/test_flight_recorder.cpp pins this down).
  if (opt.flight_recorder == nullptr) {
    g.flight = std::make_shared<obs::FlightRecorder>();
    opt.flight_recorder = g.flight.get();
    // Agent layout in guarded runs: processes [0, n), guards [n, 2n).
    for (int32_t i = 0; i < n; ++i) {
      g.flight->set_label(i, "P" + std::to_string(i));
      g.flight->set_label(n + i, "G" + std::to_string(i));
    }
  }
#endif
  g.obs.run = online::run_scripts_guarded(system_, truth, opt, strategy, faults,
                                          &g.telemetry);
  // The run traced a prefix of each script, so its table is the script
  // table cut to the traced lengths -- the same walk, not a second one.
  g.obs.predicate = std::move(script_truth);
  for (ProcessId p = 0; p < n; ++p)
    g.obs.predicate[static_cast<size_t>(p)].resize(
        static_cast<size_t>(g.obs.run.deposet.length(p)));
  g.degraded = g.telemetry.control_released();

  // Liveness watchdog: a stalled or degraded run gets a structured verdict,
  // never a bare deadlock flag.
  if (g.obs.run.deadlocked || g.degraded) {
    PREDCTRL_OBS_SPAN(wspan, "session.watchdog", "session");
    g.failure = classify_control_failure(g, n, faults);
    wspan.add_arg("kind", std::string(to_string(g.failure.kind)));
    PREDCTRL_OBS_COUNT("session.watchdog.firings", 1);
#if PREDCTRL_OBS_ENABLED
    // Forensics: stamp the verdict itself into the recorder (causally after
    // everything it explains), then attach the merged timeline to the
    // failure and cross-link the events into any live Chrome trace.
    if (obs::FlightRecorder* fr = opt.flight_recorder; fr != nullptr) {
      PREDCTRL_FLIGHT(fr, "session.verdict", kVerdict, -1, g.obs.run.stats.end_time,
                      -1, static_cast<int64_t>(g.failure.kind), 0,
                      std::string(to_string(g.failure.kind)) + ": " + g.failure.detail);
      g.failure.flight_timeline = fr->render_text();
      if (obs::recording()) fr->export_to(obs::default_recorder());
    }
#endif
  }

  span.add_arg("seed", static_cast<int64_t>(seed));
  span.add_arg("vt_us", g.obs.run.stats.end_time);
  span.add_arg("control_messages", g.obs.run.stats.control_messages);
  span.add_arg("retransmits", g.telemetry.retransmits);
  span.add_arg("failure", std::string(to_string(g.failure.kind)));
  return g;
}

Observation Session::observe_impl(uint64_t seed, const ControlStrategy* strategy) const {
  const char* phase = strategy == nullptr ? "observe" : "replay";
  PREDCTRL_OBS_SPAN(span, strategy == nullptr ? "session.observe" : "session.replay",
                    "session");
  sim::SimOptions opt = options_;
  opt.seed = seed;
  Observation obs;
  obs.run = sim::run_scripts(system_, opt, strategy);
  obs.predicate = obs.run.predicate_table(system_, predicate_);
  span.add_arg("seed", static_cast<int64_t>(seed));
  span.add_arg("vt_us", obs.run.stats.end_time);
  span.add_arg("events", obs.run.stats.events_processed);
  // Causal knowledge built online, one append per state, and adopted by
  // the deposet -- detect/control below never recompute clocks.
  span.add_arg("clock_appends", obs.run.clocks.total_states());
  if (obs::recording()) {
    const std::string prefix = std::string("session.phase.") + phase;
    obs::default_metrics().histogram(prefix + ".wall_us").record(span.elapsed_us());
    obs::default_metrics().histogram(prefix + ".vtime_us").record(obs.run.stats.end_time);
  }
  return obs;
}

ControlOutcome Session::synthesize_control(const Observation& obs,
                                           const OfflineControlOptions& options) const {
  PREDCTRL_OBS_SPAN(span, "session.control", "session");
  ControlOutcome outcome;
  outcome.details = control_disjunctive_offline(obs.run.deposet, obs.predicate, options);
  outcome.controllable = outcome.details.controllable;
  if (outcome.controllable)
    outcome.strategy = ControlStrategy::compile(obs.run.deposet, outcome.details.control);
  span.add_arg("controllable", static_cast<int64_t>(outcome.controllable ? 1 : 0));
  span.add_arg("edges", static_cast<int64_t>(outcome.details.control.size()));
  PREDCTRL_OBS_RECORD("session.phase.control.wall_us", span.elapsed_us());
  return outcome;
}

Observation Session::replay(const ControlOutcome& control, uint64_t seed) const {
  PREDCTRL_CHECK(control.controllable && control.strategy.has_value(),
                 "cannot replay without a controller");
  return observe_impl(seed, &*control.strategy);
}

}  // namespace predctrl::debug
