// predctl_tool -- command-line front end for the library's file formats.
//
// Usage:
//   predctl_tool feasible   <deposet-file> <predicate-file> [realtime|simultaneous]
//   predctl_tool detect     <deposet-file> <predicate-file>
//   predctl_tool control    <deposet-file> <predicate-file> [realtime|simultaneous]
//   predctl_tool dot        <deposet-file> [predicate-file]
//   predctl_tool slice      <deposet-file> <predicate-file> [--slice-out=FILE]
//   predctl_tool races      <deposet-file>
//   predctl_tool quickstart
//   predctl_tool flight
//   predctl_tool save-trace  <deposet-file> [predicate-file] --out=FILE
//   predctl_tool save-trace  --random=P,E[,SEED] --out=FILE
//   predctl_tool open-trace  <trace-file> [stat|detect|races|control] [--salvage]
//   predctl_tool minimize-fault   (with fault flags forming the plan to shrink)
//
// Global flags (any command; may appear anywhere):
//   --trace-out=FILE    write a Chrome trace_event JSON (chrome://tracing /
//                       Perfetto-loadable) of the run
//   --metrics-out=FILE  write a metrics-registry JSON snapshot
//   --trace-points=SPEC runtime trace-point filter for the flight recorder
//                       (obs/trace_point.hpp), e.g. "sim.*,guard.handoff,-fault.*".
//                       Overrides the PREDCTRL_TRACE environment variable.
//   --flight-out=FILE   where to write the predctrl-flight-v1 JSON dump when a
//                       flight timeline is produced (default predctrl-flight.json)
//   --fault-seed=N      seed of the fault plan's own Rng (fault/, default 1)
//   --fault-drop=P      drop each control-plane message with probability P
//   --fault-corrupt=P   Byzantine bit-flip each application- and control-plane
//                       message with probability P (checksums arm automatically;
//                       links quarantine and NAK, processes discard)
//   --fault-crash=A@T   crash agent A at virtual time T (quickstart's guarded
//                       run: processes are agents 0..n-1, their guards
//                       n..2n-1)
//   --fault-drop-at=K   scripted drop of the K-th control-plane send (0-based)
//   --fault-partition=GROUPS@FROM[-UNTIL]
//                       sever links between agent groups over a time window,
//                       e.g. "0,2|1,3@5000-200000" splits agents {0,2} from
//                       {1,3} from t=5000 until t=200000 (omit -UNTIL for a
//                       partition that never heals). Repeatable; epochs must
//                       not overlap in time.
// Either output flag turns recording on (obs/obs.hpp). The fault flags apply
// to quickstart's on-line guarded runs: the control plane self-heals via
// ack+retransmission, and unrecoverable failures are reported as a
// structured ControlFailure (watchdog verdict, blocked cut, scapegoat
// chain, recovery line) instead of hanging. A failing verdict additionally
// carries the causal flight timeline (obs/flight_recorder.hpp): the merged,
// happens-before-ordered event history of every agent, printed inside the
// verdict block and dumped as predctrl-flight-v1 JSON.
//
// `minimize-fault` takes the fault flags as a plan that produces a failing
// watchdog verdict on the quickstart's guarded run, and ddmin-shrinks it
// (fault/minimize.hpp) to a locally minimal plan producing the SAME verdict
// kind -- each probe is one deterministic re-run of the sim. It prints the
// surviving units and re-runs the minimal plan twice to demonstrate the
// verdict reproduces byte-for-byte. docs/TUTORIAL.md walks through it.
//
// `open-trace --salvage` recovers what it can from a torn predctrl-trace-v1
// file (truncated copy, interrupted download): the longest CRC-valid prefix
// of sections is adopted as a partial deposet -- with the vector clocks
// recomputed from lengths + messages when the clock slab itself was torn --
// and the salvage report (sections recovered, payloads dropped) is printed
// before the analysis runs on what survived.
//
// `flight` runs the quickstart's guarded scenario (honouring the fault
// flags) and prints the merged flight timeline unconditionally -- the
// on-demand forensic view, no failure required.
//
// `slice` computes the computation slice (src/slice/) of the deposet with
// respect to the predicate table read as a conjunctive regular predicate:
// for every state it reports J(s) fixpoint work, then either the gap state
// proving the predicate unreachable (exit 1 -- the polynomial infeasibility
// knockout behind slice-pruned control) or the added constraint edges. On
// enumerable instances it also prints the lattice-reduction ratio.
// --slice-out=FILE saves the slice as a first-class predctrl-trace-v1 file
// (with the predicate), so open-trace can stat/detect/control the slice
// like any other trace.
//
// `save-trace` serializes a built deposet (plus its local predicates and
// false-interval tables, when a predicate is given) to the binary
// predctrl-trace-v1 format of docs/FORMAT.md. `--random=P,E[,SEED]`
// generates a P-process, ~E-events-per-process random trace with a random
// predicate instead of reading text files. `open-trace` mmaps such a file
// back with zero parsing (trace/trace_file.hpp), reports the open latency
// and page residency, and optionally runs an analysis on the mapped
// deposet: `detect` (weak conjunctive detection of the stored predicate),
// `races` (message-race analysis), or `control` (off-line disjunctive
// control synthesis from the stored predicate). `stat` -- the default --
// just prints the header geometry.
//
// `quickstart` runs the built-in two-process mutual-exclusion scenario of
// examples/quickstart.cpp through the full active-debugging cycle
// (observe -> detect -> control -> replay) on the simulator, plus an
// on-line guarded critical-section run (the Figure 3 scapegoat strategy),
// so the exported metrics cover every instrumented subsystem: per-plane
// message latency, Session phase durations, scapegoat blocked time, and
// off-line synthesis counters. It is the default command when only
// --trace-out/--metrics-out flags are given.
//
// File formats are the plain-text ones of trace/serialize.hpp (`deposet` /
// `predicate` blocks); `-` reads from stdin. `control` prints the
// forced-before relation plus the compiled per-process strategy; `dot`
// emits graphviz for the computation (with the control edges when a
// predicate is given and a controller exists).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "control/offline_disjunctive.hpp"
#include "control/strategy.hpp"
#include "debug/session.hpp"
#include "fault/fault_plan.hpp"
#include "fault/minimize.hpp"
#include "mutex/kmutex.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/trace_point.hpp"
#include "online/guard.hpp"
#include "predicates/detection.hpp"
#include "predicates/global_predicate.hpp"
#include "predicates/intervals.hpp"
#include "predicates/regular.hpp"
#include "slice/slicer.hpp"
#include "trace/dot.hpp"
#include "trace/lattice.hpp"
#include "trace/race.hpp"
#include "trace/random_trace.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_file.hpp"
#include "util/rng.hpp"

using namespace predctrl;

namespace {

std::string slurp(const std::string& path) {
  if (path == "-") {
    std::ostringstream os;
    os << std::cin.rdbuf();
    return os.str();
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

PredicateTable load_predicate(const std::string& path) {
  std::istringstream is(slurp(path));
  return read_predicate_table(is);
}

StepSemantics semantics_arg(const std::vector<std::string>& args, size_t index) {
  if (args.size() <= index) return StepSemantics::kRealTime;
  if (args[index] == "simultaneous") return StepSemantics::kSimultaneous;
  if (args[index] == "realtime") return StepSemantics::kRealTime;
  throw std::runtime_error("unknown semantics (want realtime|simultaneous)");
}

int usage() {
  std::cerr << "usage: predctl_tool [--trace-out=FILE] [--metrics-out=FILE]\n"
               "                    [--trace-points=SPEC] [--flight-out=FILE]\n"
               "                    feasible|detect|control|dot|races <deposet> "
               "[predicate] [realtime|simultaneous]\n"
               "       predctl_tool slice <deposet> <predicate> [--slice-out=FILE]\n"
               "       predctl_tool [--trace-out=FILE] [--metrics-out=FILE] "
               "[--fault-seed=N] [--fault-drop=P]\n"
               "                    [--fault-corrupt=P] [--fault-crash=A@T] "
               "[--fault-drop-at=K]\n"
               "                    [--fault-partition=GROUPS@FROM[-UNTIL]] "
               "quickstart|flight|minimize-fault\n"
               "       predctl_tool save-trace <deposet> [predicate] --out=FILE\n"
               "       predctl_tool save-trace --random=P,E[,SEED] --out=FILE\n"
               "       predctl_tool open-trace <trace-file> [stat|detect|races|control] "
               "[--salvage]\n";
  return 2;
}

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
      .count();
}

// save-trace: build a deposet (text files or --random) and serialize it to
// the binary predctrl-trace-v1 format. A predicate -- explicit or random --
// additionally stores the local-predicate table and its packed
// false-interval sets, so a later open-trace can run detection and control
// without any side files.
int run_save_trace(const std::vector<std::string>& args, const std::string& out,
                   const std::string& random_spec) {
  if (out.empty()) {
    std::cerr << "predctl_tool: save-trace needs --out=FILE\n";
    return 2;
  }
  Deposet d;
  PredicateTable pred;
  bool have_pred = false;
  if (!random_spec.empty()) {
    int32_t processes = 0;
    int32_t events = 0;
    uint64_t seed = 1;
    char comma = 0;
    std::istringstream spec(random_spec);
    spec >> processes >> comma >> events;
    if (!spec || comma != ',' || processes <= 0 || events <= 0) {
      std::cerr << "predctl_tool: bad --random value (want P,E[,SEED]) in '" << random_spec
                << "'\n";
      return 2;
    }
    if (spec >> comma >> seed && comma != ',') {
      std::cerr << "predctl_tool: bad --random value (want P,E[,SEED]) in '" << random_spec
                << "'\n";
      return 2;
    }
    Rng rng(seed);
    RandomTraceOptions topt;
    topt.num_processes = processes;
    topt.events_per_process = events;
    d = random_deposet(topt, rng);
    pred = random_predicate_table(d, {}, rng);
    have_pred = true;
  } else if (args.size() >= 2) {
    d = deposet_from_string(slurp(args[1]));
    if (args.size() >= 3) {
      pred = load_predicate(args[2]);
      have_pred = true;
    }
  } else {
    return usage();
  }

  TraceSaveOptions save;
  FalseIntervalSets intervals;
  if (have_pred) {
    intervals = extract_false_intervals(pred);
    save.intervals = &intervals;
    save.predicate = &pred;
  }
  const auto t0 = std::chrono::steady_clock::now();
  save_trace(out, d, save);
  const double us = elapsed_us(t0);
  const MappedTrace t = MappedTrace::open(out);
  std::cout << "wrote " << out << " (predctrl-trace-v1) in " << us << " us\n"
            << "  " << d.num_processes() << " process(es), " << d.total_states()
            << " state(s), " << d.messages().size() << " message(s), "
            << t.mapped_bytes() << " bytes"
            << (have_pred ? ", with predicate + false intervals" : "") << "\n";
  return 0;
}

// open-trace: mmap a predctrl-trace-v1 file with zero parsing and report
// what that costs -- then optionally analyze the mapped deposet in place.
int run_open_trace(const std::vector<std::string>& args, bool salvage) {
  if (args.size() < 2) return usage();
  const std::string mode = args.size() >= 3 ? args[2] : "stat";
  if (mode != "stat" && mode != "detect" && mode != "races" && mode != "control")
    return usage();

  TraceReadOptions ropt;
  ropt.salvage = salvage;
  const auto t0 = std::chrono::steady_clock::now();
  const MappedTrace t = MappedTrace::open(args[1], ropt);
  const double open_us_taken = elapsed_us(t0);
  const Deposet& d = t.deposet();
  std::cout << "opened " << args[1] << " in " << open_us_taken
            << " us (zero-parse mmap)\n"
            << "  " << d.num_processes() << " process(es), " << d.total_states()
            << " state(s), " << d.messages().size() << " message(s)\n"
            << "  " << t.mapped_bytes() << " bytes mapped, " << t.resident_bytes()
            << " resident after open\n"
            << "  stored: intervals " << (t.has_intervals() ? "yes" : "no")
            << ", predicate " << (t.has_predicate() ? "yes" : "no") << "\n";
  const SalvageReport& sr = t.salvage_report();
  if (sr.salvaged) {
    std::cout << "  SALVAGED: " << sr.sections_recovered << " of " << sr.sections_total
              << " sections recovered (" << sr.reason << ")\n";
    if (sr.clocks_recomputed)
      std::cout << "    clock slab torn; recomputed from lengths + messages\n";
    if (sr.intervals_dropped) std::cout << "    false-interval tables lost to the tear\n";
    if (sr.predicate_dropped) std::cout << "    predicate section lost to the tear\n";
  }
  if (mode == "stat") return 0;

  if ((mode == "detect" || mode == "control") && !t.has_predicate()) {
    std::cerr << "predctl_tool: " << args[1]
              << " stores no predicate section (save with one to run " << mode << ")\n";
    return 2;
  }

  int status = 0;
  const auto t1 = std::chrono::steady_clock::now();
  if (mode == "races") {
    RaceAnalysis r = analyze_races(d);
    std::cout << "receives: " << r.total_receives << ", racing: " << r.racing_receives.size()
              << " (" << 100.0 * r.racing_fraction() << "% must be traced for replay)\n";
  } else if (mode == "detect") {
    const PredicateTable pred = t.predicate_table();
    auto det = detect_weak_conjunctive(d, pred);
    if (det.detected)
      std::cout << "detected; least satisfying global state: " << det.first_cut << "\n";
    else
      std::cout << "stored predicate never conjunctively true\n";
    status = det.detected ? 0 : 1;
  } else {  // control
    const PredicateTable pred = t.predicate_table();
    auto r = control_disjunctive_offline(d, pred);
    if (r.controllable)
      std::cout << "controllable: " << r.control.size() << " forced-before edge(s)\n";
    else
      std::cout << "No Controller Exists (predicate infeasible for this trace)\n";
    status = r.controllable ? 0 : 1;
  }
  std::cout << "  " << mode << " on the mapped deposet took " << elapsed_us(t1)
            << " us; " << t.resident_bytes() << " of " << t.mapped_bytes()
            << " bytes resident after analysis\n";
  return status;
}

// Writes the predctrl-flight-v1 dump next to the verdict (or the `flight`
// command's timeline); a null recorder means observability is compiled out.
void dump_flight_json(const debug::GuardedObservation& g, const std::string& flight_out) {
  if (flight_out.empty() || g.flight == nullptr) return;
  g.flight->write_json(flight_out);
  std::cerr << "flight dump written to " << flight_out << " (predctrl-flight-v1)\n";
}

// Renders a watchdog verdict the way docs/TUTORIAL.md walks through it.
void print_control_failure(const debug::GuardedObservation& g) {
  std::cout << "  watchdog verdict: " << debug::to_string(g.failure.kind) << "\n"
            << "    detail:          " << g.failure.detail << "\n"
            << "    blocked cut:     " << g.failure.blocked_cut << "\n";
  std::cout << "    scapegoat chain:";
  for (int32_t c : g.failure.scapegoat_chain) std::cout << " C" << c;
  std::cout << "\n    recovery line:   " << g.failure.recovery.line << " ("
            << g.failure.recovery.states_lost << " state(s) lost to rollback)\n";
  for (const sim::AgentQuiescence& aq : g.failure.blocked) {
    std::cout << "    blocked agent " << aq.agent << ": " << aq.waiting_reason;
    if (aq.last_delivered.has_value())
      std::cout << " (last delivery: type " << aq.last_delivered->type << " from agent "
                << aq.last_delivered->from << " at t=" << aq.last_delivery_time << ")";
    std::cout << "\n";
  }
  // The forensic history behind the verdict: every recorded event of the
  // run, merged across agents in happens-before order.
  if (!g.failure.flight_timeline.empty()) {
    std::istringstream lines(g.failure.flight_timeline);
    std::string line;
    while (std::getline(lines, line)) std::cout << "    " << line << "\n";
  }
}

// The two-process quickstart scenario as an executable guarded session --
// shared by `quickstart`'s fault plane and the `flight` command.
debug::Session make_quickstart_session() {
  DeposetBuilder builder(2);
  builder.set_length(0, 5);
  builder.set_length(1, 5);
  builder.add_message({0, 3}, {1, 4});
  Deposet trace = builder.build();
  PredicateTable not_in_cs{{true, false, false, true, true},
                           {true, true, false, false, true}};
  Rng rng(7);
  sim::ScriptedSystem system = sim::scripts_from_deposet(trace, &not_in_cs, rng);
  return debug::Session(system, sim::ok_var);
}

// `flight`: run the guarded scenario (under the fault flags, if any) and
// print the merged causal timeline on demand -- no failure required.
int run_flight(const fault::FaultPlan* faults, const std::string& flight_out) {
  debug::Session session = make_quickstart_session();
  const bool faulty = faults != nullptr && faults->active();
  debug::GuardedObservation g =
      session.observe_guarded(/*seed=*/44, {}, faulty ? faults : nullptr);
  std::cout << "guarded run: "
            << (g.failure.failed() ? "FAILED" : (g.degraded ? "degraded" : "ok")) << "\n";
  if (g.flight == nullptr) {
    std::cout << "flight recorder unavailable (observability compiled out)\n";
    return g.failure.failed() ? 1 : 0;
  }
  std::cout << g.flight->render_text();
  dump_flight_json(g, flight_out);
  if (g.failure.failed()) print_control_failure(g);
  return g.failure.failed() ? 1 : 0;
}

// The quickstart scenario of examples/quickstart.cpp, executed end to end on
// the simulator so every instrumented layer records something.
int run_quickstart(const fault::FaultPlan* faults, const std::string& flight_out) {
  // Two processes, five states each, one message; B = "not both in the CS".
  // Scripts whose "ok" variable tracks the predicate make it executable.
  debug::Session session = make_quickstart_session();

  // observe -> detect -> control -> replay.
  debug::Observation obs = session.observe(/*seed=*/42);
  auto violation = obs.first_violation();
  std::cout << "violation possible: " << (violation.has_value() ? "yes" : "no");
  if (violation) std::cout << " (first at global state " << *violation << ")";
  std::cout << "\n";

  debug::ControlOutcome control = session.synthesize_control(obs);
  if (!control.controllable) {
    std::cout << "No Controller Exists: B is infeasible for this trace\n";
    return 1;
  }
  std::cout << "control relation: " << control.details.control.size()
            << " forced-before edge(s), "
            << control.strategy->message_count() << " control message(s)\n";

  debug::Observation replayed = session.replay(control, /*seed=*/43);
  // (run the detect phase on the replay too, so its span is recorded; the
  // re-traced deposet omits control causality by design, so only the
  // actually-taken schedule is meaningful here.)
  replayed.first_violation();
  std::cout << "replay passed a violating state: "
            << (replayed.run_violated() ? "yes" : "no") << "\n";

  // The fault plane, when requested: the same system guarded on-line by
  // scapegoat controllers, under the injected plan. The control plane
  // self-heals by retransmission; an unrecoverable failure comes back as a
  // structured ControlFailure, never a hang.
  const bool faulty = faults != nullptr && faults->active();
  if (faulty) {
    debug::GuardedObservation g = session.observe_guarded(/*seed=*/44, {}, faults);
    std::cout << "guarded run under faults: "
              << (g.failure.failed() ? "FAILED" : (g.degraded ? "degraded" : "ok")) << "\n"
              << "  dropped " << g.obs.run.stats.messages_dropped << ", duplicated "
              << g.obs.run.stats.messages_duplicated << ", crashes "
              << g.obs.run.stats.crashes << "; retransmits " << g.telemetry.retransmits
              << ", link give-ups " << g.telemetry.link_give_ups << "\n";
    if (g.failure.failed()) {
      print_control_failure(g);
      dump_flight_json(g, flight_out);
    }
  }

  // On-line half: the Figure 3 scapegoat strategy guarding a fresh
  // critical-section workload ((n-1)-mutual exclusion). Crash events from
  // the plan are NOT carried over -- their agent ids target the quickstart's
  // guarded run above, not this workload's layout.
  mutex::CsWorkloadOptions workload;
  workload.num_processes = 4;
  workload.cs_per_process = 8;
  workload.seed = 11;
  fault::FaultPlan mutex_plan;
  if (faulty) {
    mutex_plan = *faults;
    mutex_plan.crashes.clear();
  }
  mutex::MutexRunResult guarded =
      mutex::run_scapegoat_mutex(workload, {}, faulty ? &mutex_plan : nullptr);
  std::cout << "guarded CS run: " << guarded.cs_entries << " entries, "
            << guarded.stats.control_messages << " control messages, safe: "
            << (guarded.max_concurrent_cs < workload.num_processes && !guarded.deadlocked
                    ? "yes"
                    : "no")
            << "\n";
  if (faulty)
    std::cout << "  CS run fault plane: dropped " << guarded.stats.messages_dropped
              << ", retransmits " << guarded.telemetry.retransmits << ", give-ups "
              << guarded.telemetry.link_give_ups << ", released "
              << guarded.telemetry.released.size() << "\n";
  return replayed.run_violated() ? 1 : 0;
}

// `minimize-fault`: ddmin the fault flags down to a locally minimal plan
// that still produces the same watchdog verdict on the quickstart's guarded
// scenario. Every probe is one deterministic re-run, so "still reproduces"
// is exact, and re-running the minimal plan reproduces its verdict
// byte-for-byte (demonstrated at the end).
int run_minimize_fault(const fault::FaultPlan& plan) {
  if (!plan.active()) {
    std::cerr << "predctl_tool: minimize-fault needs fault flags forming a plan "
                 "(--fault-drop, --fault-crash, --fault-partition, ...)\n";
    return 2;
  }
  debug::Session session = make_quickstart_session();
  auto verdict_of = [&](const fault::FaultPlan& p) {
    return session.observe_guarded(/*seed=*/44, {}, &p).failure;
  };
  const debug::ControlFailure target = verdict_of(plan);
  if (!target.failed()) {
    std::cout << "the plan does not produce a failing verdict on the quickstart "
                 "scenario; nothing to minimize\n";
    return 1;
  }
  std::cout << "target verdict: " << debug::to_string(target.kind) << "\n"
            << "  " << target.detail << "\n"
            << "plan has " << fault::plan_unit_count(plan) << " unit(s):\n";
  for (const std::string& u : fault::describe_plan_units(plan)) std::cout << "  - " << u << "\n";

  const fault::MinimizeResult r = fault::minimize_fault_plan(
      plan, [&](const fault::FaultPlan& p) { return verdict_of(p).kind == target.kind; });
  std::cout << "minimized " << r.units_before << " -> " << r.units_after << " unit(s) in "
            << r.probes << " probe(s)" << (r.minimal ? " (1-minimal)" : " (probe budget hit)")
            << ":\n";
  for (const std::string& u : fault::describe_plan_units(r.plan))
    std::cout << "  - " << u << "\n";

  // Determinism receipt: the minimal plan's verdict, rendered twice from two
  // independent runs, must match byte-for-byte.
  auto render = [&](const debug::ControlFailure& f) {
    std::ostringstream os;
    os << debug::to_string(f.kind) << "\n" << f.detail << "\n" << f.blocked_cut;
    return os.str();
  };
  const std::string first = render(verdict_of(r.plan));
  const std::string second = render(verdict_of(r.plan));
  std::cout << "minimal plan verdict:\n  " << debug::to_string(target.kind)
            << " reproduces byte-for-byte: " << (first == second ? "yes" : "NO") << "\n";
  return first == second ? 0 : 1;
}

// GROUPS@FROM[-UNTIL], GROUPS = comma-separated agent ids joined by '|'.
fault::PartitionEpoch parse_partition(const std::string& spec) {
  const size_t at = spec.find('@');
  if (at == std::string::npos || at == 0) throw std::invalid_argument(spec);
  fault::PartitionEpoch epoch;
  std::string groups = spec.substr(0, at);
  size_t start = 0;
  while (start <= groups.size()) {
    const size_t bar = groups.find('|', start);
    const std::string group = groups.substr(start, bar - start);
    std::vector<sim::AgentId> ids;
    std::istringstream is(group);
    std::string id;
    while (std::getline(is, id, ',')) ids.push_back(std::stoi(id));
    if (ids.empty()) throw std::invalid_argument(spec);
    epoch.groups.push_back(std::move(ids));
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  const std::string window = spec.substr(at + 1);
  const size_t dash = window.find('-');
  epoch.from = std::stoll(window.substr(0, dash));
  if (dash != std::string::npos) epoch.until = std::stoll(window.substr(dash + 1));
  return epoch;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string metrics_out;
  std::string flight_out = "predctrl-flight.json";
  std::string save_out;
  std::string slice_out;
  std::string random_spec;
  bool salvage = false;
  fault::FaultPlan fault_plan;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0)
      trace_out = arg.substr(std::strlen("--trace-out="));
    else if (arg.rfind("--metrics-out=", 0) == 0)
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    else if (arg.rfind("--flight-out=", 0) == 0)
      flight_out = arg.substr(std::strlen("--flight-out="));
    else if (arg.rfind("--out=", 0) == 0)
      save_out = arg.substr(std::strlen("--out="));
    else if (arg.rfind("--slice-out=", 0) == 0)
      slice_out = arg.substr(std::strlen("--slice-out="));
    else if (arg.rfind("--random=", 0) == 0)
      random_spec = arg.substr(std::strlen("--random="));
    else if (arg.rfind("--trace-points=", 0) == 0) {
      if (!obs::trace_points().set_filter(arg.substr(std::strlen("--trace-points=")))) {
        std::cerr << "predctl_tool: bad --trace-points filter in '" << arg << "'\n";
        return 2;
      }
    }
    else if (arg.rfind("--fault-seed=", 0) == 0)
      try {
        fault_plan.seed = std::stoull(arg.substr(std::strlen("--fault-seed=")));
      } catch (const std::exception&) {
        std::cerr << "predctl_tool: bad --fault-seed value in '" << arg << "'\n";
        return 2;
      }
    else if (arg.rfind("--fault-drop=", 0) == 0)
      try {
        fault_plan.plane(sim::Message::Plane::kControl).drop =
            std::stod(arg.substr(std::strlen("--fault-drop=")));
      } catch (const std::exception&) {
        std::cerr << "predctl_tool: bad --fault-drop value in '" << arg << "'\n";
        return 2;
      }
    else if (arg.rfind("--fault-corrupt=", 0) == 0)
      try {
        const double p = std::stod(arg.substr(std::strlen("--fault-corrupt=")));
        fault_plan.plane(sim::Message::Plane::kApplication).corrupt = p;
        fault_plan.plane(sim::Message::Plane::kControl).corrupt = p;
      } catch (const std::exception&) {
        std::cerr << "predctl_tool: bad --fault-corrupt value in '" << arg << "'\n";
        return 2;
      }
    else if (arg.rfind("--fault-drop-at=", 0) == 0)
      try {
        fault::ScriptedFault f;
        f.plane = sim::Message::Plane::kControl;
        f.send_index = std::stoll(arg.substr(std::strlen("--fault-drop-at=")));
        f.action = fault::ScriptedFault::Action::kDrop;
        fault_plan.script.push_back(f);
      } catch (const std::exception&) {
        std::cerr << "predctl_tool: bad --fault-drop-at value in '" << arg << "'\n";
        return 2;
      }
    else if (arg.rfind("--fault-partition=", 0) == 0)
      try {
        fault_plan.partitions.push_back(
            parse_partition(arg.substr(std::strlen("--fault-partition="))));
      } catch (const std::exception&) {
        std::cerr << "predctl_tool: bad --fault-partition value "
                     "(want GROUPS@FROM[-UNTIL], e.g. 0,2|1,3@5000-200000) in '"
                  << arg << "'\n";
        return 2;
      }
    else if (arg == "--salvage")
      salvage = true;
    else if (arg.rfind("--fault-crash=", 0) == 0) {
      const std::string spec = arg.substr(std::strlen("--fault-crash="));
      const size_t at = spec.find('@');
      try {
        if (at == std::string::npos) throw std::invalid_argument(spec);
        fault::CrashEvent crash;
        crash.agent = std::stoi(spec.substr(0, at));
        crash.at = std::stoll(spec.substr(at + 1));
        fault_plan.crashes.push_back(crash);
      } catch (const std::exception&) {
        std::cerr << "predctl_tool: bad --fault-crash value (want AGENT@TIME) in '" << arg
                  << "'\n";
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "predctl_tool: unknown flag '" << arg << "'\n";
      return usage();
    } else
      args.push_back(arg);
  }
  if (!trace_out.empty() || !metrics_out.empty()) obs::set_enabled(true);

  // Bare flags mean "instrument something": default to the quickstart run.
  if (args.empty() && obs::enabled()) args.emplace_back("quickstart");
  if (args.empty()) return usage();

  try {
    const std::string cmd = args[0];
    int status = 2;

    if (cmd == "quickstart") {
      fault_plan.validate();
      status = run_quickstart(&fault_plan, flight_out);
    } else if (cmd == "flight") {
      fault_plan.validate();
      status = run_flight(&fault_plan, flight_out);
    } else if (cmd == "minimize-fault") {
      fault_plan.validate();
      status = run_minimize_fault(fault_plan);
    } else if (cmd == "save-trace") {
      status = run_save_trace(args, save_out, random_spec);
    } else if (cmd == "open-trace") {
      status = run_open_trace(args, salvage);
    } else if (args.size() < 2) {
      return usage();
    } else {
      Deposet d = deposet_from_string(slurp(args[1]));

      if (cmd == "races") {
        RaceAnalysis r = analyze_races(d);
        std::cout << "receives: " << r.total_receives << "\nracing:   "
                  << r.racing_receives.size() << " (" << 100.0 * r.racing_fraction()
                  << "% must be traced for replay)\n";
        for (const MessageRace& race : r.races)
          std::cout << "  receive " << race.received.to << " could instead get the message "
                    << race.could_have_received.from << "~>" << race.could_have_received.to
                    << "\n";
        status = 0;
      } else if (cmd == "dot" && args.size() == 2) {
        std::cout << to_dot(d);
        status = 0;
      } else if (args.size() < 3) {
        return usage();
      } else {
        PredicateTable pred = load_predicate(args[2]);

        if (cmd == "feasible") {
          auto r = find_satisfying_global_sequence(
              d, [&](const Cut& c) { return eval_disjunctive(pred, c); },
              semantics_arg(args, 3));
          std::cout << (r.feasible ? "feasible" : "infeasible") << "\n";
          if (r.feasible)
            for (const Cut& c : r.sequence) std::cout << "  " << c << "\n";
          status = r.feasible ? 0 : 1;
        } else if (cmd == "detect") {
          PredicateTable neg = pred;
          for (auto& row : neg)
            for (size_t k = 0; k < row.size(); ++k) row[k] = !row[k];
          auto det = detect_weak_conjunctive(d, neg);
          if (!det.detected) {
            std::cout << "no violating global state\n";
            status = 0;
          } else {
            std::cout << "violation possible; least violating global state: " << det.first_cut
                      << "\n";
            status = 1;
          }
        } else if (cmd == "control") {
          OfflineControlOptions opt;
          opt.semantics = semantics_arg(args, 3);
          auto r = control_disjunctive_offline(d, pred, opt);
          if (!r.controllable) {
            std::cout << "No Controller Exists (predicate infeasible for this trace)\n";
            std::cout << "blocking intervals:\n";
            for (const FalseInterval& iv : r.blocking_intervals)
              std::cout << "  " << iv << "\n";
            status = 1;
          } else {
            std::cout << "control relation (" << r.control.size() << " edges):\n";
            for (const CausalEdge& e : r.control) std::cout << "  " << e << "\n";
            if (opt.semantics == StepSemantics::kRealTime) {
              ControlStrategy s = ControlStrategy::compile(d, r.control);
              std::cout << "strategy (" << s.message_count() << " control messages):\n";
              for (ProcessId p = 0; p < d.num_processes(); ++p)
                for (const ControlAction& a : s.actions(p)) {
                  if (a.kind == ControlAction::Kind::kSendOnExit)
                    std::cout << "  P" << p << ": on leaving state " << a.state
                              << ", send token " << a.token << " to P" << a.peer << "\n";
                  else
                    std::cout << "  P" << p << ": before entering state " << a.state
                              << ", wait for token " << a.token << " from P" << a.peer
                              << "\n";
                }
            }
            status = 0;
          }
        } else if (cmd == "slice") {
          const auto t1 = std::chrono::steady_clock::now();
          Slice slice = compute_slice(d, RegularPredicate::conjunctive(pred));
          const double us = elapsed_us(t1);
          const SliceStats& st = slice.stats();
          std::cout << "sliced " << st.states_total << " state(s) in " << us << " us ("
                    << st.fixpoint_advances << " fixpoint advance(s))\n";
          if (slice.has_gap()) {
            std::cout << "empty slice: " << st.gap_states << " gap state(s), first at "
                      << slice.gap() << " -- that state lies in no satisfying cut, so\n"
                      << "every bottom-to-top execution is doomed (control infeasible)\n";
            status = 1;
          } else {
            std::cout << "slice: " << st.edges_added << " constraint edge(s) added, "
                      << st.edges_dropped_cyclic << " dropped as cyclic ("
                      << st.meta_events << " meta-event group(s))\n";
            for (const MessageEdge& e : slice.added_edges())
              std::cout << "  " << e.from << " must happen before " << e.to << "\n";
            // Lattice shrinkage, on instances small enough to enumerate.
            int64_t lattice_bound = 1;
            for (ProcessId p = 0; p < d.num_processes() && lattice_bound < 1'000'000; ++p)
              lattice_bound *= d.length(p);
            if (lattice_bound < 1'000'000) {
              const int64_t base = count_consistent_cuts(d);
              const int64_t cut = count_consistent_cuts(slice.deposet());
              std::cout << "lattice: " << base << " -> " << cut << " consistent cut(s) ("
                        << static_cast<double>(base) / static_cast<double>(cut)
                        << "x reduction)\n";
            }
            if (!slice_out.empty()) {
              TraceSaveOptions save;
              FalseIntervalSets intervals = extract_false_intervals(pred);
              save.intervals = &intervals;
              save.predicate = &pred;
              save_trace(slice_out, slice.deposet(), save);
              std::cout << "slice written to " << slice_out << " (predctrl-trace-v1)\n";
            }
            status = 0;
          }
        } else if (cmd == "dot") {
          DotOptions opt;
          opt.predicate = &pred;
          auto r = control_disjunctive_offline(d, pred);
          if (r.controllable) opt.control_edges = r.control;
          std::cout << to_dot(d, opt);
          status = 0;
        } else {
          return usage();
        }
      }
    }

    if (!metrics_out.empty()) {
      obs::write_metrics_json(metrics_out);
      std::cerr << "metrics written to " << metrics_out << "\n";
    }
    if (!trace_out.empty()) {
      obs::write_trace_json(trace_out);
      std::cerr << "trace written to " << trace_out
                << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "predctl_tool: " << e.what() << "\n";
    return 2;
  }
}
