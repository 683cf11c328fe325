#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <filesystem>
#include <optional>
#include <span>
#include <sstream>

#include "control/offline_disjunctive.hpp"
#include "control/strategy.hpp"
#include "debug/session.hpp"
#include "obs/flight_recorder.hpp"
#include "online/guard.hpp"
#include "predicates/detection.hpp"
#include "predicates/intervals.hpp"
#include "runtime/scripted.hpp"
#include "trace/random_trace.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_file.hpp"

namespace pipebench {

using namespace predctrl;

namespace {

// Generator settings shared by every workload.
constexpr double kSendProbability = 0.2;
constexpr double kFalseProbability = 0.35;
constexpr double kFlipProbability = 0.3;

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of pool item `item` of the workload numbered `salt`.
uint64_t item_seed(uint64_t seed, uint64_t salt, size_t item) {
  return splitmix64(seed ^ splitmix64((salt << 32) + item));
}

/// A random computation and run-model predicate table for one pool item.
std::pair<Deposet, PredicateTable> random_computation(const PoolSpec& spec, Rng& rng) {
  RandomTraceOptions topt;
  topt.num_processes = spec.processes;
  topt.events_per_process = spec.events_per_process;
  topt.send_probability = kSendProbability;
  Deposet deposet = random_deposet(topt, rng);
  RandomPredicateOptions popt;
  popt.false_probability = kFalseProbability;
  popt.flip_probability = kFlipProbability;
  PredicateTable table = random_predicate_table(deposet, popt, rng);
  return {std::move(deposet), std::move(table)};
}

// Counted directly from the table, independently of extract_false_intervals.
int64_t count_false_intervals(const PredicateTable& table) {
  int64_t n = 0;
  for (const auto& row : table)
    for (size_t k = 0; k < row.size(); ++k)
      if (!row[k] && (k == 0 || row[k - 1])) ++n;
  return n;
}

int64_t count_true_to_false(const PredicateTable& table) {
  int64_t n = 0;
  for (const auto& row : table)
    for (size_t k = 1; k < row.size(); ++k)
      if (row[k - 1] && !row[k]) ++n;
  return n;
}

PredicateTable negate(const PredicateTable& table) {
  PredicateTable neg = table;
  for (auto& row : neg) row.flip();
  return neg;
}

/// Longest chain of events when every event takes one time unit and every
/// message or control edge is free: the computation's end time under unit
/// event costs, the stand-in for virtual time on a trace that never runs.
/// An edge {from, to} makes event to.index - 1 of to.process wait for event
/// from.index of from.process. Returns -1 if the edges form a cycle.
int64_t causal_depth(const std::vector<int32_t>& lengths,
                     const std::vector<std::span<const CausalEdge>>& edge_sets) {
  const size_t n = lengths.size();
  std::vector<size_t> first(n + 1, 0);
  for (size_t p = 0; p < n; ++p)
    first[p + 1] = first[p] + static_cast<size_t>(std::max(lengths[p] - 1, 0));
  const size_t events = first[n];
  auto event = [&](ProcessId p, int32_t k) { return first[static_cast<size_t>(p)] + k; };

  // Successor lists in CSR form: the chain edge to the next event of the
  // same process, then every message or control edge.
  std::vector<std::pair<size_t, size_t>> arcs;
  for (size_t p = 0; p < n; ++p)
    for (size_t e = first[p]; e + 1 < first[p + 1]; ++e) arcs.emplace_back(e, e + 1);
  for (const auto& edges : edge_sets)
    for (const CausalEdge& edge : edges)
      arcs.emplace_back(event(edge.from.process, edge.from.index),
                        event(edge.to.process, edge.to.index - 1));
  std::vector<size_t> offset(events + 1, 0), next(arcs.size());
  std::vector<int32_t> indegree(events, 0);
  for (const auto& [from, to] : arcs) {
    ++offset[from + 1];
    ++indegree[to];
  }
  for (size_t e = 0; e < events; ++e) offset[e + 1] += offset[e];
  std::vector<size_t> fill(offset.begin(), offset.end() - 1);
  for (const auto& [from, to] : arcs) next[fill[from]++] = to;

  std::vector<int64_t> start(events, 0);
  std::deque<size_t> ready;
  for (size_t e = 0; e < events; ++e)
    if (indegree[e] == 0) ready.push_back(e);
  int64_t depth = 0;
  size_t done = 0;
  while (!ready.empty()) {
    const size_t e = ready.front();
    ready.pop_front();
    ++done;
    const int64_t end = start[e] + 1;
    depth = std::max(depth, end);
    for (size_t i = offset[e]; i < offset[e + 1]; ++i) {
      const size_t succ = next[i];
      start[succ] = std::max(start[succ], end);
      if (--indegree[succ] == 0) ready.push_back(succ);
    }
  }
  return done == events ? depth : -1;
}

void add(OpResult& r, const char* name, double value) { r.layer.emplace_back(name, value); }

void fail(OpResult& r, const std::string& what) {
  if (r.error.empty()) r.error = what;
}

// ------------------------------------------------------------ debug_cycle

class DebugCycle final : public Workload {
 public:
  void setup(uint64_t seed, const PoolSpec& spec) override {
    items_.clear();
    for (size_t i = 0; i < static_cast<size_t>(spec.pool); ++i) {
      Rng rng(item_seed(seed, 1, i));
      auto [deposet, table] = random_computation(spec, rng);
      sim::ScriptedSystem system = sim::scripts_from_deposet(deposet, &table, rng);
      const uint64_t sim_seed = rng.engine()();
      items_.push_back({debug::Session(std::move(system), sim::ok_var), sim_seed,
                        deposet.total_states(),
                        static_cast<int64_t>(deposet.messages().size())});
    }
  }

  size_t pool_size() const override { return items_.size(); }

  OpResult run_op(size_t index, Tracer* tracer) override {
    const Item& item = items_[index];
    OpResult r;
    debug::Observation observed;
    std::optional<Cut> violation;
    debug::ControlOutcome control;
    std::optional<debug::Observation> replayed;
    double observe_us = 0, detect_us = 0, synth_us = 0, compile_us = 0, replay_us = 0;
    {
      Scope op(tracer, "debug_cycle.op");
      {
        Scope s(tracer, "runtime.observe");
        observed = item.session.observe(item.sim_seed);
        observe_us = s.stop();
      }
      {
        Scope s(tracer, "predicates.detect");
        violation = observed.first_violation();
        detect_us = s.stop();
      }
      if (tracer == nullptr) {
        control = item.session.synthesize_control(observed);
      } else {
        // The two calls Session::synthesize_control makes, timed apart.
        {
          Scope s(tracer, "control.synth");
          control.details = control_disjunctive_offline(observed.run.deposet,
                                                        observed.predicate);
          control.controllable = control.details.controllable;
          synth_us = s.stop();
        }
        if (control.controllable) {
          Scope s(tracer, "control.compile");
          control.strategy =
              ControlStrategy::compile(observed.run.deposet, control.details.control);
          compile_us = s.stop();
        }
      }
      if (control.controllable) {
        Scope s(tracer, "runtime.replay");
        replayed = item.session.replay(control, item.sim_seed);
        replay_us = s.stop();
      }
      r.op_us = op.stop();
    }

    const sim::RunResult& run = observed.run;
    ItemCounts& c = r.counts;
    c.states = run.deposet.total_states();
    c.messages = static_cast<int64_t>(run.deposet.messages().size());
    c.false_intervals = count_false_intervals(observed.predicate);
    c.controlled = control.controllable ? 1 : 0;
    c.detected = violation.has_value() ? 1 : 0;
    c.edges = static_cast<int64_t>(control.details.control.size());
    c.pair_checks = control.details.pair_checks;
    c.iterations = control.details.iterations;
    c.intervals_paid = c.false_intervals;
    c.vt_base = run.stats.end_time;

    if (run.deadlocked) fail(r, "observed run deadlocked");
    if (c.states != item.states || c.messages != item.messages)
      fail(r, "observed trace differs from the generated computation");
    if (replayed) {
      c.ctl_msgs = replayed->run.stats.control_messages;
      c.vt_controlled = replayed->run.stats.end_time;
      if (replayed->run.deadlocked) fail(r, "controlled replay deadlocked");
      if (replayed->run_violated()) fail(r, "controlled replay passed a violating cut");
      if (c.ctl_msgs != control.strategy->message_count())
        fail(r, "replay control messages differ from the strategy's message count");
    } else if (!is_overlapping_set(run.deposet, control.details.blocking_intervals)) {
      fail(r, "Lemma 2 witness of an uncontrollable predicate does not overlap");
    }

    if (tracer != nullptr) {
      const int64_t events =
          run.stats.events_processed + (replayed ? replayed->run.stats.events_processed : 0);
      add(r, "runtime.observe_us", observe_us);
      if (replayed) add(r, "runtime.replay_us", replay_us);
      add(r, "runtime.events", static_cast<double>(events));
      add(r, "runtime.events_per_s", events / ((observe_us + replay_us) / 1e6));
      add(r, "runtime.states", static_cast<double>(c.states));
      add(r, "predicates.detect_us", detect_us);
      add(r, "predicates.false_intervals", static_cast<double>(c.false_intervals));
      add(r, "predicates.detected_frac", static_cast<double>(c.detected));
      add(r, "control.synth_us", synth_us);
      if (control.controllable) add(r, "control.compile_us", compile_us);
      add(r, "control.iterations", static_cast<double>(c.iterations));
      add(r, "control.pair_checks", static_cast<double>(c.pair_checks));
      add(r, "control.edges", static_cast<double>(c.edges));
      add(r, "control.controllable_frac", static_cast<double>(c.controlled));
    }
    return r;
  }

 private:
  struct Item {
    debug::Session session;
    uint64_t sim_seed;
    int64_t states;
    int64_t messages;
  };
  std::vector<Item> items_;
};

// ------------------------------------------------------------ guarded_run

class GuardedRun final : public Workload {
 public:
  void setup(uint64_t seed, const PoolSpec& spec) override {
    items_.clear();
    for (size_t i = 0; i < static_cast<size_t>(spec.pool); ++i) {
      Rng rng(item_seed(seed, 2, i));
      auto [deposet, table] = random_computation(spec, rng);
      table[0][0] = true;  // B holds initially: controller 0 starts as scapegoat
      // Script once to learn where the receives are, enforce A1/A2 on the
      // table, then script again from the same Rng state so the "ok"
      // variable is exactly the table the guard enforces.
      const Rng script_rng = rng;
      const sim::ScriptedSystem draft = sim::scripts_from_deposet(deposet, &table, rng);
      PredicateTable truth = online::enforce_online_assumptions(draft, std::move(table));
      rng = script_rng;
      sim::ScriptedSystem system = sim::scripts_from_deposet(deposet, &truth, rng);
      sim::SimOptions options;
      options.seed = rng.engine()();
      const int64_t vt_base = sim::run_scripts(system, options).stats.end_time;
      items_.push_back({debug::Session(system, sim::ok_var), std::move(truth), options,
                        vt_base, deposet.total_states()});
    }
  }

  size_t pool_size() const override { return items_.size(); }

  OpResult run_op(size_t index, Tracer* tracer) override {
    const Item& item = items_[index];
    OpResult r;
    debug::GuardedObservation guarded;
    double session_us = 0;
    {
      Scope op(tracer, "guarded_run.op");
      {
        Scope s(tracer, "debug.observe_guarded");
        guarded = item.session.observe_guarded(item.options.seed);
        session_us = s.stop();
      }
      r.op_us = op.stop();
    }

    const sim::RunResult& run = guarded.obs.run;
    ItemCounts& c = r.counts;
    c.states = run.deposet.total_states();
    c.messages = static_cast<int64_t>(run.deposet.messages().size());
    c.false_intervals = count_false_intervals(item.truth);
    c.gate_requests = count_true_to_false(item.truth);
    c.controlled = 1;
    c.ctl_msgs = run.stats.control_messages;
    c.intervals_paid = c.gate_requests;
    c.vt_base = item.vt_base;
    c.vt_controlled = run.stats.end_time;

    if (guarded.failure.kind != debug::ControlFailure::Kind::kNone)
      fail(r, std::string("guarded run failed: ") + debug::to_string(guarded.failure.kind));
    if (guarded.degraded) fail(r, "guarded run completed only by releasing control");
    if (guarded.obs.run_violated()) fail(r, "guarded run passed a violating cut");
    if (c.states != item.states) fail(r, "guarded trace differs from the generated computation");

    if (tracer != nullptr) {
      // Side measurements, outside the op: the guarded run without the
      // session around it, and the same system and seed unguarded.
      const sim::ScriptedSystem& system = item.session.system();
      // Harvested as the session harvests it, so guard_wrap_us excludes it.
      online::ScapegoatTelemetry telemetry;
      double guarded_us = 0, unguarded_us = 0;
      int64_t direct_end = 0, unguarded_end = 0;
      {
        Scope s(tracer, "online.guarded");
        direct_end = online::run_scripts_guarded(system, item.truth, item.options, {},
                                                 nullptr, &telemetry)
                         .stats.end_time;
        guarded_us = s.stop();
      }
      {
        Scope s(tracer, "runtime.unguarded");
        unguarded_end = sim::run_scripts(system, item.options).stats.end_time;
        unguarded_us = s.stop();
      }
      if (direct_end != c.vt_controlled)
        fail(r, "run_scripts_guarded disagrees with Session::observe_guarded");
      if (unguarded_end != c.vt_base) fail(r, "unguarded run differs from its set-up base");

      add(r, "runtime.unguarded_us", unguarded_us);
      add(r, "runtime.events", static_cast<double>(run.stats.events_processed));
      add(r, "runtime.events_per_s", run.stats.events_processed / (session_us / 1e6));
      add(r, "runtime.states", static_cast<double>(c.states));
      add(r, "online.guarded_us", guarded_us);
      add(r, "online.guard_overhead_us", guarded_us - unguarded_us);
      add(r, "online.ctl_msgs", static_cast<double>(c.ctl_msgs));
      add(r, "online.gate_requests", static_cast<double>(c.gate_requests));
      add(r, "online.handoffs",
          static_cast<double>(std::max<size_t>(guarded.telemetry.chain.size(), 1) - 1));
      add(r, "online.retransmits", static_cast<double>(guarded.telemetry.retransmits));
      add(r, "debug.guard_wrap_us", session_us - guarded_us);
      add(r, "obs.flight_events",
          guarded.flight ? static_cast<double>(guarded.flight->events_recorded()) : 0.0);
      add(r, "obs.flight_dropped",
          guarded.flight ? static_cast<double>(guarded.flight->events_dropped()) : 0.0);
      add(r, "predicates.false_intervals", static_cast<double>(c.false_intervals));
    }
    return r;
  }

 private:
  struct Item {
    debug::Session session;
    PredicateTable truth;  ///< the enforced table the guard maintains
    sim::SimOptions options;
    int64_t vt_base;
    int64_t states;
  };
  std::vector<Item> items_;
};

// -------------------------------------------------------- trace_roundtrip

class TraceRoundtrip final : public Workload {
 public:
  explicit TraceRoundtrip(const std::string& work_dir)
      : path_((std::filesystem::path(work_dir) / "roundtrip.pctrace").string()) {}
  ~TraceRoundtrip() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  TraceRoundtrip(const TraceRoundtrip&) = delete;
  TraceRoundtrip& operator=(const TraceRoundtrip&) = delete;

  void setup(uint64_t seed, const PoolSpec& spec) override {
    items_.clear();
    for (size_t i = 0; i < static_cast<size_t>(spec.pool); ++i) {
      Rng rng(item_seed(seed, 3, i));
      auto [deposet, table] = random_computation(spec, rng);
      std::ostringstream predicate_text;
      write_predicate_table(predicate_text, table);
      items_.push_back({deposet_to_string(deposet), predicate_text.str(),
                        deposet.total_states(),
                        static_cast<int64_t>(deposet.messages().size()),
                        count_false_intervals(table)});
    }
  }

  size_t pool_size() const override { return items_.size(); }

  OpResult run_op(size_t index, Tracer* tracer) override {
    const Item& item = items_[index];
    OpResult r;
    Deposet parsed;
    PredicateTable table, negated;
    FalseIntervalSets intervals;
    std::optional<MappedTrace> mapped;
    ConjunctiveDetection detection, after_control;
    OfflineControlResult control;
    Deposet extended;
    bool witness_overlaps = false;
    double text_us = 0, predicate_us = 0, intervals_us = 0, save_us = 0, save_cpu_us = 0,
           open_us = 0, detect_us = 0, synth_us = 0, extended_us = 0, verify_us = 0;
    {
      Scope op(tracer, "trace_roundtrip.op");
      {
        Scope s(tracer, "trace.deposet_text");
        parsed = deposet_from_string(item.deposet_text);
        text_us = s.stop();
      }
      {
        Scope s(tracer, "trace.predicate_text");
        std::istringstream is(item.predicate_text);
        table = read_predicate_table(is);
        predicate_us = s.stop();
      }
      {
        Scope s(tracer, "predicates.intervals");
        intervals = extract_false_intervals(table);
        intervals_us = s.stop();
      }
      {
        Scope s(tracer, "trace.save");
        TraceSaveOptions options;
        options.intervals = &intervals;
        options.predicate = &table;
        save_trace(path_, parsed, options);
        save_us = s.stop();
        save_cpu_us = s.cpu_us();
      }
      {
        Scope s(tracer, "trace.open");
        mapped.emplace(MappedTrace::open(path_));
        open_us = s.stop();
      }
      const Deposet& trace = mapped->deposet();
      {
        Scope s(tracer, "predicates.detect");
        negated = negate(table);
        detection = detect_weak_conjunctive(trace, negated);
        detect_us = s.stop();
      }
      {
        Scope s(tracer, "control.synth");
        control = control_disjunctive_offline(trace, table);
        synth_us = s.stop();
      }
      if (control.controllable) {
        // The controlled computation: messages plus control edges, then
        // the one full-length scan for a violating cut, which must fail.
        {
          Scope s(tracer, "causality.extended_build");
          DeposetBuilder builder(trace.num_processes());
          for (ProcessId p = 0; p < trace.num_processes(); ++p)
            builder.set_length(p, trace.length(p));
          for (const MessageEdge& m : trace.messages()) builder.add_message(m.from, m.to);
          for (const CausalEdge& e : control.control) builder.add_message(e.from, e.to);
          extended = builder.build_extended();
          extended_us = s.stop();
        }
        {
          Scope s(tracer, "predicates.verify");
          after_control = detect_weak_conjunctive(extended, negated);
          verify_us = s.stop();
        }
      } else {
        Scope s(tracer, "predicates.overlap_check");
        witness_overlaps = is_overlapping_set(trace, control.blocking_intervals);
      }
      r.op_us = op.stop();
    }

    const Deposet& trace = mapped->deposet();
    ItemCounts& c = r.counts;
    c.states = trace.total_states();
    c.messages = static_cast<int64_t>(trace.messages().size());
    for (const auto& row : intervals) c.false_intervals += static_cast<int64_t>(row.size());
    c.controlled = control.controllable ? 1 : 0;
    c.detected = detection.detected ? 1 : 0;
    c.edges = static_cast<int64_t>(control.control.size());
    c.pair_checks = control.pair_checks;
    c.iterations = control.iterations;
    c.ctl_msgs = c.edges;
    c.intervals_paid = c.false_intervals;
    c.vt_base = causal_depth(trace.lengths(), {trace.messages()});
    if (control.controllable)
      c.vt_controlled = causal_depth(trace.lengths(), {trace.messages(), control.control});

    if (c.states != item.states || c.messages != item.messages ||
        c.false_intervals != item.false_intervals)
      fail(r, "parsed trace differs from the generated computation");
    const auto mapped_slab = trace.clocks().slab();
    const auto parsed_slab = parsed.clocks().slab();
    if (mapped_slab.size() != parsed_slab.size() ||
        std::memcmp(mapped_slab.data(), parsed_slab.data(), mapped_slab.size_bytes()) != 0)
      fail(r, "mapped clock slab differs from the parsed deposet's");
    const ConjunctiveDetection on_parsed = detect_weak_conjunctive(parsed, negated);
    if (on_parsed.detected != detection.detected ||
        (detection.detected && !(on_parsed.first_cut == detection.first_cut)))
      fail(r, "detection on the mapped trace differs from the parsed one");
    if (control.controllable) {
      if (after_control.detected) fail(r, "controlled computation has a violating cut");
      if (c.vt_controlled < 0) fail(r, "control relation is cyclic");
    } else if (!witness_overlaps) {
      fail(r, "Lemma 2 witness of an uncontrollable predicate does not overlap");
    }

    if (tracer != nullptr) {
      // Side measurement, outside the op: the batch clock build alone, on
      // the lengths and messages the text parse produced.
      double clock_us = 0;
      {
        Scope s(tracer, "causality.clock_build");
        DeposetBuilder builder(parsed.num_processes());
        for (ProcessId p = 0; p < parsed.num_processes(); ++p)
          builder.set_length(p, parsed.length(p));
        for (const MessageEdge& m : parsed.messages()) builder.add_message(m.from, m.to);
        const Deposet rebuilt = builder.build();
        clock_us = s.stop();
        if (rebuilt.total_states() != c.states) fail(r, "clock rebuild changed the shape");
      }
      const double file_bytes = static_cast<double>(mapped->mapped_bytes());
      add(r, "trace.deposet_text_us", text_us);
      add(r, "trace.text_parse_us", text_us - clock_us);
      add(r, "trace.predicate_text_us", predicate_us);
      add(r, "trace.save_us", save_us);
      add(r, "trace.save_cpu_us", save_cpu_us);
      add(r, "trace.save_wait_us", save_us - save_cpu_us);
      add(r, "trace.save_mb_per_s", file_bytes / save_us);
      add(r, "trace.file_bytes", file_bytes);
      add(r, "trace.open_us", open_us);
      add(r, "causality.clock_build_us", clock_us);
      add(r, "causality.states_per_s", c.states / (clock_us / 1e6));
      add(r, "predicates.intervals_us", intervals_us);
      add(r, "predicates.detect_us", detect_us);
      add(r, "predicates.false_intervals", static_cast<double>(c.false_intervals));
      add(r, "predicates.detected_frac", static_cast<double>(c.detected));
      add(r, "control.synth_us", synth_us);
      add(r, "control.iterations", static_cast<double>(c.iterations));
      add(r, "control.pair_checks", static_cast<double>(c.pair_checks));
      add(r, "control.edges", static_cast<double>(c.edges));
      add(r, "control.controllable_frac", static_cast<double>(c.controlled));
      if (control.controllable) {
        add(r, "causality.extended_build_us", extended_us);
        add(r, "predicates.verify_us", verify_us);
      }
    }
    return r;
  }

 private:
  struct Item {
    std::string deposet_text;
    std::string predicate_text;
    int64_t states;
    int64_t messages;
    int64_t false_intervals;
  };
  std::string path_;
  std::vector<Item> items_;
};

}  // namespace

PoolSpec measured_spec(const std::string& workload) {
  if (workload == "debug_cycle") return {16, 1000, 32};
  if (workload == "guarded_run") return {16, 500, 32};
  return {16, 5000, 16};
}

PoolSpec smoke_spec(const std::string& workload) {
  if (workload == "trace_roundtrip") return {4, 200, 3};
  return {4, 60, 3};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& work_dir) {
  if (name == "debug_cycle") return std::make_unique<DebugCycle>();
  if (name == "guarded_run") return std::make_unique<GuardedRun>();
  if (name == "trace_roundtrip") return std::make_unique<TraceRoundtrip>(work_dir);
  return nullptr;
}

}  // namespace pipebench
