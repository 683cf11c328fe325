// Causal flight recorder: ring-wrap invariants, the k-way causal merge
// against a brute-force topological reference on random traces, trace-point
// filter parsing, the recorder-never-perturbs-the-run guarantee
// (byte-identical RunResults recorder-on vs recorder-off), and
// tsan-labelled registry stress at thread widths 1/2/4/8.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "debug/session.hpp"
#include "fault/fault_plan.hpp"
#include "obs/json.hpp"
#include "obs/trace_point.hpp"
#include "online/guard.hpp"
#include "runtime/scripted.hpp"
#include "trace/serialize.hpp"
#include "util/rng.hpp"

namespace predctrl::obs {
namespace {

FlightEvent make_event(int32_t agent, int64_t seq, int64_t vt) {
  FlightEvent e;
  e.agent = agent;
  e.seq = seq;
  e.vt_us = vt;
  return e;
}

// ------------------------------------------------------------------- rings

void check_wrap(int32_t capacity, int n) {
  FlightRing ring(capacity);
  for (int i = 0; i < n; ++i) ring.push(make_event(0, i, i * 10));
  const int64_t kept = std::min<int64_t>(capacity, n);
  EXPECT_EQ(ring.stored(), kept);
  EXPECT_EQ(ring.dropped(), n - kept);
  const auto view = ring.in_order();
  ASSERT_EQ(static_cast<int64_t>(view.size()), kept);
  // The ring holds exactly the LAST `capacity` events, oldest first.
  for (int64_t i = 0; i < kept; ++i) EXPECT_EQ(view[i]->seq, n - kept + i);
}

TEST(FlightRing, WrapsAtCapacityOne) {
  check_wrap(1, 1);
  check_wrap(1, 7);
}

TEST(FlightRing, WrapsAtCapacityTwo) {
  check_wrap(2, 2);
  check_wrap(2, 3);
  check_wrap(2, 9);
}

TEST(FlightRing, WrapsAtOddCapacity) {
  check_wrap(5, 4);   // not yet full
  check_wrap(5, 5);   // exactly full
  check_wrap(5, 6);   // one overwrite
  check_wrap(5, 23);  // several laps
}

// ------------------------------------------------------- merge vs reference

// Drives a recorder through a random but causally-consistent schedule:
// virtual time is a global counter, so (vt, seq) are both linear extensions
// of happens-before, exactly as in a real simulation run.
struct RandomTrace {
  int32_t num_agents = 0;
  int64_t now = 0;
  struct Pending {
    int32_t from, to;
    std::vector<int32_t> clock;
  };
  std::vector<Pending> in_flight;
};

void drive_random_trace(FlightRecorder& rec, std::mt19937& gen, int32_t num_agents,
                        int ops) {
  rec.begin_run(num_agents);
  RandomTrace t;
  t.num_agents = num_agents;
  TracePoint& anno = trace_points().point("test.random.anno");
  std::uniform_int_distribution<int> op_dist(0, 9);
  std::uniform_int_distribution<int32_t> agent_dist(0, num_agents - 1);
  for (int i = 0; i < ops; ++i) {
    ++t.now;
    const int op = op_dist(gen);
    // Annotations only ever happen from inside an agent callback, i.e.
    // immediately after that agent's engine event -- before its stamp can
    // reach any peer (see FlightRecorder::annotate).
    int32_t acted = -1;
    if (op < 4) {  // send
      const int32_t from = agent_dist(gen);
      int32_t to = agent_dist(gen);
      if (to == from) to = (to + 1) % num_agents;
      const auto& snap = rec.on_send(from, to, t.now, /*msg_type=*/op, /*plane=*/0);
      t.in_flight.push_back({from, to, snap});
      acted = from;
    } else if (op < 7 && !t.in_flight.empty()) {  // deliver a random in-flight
      std::uniform_int_distribution<size_t> pick(0, t.in_flight.size() - 1);
      const size_t k = pick(gen);
      // Non-const: on_deliver may steal the snapshot buffer (as the engine's
      // pooled delivery clocks allow); `p` is discarded right after.
      RandomTrace::Pending p = t.in_flight[k];
      t.in_flight.erase(t.in_flight.begin() + static_cast<ptrdiff_t>(k));
      rec.on_deliver(p.to, p.from, t.now, /*msg_type=*/1, /*plane=*/0, p.clock);
      acted = p.to;
    } else {  // timer
      acted = agent_dist(gen);
      rec.on_timer(acted, t.now, /*timer_id=*/op);
    }
    if (acted >= 0 && op_dist(gen) < 3)  // in-callback protocol annotation
      rec.annotate(acted, anno, FlightEvent::Kind::kControl, t.now);
  }
}

TEST(FlightMerge, MatchesBruteForceOnRandomTraces) {
  for (uint32_t trace = 0; trace < 40; ++trace) {
    std::mt19937 gen(1000 + trace);
    const int32_t num_agents = 2 + static_cast<int32_t>(trace % 5);
    // Large capacity: nothing dropped, the merge covers the whole history.
    FlightRecorder rec(/*capacity=*/4096);
    drive_random_trace(rec, gen, num_agents, /*ops=*/60 + static_cast<int>(trace));

    const FlightTimeline merged = rec.merge();
    EXPECT_EQ(merged.dropped_total, 0);

    // Reference input: every stored event, in any order.
    std::vector<FlightEvent> all;
    for (const FlightEvent& e : merged.events) all.push_back(e);
    std::shuffle(all.begin(), all.end(), gen);
    std::vector<FlightEvent> expected;
    {
      std::vector<FlightEvent> scratch = all;
      // reference_merge asserts internally; run it in place.
      std::vector<FlightEvent> out;
      while (!scratch.empty()) {
        size_t best = scratch.size();
        for (size_t i = 0; i < scratch.size(); ++i) {
          bool minimal = true;
          for (size_t j = 0; j < scratch.size(); ++j)
            if (j != i && clock_less(scratch[j].clock, scratch[i].clock)) {
              minimal = false;
              break;
            }
          if (!minimal) continue;
          if (best == scratch.size() ||
              std::make_tuple(scratch[i].vt_us, scratch[i].seq, scratch[i].agent) <
                  std::make_tuple(scratch[best].vt_us, scratch[best].seq,
                                  scratch[best].agent))
            best = i;
        }
        ASSERT_LT(best, scratch.size()) << "trace " << trace;
        out.push_back(scratch[best]);
        scratch.erase(scratch.begin() + static_cast<ptrdiff_t>(best));
      }
      expected = std::move(out);
    }

    ASSERT_EQ(merged.events.size(), expected.size()) << "trace " << trace;
    for (size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(merged.events[i].seq, expected[i].seq)
          << "trace " << trace << " position " << i;

    // The merged order is a linear extension of happens-before ...
    for (size_t i = 0; i < merged.events.size(); ++i)
      for (size_t j = i + 1; j < merged.events.size(); ++j)
        EXPECT_FALSE(clock_less(merged.events[j].clock, merged.events[i].clock))
            << "trace " << trace << ": event " << j << " happens-before " << i;
    // ... and the concurrency flags are exactly "concurrent with the
    // previous emitted event".
    for (size_t i = 1; i < merged.events.size(); ++i)
      EXPECT_EQ(merged.events[i].concurrent,
                clock_concurrent(merged.events[i - 1].clock, merged.events[i].clock))
          << "trace " << trace << " position " << i;
    EXPECT_FALSE(merged.events.empty());
    EXPECT_FALSE(merged.events.front().concurrent);
  }
}

TEST(FlightMerge, SurvivesRingOverwrites) {
  std::mt19937 gen(7);
  FlightRecorder rec(/*capacity=*/4);
  drive_random_trace(rec, gen, 3, /*ops=*/200);
  const FlightTimeline merged = rec.merge();
  EXPECT_GT(merged.dropped_total, 0);
  EXPECT_LE(static_cast<int64_t>(merged.events.size()), 4 * (3 + 1));
  for (size_t i = 0; i < merged.events.size(); ++i)
    for (size_t j = i + 1; j < merged.events.size(); ++j)
      EXPECT_FALSE(clock_less(merged.events[j].clock, merged.events[i].clock));
  // render_text reports the loss so nobody mistakes a clipped timeline for
  // the whole story.
  EXPECT_NE(rec.render_text().find("older events dropped"), std::string::npos);
}

TEST(FlightRecorder, JsonDumpIsSchemaValidAndParses) {
  std::mt19937 gen(21);
  FlightRecorder rec;
  drive_random_trace(rec, gen, 3, 50);
  rec.set_label(0, "P0");
  const Json doc = json_parse(rec.to_json().dump());
  EXPECT_EQ(doc.find("schema")->as_string(), "predctrl-flight-v1");
  EXPECT_EQ(doc.find("agents")->as_int(), 3);
  EXPECT_EQ(doc.find("capacity")->as_int(), FlightRecorder::kDefaultCapacity);
  ASSERT_TRUE(doc.find("labels")->is_array());
  EXPECT_EQ(doc.find("labels")->as_array()[0].as_string(), "P0");
  const auto& events = doc.find("events")->as_array();
  ASSERT_FALSE(events.empty());
  for (const char* key :
       {"agent", "label", "vt_us", "seq", "point", "kind", "clock", "concurrent"})
    EXPECT_NE(events[0].find(key), nullptr) << key;
}

// ----------------------------------------------------------------- filters

TEST(TracePointFilter, EmptySpecEnablesEverything) {
  TracePointRegistry reg;
  TracePoint& p = reg.point("sim.deliver");
  EXPECT_TRUE(reg.set_filter(""));
  EXPECT_TRUE(p.enabled());
  EXPECT_TRUE(reg.evaluate("anything.at.all"));
  EXPECT_TRUE(reg.set_filter("   "));
  EXPECT_TRUE(reg.evaluate("still.on"));
}

TEST(TracePointFilter, PositivePatternsRestrict) {
  TracePointRegistry reg;
  TracePoint& sim = reg.point("sim.send.control");
  TracePoint& guard = reg.point("guard.handoff");
  ASSERT_TRUE(reg.set_filter("sim.*"));
  EXPECT_TRUE(sim.enabled());
  EXPECT_FALSE(guard.enabled());  // unmatched + positive pattern present
  // New points created under an active filter get evaluated on creation.
  EXPECT_FALSE(reg.point("fault.retransmit").enabled());
  EXPECT_TRUE(reg.point("sim.timer").enabled());
}

TEST(TracePointFilter, NegationAndLastMatchWins) {
  TracePointRegistry reg;
  TracePoint& delay = reg.point("fault.delay");
  TracePoint& crash = reg.point("fault.crash");
  // A lone negative pattern: everything except the named point.
  ASSERT_TRUE(reg.set_filter("-fault.delay"));
  EXPECT_FALSE(delay.enabled());
  EXPECT_TRUE(crash.enabled());
  EXPECT_TRUE(reg.evaluate("guard.anything"));
  // Left-to-right, last match wins -- and a later positive can re-enable.
  ASSERT_TRUE(reg.set_filter("fault.*,-fault.delay,fault.delay"));
  EXPECT_TRUE(delay.enabled());
  ASSERT_TRUE(reg.set_filter("fault.*,-fault.*"));
  EXPECT_FALSE(delay.enabled());
  EXPECT_FALSE(crash.enabled());
}

TEST(TracePointFilter, GlobSyntax) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("sim.*", "sim.send.control"));
  EXPECT_FALSE(glob_match("sim.*", "simulator"));  // '.' is literal
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));
  EXPECT_TRUE(glob_match("a*b*c", "abc"));
  EXPECT_FALSE(glob_match("a*b*c", "acb"));
  EXPECT_TRUE(glob_match("guard.?andoff", "guard.handoff"));
  EXPECT_FALSE(glob_match("guard.?", "guard.ha"));
  EXPECT_TRUE(glob_match("*.handoff", "guard.handoff"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

TEST(TracePointFilter, MalformedSpecsAreRejectedAndKeepTheOldFilter) {
  TracePointRegistry reg;
  TracePoint& p = reg.point("sim.deliver");
  ASSERT_TRUE(reg.set_filter("sim.*"));
  EXPECT_TRUE(p.enabled());
  EXPECT_FALSE(reg.set_filter("a,,b"));   // empty pattern
  EXPECT_FALSE(reg.set_filter("-"));      // bare negation
  EXPECT_FALSE(reg.set_filter("x, -,y"));
  // The previous filter survived the rejections.
  EXPECT_EQ(reg.filter(), "sim.*");
  EXPECT_TRUE(p.enabled());
  EXPECT_FALSE(reg.evaluate("guard.handoff"));
}

TEST(TracePointFilter, ListReportsSortedState) {
  TracePointRegistry reg;
  reg.point("b.two");
  reg.point("a.one");
  ASSERT_TRUE(reg.set_filter("a.*"));
  const auto listed = reg.list();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].first, "a.one");
  EXPECT_TRUE(listed[0].second);
  EXPECT_EQ(listed[1].first, "b.two");
  EXPECT_FALSE(listed[1].second);
}

// Filtering gates STORAGE only; clocks keep advancing, so stamps stay
// correct when the filter changes mid-run.
TEST(FlightRecorder, FilterGatesStorageButNotClocks) {
  TracePointRegistry& reg = trace_points();
  const std::string previous = reg.filter();
  ASSERT_TRUE(reg.set_filter("-sim.*"));  // mute every engine point
  FlightRecorder rec;
  rec.begin_run(2);
  auto snap = rec.on_send(0, 1, 10, 1, 0);  // copy; on_deliver may steal it
  rec.on_deliver(1, 0, 20, 1, 0, snap);
  EXPECT_EQ(rec.events_recorded(), 0);  // nothing stored ...
  ASSERT_TRUE(reg.set_filter(previous));
  TracePoint& anno = reg.point("test.filter.anno");
  rec.annotate(1, anno, FlightEvent::Kind::kControl, 20);
  const FlightTimeline merged = rec.merge();
  ASSERT_EQ(merged.events.size(), 1u);
  // ... but the annotation's stamp reflects the muted send and delivery.
  EXPECT_EQ(merged.events[0].clock, (std::vector<int32_t>{1, 1}));
}

// ---------------------------------------------- recorder-off byte identity

std::string run_fingerprint(const sim::RunResult& run) {
  std::ostringstream os;
  os << deposet_to_string(run.deposet);
  os << "deadlocked=" << run.deadlocked << " end=" << run.stats.end_time
     << " events=" << run.stats.events_processed << " sent=" << run.stats.messages_sent
     << " dropped=" << run.stats.messages_dropped << " dup=" << run.stats.messages_duplicated
     << " crashes=" << run.stats.crashes << " discarded=" << run.stats.deliveries_discarded
     << " maxq=" << run.stats.max_queue_depth << "\n";
  for (const auto& per_proc : run.entry_times) {
    for (sim::SimTime t : per_proc) os << t << ",";
    os << "\n";
  }
  return os.str();
}

sim::ScriptedSystem flaky_system() {
  // The quickstart scenario: two processes, one cross message, a predicate
  // the guards must maintain.
  DeposetBuilder builder(2);
  builder.set_length(0, 5);
  builder.set_length(1, 5);
  builder.add_message({0, 3}, {1, 4});
  Deposet trace = builder.build();
  PredicateTable not_in_cs{{true, false, false, true, true},
                           {true, true, false, false, true}};
  Rng rng(7);
  return sim::scripts_from_deposet(trace, &not_in_cs, rng);
}

TEST(FlightRecorder, GuardedRunIsByteIdenticalRecorderOnVsOff) {
  const sim::ScriptedSystem system = flaky_system();
  PredicateTable truth = online::enforce_online_assumptions(
      system, PredicateTable{{true, false, false, true, true},
                             {true, true, false, false, true}});
  fault::FaultPlan faults;
  faults.seed = 3;
  faults.plane(sim::Message::Plane::kControl).drop = 0.2;
  fault::CrashEvent crash;
  crash.agent = 2;  // P0's guard
  crash.at = 5'000;
  faults.crashes.push_back(crash);
  faults.validate();

  auto run_once = [&](FlightRecorder* rec) {
    sim::SimOptions opt;
    opt.seed = 44;
    opt.flight_recorder = rec;
    return online::run_scripts_guarded(system, truth, opt, {}, &faults, nullptr);
  };
  const std::string without = run_fingerprint(run_once(nullptr));
  FlightRecorder rec;
  const std::string with = run_fingerprint(run_once(&rec));
  EXPECT_EQ(without, with);
#if PREDCTRL_OBS_ENABLED
  EXPECT_GT(rec.events_recorded(), 0);
#endif
  // And a second recorded run of the same seed is identical again (the
  // recorder holds no state that leaks between runs).
  FlightRecorder rec2;
  EXPECT_EQ(run_fingerprint(run_once(&rec2)), with);
}

TEST(FlightRecorder, SessionAttachesTimelineToVerdict) {
  debug::Session session(flaky_system(), sim::ok_var);
  fault::FaultPlan faults;
  fault::CrashEvent crash;
  crash.agent = 2;
  crash.at = 5'000;
  faults.crashes.push_back(crash);
  faults.validate();
  const debug::GuardedObservation g = session.observe_guarded(44, {}, &faults);
  ASSERT_TRUE(g.failure.failed());
#if PREDCTRL_OBS_ENABLED
  ASSERT_NE(g.flight, nullptr);
  EXPECT_FALSE(g.failure.flight_timeline.empty());
  EXPECT_NE(g.failure.flight_timeline.find("flight timeline"), std::string::npos);
  EXPECT_NE(g.failure.flight_timeline.find("fault.crash"), std::string::npos);
  // The verdict itself is the last event of the merged timeline.
  const FlightTimeline merged = g.flight->merge();
  ASSERT_FALSE(merged.events.empty());
  EXPECT_EQ(merged.events.back().kind, FlightEvent::Kind::kVerdict);
  EXPECT_EQ(merged.events.back().point, std::string("session.verdict"));
#else
  EXPECT_EQ(g.flight, nullptr);
  EXPECT_TRUE(g.failure.flight_timeline.empty());
#endif
}

// ------------------------------------------ thread widths and repeat runs

// The registry is the only cross-thread surface (agents run single-threaded
// inside the engine): hammer find-or-create, enabled() reads, and filter
// swaps concurrently at each width. Run under `ctest -L tsan` for the
// ThreadSanitizer verdict.
TEST(TracePointRegistry, ConcurrentLookupAndFilterSwapsAreSafe) {
  for (int width : {1, 2, 4, 8}) {
    TracePointRegistry reg;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(width) + 1);
    for (int t = 0; t < width; ++t)
      threads.emplace_back([&reg, t] {
        for (int i = 0; i < 400; ++i) {
          TracePoint& p =
              reg.point("stress.p" + std::to_string((t + i) % 8));
          (void)p.enabled();
          (void)reg.evaluate("stress.other");
        }
      });
    threads.emplace_back([&reg] {
      for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(reg.set_filter(i % 2 == 0 ? "stress.*" : "-stress.p3"));
    });
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(reg.list().size(), 8u);
  }
}

// Guarded observation with the recorder armed is deterministic across
// repeated same-seed runs on one session: the run and the rendered
// timeline come out byte-identical every time.
TEST(FlightRecorder, DeterministicAcrossRepeatRuns) {
  debug::Session session(flaky_system(), sim::ok_var);
  std::string reference;
  for (int repeat = 0; repeat < 4; ++repeat) {
    const debug::GuardedObservation g = session.observe_guarded(44);
    std::string fp = run_fingerprint(g.obs.run);
#if PREDCTRL_OBS_ENABLED
    ASSERT_NE(g.flight, nullptr) << "repeat " << repeat;
    fp += g.flight->render_text();
#endif
    if (reference.empty())
      reference = fp;
    else
      EXPECT_EQ(fp, reference) << "repeat " << repeat;
  }
}

}  // namespace
}  // namespace predctrl::obs
