// End-to-end observe -> control -> replay cycle (the paper's debugging loop,
// experiment E12): trace a computation, synthesize off-line control, replay
// with real control messages, and verify the replayed run (a) has the same
// causal structure, (b) never passes through a B-violating global state,
// (c) pays exactly |C~>| control messages.
#include <gtest/gtest.h>

#include "control/offline_disjunctive.hpp"
#include "control/offline_general.hpp"
#include "control/strategy.hpp"
#include "predicates/global_predicate.hpp"
#include "runtime/scripted.hpp"
#include "trace/lattice.hpp"
#include "trace/random_trace.hpp"
#include "trace/serialize.hpp"

namespace predctrl::sim {
namespace {

struct Workbench {
  Deposet deposet;
  PredicateTable predicate;
  ScriptedSystem system;
};

Workbench make_workbench(uint64_t seed, int32_t n, int32_t events) {
  Rng rng(seed);
  RandomTraceOptions topt;
  topt.num_processes = n;
  topt.events_per_process = events;
  topt.send_probability = 0.3;
  Workbench w;
  w.deposet = random_deposet(topt, rng);
  RandomPredicateOptions popt;
  popt.false_probability = 0.35;
  popt.flip_probability = 0.4;
  w.predicate = random_predicate_table(w.deposet, popt, rng);
  w.system = scripts_from_deposet(w.deposet, &w.predicate, rng);
  return w;
}

class ReplaySeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplaySeeds, ControlledReplayEnforcesPredicate) {
  Workbench w = make_workbench(GetParam(), 3, 8);
  auto r = control_disjunctive_offline(w.deposet, w.predicate);
  if (!r.controllable) {
    // Infeasible: the Lemma 2 witness must really overlap, and exhaustive
    // search over satisfying global sequences (affordable at 3 x 8) must
    // agree that no controller exists.
    EXPECT_TRUE(is_overlapping_set(w.deposet, r.blocking_intervals));
    const GeneralControlResult general = control_general_offline(
        w.deposet, [&w](const Cut& c) { return eval_disjunctive(w.predicate, c); });
    ASSERT_FALSE(general.truncated);
    EXPECT_FALSE(general.controllable);
    return;
  }

  ControlStrategy strategy = ControlStrategy::compile(w.deposet, r.control);
  for (uint64_t run_seed = 0; run_seed < 5; ++run_seed) {
    SimOptions opt;
    opt.seed = GetParam() * 100 + run_seed;
    RunResult replay = run_scripts(w.system, opt, &strategy);
    ASSERT_FALSE(replay.deadlocked) << "controlled replay deadlocked";

    // (a) identical causal structure.
    EXPECT_EQ(deposet_to_string(replay.deposet), deposet_to_string(w.deposet));
    // (b) every global state the run passed through satisfies B.
    for (const Cut& c : replay.cut_timeline())
      EXPECT_TRUE(eval_disjunctive(w.predicate, c)) << "violated at " << c;
    // (c) control cost is exactly the relation size.
    EXPECT_EQ(replay.stats.control_messages, static_cast<int64_t>(r.control.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplaySeeds, ::testing::Range<uint64_t>(0, 30));

TEST(Replay, UncontrolledRunCanViolate) {
  // A trace where violation is reachable: two processes with overlapping
  // false windows and no messages. Some schedule hits the all-false cut.
  DeposetBuilder b(2);
  b.set_length(0, 5);
  b.set_length(1, 5);
  Deposet d = b.build();
  PredicateTable pred{{true, false, false, true, true}, {true, false, false, true, true}};
  Rng rng(1);
  ScriptedSystem system = scripts_from_deposet(d, &pred, rng);

  bool violated = false;
  for (uint64_t seed = 0; seed < 50 && !violated; ++seed) {
    SimOptions opt;
    opt.seed = seed;
    RunResult run = run_scripts(system, opt);
    for (const Cut& c : run.cut_timeline())
      if (!eval_disjunctive(pred, c)) violated = true;
  }
  EXPECT_TRUE(violated) << "no schedule ever violated; workload is too tame";

  // ... and the controlled replay never does (any seed).
  auto r = control_disjunctive_offline(d, pred);
  ASSERT_TRUE(r.controllable);
  ControlStrategy strategy = ControlStrategy::compile(d, r.control);
  for (uint64_t seed = 0; seed < 50; ++seed) {
    SimOptions opt;
    opt.seed = seed;
    RunResult run = run_scripts(system, opt, &strategy);
    ASSERT_FALSE(run.deadlocked);
    for (const Cut& c : run.cut_timeline()) EXPECT_TRUE(eval_disjunctive(pred, c));
  }
}

TEST(Replay, DeadlockingRelationActuallyDeadlocks) {
  // The knife-edge relation from the semantics study: state-acyclic but
  // event-cyclic. Executing it must deadlock, which the engine reports.
  DeposetBuilder b(2);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.add_message({0, 0}, {1, 1});
  Deposet d = b.build();
  ControlRelation cyclic{{{1, 0}, {0, 1}}};
  ASSERT_FALSE(control_realizable(d, cyclic));
  ControlStrategy strategy = ControlStrategy::compile(d, cyclic, /*check_deadlock=*/false);

  Rng rng(5);
  ScriptedSystem system = scripts_from_deposet(d, nullptr, rng);
  SimOptions opt;
  RunResult run = run_scripts(system, opt, &strategy);
  EXPECT_TRUE(run.deadlocked);
  EXPECT_FALSE(run.blocked.empty());
}

TEST(Replay, ControlAddsOnlyBoundedDelay) {
  // Controlled replay takes longer in virtual time (it serializes some
  // events) but still terminates; the overhead is the point of E12.
  Workbench w = make_workbench(7, 3, 10);
  auto r = control_disjunctive_offline(w.deposet, w.predicate);
  if (!r.controllable || r.control.empty()) GTEST_SKIP();
  ControlStrategy strategy = ControlStrategy::compile(w.deposet, r.control);
  SimOptions opt;
  opt.seed = 9;
  RunResult base = run_scripts(w.system, opt);
  RunResult ctl = run_scripts(w.system, opt, &strategy);
  ASSERT_FALSE(ctl.deadlocked);
  EXPECT_GE(ctl.stats.end_time, base.stats.end_time);
}

}  // namespace
}  // namespace predctrl::sim
