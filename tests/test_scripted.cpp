#include "runtime/scripted.hpp"

#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "predicates/global_predicate.hpp"
#include "trace/lattice.hpp"
#include "trace/random_trace.hpp"
#include "trace/serialize.hpp"

namespace predctrl::sim {
namespace {

TEST(Scripted, SingleProcessLocalSteps) {
  ScriptedSystem system(1);
  system[0].initial_vars = {{"x", 0}};
  system[0].instrs = {{Instr::Kind::kLocal, 100, -1, {{"x", 1}}},
                      {Instr::Kind::kLocal, 100, -1, {{"x", 2}}}};
  RunResult r = run_scripts(system, {});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.deposet.length(0), 3);
  const PredicateTable x_is_2 =
      r.predicate_table(system, [](ProcessId, const VarMap& v) { return v.at("x") == 2; });
  EXPECT_EQ(x_is_2, (PredicateTable{{false, false, true}}));
  EXPECT_EQ(r.entry_times[0][1], 100);
  EXPECT_EQ(r.entry_times[0][2], 200);
}

TEST(Scripted, SendReceiveProducesMessageEdge) {
  ScriptedSystem system(2);
  system[0].instrs = {{Instr::Kind::kSend, 100, 1, {}}};
  system[1].instrs = {{Instr::Kind::kRecv, 100, 0, {}}};
  RunResult r = run_scripts(system, {});
  EXPECT_FALSE(r.deadlocked);
  ASSERT_EQ(r.deposet.messages().size(), 1u);
  EXPECT_EQ(r.deposet.messages()[0].from, (StateId{0, 0}));
  EXPECT_EQ(r.deposet.messages()[0].to, (StateId{1, 1}));
  // The receive completes only after the send plus network delay.
  EXPECT_GT(r.entry_times[1][1], r.entry_times[0][1] - 100);
}

TEST(Scripted, UnmatchedReceiveDeadlocks) {
  ScriptedSystem system(2);
  system[1].instrs = {{Instr::Kind::kRecv, 100, 0, {}}};
  RunResult r = run_scripts(system, {});
  EXPECT_TRUE(r.deadlocked);
  ASSERT_EQ(r.blocked.size(), 1u);
  EXPECT_EQ(r.blocked[0].first, 1);
}

TEST(Scripted, SequenceNumbersKeepPairingStable) {
  // Two sends to the same peer; even if delivery reorders them (random
  // delays), recv k must match send k.
  ScriptedSystem system(2);
  system[0].instrs = {{Instr::Kind::kSend, 10, 1, {{"m", 1}}},
                      {Instr::Kind::kSend, 10, 1, {{"m", 2}}}};
  system[1].instrs = {{Instr::Kind::kRecv, 10, 0, {}}, {Instr::Kind::kRecv, 10, 0, {}}};
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SimOptions opt;
    opt.seed = seed;
    opt.min_delay = 0;
    opt.max_delay = 50'000;  // heavy reordering pressure
    RunResult r = run_scripts(system, opt);
    EXPECT_FALSE(r.deadlocked);
    ASSERT_EQ(r.deposet.messages().size(), 2u) << seed;
    EXPECT_EQ(r.deposet.messages()[0], (MessageEdge{{0, 0}, {1, 1}})) << seed;
    EXPECT_EQ(r.deposet.messages()[1], (MessageEdge{{0, 1}, {1, 2}})) << seed;
  }
}

class RoundTripSeeds : public ::testing::TestWithParam<uint64_t> {};

// The tracer round trip: deposet -> scripts -> run -> traced deposet is the
// identity, and the "ok" annotation carries the predicate table through.
TEST_P(RoundTripSeeds, DepositScriptsRunTrace) {
  Rng rng(GetParam());
  RandomTraceOptions topt;
  topt.num_processes = static_cast<int32_t>(2 + rng.index(4));
  topt.events_per_process = static_cast<int32_t>(3 + rng.index(10));
  topt.send_probability = 0.35;
  Deposet original = random_deposet(topt, rng);
  RandomPredicateOptions popt;
  popt.false_probability = 0.4;
  PredicateTable table = random_predicate_table(original, popt, rng);

  ScriptedSystem system = scripts_from_deposet(original, &table, rng);
  SimOptions opt;
  opt.seed = GetParam() * 31 + 1;
  RunResult r = run_scripts(system, opt);
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(deposet_to_string(r.deposet), deposet_to_string(original));
  EXPECT_EQ(r.predicate_table(system, ok_var), table);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSeeds, ::testing::Range<uint64_t>(0, 25));

// ------------------------------------------------ truth read from scripts

// The generator's table cut to the states a run actually entered.
PredicateTable traced_prefix(PredicateTable table, const Deposet& traced) {
  for (ProcessId p = 0; p < traced.num_processes(); ++p)
    table[static_cast<size_t>(p)].resize(static_cast<size_t>(traced.length(p)));
  return table;
}

class ScriptTruthSeeds : public ::testing::TestWithParam<uint64_t> {};

// Runs record no variables: predicate_table re-reads them from the scripts
// for the traced prefix. That must equal the table the scripts were
// generated from -- for complete runs, runs a crash and restart perturbed,
// and runs a permanent crash wedged early.
TEST_P(ScriptTruthSeeds, TableMatchesGeneratorOnTracedPrefix) {
  Rng rng(GetParam() + 500);
  RandomTraceOptions topt;
  topt.num_processes = static_cast<int32_t>(2 + rng.index(4));
  topt.events_per_process = static_cast<int32_t>(4 + rng.index(9));
  topt.send_probability = 0.35;
  const Deposet original = random_deposet(topt, rng);
  const PredicateTable table = random_predicate_table(original, {0.4, -1.0}, rng);
  const ScriptedSystem system = scripts_from_deposet(original, &table, rng);
  SimOptions opt;
  opt.seed = GetParam() + 7;

  const RunResult complete = run_scripts(system, opt);
  ASSERT_FALSE(complete.deadlocked);
  EXPECT_EQ(complete.predicate_table(system, ok_var), table);

  // Crash the process that finishes last, halfway to its final entry: it
  // cannot have entered its final state by then.
  ProcessId victim = 0;
  for (ProcessId p = 1; p < topt.num_processes; ++p)
    if (complete.entry_times[static_cast<size_t>(p)].back() >
        complete.entry_times[static_cast<size_t>(victim)].back())
      victim = p;
  const SimTime crash_at = complete.entry_times[static_cast<size_t>(victim)].back() / 2;
  ASSERT_GT(crash_at, 0);

  fault::FaultPlan restart;
  restart.crashes.push_back({victim, crash_at, crash_at + 1'500});
  const RunResult restarted = run_scripts(system, opt, nullptr, nullptr, nullptr, &restart);
  EXPECT_EQ(restarted.stats.restarts, 1);
  EXPECT_EQ(restarted.predicate_table(system, ok_var),
            traced_prefix(table, restarted.deposet));

  fault::FaultPlan wedge;
  wedge.crashes.push_back({victim, crash_at, -1});
  const RunResult wedged = run_scripts(system, opt, nullptr, nullptr, nullptr, &wedge);
  ASSERT_LT(wedged.deposet.length(victim), original.length(victim));
  EXPECT_EQ(wedged.predicate_table(system, ok_var), traced_prefix(table, wedged.deposet));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScriptTruthSeeds, ::testing::Range<uint64_t>(0, 20));

TEST(Scripted, PredicateTableRejectsAForeignSystem) {
  ScriptedSystem system(2);
  system[0].instrs = {{Instr::Kind::kLocal, 100, -1, {}}};
  const RunResult r = run_scripts(system, {});
  EXPECT_THROW(r.predicate_table(ScriptedSystem(3), ok_var), std::invalid_argument);
  // A script shorter than the traced process cannot have produced it.
  ScriptedSystem shorter(2);
  EXPECT_THROW(r.predicate_table(shorter, ok_var), std::invalid_argument);
}

// ------------------------------------------------ quiescence report text

TEST(Scripted, ReportNamesTheMissingMessage) {
  ScriptedSystem system(4);
  system[0].instrs = {{Instr::Kind::kLocal, 100, -1, {}}, {Instr::Kind::kRecv, 100, 3, {}}};
  const RunResult r = run_scripts(system, {});
  ASSERT_TRUE(r.deadlocked);
  ASSERT_EQ(r.quiescence.blocked.size(), 1u);
  EXPECT_EQ(r.quiescence.blocked[0].agent, 0);
  EXPECT_EQ(r.quiescence.blocked[0].waiting_reason, "message from P3");
  ASSERT_EQ(r.blocked.size(), 1u);
  EXPECT_EQ(r.blocked[0].second, "message from P3");
}

TEST(Scripted, ReportNamesTheMissingControlToken) {
  // A cyclic plan: P0 may enter state 7 only after P1 exits state 1, and
  // P1 may enter state 1 only after P0 exits state 7.
  DeposetBuilder b(2);
  b.set_length(0, 9);
  b.set_length(1, 3);
  const Deposet d = b.build();
  const ControlStrategy strategy = ControlStrategy::compile(
      d, {{{1, 1}, {0, 7}}, {{0, 7}, {1, 1}}}, /*check_deadlock=*/false);
  Rng rng(2);
  const ScriptedSystem system = scripts_from_deposet(d, nullptr, rng);
  const RunResult r = run_scripts(system, {}, &strategy);
  ASSERT_TRUE(r.deadlocked);
  ASSERT_EQ(r.quiescence.blocked.size(), 2u);
  EXPECT_EQ(r.quiescence.blocked[0].waiting_reason, "control token for entering state 7");
  EXPECT_EQ(r.quiescence.blocked[1].waiting_reason, "control token for entering state 1");
  EXPECT_EQ(r.deposet.length(0), 7);
  EXPECT_EQ(r.deposet.length(1), 1);
}

TEST(Scripted, ReportNamesTheMissingGateGrant) {
  // A guard that never answers: P0's true -> false step into state 2 waits
  // for a grant forever.
  ScriptedSystem system(1);
  system[0].initial_vars = {{"ok", 1}};
  system[0].instrs = {{Instr::Kind::kLocal, 100, -1, {}},
                      {Instr::Kind::kLocal, 100, -1, {{"ok", 0}}},
                      {Instr::Kind::kLocal, 100, -1, {{"ok", 1}}}};
  OnlineGating gating;
  gating.truth = script_predicate_table(system, ok_var);
  EXPECT_EQ(gating.truth, (PredicateTable{{true, true, false, true}}));
  gating.make_guards = [](SimEngine& engine) {
    return std::vector<AgentId>{engine.add_agent(std::make_unique<Agent>())};
  };
  const RunResult r = run_scripts(system, {}, nullptr, &gating);
  ASSERT_TRUE(r.deadlocked);
  ASSERT_EQ(r.quiescence.blocked.size(), 1u);
  EXPECT_EQ(r.quiescence.blocked[0].waiting_reason, "gate grant for entering state 2");
  EXPECT_EQ(r.stats.local_messages, 1);  // one kGateWantFalse, never answered
}

TEST(Scripted, ReportListsPendingTimersAscending) {
  class Sleeper : public Agent {
   public:
    void on_start(AgentContext& ctx) override {
      ctx.mark_waiting("alarm ", 9);
      for (int64_t id : {9, 3, 7, 3}) ctx.set_timer(5'000 + id, id);
    }
  };
  SimOptions opt;
  opt.time_limit = 1'000;
  SimEngine engine(opt);
  engine.add_agent(std::make_unique<Sleeper>());
  engine.run();
  ASSERT_TRUE(engine.hit_time_limit());
  const QuiescenceReport report = engine.quiescence_report();
  ASSERT_EQ(report.blocked.size(), 1u);
  EXPECT_EQ(report.blocked[0].waiting_reason, "alarm 9");
  // None fired (the one popped past the limit included); ids come out
  // sorted, repeats kept.
  EXPECT_EQ(report.blocked[0].pending_timers, (std::vector<int64_t>{3, 3, 7, 9}));
}

TEST(Scripted, CutTimelineIsAValidGlobalSequence) {
  Rng rng(3);
  Deposet d = random_deposet({3, 8, 0.3, 0.5}, rng);
  ScriptedSystem system = scripts_from_deposet(d, nullptr, rng);
  RunResult r = run_scripts(system, {});
  ASSERT_FALSE(r.deadlocked);
  auto timeline = r.cut_timeline();
  auto check = check_global_sequence(r.deposet, timeline);
  EXPECT_TRUE(check.ok) << check.error;
  // Every cut the run passed through is consistent (also implied by the
  // sequence check; stated for emphasis).
  for (const Cut& c : timeline) EXPECT_TRUE(is_consistent(r.deposet, c));
}

TEST(Scripted, RejectsPeersOutsideTheSystem) {
  ScriptedSystem system(2);
  system[1].instrs = {{Instr::Kind::kRecv, 100, 2, {}}};
  EXPECT_THROW(run_scripts(system, {}), std::invalid_argument);
  system[1].instrs = {{Instr::Kind::kSend, 100, -1, {}}};
  EXPECT_THROW(run_scripts(system, {}), std::invalid_argument);
}

TEST(Scripted, RejectsMismatchedStrategy) {
  ScriptedSystem system(2);
  Deposet three = [] {
    DeposetBuilder b(3);
    for (ProcessId p = 0; p < 3; ++p) b.set_length(p, 2);
    return b.build();
  }();
  ControlStrategy s = ControlStrategy::compile(three, {});
  EXPECT_THROW(run_scripts(system, {}, &s), std::invalid_argument);
}

}  // namespace
}  // namespace predctrl::sim
