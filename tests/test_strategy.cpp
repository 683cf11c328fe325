#include "control/strategy.hpp"

#include <gtest/gtest.h>

#include <string>

#include "control/offline_disjunctive.hpp"
#include "trace/random_trace.hpp"

namespace predctrl {
namespace {

Deposet grid(int32_t n, int32_t len) {
  DeposetBuilder b(n);
  for (ProcessId p = 0; p < n; ++p) b.set_length(p, len);
  return b.build();
}

TEST(ControlStrategy, CompilesEdgeIntoSendAndWait) {
  Deposet d = grid(2, 4);
  ControlStrategy s = ControlStrategy::compile(d, {{{0, 1}, {1, 2}}});
  EXPECT_EQ(s.num_tokens(), 1);
  ASSERT_EQ(s.actions(0).size(), 1u);
  ASSERT_EQ(s.actions(1).size(), 1u);
  const ControlAction& send = s.actions(0)[0];
  EXPECT_EQ(send.kind, ControlAction::Kind::kSendOnExit);
  EXPECT_EQ(send.state, 1);
  EXPECT_EQ(send.peer, 1);
  const ControlAction& wait = s.actions(1)[0];
  EXPECT_EQ(wait.kind, ControlAction::Kind::kWaitBeforeEntry);
  EXPECT_EQ(wait.state, 2);
  EXPECT_EQ(wait.peer, 0);
  EXPECT_EQ(send.token, wait.token);
}

TEST(ControlStrategy, ActionsSortedByState) {
  Deposet d = grid(2, 6);
  ControlStrategy s =
      ControlStrategy::compile(d, {{{0, 4}, {1, 5}}, {{0, 1}, {1, 2}}, {{1, 1}, {0, 3}}});
  const auto& p0 = s.actions(0);
  ASSERT_EQ(p0.size(), 3u);  // two sends + one wait
  EXPECT_LE(p0[0].state, p0[1].state);
  EXPECT_LE(p0[1].state, p0[2].state);
}

TEST(ControlStrategy, RejectsUnenforceableEdges) {
  Deposet d = grid(2, 3);
  // Source at final state: exit never happens.
  EXPECT_THROW(ControlStrategy::compile(d, {{{0, 2}, {1, 1}}}), std::invalid_argument);
  // Target at initial state: entry cannot wait.
  EXPECT_THROW(ControlStrategy::compile(d, {{{0, 1}, {1, 0}}}), std::invalid_argument);
  // Same-process edge.
  EXPECT_THROW(ControlStrategy::compile(d, {{{0, 0}, {0, 2}}}), std::invalid_argument);
  // Out of range.
  EXPECT_THROW(ControlStrategy::compile(d, {{{0, 9}, {1, 1}}}), std::invalid_argument);
}

TEST(ControlStrategy, RejectionNamesTheControlEdge) {
  Deposet d = grid(2, 3);
  try {
    ControlStrategy::compile(d, {{{0, 1}, {1, 2}}, {{0, 2}, {1, 1}}});
    ADD_FAILURE() << "a control edge leaving a final state compiled";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const size_t at = what.find(" -- ");
    ASSERT_NE(at, std::string::npos) << what;
    EXPECT_EQ(what.substr(at + 4),
              "control edge P0:2~>P1:1: source is a final state; its exit never happens");
  }
}

TEST(ControlStrategy, DetectsDeadlockingPlans) {
  // (0,0)~>(1,1) message; control edge (1,0)~>(0,1) closes an event cycle.
  DeposetBuilder b(2);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.add_message({0, 0}, {1, 1});
  Deposet d = b.build();
  ControlRelation deadlocking{{{1, 0}, {0, 1}}};
  EXPECT_THROW(ControlStrategy::compile(d, deadlocking), std::invalid_argument);
  // The experiment hook: compilation without the deadlock check succeeds.
  EXPECT_NO_THROW(ControlStrategy::compile(d, deadlocking, /*check_deadlock=*/false));
}

TEST(ControlStrategy, OfflineAlgorithmOutputAlwaysCompiles) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed * 31 + 7);
    RandomTraceOptions topt;
    topt.num_processes = static_cast<int32_t>(2 + rng.index(3));
    topt.events_per_process = static_cast<int32_t>(4 + rng.index(8));
    Deposet d = random_deposet(topt, rng);
    RandomPredicateOptions popt;
    popt.false_probability = 0.4;
    PredicateTable pred = random_predicate_table(d, popt, rng);
    auto r = control_disjunctive_offline(d, pred);
    if (!r.controllable) continue;
    ControlStrategy s = ControlStrategy::compile(d, r.control);
    EXPECT_EQ(s.num_tokens(), static_cast<int32_t>(r.control.size()));
  }
}

}  // namespace
}  // namespace predctrl
