// The full Section 7 walkthrough as an executable test: observe C1, detect
// bug1 (all servers down), control for availability (C2), detect bug2 (e and
// f unordered), control C1 for "e before f" (C4) and confirm that fixing
// bug2 also fixes bug1 -- then guard fresh runs on-line.
#include <gtest/gtest.h>

#include "debug/scenario.hpp"
#include "online/scapegoat.hpp"
#include "predicates/global_predicate.hpp"
#include "trace/lattice.hpp"

namespace predctrl::debug {
namespace {

class E2E : public ::testing::Test {
 protected:
  ReplicatedServerScenario scenario_ = replicated_server_scenario();
};

TEST_F(E2E, Bug1IsDetectedInC1) {
  Session session(scenario_.system, scenario_.availability);
  Observation c1 = session.observe(/*seed=*/1);
  ASSERT_FALSE(c1.run.deadlocked);

  // The paper's detector finds consistent global states where B_avail fails
  // (its G and H).
  auto first = c1.first_violation();
  ASSERT_TRUE(first.has_value());
  std::vector<Cut> violations = c1.violating_cuts();
  EXPECT_GE(violations.size(), 2u) << "expected at least the paper's G and H";
  for (const Cut& c : violations) {
    EXPECT_TRUE(is_consistent(c1.run.deposet, c));
    EXPECT_FALSE(eval_disjunctive(c1.predicate, c));
  }
  // first_violation is the least of them.
  for (const Cut& c : violations) EXPECT_TRUE(first->leq(c));
}

TEST_F(E2E, AvailabilityControlYieldsSafeC2) {
  Session session(scenario_.system, scenario_.availability);
  Observation c1 = session.observe(1);
  ControlOutcome control = session.synthesize_control(c1);
  ASSERT_TRUE(control.controllable);
  EXPECT_FALSE(control.details.control.empty());

  // Model-level: the controlled deposet satisfies B_avail everywhere.
  auto cd = ControlledDeposet::create(c1.run.deposet, control.details.control);
  ASSERT_TRUE(cd.has_value());
  EXPECT_TRUE(cd->realizable());
  EXPECT_TRUE(satisfies_everywhere(
      *cd, [&](const Cut& c) { return eval_disjunctive(c1.predicate, c); }));

  // Operational: replays under any schedule stay safe.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Observation c2 = session.replay(control, seed);
    ASSERT_FALSE(c2.run.deadlocked);
    EXPECT_FALSE(c2.run_violated()) << "seed " << seed;
    EXPECT_FALSE(c2.violating_cuts().empty() && false);  // structure preserved:
    EXPECT_EQ(c2.run.deposet.total_states(), c1.run.deposet.total_states());
  }
}

TEST_F(E2E, Bug2IsDetectedInC1) {
  Session session(scenario_.system, scenario_.availability);
  Observation c1 = session.observe(1);
  PredicateTable witness =
      c1.run.predicate_table(scenario_.system, scenario_.bug2_witness);
  auto d = detect_weak_conjunctive(c1.run.deposet, witness);
  ASSERT_TRUE(d.detected) << "f can execute while e has not happened";
  // At the witness cut, server 0 is past f and server 2 before e.
  EXPECT_GE(d.first_cut[0], 2);
  EXPECT_LE(d.first_cut[2], 3);
}

TEST_F(E2E, OrderingControlEliminatesBothBugs) {
  // Control C1 with B_order = after_e v before_f: the resulting C4 orders
  // e before f...
  Session order_session(scenario_.system, scenario_.e_before_f);
  Observation c1 = order_session.observe(1);
  ControlOutcome control = order_session.synthesize_control(c1);
  ASSERT_TRUE(control.controllable);

  auto cd = ControlledDeposet::create(c1.run.deposet, control.details.control);
  ASSERT_TRUE(cd.has_value());
  ASSERT_TRUE(cd->realizable());

  // ...which renders bug2's witness cuts inconsistent...
  PredicateTable order_table =
      c1.run.predicate_table(scenario_.system, scenario_.e_before_f);
  EXPECT_TRUE(satisfies_everywhere(
      *cd, [&](const Cut& c) { return eval_disjunctive(order_table, c); }));

  // ...and -- the punchline -- ALSO eliminates bug1: every consistent cut of
  // C4 keeps at least one server available, although we never controlled for
  // availability.
  PredicateTable avail_table =
      c1.run.predicate_table(scenario_.system, scenario_.availability);
  Cut bad;
  EXPECT_TRUE(satisfies_everywhere(
      *cd, [&](const Cut& c) { return eval_disjunctive(avail_table, c); }, &bad))
      << "availability still violated at " << bad;

  // Operationally too: replays of C4 never pass an all-down state.
  Session avail_session(scenario_.system, scenario_.availability);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Observation c4 = avail_session.replay(control, seed);
    ASSERT_FALSE(c4.run.deadlocked);
    EXPECT_FALSE(c4.run_violated());
  }
}

TEST_F(E2E, UncontrolledRunsCanActuallyBreak) {
  // Sanity for the whole story: without control, some schedule realizes
  // bug1 operationally (not just as a possible cut).
  Session session(scenario_.system, scenario_.availability);
  bool violated = false;
  for (uint64_t seed = 0; seed < 60 && !violated; ++seed)
    violated = session.observe(seed).run_violated();
  EXPECT_TRUE(violated);
}

// The on-line half: guard *fresh* runs with the scapegoat strategy on
// B_order. Server 0's transition past f must wait until server 2 reports e.
TEST_F(E2E, OnlineGuardOrdersEBeforeF) {
  using namespace predctrl::online;
  using sim::AgentContext;
  using sim::AgentId;
  using sim::Message;

  // A miniature live system: agent 0 = server 0 (wants to execute f early),
  // agent 1 = server 2 (executes e after a long re-index), agents 2 and 3
  // their controllers. l_0 = before_f (true initially), l_1 = after_e
  // (false initially -- it is the scapegoat-ineligible side).
  struct Server0 : sim::Agent {
    sim::SimTime f_at = -1;
    void on_start(AgentContext& ctx) override {
      ctx.mark_waiting("permission for f");
      Message m;
      m.type = kWantFalse;
      m.plane = Message::Plane::kLocal;
      ctx.send(2, m);  // ask controller before before_f turns false
    }
    void on_message(AgentContext& ctx, const Message& msg) override {
      ASSERT_EQ(msg.type, kGrant);
      ctx.mark_done();
      f_at = ctx.now();
    }
  };
  struct Server2 : sim::Agent {
    sim::SimTime e_at = -1;
    void on_start(AgentContext& ctx) override { ctx.set_timer(500'000, 1); }
    void on_timer(AgentContext& ctx, int64_t) override {
      e_at = ctx.now();  // event e: after_e becomes true
      Message m;
      m.type = kNowTrue;
      m.plane = Message::Plane::kLocal;
      ctx.send(3, m);
    }
  };

  sim::SimEngine engine;
  auto s0 = std::make_unique<Server0>();
  auto s2 = std::make_unique<Server2>();
  Server0* s0p = s0.get();
  Server2* s2p = s2.get();
  engine.add_agent(std::move(s0));
  engine.add_agent(std::move(s2));
  ScapegoatOptions opt;
  opt.initial_scapegoat = 0;  // server 0's controller: before_f holds at start
  engine.add_agent(std::make_unique<ScapegoatController>(std::vector<AgentId>{2, 3}, 0,
                                                         0, opt));
  // Server 2's controller knows after_e is false until e happens.
  engine.add_agent(std::make_unique<ScapegoatController>(
      std::vector<AgentId>{2, 3}, 1, 1, opt, /*process_starts_true=*/false));
  engine.run();
  EXPECT_TRUE(engine.blocked_agents().empty());
  ASSERT_GE(s0p->f_at, 0);
  ASSERT_GE(s2p->e_at, 0);
  EXPECT_GT(s0p->f_at, s2p->e_at) << "f executed before e despite the guard";
}

}  // namespace
}  // namespace predctrl::debug
