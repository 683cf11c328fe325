// The paper's Section 7 walkthrough: active debugging of a replicated server
// system (Figure 4), end to end.
//
//   C1: observe a trace; detect bug1 ("all servers unavailable") at global
//       states G and H.
//   C2: replay C1 controlled for B_avail = avail_0 v avail_1 v avail_2.
//   bug2: detect that event e (server 2's re-index) and event f (server 0's
//       cache flush) are unordered.
//   C3/C4: control C1 for B_order = after_e v before_f; observe that this
//       single ordering constraint ALSO removes bug1 -- bug2 is the root
//       cause.
//   On-line: guard a fresh run with the scapegoat strategy so e-before-f
//       holds on computations that were never traced.
#include <iostream>

#include "debug/scenario.hpp"
#include "online/guard.hpp"
#include "predicates/global_predicate.hpp"
#include "trace/lattice.hpp"

using namespace predctrl;
using namespace predctrl::debug;

int main() {
  ReplicatedServerScenario scenario = replicated_server_scenario();

  std::cout << "== Step 1: observe computation C1 ==\n";
  Session avail_session(scenario.system, scenario.availability);
  Observation c1 = avail_session.observe(/*seed=*/1);
  std::cout << "traced " << c1.run.deposet.total_states() << " local states, "
            << c1.run.deposet.messages().size() << " messages\n";

  std::cout << "\n== Step 2: detect bug1 (all servers down) ==\n";
  std::vector<Cut> violations = c1.violating_cuts();
  std::cout << "consistent global states violating availability: " << violations.size()
            << "\n";
  for (size_t i = 0; i < violations.size() && i < 2; ++i)
    std::cout << "  e.g. " << (i == 0 ? "G = " : "H = ") << violations[i] << "\n";

  std::cout << "\n== Step 3: control C1 for availability -> C2 ==\n";
  ControlOutcome avail_control = avail_session.synthesize_control(c1);
  std::cout << "controller exists: " << (avail_control.controllable ? "yes" : "no") << "\n";
  for (const CausalEdge& e : avail_control.details.control)
    std::cout << "  control message: exit(" << e.from << ") -> enter(" << e.to << ")\n";
  Observation c2 = avail_session.replay(avail_control, /*seed=*/2);
  std::cout << "C2 replay violated availability: " << (c2.run_violated() ? "yes" : "no")
            << " (control messages paid: " << c2.run.stats.control_messages << ")\n";

  std::cout << "\n== Step 4: detect bug2 (f can run before e) ==\n";
  PredicateTable witness =
      c1.run.predicate_table(scenario.system, scenario.bug2_witness);
  auto bug2 = detect_weak_conjunctive(c1.run.deposet, witness);
  std::cout << "possible: " << (bug2.detected ? "yes" : "no");
  if (bug2.detected) std::cout << " (witness global state " << bug2.first_cut << ")";
  std::cout << "\n";

  std::cout << "\n== Step 5: control C1 for e-before-f -> C4 ==\n";
  Session order_session(scenario.system, scenario.e_before_f);
  Observation c1_again = order_session.observe(/*seed=*/1);
  ControlOutcome order_control = order_session.synthesize_control(c1_again);
  std::cout << "controller exists: " << (order_control.controllable ? "yes" : "no") << "\n";
  for (const CausalEdge& e : order_control.details.control)
    std::cout << "  control message: exit(" << e.from << ") -> enter(" << e.to << ")\n";

  auto c4 = ControlledDeposet::create(c1_again.run.deposet, order_control.details.control);
  PredicateTable avail_table =
      c1_again.run.predicate_table(scenario.system, scenario.availability);
  bool bug1_gone = satisfies_everywhere(
      *c4, [&](const Cut& c) { return eval_disjunctive(avail_table, c); });
  std::cout << "ordering e before f ALSO eliminates bug1: " << (bug1_gone ? "yes" : "no")
            << "  => bug2 is the root cause\n";

  std::cout << "\n== Step 6: on-line guard for fresh runs ==\n";
  {
    // Guard the SAME server system with the scapegoat strategy maintaining
    // B_order on computations nobody traced: each fresh schedule holds the
    // cache flush (f) back until the re-index (e) reports done.
    PredicateTable truth = online::enforce_online_assumptions(
        scenario.system, c1.run.predicate_table(scenario.system, scenario.e_before_f));
    int violated = 0;
    for (uint64_t seed = 100; seed < 110; ++seed) {
      sim::SimOptions opt;
      opt.seed = seed;
      auto run = online::run_scripts_guarded(scenario.system, truth, opt);
      if (run.deadlocked) ++violated;
      for (const Cut& c : run.cut_timeline())
        if (!eval_disjunctive(truth, c)) ++violated;
    }
    std::cout << "10 fresh guarded runs: " << violated
              << " ordering violations/deadlocks\n";
  }
  return 0;
}
