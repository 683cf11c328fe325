// Distributed recovery + off-line predicate control -- the application the
// paper's conclusions name ("off-line predicate control would find
// applications wherever control is required when the computation is known a
// priori, such as in distributed recovery").
//
// Story: three workers checkpoint periodically; a fault forces a rollback.
// Naively rolling each worker to its latest checkpoint leaves orphan
// messages, so we compute the consistent recovery line (watch the domino
// effect). The re-execution from the line is a computation we know -- so we
// control the replay with the safety predicate that the original run
// violated, and the recovered run cannot hit the bug again.
#include <cstdio>

#include "control/offline_disjunctive.hpp"
#include "control/strategy.hpp"
#include "predicates/global_predicate.hpp"
#include "runtime/scripted.hpp"
#include "trace/recovery.hpp"

using namespace predctrl;
using K = sim::Instr::Kind;

int main() {
  // Three workers; "busy" windows where a worker cannot serve requests; two
  // coordination messages creating rollback dependencies.
  sim::ScriptedSystem system(3);
  system[0].initial_vars = {{"free", 1}};
  system[0].instrs = {{K::kLocal, 1'000, -1, {}},
                      {K::kLocal, 1'000, -1, {{"free", 0}}},
                      {K::kSend, 1'000, 1, {}},
                      {K::kLocal, 4'000, -1, {{"free", 1}}},
                      {K::kLocal, 1'000, -1, {}}};
  system[1].initial_vars = {{"free", 1}};
  system[1].instrs = {{K::kLocal, 1'000, -1, {{"free", 0}}},
                      {K::kRecv, 1'000, 0, {}},
                      {K::kSend, 1'000, 2, {{"free", 1}}},
                      {K::kLocal, 1'000, -1, {}}};
  system[2].initial_vars = {{"free", 1}};
  system[2].instrs = {{K::kLocal, 1'000, -1, {{"free", 0}}},
                      {K::kRecv, 2'000, 1, {{"free", 1}}},
                      {K::kLocal, 1'000, -1, {}}};

  sim::SimOptions opt;
  opt.seed = 5;
  sim::RunResult run = sim::run_scripts(system, opt);
  std::printf("traced %lld states, %zu messages\n",
              static_cast<long long>(run.deposet.total_states()),
              run.deposet.messages().size());

  // A fault strikes; each worker's latest checkpoint (taken mid-run):
  Cut checkpoints(std::vector<int32_t>{2, 3, 2});
  RecoveryLine line = compute_recovery_line(run.deposet, checkpoints);
  std::printf("checkpoints %s are ", "(2,3,2)");
  if (line.rolled_back.empty()) {
    std::printf("already consistent\n");
  } else {
    std::printf("inconsistent (orphan messages); recovery line (");
    for (ProcessId p = 0; p < 3; ++p) std::printf("%s%d", p ? "," : "", line.line[p]);
    std::printf(") after %d fixpoint round(s), %lld state(s) of work lost\n",
                line.rounds, static_cast<long long>(line.states_lost));
  }

  // The recovered replay is a known computation: control it so that "at
  // least one worker is free" can never break again.
  PredicateTable freedom = run.predicate_table(
      system,
      [](ProcessId, const sim::VarMap& vars) { return vars.at("free") != 0; });
  auto control = control_disjunctive_offline(run.deposet, freedom);
  std::printf("safety controller for the replay: %s (%zu control message(s))\n",
              control.controllable ? "synthesized" : "infeasible",
              control.control.size());
  if (!control.controllable) return 1;
  ControlStrategy strategy = ControlStrategy::compile(run.deposet, control.control);
  int violations = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    sim::SimOptions ropt;
    ropt.seed = seed;
    sim::RunResult replay = sim::run_scripts(system, ropt, &strategy);
    if (replay.deadlocked) ++violations;
    for (const Cut& c : replay.cut_timeline())
      if (!eval_disjunctive(freedom, c)) ++violations;
  }
  std::printf("controlled recovery replays violating safety (20 schedules): %d\n",
              violations);
  return violations == 0 ? 0 : 1;
}
