// The fault plane (src/fault/) end to end: plan validation, injector
// determinism (an inactive plan is byte-identical to no plan), crash /
// restart semantics in the engine and in scripted processes, the
// ack+retransmit link healing dropped control traffic, round-robin
// failover and graceful degradation, and the debug session's liveness
// watchdog classifying every way a guarded run can die.
#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "debug/session.hpp"
#include "fault/fault_plan.hpp"
#include "fault/minimize.hpp"
#include "fault/reliable_link.hpp"
#include "mutex/kmutex.hpp"
#include "online/guard.hpp"
#include "online/wcp_detector.hpp"
#include "predicates/global_predicate.hpp"
#include "runtime/scripted.hpp"
#include "runtime/sim.hpp"

namespace predctrl {
namespace {

using fault::FaultPlan;
using sim::Instr;
using sim::Message;
using K = sim::Instr::Kind;

// ----------------------------------------------------------- plan validation

TEST(FaultPlan, RejectsOutOfRangeRates) {
  FaultPlan plan;
  plan.plane(Message::Plane::kControl).drop = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.plane(Message::Plane::kControl).drop = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.plane(Message::Plane::kControl).drop = 0.5;
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, RejectsCrashBeforeOnStart) {
  // Agents come to life via on_start at time 0; a crash at t <= 0 would hit
  // an agent that never existed and must be rejected with a clear message.
  FaultPlan plan;
  plan.crashes.push_back({/*agent=*/0, /*at=*/0, /*restart_at=*/-1});
  try {
    plan.validate();
    FAIL() << "crash at t=0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("precede on_start"), std::string::npos)
        << e.what();
  }

  sim::SimEngine engine;
  engine.add_agent(std::make_unique<sim::Agent>());
  try {
    engine.schedule_crash(0, 0);
    FAIL() << "engine accepted crash at t=0";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("precede on_start"), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlan, RejectsMalformedPartitions) {
  using fault::PartitionEpoch;
  // Fewer than two groups partitions nothing.
  FaultPlan plan;
  plan.partitions.push_back(PartitionEpoch{.from = 0, .until = -1, .groups = {{0, 1}}});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  // An agent cannot sit on both sides of the cut.
  plan.partitions = {PartitionEpoch{.from = 0, .until = -1, .groups = {{0, 1}, {1, 2}}}};
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  // until must exceed from (when finite).
  plan.partitions = {PartitionEpoch{.from = 10, .until = 10, .groups = {{0}, {1}}}};
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  // Overlapping epochs are ambiguous and rejected.
  plan.partitions = {PartitionEpoch{.from = 0, .until = 100, .groups = {{0}, {1}}},
                     PartitionEpoch{.from = 50, .until = 200, .groups = {{0}, {1}}}};
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  // Disjoint epochs (heal/split schedule) are fine, in any listed order.
  plan.partitions = {PartitionEpoch{.from = 100, .until = 200, .groups = {{0}, {1}}},
                     PartitionEpoch{.from = 0, .until = 100, .groups = {{0, 1}, {2}}}};
  EXPECT_NO_THROW(plan.validate());
  // A corrupt rate is range-checked like every other rate.
  plan.partitions.clear();
  plan.plane(Message::Plane::kApplication).corrupt = 1.2;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, PartitionEpochSeversOnlyListedCrossGroupPairs) {
  fault::PartitionEpoch e{.from = 10, .until = 20, .groups = {{0, 2}, {1, 3}}};
  EXPECT_TRUE(e.covers(10));
  EXPECT_FALSE(e.covers(9));
  EXPECT_FALSE(e.covers(20));  // exclusive end
  EXPECT_TRUE(e.severs(0, 1));
  EXPECT_TRUE(e.severs(3, 2));
  EXPECT_FALSE(e.severs(0, 2));  // same group
  EXPECT_FALSE(e.severs(0, 7));  // unlisted agents are unaffected
  fault::PartitionEpoch forever{.from = 5, .until = -1, .groups = {{0}, {1}}};
  EXPECT_TRUE(forever.covers(1'000'000'000));
}

// --------------------------------------------- inactive plan == no plan at all

// Deterministic ping-pong pair for engine-level tests.
class Pinger : public sim::Agent {
 public:
  Pinger(sim::AgentId peer, int32_t rounds) : peer_(peer), rounds_(rounds) {}
  void on_start(sim::AgentContext& ctx) override {
    ctx.mark_waiting("awaiting pong");
    ctx.send(peer_, Message{.type = 1});
  }
  void on_message(sim::AgentContext& ctx, const Message& msg) override {
    (void)msg;
    if (++received_ < rounds_)
      ctx.send(peer_, Message{.type = 1});
    else
      ctx.mark_done();
  }
  int32_t received() const { return received_; }

 private:
  sim::AgentId peer_;
  int32_t rounds_;
  int32_t received_ = 0;
};

class Echoer : public sim::Agent {
 public:
  void on_message(sim::AgentContext& ctx, const Message& msg) override {
    ctx.send(msg.from, Message{.type = 2});
  }
};

TEST(FaultInjector, ZeroRateHookLeavesEngineDrawsUntouched) {
  // Even with the hook INSTALLED, a plan whose rates are all zero draws
  // nothing from its own Rng and never perturbs the engine's: the two runs
  // must agree on every statistic, not just the outcome.
  auto run_once = [](bool with_hook) {
    sim::SimOptions opt;
    opt.seed = 99;
    sim::SimEngine engine(opt);
    engine.add_agent(std::make_unique<Pinger>(1, 20));
    engine.add_agent(std::make_unique<Echoer>());
    FaultPlan plan;  // all rates zero, no events
    fault::FaultInjector injector(plan);
    if (with_hook) injector.install(engine);
    return engine.run();
  };
  const sim::SimStats a = run_once(false);
  const sim::SimStats b = run_once(true);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(b.messages_dropped, 0);
  EXPECT_EQ(b.messages_duplicated, 0);
}

TEST(FaultInjector, InactivePlanByteIdenticalScriptedRun) {
  // run_scripts with an inactive plan must reproduce the no-plan run
  // exactly: entry times, cut timeline, causal structure, stats.
  sim::ScriptedSystem system(3);
  system[0].instrs = {{K::kLocal, 2'000, -1, {}}, {K::kSend, 1'000, 1, {}},
                      {K::kLocal, 3'000, -1, {}}};
  system[1].instrs = {{K::kRecv, 1'000, 0, {}}, {K::kSend, 1'000, 2, {}},
                      {K::kLocal, 2'000, -1, {}}};
  system[2].instrs = {{K::kLocal, 1'000, -1, {}}, {K::kRecv, 1'000, 1, {}}};
  sim::SimOptions opt;
  opt.seed = 7;

  FaultPlan inactive;  // zero rates, no crashes, no script
  ASSERT_FALSE(inactive.active());
  auto base = sim::run_scripts(system, opt);
  auto faulted = sim::run_scripts(system, opt, nullptr, nullptr, nullptr, &inactive);
  ASSERT_FALSE(base.deadlocked);
  ASSERT_FALSE(faulted.deadlocked);
  EXPECT_EQ(base.entry_times, faulted.entry_times);
  EXPECT_EQ(base.cut_timeline(), faulted.cut_timeline());
  EXPECT_EQ(base.deposet.messages().size(), faulted.deposet.messages().size());
  EXPECT_EQ(base.stats.end_time, faulted.stats.end_time);
  EXPECT_EQ(base.stats.messages_sent, faulted.stats.messages_sent);
  EXPECT_EQ(faulted.stats.messages_dropped, 0);
}

// ------------------------------------------------------------ crash / restart

// Sends `total` messages to a fixed peer, one every `gap` of virtual time.
class PacedSender : public sim::Agent {
 public:
  PacedSender(sim::AgentId peer, int32_t total, sim::SimTime gap)
      : peer_(peer), total_(total), gap_(gap) {}
  void on_start(sim::AgentContext& ctx) override { ctx.set_timer(gap_, 0); }
  void on_timer(sim::AgentContext& ctx, int64_t) override {
    ctx.send(peer_, Message{.type = 5});
    if (++sent_ < total_) ctx.set_timer(gap_, 0);
  }

 private:
  sim::AgentId peer_;
  int32_t total_;
  sim::SimTime gap_;
  int32_t sent_ = 0;
};

class CountingReceiver : public sim::Agent {
 public:
  // Default on_restart (no-op on sim::Agent): state survives the outage.
  void on_message(sim::AgentContext&, const Message&) override { ++received_; }
  int32_t received() const { return received_; }

 private:
  int32_t received_ = 0;
};

TEST(FaultInjector, CrashDiscardsDeliveriesRestartRejoins) {
  sim::SimOptions opt;
  opt.seed = 11;
  sim::SimEngine engine(opt);
  engine.add_agent(std::make_unique<PacedSender>(1, 10, 5'000));
  auto receiver = std::make_unique<CountingReceiver>();
  CountingReceiver* r = receiver.get();
  engine.add_agent(std::move(receiver));

  FaultPlan plan;
  plan.crashes.push_back({/*agent=*/1, /*at=*/12'500, /*restart_at=*/27'500});
  fault::FaultInjector injector(plan);
  injector.install(engine);

  sim::SimStats stats = engine.run();
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_FALSE(engine.is_crashed(1));
  // Every message was either delivered or discarded by the outage; at this
  // seed the crash window swallows at least one.
  EXPECT_EQ(r->received() + stats.deliveries_discarded, 10);
  EXPECT_GE(stats.deliveries_discarded, 1);
  EXPECT_GE(r->received(), 1);
}

TEST(FaultInjector, ScriptedProcessResumesAfterRestart) {
  // A crashed scripted process loses its in-flight instruction timer, but
  // the default recovery (re-attempt the current instruction) completes the
  // script after restart: all states entered, no deadlock.
  sim::ScriptedSystem system(2);
  system[0].instrs = {{K::kLocal, 10'000, -1, {}}, {K::kLocal, 10'000, -1, {}}};
  system[1].instrs = {{K::kLocal, 10'000, -1, {}}, {K::kLocal, 10'000, -1, {}},
                      {K::kLocal, 10'000, -1, {}}, {K::kLocal, 10'000, -1, {}},
                      {K::kLocal, 10'000, -1, {}}};
  sim::SimOptions opt;
  opt.seed = 3;

  FaultPlan plan;
  plan.crashes.push_back({/*agent=*/1, /*at=*/25'000, /*restart_at=*/47'000});
  auto run = sim::run_scripts(system, opt, nullptr, nullptr, nullptr, &plan);
  ASSERT_FALSE(run.deadlocked);
  EXPECT_EQ(run.stats.crashes, 1);
  EXPECT_EQ(run.stats.restarts, 1);
  EXPECT_GE(run.stats.deliveries_discarded, 1);  // the instruction timer
  // All six states of P1 entered; the post-crash ones after the restart.
  ASSERT_EQ(run.entry_times[1].size(), 6u);
  EXPECT_GE(run.entry_times[1].back(), 47'000);
}

TEST(SimEngine, QuiescenceReportCarriesWatchdogEvidence) {
  // A blocked agent's quiescence entry must carry enough evidence for the
  // watchdog: waiting reason, the last delivered message, pending timers.
  class Waiter : public sim::Agent {
   public:
    void on_start(sim::AgentContext& ctx) override {
      ctx.mark_waiting("reply that never comes");
      ctx.set_timer(50'000, 7);
    }
    void on_message(sim::AgentContext&, const Message&) override {}
  };
  class OneShot : public sim::Agent {
   public:
    void on_start(sim::AgentContext& ctx) override {
      ctx.send(0, Message{.type = 9});
    }
  };
  sim::SimOptions opt;
  opt.seed = 4;
  opt.time_limit = 20'000;  // stop before the 50ms timer fires
  sim::SimEngine engine(opt);
  engine.add_agent(std::make_unique<Waiter>());
  engine.add_agent(std::make_unique<OneShot>());
  engine.run();
  ASSERT_TRUE(engine.hit_time_limit());

  sim::QuiescenceReport report = engine.quiescence_report();
  ASSERT_EQ(report.blocked.size(), 1u);
  const sim::AgentQuiescence& q = report.blocked[0];
  EXPECT_EQ(q.agent, 0);
  EXPECT_NE(q.waiting_reason.find("never comes"), std::string::npos);
  ASSERT_TRUE(q.last_delivered.has_value());
  EXPECT_EQ(q.last_delivered->type, 9);
  EXPECT_GT(q.last_delivery_time, 0);
  ASSERT_EQ(q.pending_timers.size(), 1u);
  EXPECT_EQ(q.pending_timers[0], 7);
  EXPECT_TRUE(report.crashed.empty());
}

// ----------------------------------------------- retransmission convergence

// Ambient corruption rate for the convergence sweeps. CI's tsan job sets
// PREDCTRL_TEST_CORRUPT (e.g. "0.05") so the checksum-stamping and
// quarantine flag paths run under ThreadSanitizer; unset, the sweeps test
// exactly what their names say. Byte-identity tests never read this -- an
// ambient rate would change what they pin.
double ambient_corrupt() {
  const char* v = std::getenv("PREDCTRL_TEST_CORRUPT");
  return v != nullptr ? std::atof(v) : 0.0;
}

// Three processes, each with a false window needing a scapegoat handoff.
sim::ScriptedSystem handoff_system() {
  sim::ScriptedSystem system(3);
  for (auto& script : system)
    script.instrs = {{K::kLocal, 2'000, -1, {}}, {K::kLocal, 4'000, -1, {}},
                     {K::kLocal, 2'000, -1, {}}, {K::kLocal, 2'000, -1, {}}};
  return system;
}

PredicateTable handoff_truth() {
  return PredicateTable{{true, false, false, true, true},
                        {true, false, false, true, true},
                        {true, false, false, true, true}};
}

TEST(ReliableLink, RetransmissionConvergesAcrossFiftySeeds) {
  // A 10% control-plane drop rate must heal entirely by retransmission:
  // every seed completes, zero give-ups, and every global state the run
  // passes still satisfies B. The sweep must also actually exercise the
  // link (some drops, some retransmits) or it proves nothing.
  const sim::ScriptedSystem system = handoff_system();
  const PredicateTable truth = handoff_truth();
  int64_t total_retransmits = 0;
  int64_t total_dropped = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    FaultPlan plan;
    plan.seed = 1'000 + seed;
    plan.plane(Message::Plane::kControl).drop = 0.10;
    sim::SimOptions opt;
    opt.seed = seed;
    online::ScapegoatTelemetry telemetry;
    auto run = online::run_scripts_guarded(system, truth, opt, {}, &plan, &telemetry);
    ASSERT_FALSE(run.deadlocked) << "seed " << seed;
    EXPECT_EQ(telemetry.link_give_ups, 0) << "seed " << seed;
    EXPECT_TRUE(telemetry.released.empty()) << "seed " << seed;
    for (const Cut& c : run.cut_timeline())
      ASSERT_TRUE(eval_disjunctive(truth, c)) << "seed " << seed << " at " << c;
    total_retransmits += telemetry.retransmits;
    total_dropped += run.stats.messages_dropped;
  }
  EXPECT_GT(total_dropped, 0);
  EXPECT_GT(total_retransmits, 0);
}

TEST(ReliableLink, DuplicateStormSuppressedExactlyOnce) {
  // Duplicating EVERY control-plane message must not confuse the protocol:
  // the link dedups by (sender, seq), so controllers see each req/ack once.
  const sim::ScriptedSystem system = handoff_system();
  const PredicateTable truth = handoff_truth();
  FaultPlan plan;
  plan.seed = 77;
  plan.plane(Message::Plane::kControl).duplicate = 1.0;
  sim::SimOptions opt;
  opt.seed = 21;
  online::ScapegoatTelemetry telemetry;
  auto run = online::run_scripts_guarded(system, truth, opt, {}, &plan, &telemetry);
  ASSERT_FALSE(run.deadlocked);
  EXPECT_GT(run.stats.messages_duplicated, 0);
  EXPECT_GT(telemetry.duplicates_suppressed, 0);
  EXPECT_EQ(telemetry.link_give_ups, 0);
  for (const Cut& c : run.cut_timeline()) EXPECT_TRUE(eval_disjunctive(truth, c));
}

// ------------------------------------------------------- watchdog verdicts

// Guarded-session scripts over an "ok" variable; P`false_proc` opens a
// false window at t = 20ms (safely after any scheduled t = 1ms crash, so
// the gate request races nothing), everyone else stays true throughout.
debug::Session make_session(int32_t n, int32_t false_proc) {
  sim::ScriptedSystem system(static_cast<size_t>(n));
  for (int32_t p = 0; p < n; ++p) {
    auto& script = system[static_cast<size_t>(p)];
    script.initial_vars = {{"ok", 1}};
    if (p == false_proc)
      script.instrs = {{K::kLocal, 20'000, -1, {}},
                       {K::kLocal, 5'000, -1, {{"ok", 0}}},
                       {K::kLocal, 5'000, -1, {{"ok", 1}}},
                       {K::kLocal, 2'000, -1, {}}};
    else
      script.instrs = {{K::kLocal, 5'000, -1, {}}, {K::kLocal, 5'000, -1, {}},
                       {K::kLocal, 5'000, -1, {}}};
  }
  auto ok = [](ProcessId, const sim::VarMap& vars) { return vars.at("ok") != 0; };
  return debug::Session(std::move(system), ok);
}

TEST(Watchdog, CrashedHolderClassifiedWithChain) {
  // Controller 1 starts as scapegoat and its agent crashes before P1 asks
  // to go false: P1 wedges at its gate forever. The watchdog must return a
  // structured verdict -- never a hang -- naming the crashed holder, the
  // adoption chain, the blocked cut, and the engine-level evidence.
  const int32_t n = 2;
  debug::Session session = make_session(n, /*false_proc=*/1);
  online::ScapegoatOptions strategy;
  strategy.initial_scapegoat = 1;
  FaultPlan plan;
  plan.crashes.push_back({/*agent=*/n + 1, /*at=*/1'000, /*restart_at=*/-1});

  debug::GuardedObservation g = session.observe_guarded(5, strategy, &plan);
  EXPECT_TRUE(g.obs.run.deadlocked);
  EXPECT_FALSE(g.degraded);
  ASSERT_TRUE(g.failure.failed());
  EXPECT_EQ(g.failure.kind, debug::ControlFailure::Kind::kCrashedHolder);
  EXPECT_STREQ(debug::to_string(g.failure.kind), "crashed-holder");
  EXPECT_NE(g.failure.detail.find("controller 1"), std::string::npos);
  // The anti-token never moved: the initial scapegoat is the whole chain.
  EXPECT_EQ(g.failure.scapegoat_chain, (std::vector<int32_t>{1}));
  // The partial trace's frontier: P0 finished, P1 stuck before its window.
  EXPECT_EQ(g.failure.blocked_cut[0], 3);
  EXPECT_EQ(g.failure.blocked_cut[1], 1);
  // Engine evidence: P1 blocked at its gate.
  ASSERT_FALSE(g.failure.blocked.empty());
  EXPECT_EQ(g.failure.blocked[0].agent, 1);
  EXPECT_NE(g.failure.blocked[0].waiting_reason.find("gate grant"), std::string::npos);
  // A recovery line over the partial trace exists and is consistent.
  EXPECT_LE(g.failure.recovery.line[1], g.failure.blocked_cut[1]);
}

TEST(Watchdog, ExhaustedPeersReleaseControlDegraded) {
  // n = 2: the holder's only peer is crashed, so after max_retries the
  // link gives up, failover finds no other peer, and the controller
  // releases control -- the run COMPLETES (graceful degradation) and the
  // watchdog reports lost control traffic plus the release.
  const int32_t n = 2;
  debug::Session session = make_session(n, /*false_proc=*/0);
  online::ScapegoatOptions strategy;
  strategy.initial_scapegoat = 0;
  FaultPlan plan;
  plan.crashes.push_back({/*agent=*/n + 1, /*at=*/1'000, /*restart_at=*/-1});

  debug::GuardedObservation g = session.observe_guarded(5, strategy, &plan);
  EXPECT_FALSE(g.obs.run.deadlocked);  // degradation, not a hang
  EXPECT_TRUE(g.degraded);
  ASSERT_TRUE(g.failure.failed());
  EXPECT_EQ(g.failure.kind, debug::ControlFailure::Kind::kLostControlMessage);
  EXPECT_EQ(g.telemetry.released, (std::vector<int32_t>{0}));
  EXPECT_EQ(g.telemetry.link_give_ups, 1);
  EXPECT_GT(g.telemetry.retransmits, 0);
  EXPECT_NE(g.failure.detail.find("degraded"), std::string::npos);
  // The trace is complete: every process entered all its states.
  for (size_t p = 0; p < 2; ++p)
    EXPECT_EQ(g.obs.run.entry_times[p].size(), session.system()[p].instrs.size() + 1);
}

TEST(Watchdog, RoundRobinFailoverHealsCrashedTarget) {
  // n = 3 with one non-holder controller crashed: when the holder's random
  // pick lands on the dead peer, retransmissions exhaust and the handoff
  // fails over round-robin to the live one -- the run completes with
  // control INTACT (no release, no watchdog verdict). Across a small seed
  // sweep both paths (direct pick and failover) must occur.
  const int32_t n = 3;
  bool failover_exercised = false;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    debug::Session session = make_session(n, /*false_proc=*/0);
    online::ScapegoatOptions strategy;
    strategy.initial_scapegoat = 0;
    FaultPlan plan;
    plan.crashes.push_back({/*agent=*/n + 1, /*at=*/1'000, /*restart_at=*/-1});
    debug::GuardedObservation g = session.observe_guarded(seed, strategy, &plan);
    ASSERT_FALSE(g.obs.run.deadlocked) << "seed " << seed;
    EXPECT_FALSE(g.degraded) << "seed " << seed;
    EXPECT_EQ(g.failure.kind, debug::ControlFailure::Kind::kNone) << "seed " << seed;
    EXPECT_TRUE(g.telemetry.released.empty()) << "seed " << seed;
    if (g.telemetry.link_give_ups > 0) failover_exercised = true;
  }
  EXPECT_TRUE(failover_exercised);
}

// --------------------------------------------------- mutex workload under faults

TEST(FaultyMutex, DropRateHealsAndStaysSafeAndDeterministic) {
  mutex::CsWorkloadOptions wopt;
  wopt.num_processes = 4;
  wopt.cs_per_process = 10;
  wopt.seed = 7;
  FaultPlan plan;
  plan.seed = 29;
  plan.plane(Message::Plane::kControl).drop = 0.10;

  mutex::MutexRunResult a = mutex::run_scapegoat_mutex(wopt, {}, &plan);
  EXPECT_FALSE(a.deadlocked);
  EXPECT_EQ(a.cs_entries, 4 * 10);
  EXPECT_LE(a.max_concurrent_cs, 3);  // (n-1)-mutex safety under faults
  EXPECT_GT(a.stats.messages_dropped, 0);
  EXPECT_GT(a.telemetry.retransmits, 0);
  EXPECT_EQ(a.telemetry.link_give_ups, 0);
  EXPECT_FALSE(a.telemetry.chain.empty());

  // Same seed + same plan => byte-identical run.
  mutex::MutexRunResult b = mutex::run_scapegoat_mutex(wopt, {}, &plan);
  EXPECT_EQ(a.stats.end_time, b.stats.end_time);
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped);
  EXPECT_EQ(a.telemetry.retransmits, b.telemetry.retransmits);
  EXPECT_EQ(a.telemetry.chain, b.telemetry.chain);
  EXPECT_EQ(a.response_delays, b.response_delays);
}

// ------------------------------------------------ detector under duplication

TEST(WcpDetectorFaults, DuplicatedCandidatesStillConclusive) {
  // Fault-plane duplication delivers every candidate (and done marker)
  // twice; the detector must dedup by sequence or its drain check wedges.
  auto detect_under = [](const sim::ScriptedSystem& system,
                         const PredicateTable& cond, const FaultPlan& plan) {
    sim::OnlineDetection detection;
    detection.conditions = cond;
    auto sink = std::make_shared<online::WcpDetectionOutcome>();
    detection.make_detector = [&](sim::SimEngine& engine) {
      return engine.add_agent(std::make_unique<online::WcpDetector>(
          static_cast<int32_t>(system.size()), sink));
    };
    sim::SimOptions opt;
    opt.seed = 13;
    auto run = sim::run_scripts(system, opt, nullptr, nullptr, &detection, &plan);
    EXPECT_FALSE(run.deadlocked);
    EXPECT_GT(run.stats.messages_duplicated, 0);
    return *sink;
  };

  FaultPlan plan;
  plan.seed = 5;
  plan.plane(Message::Plane::kControl).duplicate = 1.0;

  // Overlapping windows: detected, least cut {1, 1}.
  sim::ScriptedSystem overlap(2);
  for (auto& script : overlap)
    script.instrs = {{K::kLocal, 1'000, -1, {}}, {K::kLocal, 5'000, -1, {}},
                     {K::kLocal, 1'000, -1, {}}};
  PredicateTable in_cs{{false, true, true, false}, {false, true, true, false}};
  online::WcpDetectionOutcome hit = detect_under(overlap, in_cs, plan);
  ASSERT_TRUE(hit.conclusive);
  EXPECT_TRUE(hit.detected);
  EXPECT_EQ(hit.cut, Cut(std::vector<int32_t>{1, 1}));
  // Dedup by sequence: 8 deliveries (4 candidates, each duplicated) must
  // not inflate the count past the 4 distinct candidates (the detector may
  // legitimately stop counting once conclusive, so fewer is fine).
  EXPECT_LE(hit.candidates_received, 4);
  EXPECT_GE(hit.candidates_received, 2);

  // Causally ordered windows: conclusively NOT detected, duplicates must
  // not defeat the drain check.
  sim::ScriptedSystem ordered(2);
  ordered[0].instrs = {{K::kLocal, 1'000, -1, {}}, {K::kSend, 1'000, 1, {}}};
  ordered[1].instrs = {{K::kRecv, 1'000, 0, {}}, {K::kLocal, 1'000, -1, {}}};
  PredicateTable cond{{false, true, false}, {false, false, true}};
  online::WcpDetectionOutcome miss = detect_under(ordered, cond, plan);
  ASSERT_TRUE(miss.conclusive);
  EXPECT_FALSE(miss.detected);
}

// ------------------------------------------------------- partitions (mask v2)

TEST(FaultInjector, DormantPartitionAndZeroCorruptByteIdentical) {
  // A plan whose partition epochs never cover the run's time range and whose
  // corrupt rates are all zero is ACTIVE (the injector installs), yet must
  // reproduce the no-plan run byte for byte: the mask check draws nothing
  // from any Rng and zero corruption never arms checksum stamping.
  sim::ScriptedSystem system(3);
  system[0].instrs = {{K::kLocal, 2'000, -1, {}}, {K::kSend, 1'000, 1, {}},
                      {K::kLocal, 3'000, -1, {}}};
  system[1].instrs = {{K::kRecv, 1'000, 0, {}}, {K::kSend, 1'000, 2, {}},
                      {K::kLocal, 2'000, -1, {}}};
  system[2].instrs = {{K::kLocal, 1'000, -1, {}}, {K::kRecv, 1'000, 1, {}}};
  sim::SimOptions opt;
  opt.seed = 7;

  FaultPlan dormant;
  dormant.partitions.push_back(
      fault::PartitionEpoch{.from = 50'000'000, .until = -1, .groups = {{0}, {1, 2}}});
  dormant.plane(Message::Plane::kApplication).corrupt = 0.0;
  ASSERT_TRUE(dormant.active());
  ASSERT_FALSE(dormant.corrupts());

  auto base = sim::run_scripts(system, opt);
  auto masked = sim::run_scripts(system, opt, nullptr, nullptr, nullptr, &dormant);
  ASSERT_FALSE(masked.deadlocked);
  EXPECT_EQ(base.entry_times, masked.entry_times);
  EXPECT_EQ(base.cut_timeline(), masked.cut_timeline());
  EXPECT_EQ(base.stats.end_time, masked.stats.end_time);
  EXPECT_EQ(base.stats.messages_sent, masked.stats.messages_sent);
  EXPECT_EQ(masked.stats.partition_drops, 0);
  EXPECT_EQ(masked.stats.corrupted_messages, 0);
}

TEST(Partition, HealedSplitConvergesAcrossFiftySeeds) {
  // A 20ms guard-to-guard partition early in the run must heal entirely by
  // retransmission once the epoch ends: every seed completes with B intact,
  // and the sweep as a whole must actually sever traffic or it proves
  // nothing. Agent layout of guarded runs: processes [0, n), guards
  // [n, 2n) -- the epoch splits guard 3 from guards 4 and 5.
  const sim::ScriptedSystem system = handoff_system();
  const PredicateTable truth = handoff_truth();
  int64_t total_severed = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    FaultPlan plan;
    plan.seed = 2'000 + seed;
    plan.partitions.push_back(
        fault::PartitionEpoch{.from = 5'000, .until = 25'000, .groups = {{3}, {4, 5}}});
    plan.plane(Message::Plane::kControl).corrupt = ambient_corrupt();
    sim::SimOptions opt;
    opt.seed = seed;
    online::ScapegoatTelemetry telemetry;
    auto run = online::run_scripts_guarded(system, truth, opt, {}, &plan, &telemetry);
    ASSERT_FALSE(run.deadlocked) << "seed " << seed;
    EXPECT_TRUE(telemetry.released.empty()) << "seed " << seed;
    for (const Cut& c : run.cut_timeline())
      ASSERT_TRUE(eval_disjunctive(truth, c)) << "seed " << seed << " at " << c;
    total_severed += run.stats.partition_drops;
  }
  EXPECT_GT(total_severed, 0);
}

TEST(Watchdog, UnhealedPartitionWedgesMinorityClassifiedPartitioned) {
  // P2 waits for an application message from P0 that a never-healing
  // partition swallows: the minority side {P2, its guard} wedges forever
  // while the quorum side runs to completion. The watchdog must terminate
  // with a structured kPartitioned verdict carrying the offending epoch --
  // and the quorum-side progress is the scapegoat controllers' proof that
  // the mask, not the control plane, is at fault.
  sim::ScriptedSystem system(3);
  system[0].instrs = {{K::kLocal, 2'000, -1, {}}, {K::kSend, 1'000, 2, {}},
                      {K::kLocal, 2'000, -1, {}}};
  system[1].instrs = {{K::kLocal, 2'000, -1, {}}, {K::kLocal, 2'000, -1, {}}};
  system[2].instrs = {{K::kRecv, 1'000, 0, {}}, {K::kLocal, 2'000, -1, {}}};
  for (auto& script : system) script.initial_vars = {{"ok", 1}};
  auto ok = [](ProcessId, const sim::VarMap& vars) { return vars.at("ok") != 0; };
  debug::Session session(std::move(system), ok);

  // Processes 0..2, guards 3..5: isolate {P2, guard 5}.
  FaultPlan plan;
  plan.partitions.push_back(
      fault::PartitionEpoch{.from = 1'000, .until = -1, .groups = {{0, 1, 3, 4}, {2, 5}}});

  debug::GuardedObservation g = session.observe_guarded(9, {}, &plan);
  EXPECT_TRUE(g.obs.run.deadlocked);
  ASSERT_TRUE(g.failure.failed());
  EXPECT_EQ(g.failure.kind, debug::ControlFailure::Kind::kPartitioned);
  EXPECT_STREQ(debug::to_string(g.failure.kind), "partitioned");
  EXPECT_GT(g.obs.run.stats.partition_drops, 0);
  EXPECT_NE(g.failure.detail.find("still in force"), std::string::npos) << g.failure.detail;
  // The offending mask rides along as evidence.
  ASSERT_TRUE(g.failure.partition.has_value());
  EXPECT_EQ(g.failure.partition->from, 1'000);
  EXPECT_EQ(g.failure.partition->until, -1);
  // Quorum-side progress: P0 and P1 entered every scripted state.
  EXPECT_EQ(g.obs.run.entry_times[0].size(), 4u);
  EXPECT_EQ(g.obs.run.entry_times[1].size(), 3u);
  // The minority receiver is stuck before its receive completes.
  EXPECT_EQ(g.failure.blocked_cut[2], 0);
  // Determinism: the verdict reproduces byte for byte.
  debug::GuardedObservation h = session.observe_guarded(9, {}, &plan);
  EXPECT_EQ(g.failure.kind, h.failure.kind);
  EXPECT_EQ(g.failure.detail, h.failure.detail);
  EXPECT_EQ(g.failure.blocked_cut, h.failure.blocked_cut);
}

// --------------------------------------------------- Byzantine corruption

TEST(MessageChecksum, CoversPayloadAndClockAndNeverReturnsZero) {
  Message msg;
  msg.from = 1;
  msg.to = 2;
  msg.type = 7;
  msg.a = 100;
  msg.b = 200;
  msg.clock = {3, 4, 5};
  const int64_t base = sim::message_checksum(msg);
  EXPECT_NE(base, 0);  // 0 is reserved for "unstamped"
  EXPECT_EQ(base, sim::message_checksum(msg));  // pure
  Message flipped = msg;
  flipped.a ^= 1;
  EXPECT_NE(sim::message_checksum(flipped), base);
  flipped = msg;
  flipped.clock[1] ^= 1 << 20;
  EXPECT_NE(sim::message_checksum(flipped), base);
  flipped = msg;
  flipped.clock.push_back(0);  // length is part of the identity
  EXPECT_NE(sim::message_checksum(flipped), base);
}

TEST(Corruption, ControlPlaneQuarantinesAndSelfHealsAcrossSeeds) {
  // Byzantine bit-flips on the control plane: the link quarantines every
  // corrupted delivery (flag, never crash), NAKs for an immediate
  // retransmit, and the protocol above converges -- every seed completes
  // with B intact and no controller released.
  const sim::ScriptedSystem system = handoff_system();
  const PredicateTable truth = handoff_truth();
  int64_t total_corrupted = 0;
  int64_t total_quarantined = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    FaultPlan plan;
    plan.seed = 3'000 + seed;
    plan.plane(Message::Plane::kControl).corrupt = std::max(0.10, ambient_corrupt());
    sim::SimOptions opt;
    opt.seed = seed;
    online::ScapegoatTelemetry telemetry;
    auto run = online::run_scripts_guarded(system, truth, opt, {}, &plan, &telemetry);
    ASSERT_FALSE(run.deadlocked) << "seed " << seed;
    EXPECT_TRUE(telemetry.released.empty()) << "seed " << seed;
    for (const Cut& c : run.cut_timeline())
      ASSERT_TRUE(eval_disjunctive(truth, c)) << "seed " << seed << " at " << c;
    total_corrupted += run.stats.corrupted_messages;
    total_quarantined += telemetry.corrupt_quarantined;
  }
  EXPECT_GT(total_corrupted, 0);
  EXPECT_GT(total_quarantined, 0);
}

TEST(Watchdog, CorruptedApplicationPayloadClassifiedCorruptedLink) {
  // A scripted bit-flip on the one application message: the receiving
  // process discards the corrupted payload (its checksum no longer
  // matches), and with no retransmission layer beneath application
  // traffic the receiver wedges. The watchdog must say kCorruptedLink.
  sim::ScriptedSystem system(2);
  system[0].instrs = {{K::kLocal, 2'000, -1, {}}, {K::kSend, 1'000, 1, {}},
                      {K::kLocal, 2'000, -1, {}}};
  system[1].instrs = {{K::kRecv, 1'000, 0, {}}, {K::kLocal, 2'000, -1, {}}};
  for (auto& script : system) script.initial_vars = {{"ok", 1}};
  auto ok = [](ProcessId, const sim::VarMap& vars) { return vars.at("ok") != 0; };
  debug::Session session(std::move(system), ok);

  FaultPlan plan;
  plan.script.push_back({sim::Message::Plane::kApplication, /*send_index=*/0,
                         fault::ScriptedFault::Action::kCorrupt});
  ASSERT_TRUE(plan.corrupts());

  debug::GuardedObservation g = session.observe_guarded(3, {}, &plan);
  EXPECT_TRUE(g.obs.run.deadlocked);
  ASSERT_TRUE(g.failure.failed());
  EXPECT_EQ(g.failure.kind, debug::ControlFailure::Kind::kCorruptedLink);
  EXPECT_STREQ(debug::to_string(g.failure.kind), "corrupted-link");
  EXPECT_EQ(g.obs.run.stats.corrupted_messages, 1);
  EXPECT_EQ(g.obs.run.stats.partition_drops, 0);
  EXPECT_NE(g.failure.detail.find("corrupted"), std::string::npos);
}

TEST(WcpDetectorFaults, CorruptedClockRowsRejectedNotAdopted) {
  // With every control-plane message corrupted, the detector must reject
  // each candidate's poisoned clock row instead of folding it into its
  // candidate store -- the honest outcome is "inconclusive", never a
  // corrupted verdict or a crash.
  sim::ScriptedSystem overlap(2);
  for (auto& script : overlap)
    script.instrs = {{K::kLocal, 1'000, -1, {}}, {K::kLocal, 5'000, -1, {}},
                     {K::kLocal, 1'000, -1, {}}};
  PredicateTable in_cs{{false, true, true, false}, {false, true, true, false}};

  sim::OnlineDetection detection;
  detection.conditions = in_cs;
  auto sink = std::make_shared<online::WcpDetectionOutcome>();
  detection.make_detector = [&](sim::SimEngine& engine) {
    return engine.add_agent(std::make_unique<online::WcpDetector>(2, sink));
  };
  FaultPlan plan;
  plan.seed = 5;
  plan.plane(Message::Plane::kControl).corrupt = 1.0;
  sim::SimOptions opt;
  opt.seed = 13;
  auto run = sim::run_scripts(overlap, opt, nullptr, nullptr, &detection, &plan);
  EXPECT_FALSE(run.deadlocked);  // processes never depend on the detector
  EXPECT_GT(run.stats.corrupted_messages, 0);
  EXPECT_GT(sink->corrupt_rejected, 0);
  EXPECT_FALSE(sink->detected);  // a poisoned row must never manufacture a hit
}

// ------------------------------------------------- link dedup window (v2)

// Minimal reliable-link endpoints for link-level tests: a paced sender and
// a counting receiver, each owning an enabled ReliableLink.
class LinkSender : public sim::Agent {
 public:
  LinkSender(sim::AgentId peer, int32_t total, sim::SimTime gap)
      : peer_(peer), total_(total), gap_(gap) {
    fault::ReliableLinkOptions lo;
    lo.enabled = true;
    link_.configure(lo);
  }
  void on_start(sim::AgentContext& ctx) override { ctx.set_timer(gap_, 1); }
  void on_timer(sim::AgentContext& ctx, int64_t id) override {
    if (link_.on_timer(ctx, id)) return;
    Message m;
    m.type = 55;
    m.plane = Message::Plane::kControl;
    link_.send(ctx, peer_, m);
    if (++sent_ < total_) ctx.set_timer(gap_, 1);
  }
  void on_message(sim::AgentContext& ctx, const Message& msg) override {
    link_.on_message(ctx, msg);
  }
  const fault::ReliableLink& link() const { return link_; }

 private:
  fault::ReliableLink link_;
  sim::AgentId peer_;
  int32_t total_;
  sim::SimTime gap_;
  int32_t sent_ = 0;
};

class LinkReceiver : public sim::Agent {
 public:
  LinkReceiver() {
    fault::ReliableLinkOptions lo;
    lo.enabled = true;
    link_.configure(lo);
  }
  void on_message(sim::AgentContext& ctx, const Message& msg) override {
    if (link_.on_message(ctx, msg)) return;
    ++delivered_;
  }
  void on_timer(sim::AgentContext& ctx, int64_t id) override { link_.on_timer(ctx, id); }
  const fault::ReliableLink& link() const { return link_; }
  int32_t delivered() const { return delivered_; }

 private:
  fault::ReliableLink link_;
  int32_t delivered_ = 0;
};

TEST(ReliableLink, DedupWindowPrunesBelowLowWaterMark) {
  // 60 reliable sends under a full duplicate storm plus drops: the receiver
  // must see each message exactly once, and its dedup state must collapse
  // to the low-water mark instead of accumulating one entry per (sender,
  // seq) forever -- the v1 leak this windowing fixes.
  sim::SimOptions opt;
  opt.seed = 23;
  sim::SimEngine engine(opt);
  auto sender = std::make_unique<LinkSender>(1, 60, 2'000);
  auto receiver = std::make_unique<LinkReceiver>();
  const LinkSender* s = sender.get();
  const LinkReceiver* r = receiver.get();
  engine.add_agent(std::move(sender));
  engine.add_agent(std::move(receiver));

  FaultPlan plan;
  plan.seed = 31;
  plan.plane(Message::Plane::kControl).duplicate = 1.0;
  plan.plane(Message::Plane::kControl).drop = 0.10;
  fault::FaultInjector injector(plan);
  injector.install(engine);
  engine.run();

  EXPECT_EQ(r->delivered(), 60);
  EXPECT_GT(r->link().stats().duplicates_suppressed, 0);
  EXPECT_EQ(s->link().stats().give_ups, 0);
  // Every seq below 60 was delivered and acked, so the contiguous prefix
  // swallowed the whole window: nothing left in the live set.
  EXPECT_EQ(r->link().dedup_low_water(0), 60);
  EXPECT_EQ(r->link().dedup_entries(0), 0);
}

TEST(ReliableLink, CorruptedDeliveryQuarantinedAndNakRecovered) {
  // Corrupting reliable control traffic in flight: the receiving link
  // quarantines (never delivers, never acks) and NAKs; the sender
  // retransmits immediately. All messages still arrive exactly once.
  sim::SimOptions opt;
  opt.seed = 29;
  sim::SimEngine engine(opt);
  auto sender = std::make_unique<LinkSender>(1, 40, 2'000);
  auto receiver = std::make_unique<LinkReceiver>();
  const LinkReceiver* r = receiver.get();
  engine.add_agent(std::move(sender));
  engine.add_agent(std::move(receiver));

  FaultPlan plan;
  plan.seed = 37;
  plan.plane(Message::Plane::kControl).corrupt = 0.15;
  fault::FaultInjector injector(plan);
  injector.install(engine);
  const sim::SimStats stats = engine.run();

  EXPECT_GT(stats.corrupted_messages, 0);
  EXPECT_EQ(r->delivered(), 40);
  EXPECT_GT(r->link().stats().corrupt_quarantined, 0);
  EXPECT_GT(r->link().stats().naks_sent, 0);
  EXPECT_EQ(r->link().dedup_low_water(0), 40);
  EXPECT_EQ(r->link().dedup_entries(0), 0);
}

// ----------------------------------------------------- FaultPlan minimizer

TEST(Minimizer, CountsAndDescribesUnits) {
  FaultPlan plan;
  plan.crashes.push_back({/*agent=*/3, /*at=*/1'000, /*restart_at=*/-1});
  plan.script.push_back({sim::Message::Plane::kControl, /*send_index=*/5,
                         fault::ScriptedFault::Action::kDrop});
  plan.partitions.push_back(
      fault::PartitionEpoch{.from = 0, .until = 100, .groups = {{0}, {1}}});
  plan.plane(Message::Plane::kControl).drop = 0.25;
  plan.plane(Message::Plane::kApplication).corrupt = 0.10;
  EXPECT_EQ(fault::plan_unit_count(plan), 5);
  const std::vector<std::string> units = fault::describe_plan_units(plan);
  ASSERT_EQ(units.size(), 5u);
  EXPECT_NE(units[0].find("crash agent 3"), std::string::npos);
  EXPECT_NE(units[1].find("scripted drop"), std::string::npos);
  EXPECT_NE(units[2].find("partition"), std::string::npos);
}

TEST(Minimizer, ThrowsWhenInputDoesNotReproduce) {
  FaultPlan plan;
  plan.plane(Message::Plane::kControl).drop = 0.5;
  EXPECT_THROW(
      fault::minimize_fault_plan(plan, [](const FaultPlan&) { return false; }),
      std::invalid_argument);
}

TEST(Minimizer, ShrinksNoisyPlanToSingleCrashUnit) {
  // The CrashedHolder scenario buried under seven units of noise: scripted
  // drops that change nothing, rates that never fire at these seeds, a
  // dormant partition, a far-future crash. ddmin must strip all of it and
  // land on the one crash that wedges the holder -- well under the <= 3
  // units the acceptance bar asks for.
  const int32_t n = 2;
  online::ScapegoatOptions strategy;
  strategy.initial_scapegoat = 1;
  debug::Session session = make_session(n, /*false_proc=*/1);

  FaultPlan plan;
  plan.crashes.push_back({/*agent=*/n + 1, /*at=*/1'000, /*restart_at=*/-1});
  plan.crashes.push_back({/*agent=*/n, /*at=*/900'000, /*restart_at=*/-1});
  plan.script.push_back({sim::Message::Plane::kControl, /*send_index=*/40,
                         fault::ScriptedFault::Action::kDrop});
  plan.script.push_back({sim::Message::Plane::kControl, /*send_index=*/41,
                         fault::ScriptedFault::Action::kDuplicate});
  plan.partitions.push_back(
      fault::PartitionEpoch{.from = 800'000, .until = 810'000, .groups = {{0}, {1}}});
  plan.plane(Message::Plane::kControl).drop = 0.0001;
  plan.plane(Message::Plane::kControl).duplicate = 0.0001;
  plan.plane(Message::Plane::kApplication).corrupt = 0.0001;
  ASSERT_EQ(fault::plan_unit_count(plan), 8);

  auto repro = [&](const FaultPlan& candidate) {
    return session.observe_guarded(5, strategy, &candidate).failure.kind ==
           debug::ControlFailure::Kind::kCrashedHolder;
  };
  ASSERT_TRUE(repro(plan));

  const fault::MinimizeResult r = fault::minimize_fault_plan(plan, repro);
  EXPECT_EQ(r.units_before, 8);
  EXPECT_LE(r.units_after, 3);
  EXPECT_TRUE(r.minimal);
  EXPECT_GT(r.probes, 0);
  ASSERT_TRUE(repro(r.plan));
  // The surviving unit is the crash of the holding controller.
  ASSERT_EQ(r.plan.crashes.size(), 1u);
  EXPECT_EQ(r.plan.crashes[0].agent, n + 1);
  // Seed and delay ranges are plan identity and always survive.
  EXPECT_EQ(r.plan.seed, plan.seed);
  EXPECT_EQ(r.plan.spike_min, plan.spike_min);

  // Idempotence: minimizing the minimal plan is a fixpoint.
  const fault::MinimizeResult again = fault::minimize_fault_plan(r.plan, repro);
  EXPECT_EQ(again.units_after, r.units_after);
  EXPECT_TRUE(again.minimal);
  EXPECT_EQ(fault::describe_plan_units(again.plan), fault::describe_plan_units(r.plan));
}

TEST(Minimizer, DeterministicAcrossRuns) {
  // Same plan + same oracle => the same probe count and the same minimal
  // plan, run to run -- the property that makes minimize-fault's output
  // quotable in a bug report.
  const int32_t n = 2;
  online::ScapegoatOptions strategy;
  strategy.initial_scapegoat = 1;
  debug::Session session = make_session(n, /*false_proc=*/1);
  FaultPlan plan;
  plan.crashes.push_back({/*agent=*/n + 1, /*at=*/1'000, /*restart_at=*/-1});
  plan.script.push_back({sim::Message::Plane::kControl, /*send_index=*/40,
                         fault::ScriptedFault::Action::kDrop});
  plan.plane(Message::Plane::kControl).drop = 0.0001;
  auto repro = [&](const FaultPlan& candidate) {
    return session.observe_guarded(5, strategy, &candidate).failure.kind ==
           debug::ControlFailure::Kind::kCrashedHolder;
  };
  const fault::MinimizeResult a = fault::minimize_fault_plan(plan, repro);
  const fault::MinimizeResult b = fault::minimize_fault_plan(plan, repro);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.units_after, b.units_after);
  EXPECT_EQ(fault::describe_plan_units(a.plan), fault::describe_plan_units(b.plan));
}

// ------------------------------------------------------- repeat runs

TEST(FaultDeterminism, SameSeedRepeatRunsAreIdentical) {
  // Same seed + same plan => byte-identical results on every run, pinned
  // end to end through observe_guarded's detection and recovery machinery.
  // Each run builds a fresh session, so no state can carry over.
  const int32_t n = 3;
  FaultPlan plan;
  plan.seed = 41;
  plan.plane(Message::Plane::kControl).drop = 0.08;
  plan.plane(Message::Plane::kApplication).delay_spike = 0.05;

  auto run_once = [&] {
    debug::Session session = make_session(n, /*false_proc=*/0);
    return session.observe_guarded(17, {}, &plan);
  };
  debug::GuardedObservation base = run_once();
  for (int repeat = 1; repeat <= 3; ++repeat) {
    debug::GuardedObservation g = run_once();
    EXPECT_EQ(base.obs.run.entry_times, g.obs.run.entry_times) << repeat;
    EXPECT_EQ(base.obs.run.cut_timeline(), g.obs.run.cut_timeline()) << repeat;
    EXPECT_EQ(base.obs.run.stats.end_time, g.obs.run.stats.end_time) << repeat;
    EXPECT_EQ(base.obs.run.stats.messages_dropped, g.obs.run.stats.messages_dropped)
        << repeat;
    EXPECT_EQ(base.telemetry.retransmits, g.telemetry.retransmits) << repeat;
    EXPECT_EQ(base.telemetry.chain, g.telemetry.chain) << repeat;
    EXPECT_EQ(base.failure.kind, g.failure.kind) << repeat;
  }
}

}  // namespace
}  // namespace predctrl
