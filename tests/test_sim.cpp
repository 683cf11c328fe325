#include "runtime/sim.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "control/offline_disjunctive.hpp"
#include "control/strategy.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/scripted.hpp"
#include "trace/random_trace.hpp"
#include "trace/serialize.hpp"

namespace predctrl::sim {
namespace {

// Ping-pong agents: A sends `rounds` pings; B echoes each.
class Pinger : public Agent {
 public:
  Pinger(AgentId peer, int32_t rounds) : peer_(peer), rounds_(rounds) {}
  void on_start(AgentContext& ctx) override {
    if (rounds_ > 0) {
      ctx.mark_waiting("awaiting pong");
      ctx.send(peer_, Message{.type = 1});
    }
  }
  void on_message(AgentContext& ctx, const Message& msg) override {
    EXPECT_EQ(msg.type, 2);
    last_rtt_ = ctx.now() - last_send_;
    if (++received_ < rounds_) {
      last_send_ = ctx.now();
      ctx.send(peer_, Message{.type = 1});
    } else {
      ctx.mark_done();
    }
  }
  int32_t received() const { return received_; }
  SimTime last_rtt() const { return last_rtt_; }

 private:
  AgentId peer_;
  int32_t rounds_;
  int32_t received_ = 0;
  SimTime last_send_ = 0;
  SimTime last_rtt_ = 0;
};

class Echoer : public Agent {
 public:
  void on_message(AgentContext& ctx, const Message& msg) override {
    ctx.send(msg.from, Message{.type = 2});
  }
};

TEST(SimEngine, PingPongRunsToCompletion) {
  SimOptions opt;
  opt.seed = 42;
  SimEngine engine(opt);
  auto pinger = std::make_unique<Pinger>(1, 5);
  Pinger* p = pinger.get();
  engine.add_agent(std::move(pinger));
  engine.add_agent(std::make_unique<Echoer>());
  SimStats stats = engine.run();
  EXPECT_EQ(p->received(), 5);
  EXPECT_EQ(stats.messages_sent, 10);
  EXPECT_TRUE(engine.blocked_agents().empty());
  // Round trips take at least 2 * min_delay of virtual time.
  EXPECT_GE(stats.end_time, 10 * opt.min_delay);
  EXPECT_GE(p->last_rtt(), 2 * opt.min_delay);
  EXPECT_LE(p->last_rtt(), 2 * opt.max_delay);
}

TEST(SimEngine, DeterministicGivenSeed) {
  auto run_once = [] {
    SimOptions opt;
    opt.seed = 7;
    SimEngine engine(opt);
    engine.add_agent(std::make_unique<Pinger>(1, 20));
    engine.add_agent(std::make_unique<Echoer>());
    return engine.run().end_time;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimEngine, DifferentSeedsDifferentSchedules) {
  auto run_once = [](uint64_t seed) {
    SimOptions opt;
    opt.seed = seed;
    SimEngine engine(opt);
    engine.add_agent(std::make_unique<Pinger>(1, 20));
    engine.add_agent(std::make_unique<Echoer>());
    return engine.run().end_time;
  };
  EXPECT_NE(run_once(1), run_once(2));
}

class NeverSatisfied : public Agent {
 public:
  void on_start(AgentContext& ctx) override { ctx.mark_waiting("a message that never comes"); }
};

TEST(SimEngine, ReportsBlockedAgents) {
  SimEngine engine;
  engine.add_agent(std::make_unique<NeverSatisfied>());
  engine.run();
  auto blocked = engine.blocked_agents();
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0].first, 0);
  EXPECT_NE(blocked[0].second.find("never comes"), std::string::npos);
}

class TimerChain : public Agent {
 public:
  void on_start(AgentContext& ctx) override { ctx.set_timer(100, 0); }
  void on_timer(AgentContext& ctx, int64_t id) override {
    fired_at_.push_back(ctx.now());
    if (id < 3) ctx.set_timer(100, id + 1);
  }
  std::vector<SimTime> fired_at_;
};

TEST(SimEngine, TimersFireAtExactVirtualTimes) {
  SimEngine engine;
  auto chain = std::make_unique<TimerChain>();
  TimerChain* t = chain.get();
  engine.add_agent(std::move(chain));
  engine.run();
  EXPECT_EQ(t->fired_at_, (std::vector<SimTime>{100, 200, 300, 400}));
}

class SelfSpammer : public Agent {
 public:
  void on_start(AgentContext& ctx) override { ctx.set_timer(10, 0); }
  void on_timer(AgentContext& ctx, int64_t) override { ctx.set_timer(10, 0); }
};

TEST(SimEngine, TimeLimitStopsRunawayRuns) {
  SimOptions opt;
  opt.time_limit = 1'000;
  SimEngine engine(opt);
  engine.add_agent(std::make_unique<SelfSpammer>());
  SimStats stats = engine.run();
  EXPECT_TRUE(engine.hit_time_limit());
  EXPECT_LE(stats.end_time, 1'000);
}

TEST(SimEngine, LocalPlaneHasZeroDelay) {
  class LocalSender : public Agent {
   public:
    void on_start(AgentContext& ctx) override {
      Message m;
      m.type = 9;
      m.plane = Message::Plane::kLocal;
      ctx.send(1, m);
    }
  };
  class Receiver : public Agent {
   public:
    SimTime received_at = -1;
    void on_message(AgentContext& ctx, const Message&) override { received_at = ctx.now(); }
  };
  SimEngine engine;
  engine.add_agent(std::make_unique<LocalSender>());
  auto recv = std::make_unique<Receiver>();
  Receiver* r = recv.get();
  engine.add_agent(std::move(recv));
  engine.run();
  EXPECT_EQ(r->received_at, 0);
}

TEST(SimEngine, PlaneCountersSeparateTraffic) {
  class Mixed : public Agent {
   public:
    void on_start(AgentContext& ctx) override {
      Message app;
      app.plane = Message::Plane::kApplication;
      ctx.send(1, app);
      Message ctl;
      ctl.plane = Message::Plane::kControl;
      ctx.send(1, ctl);
      ctx.send(1, ctl);
    }
  };
  SimEngine engine;
  engine.add_agent(std::make_unique<Mixed>());
  engine.add_agent(std::make_unique<Agent>());
  SimStats stats = engine.run();
  EXPECT_EQ(stats.application_messages, 1);
  EXPECT_EQ(stats.control_messages, 2);
  EXPECT_EQ(stats.messages_sent, 3);
}

TEST(SimEngine, StatsResetBetweenRunsOnReusedEngine) {
  // run() re-fires on_start, so a second run on a reused engine does real
  // work -- but its counters must describe THAT run alone, not accumulate
  // the first run's totals on top.
  SimEngine engine;
  auto chain = std::make_unique<TimerChain>();
  TimerChain* t = chain.get();
  engine.add_agent(std::move(chain));
  SimStats first = engine.run();
  EXPECT_EQ(first.timers_fired, 4);
  EXPECT_EQ(first.events_processed, 4);
  SimStats second = engine.run();
  EXPECT_EQ(second.timers_fired, 4);  // 8 would mean the counters leaked
  EXPECT_EQ(second.events_processed, 4);
  EXPECT_EQ(second.messages_sent, 0);
  EXPECT_EQ(second.max_queue_depth, 1);
  EXPECT_EQ(t->fired_at_.size(), 8u);
  EXPECT_FALSE(engine.hit_time_limit());
}

// ------------------------------------------------- event-order determinism

// One line per run: every SimStats counter, a hash of the traced deposet and
// the length of the cut timeline. Any change in the order the engine pops
// (time, seq)-equal or -ordered events shows up here, because the delay
// draws, fault draws and state-entry times all follow that order.
std::string run_pin(const RunResult& run) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the deposet text
  for (unsigned char c : deposet_to_string(run.deposet)) {
    h ^= c;
    h *= 1099511628211ull;
  }
  const SimStats& s = run.stats;
  std::ostringstream os;
  os << "ev=" << s.events_processed << " sent=" << s.messages_sent
     << " app=" << s.application_messages << " ctl=" << s.control_messages
     << " loc=" << s.local_messages << " tmr=" << s.timers_fired
     << " maxq=" << s.max_queue_depth << " end=" << s.end_time
     << " drop=" << s.messages_dropped << " dup=" << s.messages_duplicated
     << " crash=" << s.crashes << " restart=" << s.restarts
     << " disc=" << s.deliveries_discarded << " dead=" << run.deadlocked
     << " cuts=" << run.cut_timeline().size() << " h=" << std::hex << h;
  return os.str();
}

struct PinSystem {
  Deposet deposet;
  PredicateTable predicate;
  ScriptedSystem system;
};

PinSystem pin_system(uint64_t seed, int32_t n, int32_t events) {
  Rng rng(seed);
  PinSystem w;
  w.deposet = random_deposet({n, events, 0.3, 0.5}, rng);
  w.predicate = random_predicate_table(w.deposet, {0.3, 0.4}, rng);
  // Durations and delays from narrow ranges make many events share a
  // timestamp, so the seq tiebreak decides their order (and with it the
  // order of the engine's delay draws).
  w.system = scripts_from_deposet(w.deposet, &w.predicate, rng, 1'000, 1'004);
  return w;
}

// Values recorded with the std::priority_queue engine this heap replaced:
// plain observation, a controlled replay, and a crash/restart run with
// duplicated application messages, three engine seeds each.
TEST(SimEngine, EventOrderPinnedAcrossQueueImplementations) {
  const PinSystem plain = pin_system(101, 4, 30);
  const PinSystem replayed = pin_system(202, 5, 40);
  const PinSystem faulty = pin_system(303, 3, 25);

  const OfflineControlResult control =
      control_disjunctive_offline(replayed.deposet, replayed.predicate);
  ASSERT_TRUE(control.controllable);
  ASSERT_FALSE(control.control.empty());
  const ControlStrategy strategy =
      ControlStrategy::compile(replayed.deposet, control.control);

  fault::FaultPlan plan;
  plan.seed = 17;
  plan.plane(Message::Plane::kApplication).duplicate = 0.25;
  plan.crashes.push_back({/*agent=*/2, /*at=*/30'000, /*restart_at=*/30'400});

  std::vector<std::string> got;
  for (uint64_t seed : {1u, 2u, 3u}) {
    SimOptions opt;
    opt.seed = seed;
    opt.min_delay = 1'000;
    opt.max_delay = 1'004;
    got.push_back(run_pin(run_scripts(plain.system, opt)));
    got.push_back(run_pin(run_scripts(replayed.system, opt, &strategy)));
    got.push_back(
        run_pin(run_scripts(faulty.system, opt, nullptr, nullptr, nullptr, &plan)));
  }
  const std::vector<std::string> expected = {
      "ev=158 sent=32 app=32 ctl=0 loc=0 tmr=126 maxq=7 end=41089 "
      "drop=0 dup=0 crash=0 restart=0 disc=0 dead=0 cuts=100 h=ea15657b3979db64",
      "ev=263 sent=55 app=48 ctl=7 loc=0 tmr=208 maxq=6 end=84153 "
      "drop=0 dup=0 crash=0 restart=0 disc=0 dead=0 cuts=188 h=6db5c531be699d4c",
      "ev=83 sent=11 app=11 ctl=0 loc=0 tmr=68 maxq=8 end=79142 "
      "drop=0 dup=2 crash=1 restart=1 disc=2 dead=1 cuts=58 h=76afb6d362608c37",
      "ev=158 sent=32 app=32 ctl=0 loc=0 tmr=126 maxq=7 end=41096 "
      "drop=0 dup=0 crash=0 restart=0 disc=0 dead=0 cuts=115 h=ea15657b3979db64",
      "ev=263 sent=55 app=48 ctl=7 loc=0 tmr=208 maxq=6 end=84155 "
      "drop=0 dup=0 crash=0 restart=0 disc=0 dead=0 cuts=188 h=6db5c531be699d4c",
      "ev=83 sent=11 app=11 ctl=0 loc=0 tmr=68 maxq=8 end=79146 "
      "drop=0 dup=2 crash=1 restart=1 disc=2 dead=1 cuts=60 h=76afb6d362608c37",
      "ev=158 sent=32 app=32 ctl=0 loc=0 tmr=126 maxq=7 end=41087 "
      "drop=0 dup=0 crash=0 restart=0 disc=0 dead=0 cuts=109 h=ea15657b3979db64",
      "ev=263 sent=55 app=48 ctl=7 loc=0 tmr=208 maxq=7 end=84157 "
      "drop=0 dup=0 crash=0 restart=0 disc=0 dead=0 cuts=189 h=6db5c531be699d4c",
      "ev=83 sent=11 app=11 ctl=0 loc=0 tmr=68 maxq=8 end=79142 "
      "drop=0 dup=2 crash=1 restart=1 disc=2 dead=1 cuts=62 h=76afb6d362608c37",
  };
  EXPECT_EQ(got, expected) << [&] {
    std::string all;
    for (const std::string& line : got) all += "\n      \"" + line + "\",";
    return all;
  }();
}

TEST(SimEngine, RejectsBadConfiguration) {
  SimOptions opt;
  opt.min_delay = 10;
  opt.max_delay = 5;
  EXPECT_THROW(SimEngine{opt}, std::invalid_argument);
  SimEngine ok;
  EXPECT_THROW(ok.add_agent(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace predctrl::sim
