#include "runtime/scripted.hpp"

#include <algorithm>
#include <span>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/flight_recorder.hpp"
#include "util/check.hpp"

namespace predctrl::sim {

namespace {

// Message types on the application / control planes.
constexpr int32_t kAppMsg = 1;    // a: sender's pre-send state, b: channel seq
constexpr int32_t kCtlToken = 2;  // a: token id

// Shared recording sink for all processes of one run.
struct Recorder {
  explicit Recorder(int32_t n)
      : entry_times(static_cast<size_t>(n)), clocks(n), builder(n) {}

  std::vector<std::vector<SimTime>> entry_times;
  /// One append_row per state entry; each process holds a stable view of
  /// its newest row, so tracking costs no per-state allocation.
  AppendableClockMatrix clocks;
  DeposetBuilder builder;
};

class ScriptedProcess : public Agent {
 public:
  ScriptedProcess(ProcessId p, int32_t num_processes, const Script& script,
                  Recorder& recorder, const ControlStrategy* strategy,
                  const std::vector<bool>* truth, AgentId guard,
                  const std::vector<bool>* detect_condition, AgentId detector)
      : p_(p), n_(num_processes), script_(script), recorder_(recorder),
        strategy_(strategy), truth_(truth), guard_(guard),
        detect_condition_(detect_condition), detector_(detector),
        inbox_(static_cast<size_t>(num_processes)),
        next_recv_seq_(static_cast<size_t>(num_processes), 0),
        next_send_seq_(static_cast<size_t>(num_processes), 0) {
    // One inbox slot per receive the script will perform, by channel seq.
    std::vector<size_t> receives(static_cast<size_t>(num_processes), 0);
    for (const Instr& instr : script_.instrs) {
      if (instr.kind == Instr::Kind::kLocal) continue;
      PREDCTRL_CHECK(instr.peer >= 0 && instr.peer < num_processes,
                     "send/receive peer outside the system");
      if (instr.kind == Instr::Kind::kRecv) ++receives[static_cast<size_t>(instr.peer)];
    }
    for (size_t q = 0; q < receives.size(); ++q) inbox_[q].resize(receives[q]);
    if (strategy_ != nullptr)
      tokens_.assign(static_cast<size_t>(strategy_->num_tokens()), false);
    if (truth_ != nullptr)
      PREDCTRL_CHECK(truth_->size() == script_.instrs.size() + 1,
                     "gating truth row does not match script length");
    if (detect_condition_ != nullptr)
      PREDCTRL_CHECK(detect_condition_->size() == script_.instrs.size() + 1,
                     "detection condition row does not match script length");
  }

  void on_start(AgentContext& ctx) override {
    recorder_.entry_times[static_cast<size_t>(p_)].push_back(0);
    clock_ = recorder_.clocks.append_row(p_);  // initial state: own comp = 0
    maybe_send_candidate(ctx, 0);
    try_start(ctx);
  }

  void on_message(AgentContext& ctx, const Message& msg) override {
    // Byzantine-link defense: a stamped message whose checksum no longer
    // matches was corrupted in flight -- discard it unparsed (a flipped
    // token id, gate verdict, or clock component must never enter this
    // process's state). Application messages additionally get a structural
    // check on the piggybacked row: the sender stamps its pre-send state
    // into both `a` and its own clock component, so a mismatch means the
    // row cannot be trusted even if the flip canceled in the checksum.
    // Discarding can wedge this process at its receive -- deliberately:
    // the watchdog then reports a structured kCorruptedLink verdict
    // instead of the run computing on poisoned causality.
    if (msg.check != 0 && message_checksum(msg) != msg.check) {
      PREDCTRL_FLIGHT(ctx.flight(), "proc.corrupt", kFault, ctx.self(), ctx.now(),
                      msg.from, msg.type, msg.b, "checksum mismatch; discarded");
      return;
    }
    if (msg.type == kAppMsg) {
      if (msg.check != 0 &&
          (msg.clock.size() != static_cast<size_t>(n_) || msg.a < 0 ||
           msg.clock[static_cast<size_t>(process_of(msg.from))] !=
               static_cast<int32_t>(msg.a))) {
        PREDCTRL_FLIGHT(ctx.flight(), "proc.corrupt", kFault, ctx.self(), ctx.now(),
                        msg.from, msg.type, msg.b, "inconsistent piggyback row; discarded");
        return;
      }
      // Keep the first copy of each expected message. A duplicate, or a seq
      // this process has consumed or will never receive, can never match.
      const ProcessId from = process_of(msg.from);
      if (from >= 0 && from < n_) {
        auto& slots = inbox_[static_cast<size_t>(from)];
        if (msg.b >= next_recv_seq_[static_cast<size_t>(from)] &&
            msg.b < static_cast<int64_t>(slots.size()) &&
            !slots[static_cast<size_t>(msg.b)].has_value())
          slots[static_cast<size_t>(msg.b)] = msg;
      }
    } else if (msg.type == kCtlToken) {
      if (msg.a >= 0 && msg.a < static_cast<int64_t>(tokens_.size()))
        tokens_[static_cast<size_t>(msg.a)] = true;
    } else if (msg.type == kGateGrant) {
      PREDCTRL_REQUIRE(grant_requested_, "unsolicited gate grant");
      grant_received_ = true;
    }
    if (phase_ == Phase::kIdle) try_start(ctx);
  }

  void on_timer(AgentContext& ctx, int64_t timer_id) override {
    PREDCTRL_REQUIRE(phase_ == Phase::kWorking && timer_id == pc_,
                     "unexpected timer in scripted process");
    complete_event(ctx);
  }

  // Crash recovery: all recorded states survive (the Recorder is engine-
  // external -- the moral equivalent of replaying the single-process
  // recovery line of trace/recovery.hpp), but the in-flight instruction's
  // timer and any undelivered messages are gone. Rejoin by re-attempting the
  // current instruction from scratch; the gate latches are reset because a
  // kGateGrant delivered during the outage was discarded with everything
  // else (the guard tolerates the re-issued kWantFalse when the fault plane
  // is armed).
  void on_restart(AgentContext& ctx) override {
    if (phase_ == Phase::kDone) return;
    phase_ = Phase::kIdle;
    grant_requested_ = false;
    grant_received_ = false;
    PREDCTRL_FLIGHT(ctx.flight(), "proc.resume", kPhase, ctx.self(), ctx.now(), -1, pc_);
    try_start(ctx);
  }

 private:
  enum class Phase : uint8_t { kIdle, kWorking, kDone };

  const Instr& cur() const { return script_.instrs[static_cast<size_t>(pc_)]; }

  // Attempts to begin the current instruction; blocks (stays idle, marked
  // waiting) until its prerequisites -- control tokens for entering the next
  // state, and for receives the matched message -- are available.
  void try_start(AgentContext& ctx) {
    if (phase_ != Phase::kIdle) return;
    if (pc_ >= static_cast<int32_t>(script_.instrs.size())) {
      phase_ = Phase::kDone;
      ctx.mark_done();
      PREDCTRL_FLIGHT(ctx.flight(), "proc.done", kPhase, ctx.self(), ctx.now(), -1, pc_);
      if (detect_condition_ != nullptr) {
        Message done;
        done.type = kDetectDone;
        done.b = next_candidate_seq_;  // candidates stop at this sequence
        done.plane = Message::Plane::kControl;
        ctx.send(detector_, done);
      }
      return;
    }

    // Control waits anchored at the state this event will enter.
    for (const ControlAction& a : actions_at(pc_ + 1)) {
      if (a.kind == ControlAction::Kind::kWaitBeforeEntry &&
          !tokens_[static_cast<size_t>(a.token)]) {
        ctx.mark_waiting("control token for entering state ", pc_ + 1);
        return;
      }
    }

    if (cur().kind == Instr::Kind::kRecv && !staged_recv_.has_value()) {
      const auto peer = static_cast<size_t>(cur().peer);
      std::optional<Message>& slot =
          inbox_[peer][static_cast<size_t>(next_recv_seq_[peer])];
      if (!slot.has_value()) {
        ctx.mark_waiting("message from P", cur().peer);
        return;
      }
      staged_recv_ = std::move(slot);
      slot.reset();
      ++next_recv_seq_[peer];
    }

    // On-line gating: a true -> false transition of the local predicate
    // needs the guard's permission (the paper's "scapegoat && !l_i(s')"
    // trigger; non-scapegoat guards grant instantly on the local plane).
    // The gate is deliberately the LAST barrier: the guard conservatively
    // treats a granted process as false until it reports back, so asking
    // while another prerequisite (a receive, a control token) could still
    // block would wedge scapegoat handoffs aimed at this process.
    if (truth_ != nullptr && !(*truth_)[static_cast<size_t>(pc_) + 1] &&
        (*truth_)[static_cast<size_t>(pc_)] && !grant_received_) {
      if (!grant_requested_) {
        grant_requested_ = true;
        Message want;
        want.type = kGateWantFalse;
        want.plane = Message::Plane::kLocal;
        ctx.send(guard_, want);
      }
      ctx.mark_waiting("gate grant for entering state ", pc_ + 1);
      return;
    }

    ctx.mark_done();  // no longer blocked; the timer carries the work
    phase_ = Phase::kWorking;
    ctx.set_timer(cur().duration, pc_);
  }

  void complete_event(AgentContext& ctx) {
    const Instr& instr = cur();
    const int32_t leaving = pc_;  // state being exited by this event

    if (instr.kind == Instr::Kind::kSend) {
      Message m;
      m.type = kAppMsg;
      m.a = leaving;  // the paper's ~> relates the state before the send...
      m.b = next_send_seq_[static_cast<size_t>(instr.peer)]++;
      m.plane = Message::Plane::kApplication;
      // Piggyback the pre-send state's clock (the ~> source) -- the one
      // copy off the slab, at the sim boundary.
      m.clock.assign(clock_.data(), clock_.data() + n_);
      ctx.send(agent_of(instr.peer), std::move(m));
    } else if (instr.kind == Instr::Kind::kRecv) {
      // ...to the state after the receive.
      recorder_.builder.add_message(
          {static_cast<ProcessId>(process_of(staged_recv_->from)),
           static_cast<int32_t>(staged_recv_->a)},
          {p_, leaving + 1});
      PREDCTRL_REQUIRE(staged_recv_->clock.size() == static_cast<size_t>(n_),
                       "application message without a piggybacked clock");
    }

    // Enter the new state: one in-place row append -- merge of the previous
    // row and (for receives) the piggybacked row, own component = new index.
    const ClockRow received[] = {
        instr.kind == Instr::Kind::kRecv
            ? ClockRow(staged_recv_->clock.data(), n_)
            : ClockRow()};
    clock_ = recorder_.clocks.append_row(
        p_, std::span<const ClockRow>(received,
                                      instr.kind == Instr::Kind::kRecv ? 1 : 0));
    if (instr.kind == Instr::Kind::kRecv) staged_recv_.reset();
    recorder_.entry_times[static_cast<size_t>(p_)].push_back(ctx.now());
    PREDCTRL_FLIGHT(ctx.flight(), "proc.state", kPhase, ctx.self(), ctx.now(), -1,
                    leaving + 1);
    maybe_send_candidate(ctx, leaving + 1);

    // Control sends anchored at the exited state.
    for (const ControlAction& a : actions_at(leaving)) {
      if (a.kind != ControlAction::Kind::kSendOnExit) continue;
      Message m;
      m.type = kCtlToken;
      m.a = a.token;
      m.plane = Message::Plane::kControl;
      ctx.send(agent_of(a.peer), m);
    }

    // On-line gating bookkeeping: report false -> true transitions; reset
    // the grant latch for the next boundary.
    if (truth_ != nullptr) {
      const size_t entered = static_cast<size_t>(leaving) + 1;
      if ((*truth_)[entered] && !(*truth_)[static_cast<size_t>(leaving)]) {
        Message up;
        up.type = kGateNowTrue;
        up.plane = Message::Plane::kLocal;
        ctx.send(guard_, up);
      }
      grant_requested_ = false;
      grant_received_ = false;
    }

    ++pc_;
    phase_ = Phase::kIdle;
    try_start(ctx);
  }

  void maybe_send_candidate(AgentContext& ctx, int32_t state) {
    if (detect_condition_ == nullptr ||
        !(*detect_condition_)[static_cast<size_t>(state)])
      return;
    Message m;
    m.type = kDetectCandidate;
    m.a = state;
    m.b = next_candidate_seq_++;
    m.plane = Message::Plane::kControl;
    m.clock.assign(clock_.data(), clock_.data() + n_);
    ctx.send(detector_, std::move(m));
  }

  // The strategy's actions anchored at `state`, in compile() order: the
  // list is sorted by state, so a binary search finds the run.
  std::span<const ControlAction> actions_at(int32_t state) const {
    if (strategy_ == nullptr) return {};
    const auto run = std::ranges::equal_range(strategy_->actions(p_), state,
                                              std::ranges::less{}, &ControlAction::state);
    return {run.begin(), run.end()};
  }

  // Agents are registered in process order, so ids coincide with processes.
  static AgentId agent_of(ProcessId p) { return p; }
  static ProcessId process_of(AgentId a) { return a; }

  ProcessId p_;
  int32_t n_;
  const Script& script_;
  Recorder& recorder_;
  const ControlStrategy* strategy_;

  Phase phase_ = Phase::kIdle;
  int32_t pc_ = 0;
  std::optional<Message> staged_recv_;
  std::vector<bool> tokens_;  // by token id: arrived yet?

  // On-line gating state.
  const std::vector<bool>* truth_;
  AgentId guard_;
  bool grant_requested_ = false;
  bool grant_received_ = false;

  // On-line detection state.
  const std::vector<bool>* detect_condition_;
  AgentId detector_;
  int64_t next_candidate_seq_ = 0;

  // Application channels, indexed by peer process: inbox_[q][seq] holds
  // q's message number `seq` from its arrival until its receive is staged.
  std::vector<std::vector<std::optional<Message>>> inbox_;
  std::vector<int64_t> next_recv_seq_;
  std::vector<int64_t> next_send_seq_;

  // On-line causality tracking (state-based; own component = state index):
  // a stable view of this process's newest row in the shared appendable
  // slab -- reading it is a direct component load, never a heap hop.
  ClockRow clock_;
};

}  // namespace

std::vector<Cut> RunResult::cut_timeline() const {
  struct Entry {
    SimTime time;
    ProcessId p;
  };
  std::vector<Entry> entries;
  for (ProcessId p = 0; p < deposet.num_processes(); ++p)
    for (size_t k = 1; k < entry_times[static_cast<size_t>(p)].size(); ++k)
      entries.push_back({entry_times[static_cast<size_t>(p)][k], p});
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.time < b.time; });

  std::vector<Cut> timeline{bottom_cut(deposet)};
  size_t i = 0;
  while (i < entries.size()) {
    Cut next = timeline.back();
    SimTime t = entries[i].time;
    // Entries sharing a timestamp advance in one step (simultaneous events).
    while (i < entries.size() && entries[i].time == t) {
      ++next[entries[i].p];
      ++i;
    }
    timeline.push_back(next);
  }
  return timeline;
}

namespace {

// Row p: `local` over the states of script p -- all of them, or the
// traced->length(p) a run entered -- with one overlay map per process
// carrying the variables from state to state.
PredicateTable walk_scripts(const ScriptedSystem& system, const LocalPredicateFn& local,
                            const Deposet* traced) {
  PredicateTable table(system.size());
  for (size_t p = 0; p < system.size(); ++p) {
    const Script& script = system[p];
    const auto pid = static_cast<ProcessId>(p);
    const size_t states = traced != nullptr ? static_cast<size_t>(traced->length(pid))
                                            : script.instrs.size() + 1;
    PREDCTRL_CHECK(states >= 1 && states <= script.instrs.size() + 1,
                   "traced length does not fit the script");
    std::vector<bool>& row = table[p];
    row.reserve(states);
    VarMap vars = script.initial_vars;
    row.push_back(local(pid, vars));
    for (size_t k = 1; k < states; ++k) {
      for (const auto& [name, value] : script.instrs[k - 1].updates) vars[name] = value;
      row.push_back(local(pid, vars));
    }
  }
  return table;
}

}  // namespace

PredicateTable script_predicate_table(const ScriptedSystem& system,
                                      const LocalPredicateFn& local) {
  return walk_scripts(system, local, nullptr);
}

PredicateTable RunResult::predicate_table(const ScriptedSystem& system,
                                          const LocalPredicateFn& local) const {
  PREDCTRL_CHECK(static_cast<int32_t>(system.size()) == deposet.num_processes(),
                 "system does not match the run");
  return walk_scripts(system, local, &deposet);
}

RunResult run_scripts(const ScriptedSystem& system, const SimOptions& options,
                      const ControlStrategy* strategy, const OnlineGating* gating,
                      const OnlineDetection* detection, const fault::FaultPlan* faults) {
  PREDCTRL_CHECK(!system.empty(), "empty system");
  if (strategy != nullptr)
    PREDCTRL_CHECK(strategy->num_processes() == static_cast<int32_t>(system.size()),
                   "strategy does not match the system");
  if (gating != nullptr) {
    PREDCTRL_CHECK(gating->truth.size() == system.size(),
                   "gating truth table does not match the system");
    PREDCTRL_CHECK(static_cast<bool>(gating->make_guards), "gating needs a guard factory");
  }
  if (detection != nullptr) {
    PREDCTRL_CHECK(detection->conditions.size() == system.size(),
                   "detection conditions do not match the system");
    PREDCTRL_CHECK(static_cast<bool>(detection->make_detector),
                   "detection needs a detector factory");
  }

  const int32_t n = static_cast<int32_t>(system.size());
  // Agent layout: processes [0, n); guards [n, 2n) when gating; the detector
  // right after.
  const AgentId detector_id = gating != nullptr ? 2 * n : n;
  Recorder recorder(n);
  SimEngine engine(options);
  for (ProcessId p = 0; p < n; ++p) {
    const std::vector<bool>* truth =
        gating != nullptr ? &gating->truth[static_cast<size_t>(p)] : nullptr;
    const AgentId guard = gating != nullptr ? n + p : -1;
    const std::vector<bool>* condition =
        detection != nullptr ? &detection->conditions[static_cast<size_t>(p)] : nullptr;
    engine.add_agent(std::make_unique<ScriptedProcess>(
        p, n, system[static_cast<size_t>(p)], recorder, strategy, truth, guard, condition,
        detection != nullptr ? detector_id : -1));
  }
  if (gating != nullptr) {
    std::vector<AgentId> guards = gating->make_guards(engine);
    PREDCTRL_CHECK(static_cast<int32_t>(guards.size()) == n,
                   "guard factory must create one guard per process");
    for (ProcessId p = 0; p < n; ++p)
      PREDCTRL_CHECK(guards[static_cast<size_t>(p)] == n + p,
                     "guards must occupy agent ids n..2n-1 in process order");
  }
  if (detection != nullptr) {
    AgentId got = detection->make_detector(engine);
    PREDCTRL_CHECK(got == detector_id, "detector must follow the processes/guards");
  }

  // The injector lives on this frame (the engine holds only a raw hook
  // pointer) and is armed only by an ACTIVE plan -- a null or inactive plan
  // leaves the engine exactly as a pre-fault-plane build would run it.
  std::optional<fault::FaultInjector> injector;
  if (faults != nullptr && faults->active()) {
    injector.emplace(*faults);
    injector->install(engine);
  }

  RunResult result;
  result.stats = engine.run();
  result.blocked = engine.blocked_agents();
  result.deadlocked = !result.blocked.empty() || engine.hit_time_limit();
  result.quiescence = engine.quiescence_report();
  if (gating != nullptr && gating->on_quiesce) gating->on_quiesce(engine);

  for (ProcessId p = 0; p < n; ++p)
    recorder.builder.set_length(
        p, static_cast<int32_t>(recorder.entry_times[static_cast<size_t>(p)].size()));
  // The deposet adopts the online-built clocks (compacted once, at this
  // boundary) instead of recomputing them from the message edges.
  result.deposet = recorder.builder.build_with_clocks(recorder.clocks.to_matrix());
  result.entry_times = std::move(recorder.entry_times);
  result.clocks = std::move(recorder.clocks);
  return result;
}

ScriptedSystem scripts_from_deposet(const Deposet& deposet, const PredicateTable* predicate,
                                    Rng& rng, SimTime min_duration, SimTime max_duration) {
  PREDCTRL_CHECK(min_duration >= 0 && min_duration <= max_duration, "bad duration range");
  const int32_t n = deposet.num_processes();

  // Event roles from the message edges.
  struct Role {
    Instr::Kind kind = Instr::Kind::kLocal;
    ProcessId peer = -1;
  };
  std::vector<std::vector<Role>> roles(static_cast<size_t>(n));
  for (ProcessId p = 0; p < n; ++p)
    roles[static_cast<size_t>(p)].resize(static_cast<size_t>(deposet.length(p) - 1));
  for (const MessageEdge& m : deposet.messages()) {
    roles[static_cast<size_t>(m.from.process)][static_cast<size_t>(m.from.index)] = {
        Instr::Kind::kSend, m.to.process};
    roles[static_cast<size_t>(m.to.process)][static_cast<size_t>(m.to.index - 1)] = {
        Instr::Kind::kRecv, m.from.process};
  }

  ScriptedSystem system(static_cast<size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    Script& script = system[static_cast<size_t>(p)];
    if (predicate != nullptr)
      script.initial_vars["ok"] = (*predicate)[static_cast<size_t>(p)][0] ? 1 : 0;
    for (int32_t e = 0; e < deposet.length(p) - 1; ++e) {
      const Role& role = roles[static_cast<size_t>(p)][static_cast<size_t>(e)];
      Instr instr;
      instr.kind = role.kind;
      instr.peer = role.peer;
      instr.duration = min_duration + rng.uniform(0, max_duration - min_duration);
      if (predicate != nullptr)
        instr.updates["ok"] =
            (*predicate)[static_cast<size_t>(p)][static_cast<size_t>(e + 1)] ? 1 : 0;
      script.instrs.push_back(std::move(instr));
    }
  }
  return system;
}

bool ok_var(ProcessId, const VarMap& vars) {
  auto it = vars.find("ok");
  return it != vars.end() && it->second != 0;
}

}  // namespace predctrl::sim
