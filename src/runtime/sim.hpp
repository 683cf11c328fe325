// Deterministic discrete-event simulation of an asynchronous message-passing
// system -- the substrate the paper assumes.
//
// The model matches Section 3: sequential processes, reliable channels, no
// ordering or bound on message delays (each delivery draws a delay from a
// seeded distribution, so arbitrary reordering happens naturally and every
// run is reproducible from its seed). Virtual time is explicit, which is
// what lets the benches measure the paper's response-time bounds
// (2T .. 2T + E_max) exactly.
//
// Agents are event-driven: the engine calls on_start once, then on_message /
// on_timer as deliveries fire. "Blocking" is simply not scheduling further
// work until an awaited message arrives -- the engine's quiescence detector
// reports agents that declared work outstanding, which is how tests observe
// deadlocks (e.g. the Theorem 3 impossibility scenario).
//
// The reliable-channel assumption can be selectively broken: a FaultHook
// (implemented by fault::FaultInjector, src/fault/) returns a verdict for
// every send -- drop, duplicate, extra delay -- and crash/restart events can
// be scheduled per agent. The engine applies verdicts mechanically; all
// fault policy and randomness lives in the hook, drawn from the hook's own
// seeded Rng so the engine's draws (and hence every fault-free run) are
// byte-identical whether or not a hook is installed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace predctrl::obs {
class FlightRecorder;
}

namespace predctrl::sim {

/// Virtual time, in microseconds.
using SimTime = int64_t;

/// Agent identifier: index into the engine's agent table. Application
/// processes and controllers are all agents.
using AgentId = int32_t;

/// A message between agents. `type` and payload fields are interpreted by
/// the receiving agent.
struct Message {
  AgentId from = -1;
  AgentId to = -1;
  int32_t type = 0;
  int64_t a = 0;  ///< first scalar payload
  int64_t b = 0;  ///< second scalar payload
  /// Integrity checksum over the payload (a, b, clock) and routing fields,
  /// stamped by the engine at send time when the installed FaultHook asks
  /// for it (stamp_checksums()). 0 = unstamped: receivers skip verification,
  /// so fault-free runs carry no integrity machinery at all. A corrupting
  /// fault plan flips payload bits AFTER the stamp, so a mismatch at the
  /// receiver is exactly the Byzantine-link signal.
  int64_t check = 0;
  /// Optional piggybacked vector clock (state-based, one component per
  /// process); empty when the sender does not track causality. Scripted
  /// processes attach the clock of the pre-send state, matching the
  /// deposet's ~> relation: the row is copied out of the sender's
  /// appendable slab here, at the sim boundary -- the only place the
  /// online path copies clock data per message. The empty `{}` initializer
  /// lets designated initializers such as Message{.type = 1} omit it.
  std::vector<int32_t> clock{};

  /// Channel plane: application traffic and control traffic are separated so
  /// metrics can count them independently (the paper's evaluation counts
  /// only control messages).
  enum class Plane : uint8_t { kApplication, kControl, kLocal };
  Plane plane = Plane::kApplication;
};

/// Fault verdict for one send, returned by a FaultHook. The engine applies
/// it mechanically on top of the normally drawn delivery delay; the flags
/// exist only so the engine can keep per-kind counters.
struct FaultVerdict {
  bool drop = false;        ///< the message is never delivered
  /// The send crosses an active partition cut: dropped like `drop`, but
  /// counted separately (SimStats::partition_drops) because the cause is a
  /// deterministic link mask, not a random loss draw.
  bool partitioned = false;
  int32_t duplicates = 0;   ///< extra deliveries of the same message
  SimTime extra_delay = 0;  ///< added to the drawn delay (spike / reorder)
  SimTime duplicate_delay = 0;  ///< further delay of each duplicate copy
  bool spiked = false;      ///< extra_delay stems from a delay spike
  bool reordered = false;   ///< extra_delay stems from a reorder deferral
  /// Byzantine corruption: xor `corrupt_mask` into one payload lane after
  /// the checksum stamp. Lane -2 = Message::a, -1 = Message::b, >= 0 = that
  /// clock component. Routing fields (from/to/type/plane) are never
  /// corrupted -- the fault models a link flipping payload bits, not the
  /// simulator misdelivering.
  bool corrupt = false;
  int32_t corrupt_lane = 0;
  int64_t corrupt_mask = 0;
};

/// Deterministic integrity checksum over a message's routing and payload
/// fields (everything except `check` itself). FNV-1a, never returns 0 so
/// that check == 0 can mean "unstamped".
int64_t message_checksum(const Message& msg);

/// Injection point for message-plane faults. Implemented by
/// fault::FaultInjector; the engine consults it once per send (after
/// drawing the normal delay, so the engine's Rng sequence is unchanged by
/// installing a hook).
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  virtual FaultVerdict on_send(const Message& msg, SimTime now) = 0;
  /// When true the engine stamps Message::check with message_checksum()
  /// before consulting on_send, giving receivers something to verify
  /// against. Default off: plans that never corrupt keep messages
  /// unstamped and byte-identical to a hook-free run.
  virtual bool stamp_checksums() const { return false; }
};

class SimEngine;

/// Handle through which an agent interacts with the engine during a
/// callback.
class AgentContext {
 public:
  AgentContext(SimEngine& engine, AgentId self) : engine_(engine), self_(self) {}

  AgentId self() const { return self_; }
  SimTime now() const;

  /// Sends a message; delivery delay is drawn per the plane's delay range.
  void send(AgentId to, Message msg);

  /// Schedules an on_timer callback after `delay`.
  void set_timer(SimTime delay, int64_t timer_id);

  /// Declares outstanding work: the engine reports the agent as blocked if
  /// the simulation quiesces while any declared work remains. Counterpart:
  /// mark_done(). `why` must outlive the run (pass a string literal); the
  /// engine stores the pointer and `arg`, and only blocked_agents() /
  /// quiescence_report() render them, as `why` followed by the decimal
  /// `arg` when `arg` >= 0 ("message from P" + 3 -> "message from P3").
  /// Blocking thus costs no string building on the hot path.
  void mark_waiting(const char* why, int64_t arg = -1);
  void mark_done();

  /// Engine-owned deterministic randomness.
  Rng& rng();

  /// The run's flight recorder, or nullptr -- instrumentation sites pass
  /// this to PREDCTRL_FLIGHT, which annotates the agent's causal timeline
  /// (obs/flight_recorder.hpp). Recording never feeds back into the run.
  obs::FlightRecorder* flight() const;

 private:
  SimEngine& engine_;
  AgentId self_;
};

/// Base class for simulated actors.
class Agent {
 public:
  virtual ~Agent() = default;
  virtual void on_start(AgentContext& ctx) { (void)ctx; }
  virtual void on_message(AgentContext& ctx, const Message& msg) {
    (void)ctx;
    (void)msg;
  }
  virtual void on_timer(AgentContext& ctx, int64_t timer_id) {
    (void)ctx;
    (void)timer_id;
  }
  /// Called when a scheduled restart revives a crashed agent. Deliveries
  /// queued before the crash (messages and timers alike) are gone; the
  /// default is to stay inert. Scripted processes override this to rejoin
  /// from their last recorded state (the single-process recovery line of
  /// trace/recovery.hpp).
  virtual void on_restart(AgentContext& ctx) { (void)ctx; }
};

struct SimOptions {
  uint64_t seed = 1;
  /// Application- and control-plane message delays are drawn uniformly from
  /// [min_delay, max_delay]. kLocal-plane messages are delivered with zero
  /// delay (co-located process/controller pairs).
  SimTime min_delay = 1'000;
  SimTime max_delay = 10'000;
  /// Hard stop: the run aborts (deadlock suspected) if virtual time passes
  /// this bound. 0 disables.
  SimTime time_limit = 0;
  /// When true, each directed (sender, receiver) channel delivers in send
  /// order (delays still random, but never reordering). The paper's model
  /// places no ordering constraint -- this exists for algorithms that
  /// require FIFO channels, notably the Chandy-Lamport snapshot
  /// (snapshot/chandy_lamport.hpp).
  bool fifo_channels = false;
  /// Causal flight recorder observing the run (non-owning; must outlive
  /// run()). The engine stamps every send/delivery/timer/crash with a
  /// vector clock over the agents and protocol layers annotate through
  /// AgentContext::flight(). nullptr (the default) records nothing and the
  /// run is byte-identical either way -- the recorder never touches the
  /// engine's Rng or scheduling.
  obs::FlightRecorder* flight_recorder = nullptr;
};

struct SimStats {
  int64_t events_processed = 0;
  int64_t messages_sent = 0;
  int64_t application_messages = 0;
  int64_t control_messages = 0;
  /// kLocal-plane messages (process <-> co-located controller traffic).
  /// messages_sent = application + control + local.
  int64_t local_messages = 0;
  int64_t timers_fired = 0;
  /// High-water mark of the pending-event queue during run().
  int64_t max_queue_depth = 0;
  SimTime end_time = 0;
  // Fault-plane accounting (all zero without an installed FaultHook /
  // crash schedule).
  int64_t messages_dropped = 0;
  /// Sends swallowed by an active partition epoch (counted apart from
  /// messages_dropped: the cause is the link mask, not a loss draw).
  int64_t partition_drops = 0;
  int64_t messages_duplicated = 0;  ///< extra copies enqueued
  /// Messages whose payload was bit-flipped in flight (the delivery still
  /// happens -- detection is the receiver's job, via Message::check).
  int64_t corrupted_messages = 0;
  int64_t delay_spikes = 0;
  int64_t messages_reordered = 0;
  int64_t crashes = 0;
  int64_t restarts = 0;
  /// Queued deliveries (messages and timers) discarded because the target
  /// crashed after they were enqueued.
  int64_t deliveries_discarded = 0;
};

/// Why one agent still has outstanding work at quiescence -- enough context
/// for a watchdog to classify the failure, not just observe it.
struct AgentQuiescence {
  AgentId agent = -1;
  std::string waiting_reason;  ///< the rendered mark_waiting() reason
  bool crashed = false;
  /// The last message delivered to this agent before it stalled (what it
  /// acted on last), if any message was ever delivered.
  std::optional<Message> last_delivered;
  SimTime last_delivery_time = -1;
  /// Timer ids scheduled for this agent but not yet fired, ascending
  /// (non-empty only when the run stopped at the time limit; a naturally
  /// quiesced queue has no pending timers by definition).
  std::vector<int64_t> pending_timers;
};

/// Engine-level quiescence snapshot: the blocked agents with their context,
/// plus every agent that is (still) crashed.
struct QuiescenceReport {
  std::vector<AgentQuiescence> blocked;
  std::vector<AgentId> crashed;
};

/// The engine: a binary heap of (time, seq)-ordered deliveries. The heap
/// holds 24-byte keys; each key names a payload slot that is recycled once
/// its event is processed, so steady-state runs allocate nothing per event
/// in the engine itself. (time, seq) is a total order (seq is unique), so
/// the pop order is fully determined by the pushes.
class SimEngine {
 public:
  explicit SimEngine(const SimOptions& options = {});

  /// Registers an agent; returns its id (ids are assigned consecutively).
  AgentId add_agent(std::unique_ptr<Agent> agent);

  Agent& agent(AgentId id) { return *agents_[static_cast<size_t>(id)]; }
  int32_t num_agents() const { return static_cast<int32_t>(agents_.size()); }

  /// Installs a fault hook (non-owning; must outlive run()). nullptr
  /// uninstalls. Without a hook no fault machinery runs and the engine's
  /// Rng draws are exactly those of a pre-fault-plane build.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

  /// Schedules agent `id` to crash at virtual time `at` (> 0: all agents
  /// start via on_start at time 0, so an earlier crash would hit an agent
  /// that never existed). A crashed agent receives no callbacks and every
  /// delivery queued for it -- before or during the outage -- is discarded.
  void schedule_crash(AgentId id, SimTime at);

  /// Schedules a crashed agent to restart at `at` (must follow its crash):
  /// the agent's on_restart hook fires and new deliveries reach it again.
  void schedule_restart(AgentId id, SimTime at);

  /// Runs to quiescence (empty event queue) or until the time limit.
  /// Returns the collected statistics.
  SimStats run();

  SimTime now() const { return now_; }
  const SimStats& stats() const { return stats_; }

  /// Agents that declared outstanding work that never completed -- non-empty
  /// after run() means the system deadlocked (or stopped early). Crashed
  /// agents are excluded (they are dead, not blocked); see
  /// quiescence_report() for the full picture.
  std::vector<std::pair<AgentId, std::string>> blocked_agents() const;

  /// Full per-agent context at quiescence: waiting reason, last delivered
  /// message, pending timers, crash state.
  QuiescenceReport quiescence_report() const;

  /// Agents currently crashed (no restart, or restart not reached).
  std::vector<AgentId> crashed_agents() const;
  bool is_crashed(AgentId id) const { return crashed_[static_cast<size_t>(id)]; }

  /// True iff run() stopped because the time limit was hit.
  bool hit_time_limit() const { return hit_time_limit_; }

 private:
  friend class AgentContext;

  /// Everything of a pending event except its ordering key.
  struct PendingEvent {
    enum class Kind : uint8_t { kMessage, kTimer, kCrash, kRestart };
    Kind kind = Kind::kMessage;
    AgentId target = -1;
    int64_t timer_id = 0;
    /// Crash epoch of the target at enqueue time: a crash invalidates every
    /// delivery enqueued before it, even ones timed after a restart.
    int64_t epoch = 0;
    SimTime sent_at = 0;  // enqueue time; delivery latency = time - sent_at
    Message msg;
    /// Sender's flight-recorder clock at send time (empty when no recorder
    /// is installed): the snapshot the receiver merges on delivery.
    std::vector<int32_t> flight_clock;
  };

  /// Heap entry: the ordering key plus the slot holding the payload.
  struct EventKey {
    SimTime time;
    int64_t seq;  // FIFO tiebreak for equal times; unique per engine
    uint32_t slot;
  };
  static bool later(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  /// Why an agent is waiting: the literal and argument given to
  /// mark_waiting(); why == nullptr means not waiting.
  struct WaitReason {
    const char* why = nullptr;
    int64_t arg = -1;
    std::string render() const;
  };

  void send_from(AgentId from, AgentId to, Message msg);
  void timer_from(AgentId from, SimTime delay, int64_t timer_id);
  void enqueue_delivery(AgentId to, SimTime at, Message msg,
                        const std::vector<int32_t>* flight_clock = nullptr);
  /// Claims a payload slot (recycled when one is free), fills its header,
  /// pushes its key and updates the queue high-water mark. Message events
  /// then fill in the payload through the returned slot.
  PendingEvent& push_event(PendingEvent::Kind kind, SimTime time, AgentId target,
                           int64_t timer_id, int64_t epoch);

  SimOptions options_;
  Rng rng_;
  FaultHook* fault_hook_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  /// Per directed channel: latest scheduled delivery (FIFO mode).
  std::map<std::pair<AgentId, AgentId>, SimTime> channel_front_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<WaitReason> waiting_;
  std::vector<bool> crashed_;
  std::vector<int64_t> crash_epoch_;
  std::vector<std::optional<Message>> last_delivered_;
  std::vector<SimTime> last_delivery_time_;
  /// Per agent, the ids of its queued timers in no particular order (an
  /// agent rarely has more than one); quiescence_report() sorts a copy.
  std::vector<std::vector<int64_t>> pending_timers_;
  std::vector<EventKey> queue_;  // binary min-heap under later()
  std::vector<PendingEvent> slots_;
  std::vector<uint32_t> free_slots_;
  /// Recycled flight-clock buffers: each delivery returns its snapshot
  /// vector here and each send takes one back, so steady-state recording
  /// costs a copy, not an allocation, per message.
  std::vector<std::vector<int32_t>> flight_clock_pool_;
  SimTime now_ = 0;
  int64_t next_seq_ = 0;
  SimStats stats_;
  bool hit_time_limit_ = false;
  bool running_ = false;
};

}  // namespace predctrl::sim
