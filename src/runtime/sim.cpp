#include "runtime/sim.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace predctrl::sim {

namespace {
[[maybe_unused]] const char* plane_name(Message::Plane p) {
  switch (p) {
    case Message::Plane::kApplication: return "application";
    case Message::Plane::kControl: return "control";
    case Message::Plane::kLocal: return "local";
  }
  return "?";
}
}  // namespace

int64_t message_checksum(const Message& msg) {
  // FNV-1a over every field but `check`. 64-bit, folded field by field so
  // the checksum is a pure function of the logical message, independent of
  // struct layout or padding.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(static_cast<int64_t>(msg.from)));
  mix(static_cast<uint64_t>(static_cast<int64_t>(msg.to)));
  mix(static_cast<uint64_t>(static_cast<int64_t>(msg.type)));
  mix(static_cast<uint64_t>(msg.a));
  mix(static_cast<uint64_t>(msg.b));
  mix(static_cast<uint64_t>(msg.plane));
  mix(static_cast<uint64_t>(msg.clock.size()));
  for (int32_t c : msg.clock) mix(static_cast<uint64_t>(static_cast<int64_t>(c)));
  int64_t out = static_cast<int64_t>(h);
  return out == 0 ? 1 : out;  // 0 is reserved for "unstamped"
}

SimTime AgentContext::now() const { return engine_.now(); }

void AgentContext::send(AgentId to, Message msg) { engine_.send_from(self_, to, std::move(msg)); }

void AgentContext::set_timer(SimTime delay, int64_t timer_id) {
  engine_.timer_from(self_, delay, timer_id);
}

void AgentContext::mark_waiting(const char* why, int64_t arg) {
  PREDCTRL_CHECK(why != nullptr, "null waiting reason");
  engine_.waiting_[static_cast<size_t>(self_)] = {why, arg};
}

void AgentContext::mark_done() { engine_.waiting_[static_cast<size_t>(self_)] = {}; }

Rng& AgentContext::rng() { return engine_.rng_; }

obs::FlightRecorder* AgentContext::flight() const { return engine_.flight_; }

std::string SimEngine::WaitReason::render() const {
  std::string text(why);
  if (arg >= 0) text += std::to_string(arg);
  return text;
}

SimEngine::SimEngine(const SimOptions& options)
    : options_(options), rng_(options.seed), flight_(options.flight_recorder) {
  PREDCTRL_CHECK(options.min_delay >= 0 && options.min_delay <= options.max_delay,
                 "invalid delay range");
}

AgentId SimEngine::add_agent(std::unique_ptr<Agent> agent) {
  PREDCTRL_CHECK(agent != nullptr, "null agent");
  PREDCTRL_CHECK(!running_, "cannot add agents while running");
  agents_.push_back(std::move(agent));
  waiting_.emplace_back();
  crashed_.push_back(false);
  crash_epoch_.push_back(0);
  last_delivered_.emplace_back();
  last_delivery_time_.push_back(-1);
  pending_timers_.emplace_back();
  return static_cast<AgentId>(agents_.size() - 1);
}

void SimEngine::schedule_crash(AgentId id, SimTime at) {
  PREDCTRL_CHECK(id >= 0 && id < num_agents(), "crash of unknown agent");
  PREDCTRL_CHECK(at > 0,
                 "crash at time <= 0 would precede on_start -- agents must start "
                 "before they can crash");
  push_event(PendingEvent::Kind::kCrash, at, id, 0, 0);
}

void SimEngine::schedule_restart(AgentId id, SimTime at) {
  PREDCTRL_CHECK(id >= 0 && id < num_agents(), "restart of unknown agent");
  PREDCTRL_CHECK(at > 0, "restart must happen at a positive virtual time");
  push_event(PendingEvent::Kind::kRestart, at, id, 0, 0);
}

SimEngine::PendingEvent& SimEngine::push_event(PendingEvent::Kind kind, SimTime time,
                                               AgentId target, int64_t timer_id,
                                               int64_t epoch) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  queue_.push_back({time, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), later);
  const auto depth = static_cast<int64_t>(queue_.size());
  if (depth > stats_.max_queue_depth) stats_.max_queue_depth = depth;
  PendingEvent& ev = slots_[slot];
  ev.kind = kind;
  ev.target = target;
  ev.timer_id = timer_id;
  ev.epoch = epoch;
  ev.sent_at = now_;
  return ev;
}

void SimEngine::enqueue_delivery(AgentId to, SimTime at, Message msg,
                                 const std::vector<int32_t>* flight_clock) {
  PendingEvent& ev = push_event(PendingEvent::Kind::kMessage, at, to, 0,
                                crash_epoch_[static_cast<size_t>(to)]);
  ev.msg = std::move(msg);
  if (flight_clock != nullptr) {
    // Reuse a retired snapshot buffer when one is available; assign() then
    // copies into its existing capacity.
    if (!flight_clock_pool_.empty()) {
      ev.flight_clock = std::move(flight_clock_pool_.back());
      flight_clock_pool_.pop_back();
    }
    ev.flight_clock.assign(flight_clock->begin(), flight_clock->end());
  }
}

void SimEngine::send_from(AgentId from, AgentId to, Message msg) {
  PREDCTRL_CHECK(to >= 0 && to < num_agents(), "message to unknown agent");
  msg.from = from;
  msg.to = to;
  SimTime delay = 0;
  if (msg.plane != Message::Plane::kLocal)
    delay = options_.min_delay + rng_.uniform(0, options_.max_delay - options_.min_delay);

  ++stats_.messages_sent;
  if (msg.plane == Message::Plane::kApplication) ++stats_.application_messages;
  if (msg.plane == Message::Plane::kControl) ++stats_.control_messages;
  if (msg.plane == Message::Plane::kLocal) ++stats_.local_messages;

  if (msg.plane == Message::Plane::kControl)
    PREDCTRL_OBS_INSTANT("sim.send.control", "sim",
                         {"from", obs::TraceRecorder::arg(static_cast<int64_t>(from))},
                         {"to", obs::TraceRecorder::arg(static_cast<int64_t>(to))},
                         {"type", obs::TraceRecorder::arg(static_cast<int64_t>(msg.type))},
                         {"vt_us", obs::TraceRecorder::arg(now_)});

#if PREDCTRL_OBS_ENABLED
  // Flight clock: the send bumps the sender's component; the snapshot rides
  // on the pending delivery so the receiver can merge it. Advancement is
  // unconditional (trace-point filters only gate event STORAGE) so stamps
  // stay correct under any filter.
  const std::vector<int32_t>* flight_snapshot = nullptr;
  if (flight_ != nullptr) {
    flight_snapshot =
        &flight_->on_send(from, to, now_, msg.type, static_cast<int64_t>(msg.plane));
    // Self-sends (the local plane's bread and butter) never need a
    // snapshot: the sender's clock at send time is component-wise <= its
    // own clock at delivery, so the receive-side merge is a no-op. Skipping
    // the copy keeps the dominant local traffic O(1) per message.
    if (to == from) flight_snapshot = nullptr;
  }
#else
  const std::vector<int32_t>* flight_snapshot = nullptr;
#endif

  // Fault verdict AFTER the delay draw: installing a hook leaves the
  // engine's Rng sequence untouched (the hook draws from its own Rng).
  FaultVerdict verdict;
  if (fault_hook_ != nullptr) {
    // Stamp before the verdict so corruption (applied below) provably
    // breaks the stamp -- that mismatch is what receivers detect.
    if (fault_hook_->stamp_checksums()) msg.check = message_checksum(msg);
    verdict = fault_hook_->on_send(msg, now_);
  }
  if (verdict.partitioned) {
    ++stats_.partition_drops;
    PREDCTRL_OBS_COUNT(std::string("fault.partition_drops{plane=") + plane_name(msg.plane) + "}",
                       1);
#if PREDCTRL_OBS_ENABLED
    if (flight_ != nullptr) flight_->on_drop(from, to, now_, msg.type);
#endif
    return;
  }
  if (verdict.drop) {
    ++stats_.messages_dropped;
    PREDCTRL_OBS_COUNT(std::string("fault.dropped{plane=") + plane_name(msg.plane) + "}", 1);
#if PREDCTRL_OBS_ENABLED
    if (flight_ != nullptr) flight_->on_drop(from, to, now_, msg.type);
#endif
    return;
  }
  if (verdict.spiked) ++stats_.delay_spikes;
  if (verdict.reordered) ++stats_.messages_reordered;
  if (verdict.spiked) PREDCTRL_OBS_COUNT("fault.delay_spikes", 1);
  if (verdict.reordered) PREDCTRL_OBS_COUNT("fault.reordered", 1);
  if (verdict.corrupt) {
    // Flip payload bits after the stamp; duplicates below carry the same
    // corruption (one bad link event, however many copies it delivers).
    ++stats_.corrupted_messages;
    PREDCTRL_OBS_COUNT("fault.corrupted", 1);
    int32_t lane = verdict.corrupt_lane;
    if (lane >= static_cast<int32_t>(msg.clock.size())) lane = -2;
    if (lane >= 0)
      msg.clock[static_cast<size_t>(lane)] ^= static_cast<int32_t>(verdict.corrupt_mask);
    else if (lane == -1)
      msg.b ^= verdict.corrupt_mask;
    else
      msg.a ^= verdict.corrupt_mask;
  }

  SimTime deliver_at = now_ + delay + verdict.extra_delay;
  if (options_.fifo_channels && msg.plane != Message::Plane::kLocal) {
    SimTime& front = channel_front_[{from, to}];
    if (deliver_at <= front) deliver_at = front + 1;
    front = deliver_at;
  }
  for (int32_t copy = 0; copy < verdict.duplicates; ++copy) {
    ++stats_.messages_duplicated;
    PREDCTRL_OBS_COUNT("fault.duplicated", 1);
    enqueue_delivery(to, deliver_at + (copy + 1) * std::max<SimTime>(verdict.duplicate_delay, 1),
                     msg, flight_snapshot);
  }
  enqueue_delivery(to, deliver_at, std::move(msg), flight_snapshot);
}

void SimEngine::timer_from(AgentId from, SimTime delay, int64_t timer_id) {
  PREDCTRL_CHECK(delay >= 0, "negative timer delay");
  push_event(PendingEvent::Kind::kTimer, now_ + delay, from, timer_id,
             crash_epoch_[static_cast<size_t>(from)]);
  pending_timers_[static_cast<size_t>(from)].push_back(timer_id);
}

SimStats SimEngine::run() {
  PREDCTRL_CHECK(!running_, "run() is not reentrant");
  running_ = true;

  // Successive runs on one engine start from fresh statistics (message,
  // fault, and queue counters alike). The high-water mark seeds from
  // whatever is already queued -- pre-run schedule_crash/schedule_restart
  // pushes -- which is exactly what a fresh engine would have recorded.
  stats_ = SimStats{};
  stats_.max_queue_depth = static_cast<int64_t>(queue_.size());
  hit_time_limit_ = false;

#if PREDCTRL_OBS_ENABLED
  if (flight_ != nullptr) flight_->begin_run(num_agents());
#endif

#if PREDCTRL_OBS_ENABLED
  // Resolve every metric handle once, outside the loop: when recording, the
  // per-event cost is the record itself, not registry lookups. The agent set
  // is fixed during run() (add_agent checks !running_).
  struct Hooks {
    obs::Histogram* latency[3] = {nullptr, nullptr, nullptr};
    obs::Histogram* queue_depth = nullptr;
    std::vector<obs::Counter*> agent_events;
  };
  const bool recording = obs::recording();
  Hooks hooks;
  if (recording) {
    obs::Metrics& m = obs::default_metrics();
    hooks.latency[0] = &m.histogram("sim.msg.latency_us{plane=application}");
    hooks.latency[1] = &m.histogram("sim.msg.latency_us{plane=control}");
    hooks.latency[2] = &m.histogram("sim.msg.latency_us{plane=local}");
    hooks.queue_depth = &m.histogram("sim.queue.depth");
    for (AgentId id = 0; id < num_agents(); ++id)
      hooks.agent_events.push_back(
          &m.counter("sim.agent.events{agent=" + std::to_string(id) + "}"));
  }
#endif

  for (AgentId id = 0; id < num_agents(); ++id) {
    AgentContext ctx(*this, id);
    agents_[static_cast<size_t>(id)]->on_start(ctx);
  }

  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), later);
    const EventKey key = queue_.back();
    queue_.pop_back();
    // The payload moves out (its vectors change hands, nothing is copied)
    // and the slot is free again before the callback can enqueue more.
    PendingEvent ev = std::move(slots_[key.slot]);
    free_slots_.push_back(key.slot);
    if (options_.time_limit > 0 && key.time > options_.time_limit) {
      hit_time_limit_ = true;
      break;
    }
    now_ = key.time;
    ++stats_.events_processed;
    const size_t target = static_cast<size_t>(ev.target);

    if (ev.kind == PendingEvent::Kind::kCrash) {
      PREDCTRL_REQUIRE(!crashed_[target], "double crash of one agent");
      crashed_[target] = true;
      ++crash_epoch_[target];
      waiting_[target] = {};  // dead, not blocked
      ++stats_.crashes;
      PREDCTRL_OBS_COUNT("fault.crashes", 1);
      PREDCTRL_OBS_INSTANT("fault.crash", "fault",
                           {"agent", obs::TraceRecorder::arg(static_cast<int64_t>(ev.target))},
                           {"vt_us", obs::TraceRecorder::arg(now_)});
#if PREDCTRL_OBS_ENABLED
      if (flight_ != nullptr) flight_->on_crash(ev.target, now_);
#endif
      continue;
    }
    if (ev.kind == PendingEvent::Kind::kRestart) {
      PREDCTRL_REQUIRE(crashed_[target], "restart of an agent that is not crashed");
      crashed_[target] = false;
      ++stats_.restarts;
      PREDCTRL_OBS_COUNT("fault.restarts", 1);
      PREDCTRL_OBS_INSTANT("fault.restart", "fault",
                           {"agent", obs::TraceRecorder::arg(static_cast<int64_t>(ev.target))},
                           {"vt_us", obs::TraceRecorder::arg(now_)});
#if PREDCTRL_OBS_ENABLED
      // Recorded before the agent's on_restart callback so the restart
      // precedes whatever the agent does upon revival.
      if (flight_ != nullptr) flight_->on_restart(ev.target, now_);
#endif
      AgentContext ctx(*this, ev.target);
      agents_[target]->on_restart(ctx);
      continue;
    }

    const bool is_timer = ev.kind == PendingEvent::Kind::kTimer;
    if (is_timer) {
      // Popped = no longer pending, whether it fires or was invalidated.
      auto& pending = pending_timers_[target];
      auto it = std::find(pending.begin(), pending.end(), ev.timer_id);
      if (it != pending.end()) {
        *it = pending.back();
        pending.pop_back();
      }
    }
    // A crash discards every delivery enqueued before it (epoch mismatch),
    // and a currently-crashed agent receives nothing.
    if (crashed_[target] || ev.epoch != crash_epoch_[target]) {
      ++stats_.deliveries_discarded;
      PREDCTRL_OBS_COUNT("fault.discarded_deliveries", 1);
#if PREDCTRL_OBS_ENABLED
      if (flight_ != nullptr)
        flight_->on_discard(ev.target, now_, is_timer ? ev.timer_id : ev.msg.type);
#endif
      if (!ev.flight_clock.empty())
        flight_clock_pool_.push_back(std::move(ev.flight_clock));
      continue;
    }
    if (is_timer) ++stats_.timers_fired;

#if PREDCTRL_OBS_ENABLED
    // Flight stamp advances before the agent callback runs, so annotations
    // recorded inside the callback share this event's clock.
    if (flight_ != nullptr) {
      if (is_timer) {
        flight_->on_timer(ev.target, now_, ev.timer_id);
      } else {
        flight_->on_deliver(ev.target, ev.msg.from, now_, ev.msg.type,
                            static_cast<int64_t>(ev.msg.plane), ev.flight_clock);
      }
    }
#endif
    // on_deliver consumed the snapshot; retire its buffer for the next send.
    if (!ev.flight_clock.empty())
      flight_clock_pool_.push_back(std::move(ev.flight_clock));

#if PREDCTRL_OBS_ENABLED
    if (recording) {
      hooks.queue_depth->record(static_cast<int64_t>(queue_.size()) + 1);
      hooks.agent_events[target]->increment();
      if (!is_timer) {
        hooks.latency[static_cast<size_t>(ev.msg.plane)]->record(key.time - ev.sent_at);
        obs::default_recorder().instant(
            "sim.deliver", "sim",
            {{"from", obs::TraceRecorder::arg(static_cast<int64_t>(ev.msg.from))},
             {"to", obs::TraceRecorder::arg(static_cast<int64_t>(ev.msg.to))},
             {"type", obs::TraceRecorder::arg(static_cast<int64_t>(ev.msg.type))},
             {"plane", obs::TraceRecorder::arg(static_cast<int64_t>(ev.msg.plane))},
             {"vt_us", obs::TraceRecorder::arg(key.time)}});
      }
    }
#endif

    AgentContext ctx(*this, ev.target);
    if (is_timer) {
      agents_[target]->on_timer(ctx, ev.timer_id);
    } else {
      // The message moves into the agent's last-delivered record (no copy)
      // and the callback reads it there; add_agent is barred while running,
      // so the record stays put during the callback.
      std::optional<Message>& last = last_delivered_[target];
      last = std::move(ev.msg);
      last_delivery_time_[target] = key.time;
      agents_[target]->on_message(ctx, *last);
    }
  }

  stats_.end_time = now_;
  running_ = false;
  return stats_;
}

std::vector<std::pair<AgentId, std::string>> SimEngine::blocked_agents() const {
  std::vector<std::pair<AgentId, std::string>> blocked;
  for (AgentId id = 0; id < num_agents(); ++id) {
    const size_t i = static_cast<size_t>(id);
    if (waiting_[i].why != nullptr && !crashed_[i])
      blocked.emplace_back(id, waiting_[i].render());
  }
  return blocked;
}

QuiescenceReport SimEngine::quiescence_report() const {
  QuiescenceReport report;
  for (AgentId id = 0; id < num_agents(); ++id) {
    const size_t i = static_cast<size_t>(id);
    if (crashed_[i]) report.crashed.push_back(id);
    if (waiting_[i].why == nullptr || crashed_[i]) continue;
    AgentQuiescence q;
    q.agent = id;
    q.waiting_reason = waiting_[i].render();
    q.crashed = false;
    q.last_delivered = last_delivered_[i];
    q.last_delivery_time = last_delivery_time_[i];
    q.pending_timers = pending_timers_[i];
    std::sort(q.pending_timers.begin(), q.pending_timers.end());
    report.blocked.push_back(std::move(q));
  }
  return report;
}

std::vector<AgentId> SimEngine::crashed_agents() const {
  std::vector<AgentId> crashed;
  for (AgentId id = 0; id < num_agents(); ++id)
    if (crashed_[static_cast<size_t>(id)]) crashed.push_back(id);
  return crashed;
}

}  // namespace predctrl::sim
