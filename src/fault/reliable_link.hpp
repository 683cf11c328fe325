// Ack + retransmission for control-plane messages -- the self-healing half
// of the fault plane.
//
// The paper's Figure 3 protocol assumes reliable channels: a dropped
// req/ack wedges the anti-token handoff forever (the process sits at its
// kWantFalse gate and the run deadlocks). A ReliableLink wraps an agent's
// control-plane sends in a classic positive-ack scheme:
//
//   * every reliable send stamps a per-(sender, destination) sequence
//     number into Message::b and arms a virtual-time retransmit timer;
//   * the receiving link immediately answers kLinkAck (idempotent -- every
//     delivery is acked, because the ack itself can be dropped) and
//     suppresses duplicate deliveries by (sender, seq), so the protocol
//     above it sees each message EXACTLY ONCE, preserving the paper's
//     causal-ordering obligations (a retransmitted req/ack carries the same
//     obligation as the original, just later);
//   * unacked sends retransmit with exponential backoff (deterministic:
//     timeout * backoff^attempt, capped) up to max_retries, then the link
//     gives up and reports the loss to its owner -- the hook controllers
//     use to fail over to another peer or gracefully release control;
//   * a delivery whose engine-stamped checksum (Message::check) no longer
//     matches its payload was corrupted in flight (Byzantine link). The
//     link QUARANTINES it -- counted, never parsed, never acked, never
//     marked seen -- and answers kLinkNak to request an immediate
//     retransmit, so protocols above see exactly-once VERIFIED delivery.
//     Corruption is flagged, never fatal: a corrupt ack or nak is simply
//     dropped and the retransmit timer covers recovery.
//
// Dedup state is windowed, not unbounded: sequence numbers are per
// destination, so each receiver sees a gapless 0,1,2,... stream per sender
// and can discard dedup entries below the contiguous delivered-and-acked
// prefix (the low-water mark). Any later arrival below the mark is provably
// a duplicate -- the mark only advances past seqs this link itself
// delivered. The live set holds just the out-of-order frontier, bounded by
// the reorder window rather than the run length.
//
// Everything runs on virtual-time timers inside the deterministic
// simulator: same seed + same fault plan => the same retransmit schedule.
// A disabled link (the default, and whenever no active FaultPlan is
// installed) is pass-through: zero extra messages, timers, or state --
// fault-free runs stay byte-identical to builds that predate the fault
// plane.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "runtime/sim.hpp"

namespace predctrl::fault {

/// Transport-level acknowledgment (distinct from the scapegoat protocol's
/// kAck): `a` carries the acked sequence number.
constexpr int32_t kLinkAck = 140;

/// Transport-level retransmit request: the receiver quarantined a corrupted
/// delivery; `a` carries the (possibly itself corrupted) sequence number.
constexpr int32_t kLinkNak = 141;

/// Timer-id namespace for retransmit timers, far above any protocol timer.
constexpr int64_t kLinkTimerBase = 1'000'000'000;

struct ReliableLinkOptions {
  bool enabled = false;
  /// First retransmit timeout; should exceed one round trip (2 * the
  /// engine's max_delay) or every send retransmits spuriously.
  sim::SimTime timeout = 30'000;
  double backoff = 2.0;  ///< timeout multiplier per attempt
  sim::SimTime max_timeout = 240'000;
  int32_t max_retries = 5;  ///< retransmissions before giving up
};

struct LinkStats {
  int64_t retransmits = 0;
  int64_t give_ups = 0;
  int64_t duplicates_suppressed = 0;
  int64_t acks_sent = 0;
  /// Deliveries quarantined because their checksum no longer matched the
  /// payload (corrupted in flight) -- the flag-don't-crash counter.
  int64_t corrupt_quarantined = 0;
  int64_t naks_sent = 0;  ///< retransmit requests issued for quarantined seqs
};

/// One agent's reliable control-plane endpoint. The owning agent routes
/// every outgoing reliable send through send(), and calls on_message /
/// on_timer FIRST in its own handlers, skipping messages the link consumed.
class ReliableLink {
 public:
  /// Called when max_retries retransmissions of `msg` (msg.to = the
  /// unreachable peer) all went unacked.
  using GiveUp = std::function<void(sim::AgentContext&, const sim::Message&)>;

  ReliableLink() = default;
  explicit ReliableLink(const ReliableLinkOptions& options) : options_(options) {}

  void configure(const ReliableLinkOptions& options) { options_ = options; }
  bool enabled() const { return options_.enabled; }
  void set_give_up(GiveUp cb) { give_up_ = std::move(cb); }

  /// Sends `msg` to `to`; reliable (seq-stamped into msg.b, retransmit
  /// timer armed) when enabled, a plain ctx.send otherwise.
  void send(sim::AgentContext& ctx, sim::AgentId to, sim::Message msg);

  /// Returns true iff the link consumed the message (a kLinkAck / kLinkNak,
  /// a duplicate delivery it suppressed, or a corrupted delivery it
  /// quarantined). Fresh verified reliable messages are acked here and then
  /// returned to the caller (false) for protocol handling.
  bool on_message(sim::AgentContext& ctx, const sim::Message& msg);

  /// Returns true iff the timer id belongs to the link (retransmit or
  /// stale-after-ack); the owner must not interpret such ids.
  bool on_timer(sim::AgentContext& ctx, int64_t timer_id);

  /// True iff no sends are awaiting acknowledgment.
  bool idle() const { return outstanding_.empty(); }
  const LinkStats& stats() const { return stats_; }

  /// Dedup-window introspection (tests): live entries / contiguous
  /// delivered prefix for one sending peer.
  int64_t dedup_entries(sim::AgentId peer) const;
  int64_t dedup_low_water(sim::AgentId peer) const;

 private:
  struct Outstanding {
    sim::Message msg;  ///< as sent, with .to/.from/.b filled in
    int32_t attempts = 0;
    sim::SimTime next_timeout = 0;
  };

  /// Receiver-side dedup state for one sending peer: every seq below
  /// low_water was delivered (and acked) by this link, so only the
  /// out-of-order frontier stays in the set.
  struct PeerWindow {
    int64_t low_water = 0;
    std::set<int64_t> seen;
  };

  void retransmit(sim::AgentContext& ctx, Outstanding& out);

  ReliableLinkOptions options_;
  GiveUp give_up_;
  std::map<sim::AgentId, int64_t> next_seq_;    // per destination peer
  int64_t next_token_ = 0;                      // timer-id namespace, this link
  std::map<int64_t, Outstanding> outstanding_;  // by token
  /// (peer, seq) -> token, for ack / nak lookups.
  std::map<std::pair<sim::AgentId, int64_t>, int64_t> token_of_;
  std::map<sim::AgentId, PeerWindow> seen_;  // per sender
  LinkStats stats_;
};

}  // namespace predctrl::fault
