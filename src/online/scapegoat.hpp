// On-line disjunctive predicate control -- paper, Section 6, Figure 3.
//
// Each process P_i is paired with a controller C_i. The safety predicate is
// B = l_1 v ... v l_n; the strategy maintains it on computations that are
// not known in advance, under the paper's assumptions:
//
//   A1: no process blocks while its local predicate is false, and
//   A2: l_i holds at each final state,
//
// without which the problem is impossible (Theorem 3; see
// tests/test_impossibility.cpp).
//
// The mechanism is a single "anti-token": at any time some process is the
// *scapegoat* and must remain true until another process takes the role.
// When the scapegoat's process wants to enter a false state, its controller
// sends req to another controller and blocks the transition until an ack
// arrives; the target controller acks immediately if its process is true
// (becoming the scapegoat), or defers the ack until it is (`pending`).
//
// Protocol (process <-> its controller, co-located / zero delay):
//   kWantFalse  P -> C   permission to enter a false state
//   kGrant      C -> P   transition may proceed
//   kNowTrue    P -> C   the process's predicate is true again
// (controller <-> controller, control plane, delay T):
//   kReq, kAck
//
// The broadcast variant (paper, Section 6 evaluation) sends req to every
// other controller and proceeds on the first ack: response time approaches
// 2T, at the price of n-1 messages per handoff (late acks simply add extra
// scapegoats, which is safe -- more true processes, never fewer).
//
// Self-healing (this layer's extension beyond the paper): when a FaultPlan
// is active the kReq/kAck handoff travels over a fault::ReliableLink
// (ack + retransmission with deterministic backoff). If every retransmission
// of a req to one peer fails, the controller fails over to the next peer in
// deterministic round-robin order; once all n-1 peers have been tried and
// lost, it *releases control* -- grants its process anyway and records the
// release -- trading the safety guarantee for progress (graceful
// degradation; the debug session surfaces the partial trace plus a
// structured ControlFailure instead of hanging).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "fault/reliable_link.hpp"
#include "runtime/scripted.hpp"
#include "runtime/sim.hpp"

namespace predctrl::online {

/// Message types used by the scapegoat protocol. The local-plane half is the
/// generic gate protocol of runtime/scripted.hpp (so gated ScriptedProcesses
/// and hand-written workloads speak the same language); kReq/kAck are the
/// controller-to-controller handoff.
enum MsgType : int32_t {
  kWantFalse = sim::kGateWantFalse,
  kGrant = sim::kGateGrant,
  kNowTrue = sim::kGateNowTrue,
  kReq = 110,
  kAck = 111,
};

struct ScapegoatOptions {
  /// Send req to every other controller instead of one random pick.
  bool broadcast = false;
  /// Which controller starts as scapegoat (the paper's init(i)).
  int32_t initial_scapegoat = 0;
  /// Control-plane reliability (ack + retransmit). Disabled by default;
  /// run_scripts_guarded / the mutex runners enable it iff an active
  /// FaultPlan is installed, so fault-free runs carry zero extra traffic.
  fault::ReliableLinkOptions link{};
};

/// One per-request measurement: the delay between the process asking to go
/// false and the controller granting it (the "response time" of the paper's
/// mutual-exclusion evaluation; zero when the controller is not scapegoat).
struct ResponseSample {
  sim::SimTime requested_at = 0;
  sim::SimTime granted_at = 0;
  bool was_scapegoat = false;  ///< the request needed a handoff
  sim::SimTime delay() const { return granted_at - requested_at; }
};

/// Control-plane health harvested from every controller after a guarded run
/// -- who held the anti-token when, and what the reliability layer had to do
/// to keep it moving.
struct ScapegoatTelemetry {
  /// Anti-token adoption history: (virtual time, controller index), sorted
  /// by time. The initial scapegoat appears at t = 0; the last entry whose
  /// controller still reports is_scapegoat() is the final holder.
  std::vector<std::pair<sim::SimTime, int32_t>> chain;
  int64_t retransmits = 0;
  int64_t link_give_ups = 0;
  int64_t duplicates_suppressed = 0;
  /// Deliveries the links quarantined as corrupted in flight (checksum
  /// mismatch) -- nonzero iff a Byzantine plan actually flipped control
  /// traffic this run.
  int64_t corrupt_quarantined = 0;
  /// Controllers that released control (graceful degradation): they granted
  /// their process without a handoff after exhausting every peer.
  std::vector<int32_t> released;
  /// Controllers whose is_scapegoat() still held at quiescence -- for a
  /// crashed controller, its state frozen at the crash, which is exactly how
  /// the watchdog recognizes a crashed anti-token holder.
  std::vector<int32_t> holders_at_end;
  bool control_released() const { return !released.empty(); }
};

/// The Figure 3 controller. The paired process must send kWantFalse before
/// entering any false state (and wait for kGrant), and kNowTrue whenever its
/// predicate turns true again. Processes and controllers live in one
/// engine; the controller of process agent `process_agent` is a separate
/// agent whose id the process must know.
class ScapegoatController : public sim::Agent {
 public:
  /// `peers` are the agent ids of all controllers, indexed by process;
  /// `index` is this controller's position in that vector.
  /// `process_starts_true` is l_i evaluated at the initial state: a
  /// controller whose process starts false defers incoming transfer
  /// requests until the first kNowTrue (and must not be the initial
  /// scapegoat).
  ScapegoatController(std::vector<sim::AgentId> peers, int32_t index,
                      sim::AgentId process_agent, const ScapegoatOptions& options,
                      bool process_starts_true = true);

  void on_message(sim::AgentContext& ctx, const sim::Message& msg) override;
  void on_timer(sim::AgentContext& ctx, int64_t timer_id) override;

  bool is_scapegoat() const { return scapegoat_; }
  const std::vector<ResponseSample>& responses() const { return responses_; }

  /// Times at which this controller adopted the anti-token (the initial
  /// scapegoat records t = 0).
  const std::vector<sim::SimTime>& adoptions() const { return adoptions_; }
  const fault::LinkStats& link_stats() const { return link_.stats(); }
  /// True iff this controller gave up the handoff entirely and granted its
  /// process without a successor scapegoat (graceful degradation).
  bool released_control() const { return released_; }

 private:
  void handle_want_false(sim::AgentContext& ctx);
  void handle_req(sim::AgentContext& ctx, sim::AgentId from);
  void handle_ack(sim::AgentContext& ctx);
  void handle_give_up(sim::AgentContext& ctx, const sim::Message& lost);
  void grant(sim::AgentContext& ctx, bool handoff);
  void become_scapegoat_and_ack(sim::AgentContext& ctx, sim::AgentId requester);
  void send_req(sim::AgentContext& ctx, size_t peer_index);
  void release_control(sim::AgentContext& ctx);
  void record_adoption(sim::SimTime at);

  std::vector<sim::AgentId> peers_;
  int32_t index_;
  sim::AgentId process_agent_;
  ScapegoatOptions options_;
  fault::ReliableLink link_;

  bool scapegoat_ = false;
  bool proc_true_ = true;  ///< conservative: false from grant until kNowTrue
  bool awaiting_ack_ = false;
  bool released_ = false;
  std::optional<sim::SimTime> want_since_;
  /// Deferred scapegoat-transfer requests (either because our process is
  /// false, or because our own handoff is in flight -- the paper's blocking
  /// receive(ack) defers request processing the same way).
  std::vector<sim::AgentId> pending_reqs_;
  /// Failover state: peer index of the in-flight req target, and how many
  /// distinct peers this handoff has already given up on.
  int32_t current_target_ = -1;
  int32_t handoff_failures_ = 0;

  std::vector<ResponseSample> responses_;
  std::vector<sim::SimTime> adoptions_;
};

}  // namespace predctrl::online
