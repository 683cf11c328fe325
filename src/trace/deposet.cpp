#include "trace/deposet.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace predctrl {

DeposetBuilder::DeposetBuilder(int32_t num_processes) {
  PREDCTRL_CHECK(num_processes >= 1, "a computation needs at least one process");
  lengths_.assign(static_cast<size_t>(num_processes), 1);
}

void DeposetBuilder::set_length(ProcessId p, int32_t num_states) {
  PREDCTRL_CHECK(p >= 0 && p < num_processes(), "process id out of range");
  PREDCTRL_CHECK(num_states >= 1, "a process needs at least one state");
  lengths_[static_cast<size_t>(p)] = num_states;
}

int32_t DeposetBuilder::length(ProcessId p) const {
  PREDCTRL_CHECK(p >= 0 && p < num_processes(), "process id out of range");
  return lengths_[static_cast<size_t>(p)];
}

void DeposetBuilder::add_message(StateId from, StateId to) {
  messages_.push_back({from, to});
}

void DeposetBuilder::validate_edge_shape() const {
  for (const MessageEdge& m : messages_) {
    // Formatted only when a check fails.
    const auto ctx = [&m] {
      std::ostringstream os;
      os << "edge " << m;
      return os.str();
    };
    PREDCTRL_CHECK(m.from.process >= 0 && m.from.process < num_processes() &&
                       m.to.process >= 0 && m.to.process < num_processes(),
                   ctx() + ": process out of range");
    PREDCTRL_CHECK(m.from.process != m.to.process,
                   ctx() + ": a dependency edge must cross processes");
    PREDCTRL_CHECK(m.from.index >= 0 && m.from.index < length(m.from.process),
                   ctx() + ": source state out of range");
    PREDCTRL_CHECK(m.to.index >= 0 && m.to.index < length(m.to.process),
                   ctx() + ": target state out of range");
  }
}

void DeposetBuilder::validate_messages() const {
  // Per-process event roles for the D3 check. Event k of process p takes
  // state (p, k) to (p, k+1); a sequential process performs one action per
  // event, so an event may send at most one message, receive at most one,
  // and never both.
  enum class Role : uint8_t { kNone, kSend, kRecv };
  std::vector<std::vector<Role>> roles(lengths_.size());
  for (size_t p = 0; p < lengths_.size(); ++p)
    roles[p].assign(static_cast<size_t>(std::max(0, lengths_[p] - 1)), Role::kNone);

  for (const MessageEdge& m : messages_) {
    // Formatted only when a check fails.
    const auto ctx = [&m] {
      std::ostringstream os;
      os << "message " << m;
      return os.str();
    };
    PREDCTRL_CHECK(m.from.process >= 0 && m.from.process < num_processes() &&
                       m.to.process >= 0 && m.to.process < num_processes(),
                   ctx() + ": process out of range");
    PREDCTRL_CHECK(m.from.process != m.to.process,
                   ctx() + ": a process cannot message itself");
    PREDCTRL_CHECK(m.from.index >= 0 && m.from.index < length(m.from.process),
                   ctx() + ": send state out of range");
    PREDCTRL_CHECK(m.to.index >= 0 && m.to.index < length(m.to.process),
                   ctx() + ": receive state out of range");
    // D2: the send event is the event *after* m.from, so m.from may not be
    // the final state.
    PREDCTRL_CHECK(m.from.index < length(m.from.process) - 1,
                   ctx() + ": D2 violated (message sent after the final state)");
    // D1: the receive event is the event *before* m.to, so m.to may not be
    // the initial state.
    PREDCTRL_CHECK(m.to.index >= 1,
                   ctx() + ": D1 violated (message received before the initial state)");

    Role& send_role = roles[static_cast<size_t>(m.from.process)][static_cast<size_t>(m.from.index)];
    PREDCTRL_CHECK(send_role != Role::kRecv,
                   ctx() + ": D3 violated (event both sends and receives)");
    PREDCTRL_CHECK(send_role != Role::kSend,
                   ctx() + ": event sends two messages");
    send_role = Role::kSend;

    Role& recv_role = roles[static_cast<size_t>(m.to.process)][static_cast<size_t>(m.to.index - 1)];
    PREDCTRL_CHECK(recv_role != Role::kSend,
                   ctx() + ": D3 violated (event both sends and receives)");
    PREDCTRL_CHECK(recv_role != Role::kRecv,
                   ctx() + ": event receives two messages");
    recv_role = Role::kRecv;
  }
}

Deposet DeposetBuilder::finish() const {
  ClockComputation cc = compute_state_clocks(lengths_, messages_);
  PREDCTRL_CHECK(cc.acyclic,
                 "happened-before is cyclic (a message is received before it is sent)");

  Deposet d;
  d.lengths_ = lengths_;
  d.messages_ = messages_;
  std::sort(d.messages_.begin(), d.messages_.end());
  d.messages_view_ = d.messages_;
  d.edge_index_ = CsrEdgeIndex(lengths_, d.messages_);
  d.clocks_ = std::move(cc.clocks);
  d.total_states_ = 0;
  for (int32_t len : lengths_) d.total_states_ += len;
  return d;
}

Deposet DeposetBuilder::build() const {
  validate_messages();
  return finish();
}

Deposet DeposetBuilder::build_extended() const {
  validate_edge_shape();
  return finish();
}

Deposet DeposetBuilder::build_with_clocks(ClockMatrix clocks) const {
  validate_messages();

  PREDCTRL_CHECK(clocks.num_processes() == num_processes(),
                 "adopted clock matrix has the wrong process count");
  for (ProcessId p = 0; p < num_processes(); ++p)
    PREDCTRL_CHECK(clocks.length(p) == length(p),
                   "adopted clock matrix has the wrong shape");

  Deposet d;
  d.lengths_ = lengths_;
  d.messages_ = messages_;
  std::sort(d.messages_.begin(), d.messages_.end());
  d.messages_view_ = d.messages_;
  d.edge_index_ = CsrEdgeIndex(lengths_, d.messages_);
  d.clocks_ = std::move(clocks);
  d.total_states_ = 0;
  for (int32_t len : lengths_) d.total_states_ += len;
  return d;
}

Deposet DeposetBuilder::adopt_mapped(std::vector<int32_t> lengths,
                                     std::span<const MessageEdge> sorted_messages,
                                     CsrEdgeIndex edge_index, ClockMatrix clocks) {
  const int32_t n = static_cast<int32_t>(lengths.size());
  PREDCTRL_CHECK(n >= 1, "a computation needs at least one process");
  int64_t total = 0;
  for (int32_t len : lengths) {
    PREDCTRL_CHECK(len >= 1, "a process needs at least one state");
    total += len;
  }
  // Shape consistency only -- adoption trusts the writer for content (see
  // the header comment). These checks are O(n).
  PREDCTRL_CHECK(clocks.num_processes() == n,
                 "adopted clock matrix has the wrong process count");
  PREDCTRL_CHECK(edge_index.num_processes() == n,
                 "adopted edge index has the wrong process count");
  for (ProcessId p = 0; p < n; ++p)
    PREDCTRL_CHECK(clocks.length(p) == lengths[static_cast<size_t>(p)],
                   "adopted clock matrix has the wrong shape");
  PREDCTRL_CHECK(edge_index.num_edges() == static_cast<int64_t>(sorted_messages.size()),
                 "adopted edge index disagrees with the message count");

  Deposet d;
  d.lengths_ = std::move(lengths);
  d.messages_view_ = sorted_messages;
  d.edge_index_ = std::move(edge_index);
  d.clocks_ = std::move(clocks);
  d.total_states_ = total;
  d.mapped_ = true;
  return d;
}

}  // namespace predctrl
