#include "control/strategy.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace predctrl {

ControlStrategy ControlStrategy::compile(const Deposet& base, const ControlRelation& control,
                                         bool check_deadlock) {
  ControlStrategy s;
  s.actions_.assign(static_cast<size_t>(base.num_processes()), {});

  int32_t token = 0;
  for (const CausalEdge& e : control) {
    // Formatted only when a check fails.
    const auto ctx = [&e] {
      std::ostringstream os;
      os << "control edge " << e;
      return os.str();
    };
    PREDCTRL_CHECK(base.contains(e.from) && base.contains(e.to),
                   ctx() + ": endpoint outside the computation");
    PREDCTRL_CHECK(e.from.process != e.to.process, ctx() + ": endpoints on one process");
    PREDCTRL_CHECK(!base.is_top(e.from),
                   ctx() + ": source is a final state; its exit never happens");
    PREDCTRL_CHECK(e.to.index > 0,
                   ctx() + ": target is an initial state; its entry cannot wait");

    s.actions_[static_cast<size_t>(e.from.process)].push_back(
        {ControlAction::Kind::kSendOnExit, e.from.index, token, e.to.process});
    s.actions_[static_cast<size_t>(e.to.process)].push_back(
        {ControlAction::Kind::kWaitBeforeEntry, e.to.index, token, e.from.process});
    ++token;
  }
  s.num_tokens_ = token;

  if (check_deadlock)
    PREDCTRL_CHECK(control_realizable(base, control),
                   "control relation deadlocks: the event order it imposes is cyclic");

  for (auto& v : s.actions_)
    std::sort(v.begin(), v.end(), [](const ControlAction& a, const ControlAction& b) {
      if (a.state != b.state) return a.state < b.state;
      if (a.kind != b.kind) return a.kind < b.kind;
      return a.token < b.token;
    });
  return s;
}

}  // namespace predctrl
