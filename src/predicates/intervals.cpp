#include "predicates/intervals.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace predctrl {

namespace {

// Scans one predicate row into its maximal false intervals.
void scan_row(const PredicateTable& table, size_t p, FalseIntervalSets& sets) {
  const auto& row = table[p];
  PREDCTRL_CHECK(!row.empty(), "empty predicate row");
  for (size_t k = 0; k < row.size(); ++k) {
    if (row[k]) continue;
    size_t lo = k;
    while (k + 1 < row.size() && !row[k + 1]) ++k;
    sets[p].push_back({static_cast<ProcessId>(p), static_cast<int32_t>(lo),
                       static_cast<int32_t>(k)});
  }
}

}  // namespace

std::ostream& operator<<(std::ostream& os, const FalseInterval& iv) {
  return os << 'P' << iv.process << "[" << iv.lo << ".." << iv.hi << "]";
}

FalseIntervalSets extract_false_intervals(const PredicateTable& table) {
  FalseIntervalSets sets(table.size());
  for (size_t p = 0; p < table.size(); ++p) scan_row(table, p, sets);
  return sets;
}

int32_t max_intervals_per_process(const FalseIntervalSets& sets) {
  size_t m = 0;
  for (const auto& s : sets) m = std::max(m, s.size());
  return static_cast<int32_t>(m);
}

bool crossable(const Deposet& deposet, const FalseInterval& a, const FalseInterval& b,
               StepSemantics semantics) {
  PREDCTRL_CHECK(a.process != b.process, "crossable() needs intervals on distinct processes");
  if (deposet.is_bottom(a.lo_state()) || deposet.is_top(b.hi_state())) return false;
  const StateId before_a{a.process, a.lo - 1};  // keeper's last true state
  const StateId after_b{b.process, b.hi + 1};   // crossee's first true state again
  if (semantics == StepSemantics::kRealTime) {
    // a's entry event must not causally precede b's exit event. By
    // transitivity this also covers every state *inside* b's interval.
    return !deposet.precedes(before_a, after_b);
  }
  // kSimultaneous: two requirements.
  //  1. The keeper can remain true (at states <= pred(a.lo)) while b
  //     traverses its whole interval -- the binding stage is b.hi.
  //  2. The keeper may enter a.lo at the same instant b exits, so a.lo must
  //     be able to coexist with succ(b.hi).
  // (1) is NOT implied by (2): a dependency landing mid-interval of b can
  // drag the keeper inside its own interval even though the exit state is
  // unconstrained.
  return !deposet.precedes(before_a, b.hi_state()) &&
         !deposet.precedes(a.lo_state(), after_b);
}

PackedIntervals::PackedIntervals(const Deposet& deposet, const FalseIntervalSets& sets) {
  PREDCTRL_CHECK(static_cast<int32_t>(sets.size()) == deposet.num_processes(),
                 "interval sets do not match deposet");
  offsets_.assign(sets.size() + 1, 0);
  for (size_t p = 0; p < sets.size(); ++p) offsets_[p + 1] = offsets_[p] + sets[p].size();
  spans_.reserve(offsets_.back());

  const ClockMatrix& clocks = deposet.clocks();
  for (size_t p = 0; p < sets.size(); ++p) {
    const int32_t len = deposet.length(static_cast<ProcessId>(p));
    for (const FalseInterval& iv : sets[p]) {
      PREDCTRL_CHECK(iv.process == static_cast<ProcessId>(p),
                     "interval filed under the wrong process");
      PREDCTRL_CHECK(iv.lo >= 0 && iv.lo <= iv.hi && iv.hi < len,
                     "interval boundary out of range");
      Span s;
      s.lo = iv.lo;
      s.hi = iv.hi;
      s.hi_row = clocks.row_data({iv.process, iv.hi});
      s.succ_hi_row = iv.hi + 1 < len ? clocks.row_data({iv.process, iv.hi + 1}) : nullptr;
      spans_.push_back(s);
    }
  }
}

PackedIntervals PackedIntervals::adopt_mapped(const Deposet& deposet,
                                              std::span<const size_t> offsets,
                                              std::span<const int32_t> bounds) {
  const size_t n = static_cast<size_t>(deposet.num_processes());
  PREDCTRL_CHECK(offsets.size() == n + 1 && offsets[0] == 0,
                 "interval offset table does not match deposet");
  PREDCTRL_CHECK(bounds.size() == 2 * offsets[n],
                 "interval bounds do not match offset table");

  PackedIntervals packed;
  packed.offsets_.assign(offsets.begin(), offsets.end());
  packed.spans_.reserve(offsets[n]);

  const ClockMatrix& clocks = deposet.clocks();
  for (size_t p = 0; p < n; ++p) {
    PREDCTRL_CHECK(offsets[p] <= offsets[p + 1], "interval offsets not ascending");
    const int32_t len = deposet.length(static_cast<ProcessId>(p));
    for (size_t i = offsets[p]; i < offsets[p + 1]; ++i) {
      const int32_t lo = bounds[2 * i];
      const int32_t hi = bounds[2 * i + 1];
      PREDCTRL_CHECK(lo >= 0 && lo <= hi && hi < len, "interval boundary out of range");
      Span s;
      s.lo = lo;
      s.hi = hi;
      s.hi_row = clocks.row_data({static_cast<ProcessId>(p), hi});
      s.succ_hi_row =
          hi + 1 < len ? clocks.row_data({static_cast<ProcessId>(p), hi + 1}) : nullptr;
      packed.spans_.push_back(s);
    }
  }
  return packed;
}

bool is_overlapping_set(const Deposet& deposet, const std::vector<FalseInterval>& selection,
                        StepSemantics semantics) {
  PREDCTRL_CHECK(static_cast<int32_t>(selection.size()) == deposet.num_processes(),
                 "overlap needs exactly one interval per process");
  const size_t n = selection.size();
  for (size_t i = 0; i < n; ++i) {
    PREDCTRL_CHECK(selection[i].process == static_cast<ProcessId>(i),
                   "selection must be ordered by process");
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const FalseInterval& a = selection[i];
      const FalseInterval& b = selection[j];
      // overlap == "not crossable" in every ordered direction.
      if (crossable(deposet, a, b, semantics)) return false;
    }
  }
  return true;
}

namespace {

// overlap(pick) on the packed index: not crossable in any ordered
// direction. Verdict-identical to is_overlapping_set on the unpacked
// selection -- every probe is two contiguous row loads.
bool overlapping_at(const PackedIntervals& packed, const std::vector<int32_t>& pick,
                    StepSemantics semantics) {
  const int32_t n = packed.num_processes();
  for (ProcessId i = 0; i < n; ++i)
    for (ProcessId j = 0; j < n; ++j) {
      if (i == j) continue;
      if (packed.crossable(i, pick[static_cast<size_t>(i)], j, pick[static_cast<size_t>(j)],
                           semantics))
        return false;
    }
  return true;
}

std::vector<FalseInterval> unpack_selection(const PackedIntervals& packed,
                                            const std::vector<int32_t>& pick) {
  std::vector<FalseInterval> selection;
  selection.reserve(static_cast<size_t>(packed.num_processes()));
  for (ProcessId p = 0; p < packed.num_processes(); ++p)
    selection.push_back(packed.interval(p, pick[static_cast<size_t>(p)]));
  return selection;
}

}  // namespace

std::optional<std::vector<FalseInterval>> find_overlapping_set(
    const Deposet& deposet, const FalseIntervalSets& sets, StepSemantics semantics,
    int64_t max_combinations) {
  const size_t n = sets.size();
  PREDCTRL_CHECK(static_cast<int32_t>(n) == deposet.num_processes(),
                 "interval sets do not match deposet");
  for (const auto& s : sets)
    if (s.empty()) return std::nullopt;  // no full selection possible

  const PackedIntervals packed(deposet, sets);

  std::vector<int32_t> pick(n, 0);
  int64_t visited = 0;
  while (true) {
    if (overlapping_at(packed, pick, semantics)) return unpack_selection(packed, pick);
    if (++visited >= max_combinations) return std::nullopt;
    size_t p = 0;
    for (; p < n; ++p) {
      if (++pick[p] < static_cast<int32_t>(sets[p].size())) break;
      pick[p] = 0;
    }
    if (p == n) return std::nullopt;
  }
}

}  // namespace predctrl
