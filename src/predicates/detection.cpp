#include "predicates/detection.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "trace/lattice.hpp"
#include "util/check.hpp"

namespace predctrl {

namespace {

// Next index >= from with the condition true, or -1.
int32_t next_satisfying(const std::vector<bool>& row, int32_t from) {
  for (size_t k = static_cast<size_t>(from); k < row.size(); ++k)
    if (row[k]) return static_cast<int32_t>(k);
  return -1;
}

}  // namespace

ConjunctiveDetection detect_weak_conjunctive(const Deposet& deposet,
                                             const PredicateTable& conditions) {
  const int32_t n = deposet.num_processes();
  PREDCTRL_CHECK(static_cast<int32_t>(conditions.size()) == n,
                 "conditions do not match deposet");
  for (ProcessId p = 0; p < n; ++p)
    PREDCTRL_CHECK(static_cast<int32_t>(conditions[static_cast<size_t>(p)].size()) ==
                       deposet.length(p),
                   "condition row does not match process length");

  // Candidate cut: per process, the earliest state satisfying its condition.
  // Invariant: every satisfying consistent cut is component-wise >= cand.
  std::vector<int32_t> cand(static_cast<size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    cand[static_cast<size_t>(p)] = next_satisfying(conditions[static_cast<size_t>(p)], 0);
    if (cand[static_cast<size_t>(p)] < 0) return {};
  }

  // Repeatedly advance any candidate state that happened-before another
  // candidate state: it can never pair with that (or any later) state.
  bool changed = true;
  while (changed) {
    changed = false;
    for (ProcessId i = 0; i < n && !changed; ++i) {
      StateId si{i, cand[static_cast<size_t>(i)]};
      for (ProcessId j = 0; j < n; ++j) {
        if (i == j) continue;
        StateId sj{j, cand[static_cast<size_t>(j)]};
        if (!deposet.precedes_eq(si, sj)) continue;
        int32_t next = next_satisfying(conditions[static_cast<size_t>(i)], si.index + 1);
        if (next < 0) return {};
        cand[static_cast<size_t>(i)] = next;
        changed = true;
        break;
      }
    }
  }

  ConjunctiveDetection result;
  result.detected = true;
  result.first_cut = Cut(cand);
  PREDCTRL_REQUIRE(is_consistent(deposet, result.first_cut),
                   "weak-conjunctive candidate not consistent");
  return result;
}

std::vector<Cut> all_conjunctive_cuts(const Deposet& deposet,
                                      const PredicateTable& conditions) {
  std::vector<Cut> found;
  for_each_consistent_cut(deposet, [&](const Cut& c) {
    bool all = true;
    for (ProcessId p = 0; p < deposet.num_processes() && all; ++p)
      all = conditions[static_cast<size_t>(p)][static_cast<size_t>(c[p])];
    if (all) found.push_back(c);
    return true;
  });
  return found;
}

bool possibly(const Deposet& deposet, const std::function<bool(const Cut&)>& phi) {
  bool found = false;
  for_each_consistent_cut(deposet, [&](const Cut& c) {
    found = phi(c);
    return !found;  // stop as soon as a phi-state appears
  });
  return found;
}

bool definitely(const Deposet& deposet, const std::function<bool(const Cut&)>& phi,
                StepSemantics semantics, int64_t max_expansions) {
  SgsdResult avoid = find_satisfying_global_sequence(
      deposet, [&](const Cut& c) { return !phi(c); }, semantics, max_expansions);
  PREDCTRL_CHECK(!avoid.truncated, "definitely() exceeded its expansion budget");
  return !avoid.feasible;
}

SgsdResult find_satisfying_global_sequence(
    const Deposet& deposet, const std::function<bool(const Cut&)>& predicate,
    StepSemantics semantics, int64_t max_expansions) {
  SgsdResult result;
  const int32_t n = deposet.num_processes();
  const Cut start = bottom_cut(deposet);
  const Cut goal = top_cut(deposet);

  if (!predicate(start)) return result;  // infeasible: bottom violates B

  std::unordered_map<Cut, Cut, CutHash> parent;  // child -> predecessor
  parent.emplace(start, start);
  std::deque<Cut> frontier{start};

  auto reconstruct = [&](Cut cur) {
    std::vector<Cut> seq{cur};
    while (!(cur == start)) {
      cur = parent.at(cur);
      seq.push_back(cur);
    }
    std::reverse(seq.begin(), seq.end());
    return seq;
  };

  if (start == goal) {
    result.feasible = true;
    result.sequence = {start};
    return result;
  }

  while (!frontier.empty()) {
    Cut cur = std::move(frontier.front());
    frontier.pop_front();
    ++result.cuts_visited;

    // Processes with room to advance. Under kRealTime each step advances one
    // process; under kSimultaneous any nonempty subset forms a step.
    std::vector<ProcessId> room;
    for (ProcessId p = 0; p < n; ++p)
      if (cur[p] + 1 < deposet.length(p)) room.push_back(p);
    PREDCTRL_REQUIRE(!room.empty() || cur == goal, "dead end below the top cut");

    uint64_t subsets;
    if (semantics == StepSemantics::kRealTime) {
      subsets = static_cast<uint64_t>(room.size());
    } else {
      PREDCTRL_CHECK(room.size() < 63, "too many processes for subset-step SGSD");
      subsets = (1ULL << room.size()) - 1;
    }
    for (uint64_t step = 0; step < subsets; ++step) {
      if (++result.expansions > max_expansions) {
        result.truncated = true;
        return result;
      }
      Cut next = cur;
      if (semantics == StepSemantics::kRealTime) {
        ++next[room[static_cast<size_t>(step)]];
      } else {
        const uint64_t mask = step + 1;
        for (size_t b = 0; b < room.size(); ++b)
          if (mask & (1ULL << b)) ++next[room[b]];
      }
      if (parent.contains(next)) continue;
      if (!is_consistent(deposet, next)) {
        ++result.cuts_pruned;
        continue;
      }
      if (!predicate(next)) continue;
      parent.emplace(next, cur);
      if (next == goal) {
        result.feasible = true;
        result.sequence = reconstruct(next);
        return result;
      }
      frontier.push_back(next);
    }
  }
  return result;  // exhausted: infeasible
}

}  // namespace predctrl
