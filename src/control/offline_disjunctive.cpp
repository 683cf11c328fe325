#include "control/offline_disjunctive.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace predctrl {

namespace {

// The algorithm only ever rests at "interesting" local states: the initial
// state, an interval's lo (not yet crossed), an interval's hi (just
// crossed), or the final state. A token distinguishes lo from hi even when
// an interval is a single state (lo == hi), which a raw index cannot.
enum class Tok : uint8_t { kStart, kLo, kHi, kTop };

struct Position {
  Tok tok = Tok::kStart;
  int32_t interval = -1;  // meaningful for kLo / kHi
};

constexpr int32_t kNullInterval = -1;

class Walker {
 public:
  Walker(const Deposet& deposet, FalseIntervalSets intervals)
      : deposet_(deposet), ivs_(std::move(intervals)),
        pos_(static_cast<size_t>(deposet.num_processes())) {
    for (ProcessId p = 0; p < deposet.num_processes(); ++p) {
      const auto& v = ivs_[static_cast<size_t>(p)];
      if (!v.empty() && v[0].lo == 0)
        pos_[static_cast<size_t>(p)] = {Tok::kLo, 0};
      else
        pos_[static_cast<size_t>(p)] = {Tok::kStart, -1};
    }
  }

  int32_t num_processes() const { return deposet_.num_processes(); }

  const std::vector<FalseInterval>& intervals(ProcessId p) const {
    return ivs_[static_cast<size_t>(p)];
  }

  /// The paper's false(i): g[i] sits at an interval's lo, not yet crossed.
  bool is_false(ProcessId p) const { return pos_[static_cast<size_t>(p)].tok == Tok::kLo; }

  /// True iff the process never advanced AND its initial state is true --
  /// the only situation in which a chain may (re)start at this process.
  /// (The paper's test is "g[k'] = bottom", but when a false interval [0,0]
  /// has just been crossed, g[k'] is the bottom *index* while the bottom
  /// state is false; a chain anchored there would leave the all-early cuts
  /// uncovered. The token distinguishes the two.)
  bool at_true_bottom(ProcessId p) const {
    return pos_[static_cast<size_t>(p)].tok == Tok::kStart;
  }

  /// Index of N(i) in intervals(i), or kNullInterval.
  int32_t next_interval(ProcessId p) const {
    const Position& pos = pos_[static_cast<size_t>(p)];
    const auto size = static_cast<int32_t>(ivs_[static_cast<size_t>(p)].size());
    switch (pos.tok) {
      case Tok::kStart:
        return size > 0 ? 0 : kNullInterval;
      case Tok::kLo:
        return pos.interval;
      case Tok::kHi:
        return pos.interval + 1 < size ? pos.interval + 1 : kNullInterval;
      case Tok::kTop:
        return kNullInterval;
    }
    return kNullInterval;
  }

  /// Current state g[i].
  StateId g(ProcessId p) const {
    const Position& pos = pos_[static_cast<size_t>(p)];
    switch (pos.tok) {
      case Tok::kStart:
        return deposet_.bottom(p);
      case Tok::kLo:
        return ivs_[static_cast<size_t>(p)][static_cast<size_t>(pos.interval)].lo_state();
      case Tok::kHi:
        return ivs_[static_cast<size_t>(p)][static_cast<size_t>(pos.interval)].hi_state();
      case Tok::kTop:
        return deposet_.top(p);
    }
    return deposet_.bottom(p);
  }

  /// The paper's next(i): the next interesting state after g[i].
  StateId next_state(ProcessId p) const {
    const Position& pos = pos_[static_cast<size_t>(p)];
    const int32_t next = next_interval(p);
    if (pos.tok == Tok::kLo)
      return ivs_[static_cast<size_t>(p)][static_cast<size_t>(pos.interval)].hi_state();
    if (next == kNullInterval) return deposet_.top(p);
    return ivs_[static_cast<size_t>(p)][static_cast<size_t>(next)].lo_state();
  }

  /// Advances g on every process as far as the crossing of interval `iv`
  /// forces (paper, L6-L9). Reports processes whose N(i) changed (an
  /// interval was crossed) via `crossed`.
  ///
  /// Under kSimultaneous this is the paper's literal condition, advancing
  /// while next(i) has *finished* before the crossed interval's hi (the
  /// model's knife-edge semantics; validated against the exhaustive
  /// simultaneous-step oracle).
  ///
  /// Under kRealTime the frontier after a crossing includes the crossee's
  /// *exit* event, and g must reflect every event that exit causally forces:
  ///   * a process enters a false interval once the event entering its lo is
  ///     forced   -- pred(lo) -> succ(hi_crossed);
  ///   * an interval counts as crossed (token kHi, keeper-eligible) only
  ///     once the event *exiting* its hi is forced -- hi -> succ(hi_crossed).
  /// The paper's literal condition is wrong on both counts here: it can
  /// bookkeep a process as "before its interval" when causality already
  /// forced it inside (making it a bogus chain keeper whose edge deadlocks
  /// the replay -- found by randomized search), and the entry/exit split is
  /// what makes every emitted edge's source exit lie inside the constructed
  /// frontier while its target entry stays ahead, which yields an acyclic
  /// (executable) relation by construction.
  void advance_to(const FalseInterval& iv, StepSemantics semantics,
                  std::vector<ProcessId>* crossed) {
    const StateId hi = iv.hi_state();
    const StateId after{iv.process, iv.hi + 1};  // crossable() guarantees hi != top
    for (ProcessId p = 0; p < num_processes(); ++p) {
      bool crossed_any = false;
      while (true) {
        Position& pos = pos_[static_cast<size_t>(p)];
        if (pos.tok == Tok::kTop) break;
        // Past the last interval only true states remain; the position (and
        // so any later chain anchor) stays at the last interesting state --
        // advancing to the final state would anchor an edge at a state whose
        // exit never happens.
        if (pos.tok != Tok::kLo && next_interval(p) == kNullInterval) break;

        const StateId next = next_state(p);
        bool forced;
        if (semantics == StepSemantics::kSimultaneous) {
          forced = deposet_.precedes_eq(next, hi);
        } else if (pos.tok == Tok::kLo) {
          // Crossing p's own interval: its hi must have been *exited*.
          forced = deposet_.precedes(next, after);
        } else {
          // Entering the next interval's lo: its entry event must be forced.
          // (lo >= 1 always: an interval at the bottom starts as the kLo
          // token and is never an advance target.)
          PREDCTRL_REQUIRE(next.index > 0, "entry target at an initial state");
          forced = deposet_.precedes({p, next.index - 1}, after);
        }
        if (!forced) break;

        switch (pos.tok) {
          case Tok::kStart:
            pos = {Tok::kLo, next_interval(p)};
            break;
          case Tok::kLo:
            pos.tok = Tok::kHi;  // N(p) just changed: interval crossed
            crossed_any = true;
            break;
          case Tok::kHi:
            pos = {Tok::kLo, next_interval(p)};
            break;
          case Tok::kTop:
            break;
        }
      }
      if (crossed_any && crossed != nullptr) crossed->push_back(p);
    }
  }

 private:
  const Deposet& deposet_;
  FalseIntervalSets ivs_;
  std::vector<Position> pos_;
};

// Shared algorithm driver; the ValidPairs strategy is factored out via a
// callable returning the chosen pair <keeper, crossed> or nullopt.
class Algorithm {
 public:
  Algorithm(const Deposet& deposet, const PredicateTable& predicate,
            const OfflineControlOptions& options)
      : options_(options), rng_(options.seed),
        sets_(extract_false_intervals(predicate)), packed_(deposet, sets_),
        walker_(deposet, sets_) {
    const int32_t n = walker_.num_processes();
    if (options_.impl == ValidPairsImpl::kIncremental) {
      words_per_row_ = (static_cast<size_t>(n) + 63) / 64;
      cross_.assign(static_cast<size_t>(n) * words_per_row_, 0);
      row_count_.assign(static_cast<size_t>(n), 0);
      fill_initial_matrix();
    }
  }

  OfflineControlResult run() {
    OfflineControlResult result;
    const int32_t n = walker_.num_processes();
    int64_t total_intervals = 0;
    for (ProcessId p = 0; p < n; ++p)
      total_intervals += static_cast<int64_t>(walker_.intervals(p).size());
    result.total_intervals = total_intervals;

    ProcessId k = -1;  // previous iteration's keeper
    while (all_have_next_interval()) {
      auto pair = pick_pair(result);
      if (!pair.has_value()) {
        // No Controller Exists: export the blocking N(i) set (Lemma 2).
        for (ProcessId p = 0; p < n; ++p)
          result.blocking_intervals.push_back(
              walker_.intervals(p)[static_cast<size_t>(walker_.next_interval(p))]);
        result.controllable = false;
        return result;
      }
      auto [keeper, crossee] = *pair;
      add_control(result.control, keeper, k);

      const FalseInterval& iv =
          walker_.intervals(crossee)[static_cast<size_t>(walker_.next_interval(crossee))];
      std::vector<ProcessId> crossed;
      walker_.advance_to(iv, options_.semantics, &crossed);
      if (options_.impl == ValidPairsImpl::kIncremental)
        for (ProcessId p : crossed) refresh_row_and_column(p, &result);

      k = keeper;
      ++result.iterations;
      PREDCTRL_REQUIRE(result.iterations <= total_intervals + 1,
                       "offline control failed to terminate");
    }

    // L11-L12: close the chain at a process that has run out of intervals.
    std::vector<ProcessId> done;
    for (ProcessId p = 0; p < n; ++p)
      if (walker_.next_interval(p) == kNullInterval) done.push_back(p);
    PREDCTRL_REQUIRE(!done.empty(), "loop exited with every N(i) defined");
    ProcessId keeper = options_.select == SelectPolicy::kRandom
                           ? done[rng_.index(done.size())]
                           : done.front();
    add_control(result.control, keeper, k);
    result.controllable = true;
    return result;
  }

 private:
  bool all_have_next_interval() const {
    for (ProcessId p = 0; p < walker_.num_processes(); ++p)
      if (walker_.next_interval(p) == kNullInterval) return false;
    return true;
  }

  // crossable(N(i), N(j)) -- both assumed to exist. Runs on the packed
  // interval index: the clock rows of every interval boundary were resolved
  // to slab pointers once at construction, so each probe is two contiguous
  // loads instead of a nested-vector walk (same verdict as crossable()).
  bool crossable_now(ProcessId i, ProcessId j, OfflineControlResult* result) {
    if (result != nullptr) ++result->pair_checks;
    return packed_.crossable(i, walker_.next_interval(i), j, walker_.next_interval(j),
                             options_.semantics);
  }

  // Bitset matrix cell accessors. Row i occupies words
  // cross_[i * words_per_row_ .. +words_per_row_), so distinct rows never
  // share a word.
  bool cross_get(ProcessId i, ProcessId j) const {
    return (cross_[static_cast<size_t>(i) * words_per_row_ +
                   static_cast<size_t>(j) / 64] >>
            (static_cast<size_t>(j) % 64)) &
           1;
  }
  void cross_assign(ProcessId i, ProcessId j, bool v) {
    uint64_t& w = cross_[static_cast<size_t>(i) * words_per_row_ +
                         static_cast<size_t>(j) / 64];
    const uint64_t bit = uint64_t{1} << (static_cast<size_t>(j) % 64);
    if (v)
      w |= bit;
    else
      w &= ~bit;
  }

  // Initial crossable matrix: every cell is computed exactly once (the
  // matrix is a pure function of the initial Walker positions). The
  // probes pass a null result: construction adds nothing to pair_checks.
  void fill_initial_matrix() {
    const int32_t n = walker_.num_processes();
    for (ProcessId i = 0; i < n; ++i) {
      const bool i_valid = walker_.next_interval(i) != kNullInterval;
      int32_t count = 0;
      for (ProcessId j = 0; j < n; ++j) {
        if (j == i) continue;
        const bool j_valid = walker_.next_interval(j) != kNullInterval;
        const bool rv = i_valid && j_valid && crossable_now(i, j, nullptr);
        cross_assign(i, j, rv);
        if (rv) ++count;
      }
      row_count_[static_cast<size_t>(i)] = count;
    }
  }

  void refresh_row_and_column(ProcessId i, OfflineControlResult* result) {
    const int32_t n = walker_.num_processes();
    const bool i_valid = walker_.next_interval(i) != kNullInterval;
    int32_t count = 0;
    for (ProcessId j = 0; j < n; ++j) {
      if (j == i) continue;
      const bool j_valid = walker_.next_interval(j) != kNullInterval;
      // Row i: crossable(N(i), N(j)).
      bool rv = i_valid && j_valid && crossable_now(i, j, result);
      cross_assign(i, j, rv);
      if (rv) ++count;
      // Column i: crossable(N(j), N(i)).
      bool cv = i_valid && j_valid && crossable_now(j, i, result);
      if (cross_get(j, i) != cv) {
        row_count_[static_cast<size_t>(j)] += cv ? 1 : -1;
        cross_assign(j, i, cv);
      }
    }
    row_count_[static_cast<size_t>(i)] = count;
  }

  /// Returns the selected <keeper, crossee> or nullopt if ValidPairs is
  /// empty. true(keeper) is required; keeper != crossee.
  std::optional<std::pair<ProcessId, ProcessId>> pick_pair(OfflineControlResult& result) {
    const int32_t n = walker_.num_processes();
    std::vector<std::pair<ProcessId, ProcessId>> candidates;

    if (options_.impl == ValidPairsImpl::kNaive) {
      // The paper's naive variant recomputes the full ValidPairs set every
      // iteration (O(n^2) checks each time -> O(n^3 p) total).
      for (ProcessId i = 0; i < n; ++i) {
        if (walker_.is_false(i)) continue;
        for (ProcessId j = 0; j < n; ++j) {
          if (i == j) continue;
          if (crossable_now(i, j, &result)) candidates.emplace_back(i, j);
        }
      }
    } else {
      // Incremental: rows are current; scan keepers, then their rows.
      // Set-bit iteration (lowest first) visits j in ascending order --
      // the naive scan order, so kRandom draws identically -- and
      // skips 64 absent pairs per zero word. The diagonal bit is never
      // set, so no i == j guard is needed.
      for (ProcessId i = 0; i < n; ++i) {
        if (walker_.is_false(i) || row_count_[static_cast<size_t>(i)] == 0) continue;
        const uint64_t* row = &cross_[static_cast<size_t>(i) * words_per_row_];
        for (size_t w = 0; w < words_per_row_; ++w) {
          for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
            const auto j =
                static_cast<ProcessId>(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
            if (options_.select == SelectPolicy::kFirst) return {{i, j}};
            candidates.emplace_back(i, j);
          }
        }
        // kRandom needs only one keeper's row for an O(n) iteration cost;
        // kGreedyFarthest wants the global argmax, so keep scanning.
        if (options_.select == SelectPolicy::kRandom && !candidates.empty()) break;
      }
    }

    if (candidates.empty()) return std::nullopt;
    switch (options_.select) {
      case SelectPolicy::kFirst:
        return candidates.front();
      case SelectPolicy::kRandom:
        return candidates[rng_.index(candidates.size())];
      case SelectPolicy::kGreedyFarthest: {
        auto best = candidates.front();
        int32_t best_hi = -1;
        for (auto& c : candidates) {
          const FalseInterval& iv =
              walker_.intervals(c.second)[static_cast<size_t>(walker_.next_interval(c.second))];
          if (iv.hi > best_hi) {
            best_hi = iv.hi;
            best = c;
          }
        }
        return best;
      }
    }
    return candidates.front();
  }

  // Paper's AddControl (L14-L18).
  void add_control(ControlRelation& control, ProcessId keeper, ProcessId prev) {
    if (walker_.at_true_bottom(keeper)) {
      control.clear();  // chain (re)starts at a true bottom state
      return;
    }
    PREDCTRL_REQUIRE(prev >= 0, "chain extended before it was started");
    if (prev != keeper)
      control.push_back({walker_.g(keeper), walker_.next_state(prev)});
  }

  OfflineControlOptions options_;
  Rng rng_;
  FalseIntervalSets sets_;    // extraction output, shared by index and walker
  PackedIntervals packed_;    // slab-pointer interval index for the probes
  Walker walker_;

  // Incremental ValidPairs state: the n x n crossable matrix packed into
  // 64-bit words, each row padded to whole words (words_per_row_), refreshed
  // only for the processes whose next-interval pointer moved.
  size_t words_per_row_ = 0;
  std::vector<uint64_t> cross_;
  std::vector<int32_t> row_count_;
};

}  // namespace

OfflineControlResult control_disjunctive_offline(const Deposet& deposet,
                                                 const PredicateTable& predicate,
                                                 const OfflineControlOptions& options) {
  PREDCTRL_CHECK(static_cast<int32_t>(predicate.size()) == deposet.num_processes(),
                 "predicate table does not match deposet");
  for (ProcessId p = 0; p < deposet.num_processes(); ++p)
    PREDCTRL_CHECK(static_cast<int32_t>(predicate[static_cast<size_t>(p)].size()) ==
                       deposet.length(p),
                   "predicate row does not match process length");
  PREDCTRL_OBS_SPAN(span, "control.synthesize", "control");
  OfflineControlResult result = Algorithm(deposet, predicate, options).run();
  span.add_arg("processes", static_cast<int64_t>(deposet.num_processes()));
  span.add_arg("controllable", static_cast<int64_t>(result.controllable ? 1 : 0));
  span.add_arg("edges", static_cast<int64_t>(result.control.size()));
  PREDCTRL_OBS_COUNT("control.offline.runs", 1);
  PREDCTRL_OBS_COUNT("control.offline.iterations", result.iterations);
  PREDCTRL_OBS_COUNT("control.offline.pair_checks", result.pair_checks);
  PREDCTRL_OBS_COUNT("control.offline.intervals", result.total_intervals);
  PREDCTRL_OBS_COUNT("control.offline.edges",
                     static_cast<int64_t>(result.control.size()));
  PREDCTRL_OBS_RECORD("control.offline.synthesis_us", span.elapsed_us());
  return result;
}

std::optional<ControlledDeposet> controlled_deposet_for(
    const Deposet& deposet, const PredicateTable& predicate,
    const OfflineControlOptions& options) {
  OfflineControlResult r = control_disjunctive_offline(deposet, predicate, options);
  if (!r.controllable) return std::nullopt;
  auto cd = ControlledDeposet::create(deposet, r.control);
  PREDCTRL_REQUIRE(cd.has_value(), "offline control produced an interfering relation");
  return cd;
}

}  // namespace predctrl
