// Allocation budget of the simulator hot path. This binary replaces the
// global operator new with a counting one, so it stays a test of its own:
// every other suite keeps the library's allocator untouched.
//
// The engine keeps a heap of (time, seq, slot) keys over recycled payload
// slots and the scripted processes keep flat per-sender inboxes, so a run
// allocates well under once per processed event -- what remains is the
// clock piggybacked on each application message and the run's one-off
// buffers. A regression back to per-event containers (a multiset node per
// timer, a map node per message, a VarMap per state) would cross the bound.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "control/offline_disjunctive.hpp"
#include "control/strategy.hpp"
#include "runtime/scripted.hpp"
#include "trace/random_trace.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PREDCTRL_COUNT_ALLOCS 0  // the sanitizer owns operator new
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PREDCTRL_COUNT_ALLOCS 0
#endif
#endif
#ifndef PREDCTRL_COUNT_ALLOCS
#define PREDCTRL_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

#if PREDCTRL_COUNT_ALLOCS
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace predctrl::sim {
namespace {

struct Budget {
  int64_t allocations = 0;
  int64_t events = 0;
  double per_event() const { return static_cast<double>(allocations) / events; }
};

Budget measure(const ScriptedSystem& system, const ControlStrategy* strategy) {
  SimOptions opt;
  opt.seed = 5;
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult run = run_scripts(system, opt, strategy);
  const int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_FALSE(run.deadlocked);
  return {after - before, run.stats.events_processed};
}

class SimAllocation : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!PREDCTRL_COUNT_ALLOCS) GTEST_SKIP() << "allocation counting is off under ASan and TSan";
    // 16 processes x 1000 events, the debugging-cycle benchmark's shape.
    Rng rng(11);
    deposet_ = random_deposet({16, 1000, 0.3, 0.5}, rng);
    table_ = random_predicate_table(deposet_, {0.05, 0.1}, rng);
    system_ = scripts_from_deposet(deposet_, &table_, rng);
  }

  Deposet deposet_;
  PredicateTable table_;
  ScriptedSystem system_;
};

TEST_F(SimAllocation, ObserveStaysUnderOneAllocationPerEvent) {
  const Budget b = measure(system_, nullptr);
  EXPECT_GT(b.events, 16 * 1000);
  EXPECT_LT(b.per_event(), 1.0) << b.allocations << " allocations for " << b.events
                                << " events";
}

TEST_F(SimAllocation, ReplayStaysUnderOneAllocationPerEvent) {
  const OfflineControlResult control = control_disjunctive_offline(deposet_, table_);
  ASSERT_TRUE(control.controllable);
  ASSERT_FALSE(control.control.empty());
  const ControlStrategy strategy = ControlStrategy::compile(deposet_, control.control);
  const Budget b = measure(system_, &strategy);
  EXPECT_GT(b.events, 16 * 1000);
  EXPECT_LT(b.per_event(), 1.0) << b.allocations << " allocations for " << b.events
                                << " events";
}

}  // namespace
}  // namespace predctrl::sim
