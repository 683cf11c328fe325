// Observability umbrella: the enable switch and the zero-cost macros the
// instrumentation hooks use.
//
// Two layers of gating, mirroring the PREDCTRL_LOG pattern:
//
//   * Compile time: building with -DPREDCTRL_OBS_DISABLE compiles every
//     PREDCTRL_OBS_* macro to nothing -- zero instructions added to hot
//     loops (the CMake option PREDCTRL_DISABLE_OBS sets this).
//   * Run time: recording is off by default; obs::set_enabled(true) turns
//     it on. Disabled call sites cost one load + predictable branch.
//
// Instrumented components record into the process-wide default registry
// (obs/metrics.hpp) and recorder (obs/trace_event.hpp); tools snapshot both
// with obs::write_metrics_json / obs::write_trace_json and tests reset them
// with obs::reset().
//
// Metric naming convention: `component.thing.unit{label=value}` --
//   sim.msg.latency_us{plane=control}    per-plane delivery latency
//   session.phase.observe.wall_us        Session phase wall time
//   online.scapegoat.blocked_us          Figure 3 blocking intervals
//   control.offline.synthesis_us         Figure 2 synthesis wall time
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"

#ifndef PREDCTRL_OBS_ENABLED
#ifdef PREDCTRL_OBS_DISABLE
#define PREDCTRL_OBS_ENABLED 0
#else
#define PREDCTRL_OBS_ENABLED 1
#endif
#endif

namespace predctrl::obs {

/// Runtime recording switch (metrics + trace events). The flag itself is
/// atomic so any thread may read it without a data race; the registries
/// stay single-writer -- only the thread that drives a run records.
bool enabled();
void set_enabled(bool on);

/// True iff recording is compiled in AND enabled at runtime -- the guard
/// every instrumentation site checks before touching the registry.
inline bool recording() {
#if PREDCTRL_OBS_ENABLED
  return enabled();
#else
  return false;
#endif
}

/// Clears the default registry and recorder (tests, tool runs).
void reset();

/// Writes default_metrics().to_json() / default_recorder() to `path`;
/// throws std::runtime_error if the file cannot be opened.
void write_metrics_json(const std::string& path);
void write_trace_json(const std::string& path);

/// Stand-in for ScopedSpan when recording is compiled out: every member is
/// an empty inline, so the optimizer erases the whole call site.
struct NoopSpan {
  void add_arg(const char*, int64_t) {}
  void add_arg(const char*, const std::string&) {}
  int64_t elapsed_us() const { return 0; }
};

}  // namespace predctrl::obs

// Scoped span over the enclosing block, recorded iff recording() -- usable
// as: PREDCTRL_OBS_SPAN(span, "session.observe", "session"); span is an
// obs::ScopedSpan bound to the default recorder (or a no-op).
#if PREDCTRL_OBS_ENABLED
#define PREDCTRL_OBS_SPAN(var, name, cat)                                     \
  ::predctrl::obs::ScopedSpan var(                                            \
      ::predctrl::obs::enabled() ? &::predctrl::obs::default_recorder() : nullptr, \
      (name), (cat))
#define PREDCTRL_OBS_INSTANT(name, cat, ...)                                  \
  do {                                                                        \
    if (::predctrl::obs::enabled())                                           \
      ::predctrl::obs::default_recorder().instant((name), (cat), {__VA_ARGS__}); \
  } while (false)
#define PREDCTRL_OBS_COUNT(name, delta)                                       \
  do {                                                                        \
    if (::predctrl::obs::enabled())                                           \
      ::predctrl::obs::default_metrics().counter(name).add(delta);            \
  } while (false)
#define PREDCTRL_OBS_RECORD(name, value)                                      \
  do {                                                                        \
    if (::predctrl::obs::enabled())                                           \
      ::predctrl::obs::default_metrics().histogram(name).record(value);       \
  } while (false)
#else
#define PREDCTRL_OBS_SPAN(var, name, cat) [[maybe_unused]] ::predctrl::obs::NoopSpan var
#define PREDCTRL_OBS_INSTANT(name, cat, ...) do { } while (false)
#define PREDCTRL_OBS_COUNT(name, delta) do { } while (false)
#define PREDCTRL_OBS_RECORD(name, value) do { } while (false)
#endif
