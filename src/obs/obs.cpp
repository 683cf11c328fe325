#include "obs/obs.hpp"

#include <atomic>
#include <fstream>
#include <stdexcept>

namespace predctrl::obs {

namespace {
// Atomic so any thread may *read* the flag data-race-free while one thread
// owns all registry writes; relaxed is enough, the flag carries no release
// payload.
std::atomic<bool> g_enabled{false};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void reset() {
  default_metrics().clear();
  default_recorder().clear();
}

namespace {
std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  return out;
}
}  // namespace

void write_metrics_json(const std::string& path) {
  open_or_throw(path) << default_metrics().to_json() << '\n';
}

void write_trace_json(const std::string& path) {
  std::ofstream out = open_or_throw(path);
  default_recorder().write(out);
  out << '\n';
}

}  // namespace predctrl::obs
