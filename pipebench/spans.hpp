// In-memory span recorder for the benchmark's traced run.
//
// A Scope opens a span around one public library call: name, start, end,
// parent and thread-CPU time (so wall minus CPU shows time spent waiting, as
// in fdatasync). Spans of one op share the op's number. Nothing is written
// while the run measures; write_chrome_json() dumps every span once at the
// end in Chrome trace_event format, the same viewer format as
// `predctl_tool --trace-out`.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

namespace pipebench {

inline int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Span {
  std::string name;
  int64_t op = -1;      ///< op the span belongs to; -1 outside any op
  int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;
};

class Tracer {
 public:
  Tracer() : epoch_ns_(wall_ns()) {}

  /// Spans opened from now on belong to op `op`.
  void set_op(int64_t op) { op_ = op; }

  int32_t open(std::string name, int64_t start_ns) {
    Span s;
    s.name = std::move(name);
    s.op = op_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = start_ns;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int32_t index, int64_t end_ns, int64_t cpu_ns) {
    Span& s = spans_[static_cast<size_t>(index)];
    s.end_ns = end_ns;
    s.cpu_ns = cpu_ns;
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// {"traceEvents":[...]}: one complete ("X") event per span, timestamps
  /// in microseconds since the tracer was created.
  void write_chrome_json(std::ostream& os) const {
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\"pipebench\"}}";
    for (const Span& s : spans_) {
      os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"pipebench\",\"ph\":\"X\""
         << ",\"pid\":1,\"tid\":1,\"ts\":" << (s.start_ns - epoch_ns_) / 1e3
         << ",\"dur\":" << (s.end_ns - s.start_ns) / 1e3 << ",\"args\":{\"op\":" << s.op
         << ",\"cpu_us\":" << s.cpu_ns / 1e3 << ",\"parent\":\""
         << (s.parent < 0 ? std::string() : spans_[static_cast<size_t>(s.parent)].name)
         << "\"}}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  int64_t epoch_ns_;
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// Times one block. The wall time is always measured (the untraced run uses
/// it for the op time); a span is recorded only when `tracer` is non-null.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) cpu_start_ = thread_cpu_ns();
    start_ = wall_ns();
    if (tracer_ != nullptr) index_ = tracer_->open(name, start_);
  }
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span (idempotent) and returns its wall time in microseconds.
  double stop() {
    if (end_ < 0) {
      end_ = wall_ns();
      if (tracer_ != nullptr) {
        cpu_ = thread_cpu_ns() - cpu_start_;
        tracer_->close(index_, end_, cpu_);
      }
    }
    return (end_ - start_) / 1e3;
  }
  /// Thread-CPU microseconds of a stopped span (0 when untraced).
  double cpu_us() const { return cpu_ / 1e3; }

 private:
  Tracer* tracer_;
  int64_t start_ = 0;
  int64_t end_ = -1;
  int64_t cpu_start_ = 0;
  int64_t cpu_ = 0;
  int32_t index_ = -1;
};

}  // namespace pipebench
