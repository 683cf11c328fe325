// The three workloads of the pipeline benchmark. Each is a pool of inputs
// generated in set-up from the workload seed, and one op drives one pool
// item through the library's public API, end to end:
//
//   debug_cycle      Section 7 off-line loop: Session::observe ->
//                    first_violation -> synthesize_control -> replay.
//   guarded_run      Section 6 on-line half: Session::observe_guarded.
//   trace_roundtrip  a recorded trace through text parse, interval
//                    extraction, save_trace, MappedTrace::open, detection,
//                    synthesis and verification of the controlled trace.
//
// run_op() times only the pipeline calls (OpResult::op_us); its correctness
// oracles run after the clock stops, on every op.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace pipebench {

struct PoolSpec {
  int32_t processes = 16;
  int32_t events_per_process = 1000;
  int32_t pool = 16;
};

/// Counts of one op that depend only on the pool item (and so only on the
/// seed). They feed the fingerprint and the deterministic end-to-end
/// metrics, and every later op on the same item must reproduce them.
struct ItemCounts {
  int64_t states = 0;
  int64_t messages = 0;
  int64_t false_intervals = 0;
  int64_t gate_requests = 0;   ///< true -> false transitions (guarded_run)
  int64_t controlled = 0;      ///< 1 iff control was synthesized and applied
  int64_t detected = 0;        ///< 1 iff a violating cut of the trace exists
  int64_t edges = 0;           ///< |C~>| of the synthesized relation
  int64_t pair_checks = 0;
  int64_t iterations = 0;
  int64_t ctl_msgs = 0;        ///< control messages paid ...
  int64_t intervals_paid = 0;  ///< ... for this many false intervals entered
  int64_t vt_base = 0;         ///< end time of the uncontrolled run
  int64_t vt_controlled = 0;   ///< end time of the controlled run
  friend bool operator==(const ItemCounts&, const ItemCounts&) = default;
};

struct OpResult {
  double op_us = 0;   ///< wall time of the pipeline calls alone
  std::string error;  ///< first failed oracle; empty when all held
  ItemCounts counts;
  /// Per-layer samples of a traced op: metric name -> value.
  std::vector<std::pair<std::string, double>> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Replaces the pool with `spec.pool` inputs generated from `seed`.
  virtual void setup(uint64_t seed, const PoolSpec& spec) = 0;
  virtual size_t pool_size() const = 0;
  /// Runs one op on pool item `item`; records spans iff `tracer` is set.
  virtual OpResult run_op(size_t item, Tracer* tracer) = 0;
};

inline const char* const kWorkloads[] = {"debug_cycle", "guarded_run", "trace_roundtrip"};

/// Pool shape of a measured run and of the smoke run.
PoolSpec measured_spec(const std::string& workload);
PoolSpec smoke_spec(const std::string& workload);

/// nullptr for an unknown name. `work_dir` receives trace_roundtrip's file.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& work_dir);

}  // namespace pipebench
