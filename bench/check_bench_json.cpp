// Validates a BENCH_*.json results file against the predctrl-bench-v1
// schema (see bench_common.hpp), and optionally compares it against a
// committed baseline snapshot (bench/baselines/).
//
//   check_bench_json <BENCH_x.json>
//   check_bench_json [--baseline=FILE] [--baseline-dir=DIR] [--tolerance=F]
//                    [--hard] <BENCH_x.json>
//
// --baseline names one snapshot file directly; --baseline-dir points at a
// rolling-history directory (bench/baselines/): DIR/LATEST names the most
// recent committed snapshot <snap>, and the baseline resolves to
// DIR/<snap>/BENCH_<bench>.json for the fresh file's "bench" field, so
// regressions show as trends against the previous snapshot without anyone
// updating per-bench paths. A missing LATEST or snapshot file skips the
// comparison (exit 0), like a missing --baseline file.
//
// Schema violations always exit 1. With a resolved baseline, every counter
// that appears in both files under the same result name is compared:
//
//   * higher-is-better counters (names containing per_sec, speedup,
//     throughput) regress when  fresh < baseline * (1 - tolerance);
//   * lower-is-better counters (names containing bytes, _checks, _ns,
//     _us, _ms) regress when    fresh > baseline * (1 + tolerance);
//   * anything else is reported informationally, never as a regression.
//
// Regressions print WARNING lines and exit 0 -- the bench-smoke ctest
// label runs tiny workloads whose timings are noisy, so the comparison is
// a tripwire, not a gate. --hard turns regressions into exit 1 for use on
// a quiet bench host with full workloads. A missing baseline file is
// skipped silently (first run, or a brand-new bench).
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

using predctrl::obs::Json;

namespace {

[[noreturn]] void fail(const std::string& why) {
  std::cerr << "check_bench_json: " << why << "\n";
  std::exit(1);
}

const Json& require(const Json& obj, const std::string& key, Json::Kind kind,
                    const std::string& where) {
  const Json* v = obj.find(key);
  if (!v) fail(where + ": missing key \"" + key + "\"");
  if (v->kind() != kind) fail(where + ": key \"" + key + "\" has wrong type");
  return *v;
}

// Parses and schema-checks one results file; exits 1 on any violation.
Json load_and_validate(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();

  Json doc;
  try {
    doc = predctrl::obs::json_parse(os.str());
  } catch (const std::exception& e) {
    fail(path + ": invalid JSON: " + e.what());
  }
  if (!doc.is_object()) fail(path + ": top level is not an object");

  if (require(doc, "schema", Json::Kind::kString, "top level").as_string() !=
      "predctrl-bench-v1")
    fail("schema id is not \"predctrl-bench-v1\"");
  if (require(doc, "bench", Json::Kind::kString, "top level").as_string().empty())
    fail("\"bench\" is empty");
  require(doc, "smoke", Json::Kind::kBool, "top level");
  // "engine" is no longer written, but the committed baseline snapshots
  // taken while the library had two execution engines carry it. Optional
  // -- but when present it must be a known engine name (a typo here would
  // silently mislabel a whole snapshot).
  if (const Json* engine = doc.find("engine")) {
    if (!engine->is_string()) fail("top level: key \"engine\" has wrong type");
    if (engine->as_string() != "conservative" && engine->as_string() != "optimistic")
      fail("\"engine\" is not conservative|optimistic");
  }

  const Json& results = require(doc, "results", Json::Kind::kArray, "top level");
  if (results.as_array().empty()) fail("\"results\" is empty (no benchmark ran)");

  size_t i = 0;
  for (const Json& run : results.as_array()) {
    const std::string where = "results[" + std::to_string(i++) + "]";
    if (!run.is_object()) fail(where + " is not an object");
    if (require(run, "name", Json::Kind::kString, where).as_string().empty())
      fail(where + ": empty \"name\"");
    const std::string rt = require(run, "run_type", Json::Kind::kString, where).as_string();
    if (rt != "iteration" && rt != "aggregate")
      fail(where + ": run_type \"" + rt + "\" not iteration|aggregate");
    if (require(run, "iterations", Json::Kind::kNumber, where).as_int() < 0)
      fail(where + ": negative iterations");
    if (require(run, "real_time_ns", Json::Kind::kNumber, where).as_double() < 0)
      fail(where + ": negative real_time_ns");
    if (require(run, "cpu_time_ns", Json::Kind::kNumber, where).as_double() < 0)
      fail(where + ": negative cpu_time_ns");
    if (require(run, "error", Json::Kind::kBool, where).as_bool())
      fail(where + ": benchmark reported an error");
    require(run, "counters", Json::Kind::kObject, where);
  }
  return doc;
}

bool contains_any(const std::string& name, std::initializer_list<const char*> needles) {
  for (const char* n : needles)
    if (name.find(n) != std::string::npos) return true;
  return false;
}

enum class Direction { kHigherBetter, kLowerBetter, kInformational };

Direction counter_direction(const std::string& name) {
  // Flight-recorder cost counters (bench_flight_recorder): the recorder
  // must stay cheap, so its percentage slowdown is lower-better. Classified
  // before the fault-neutral rule -- flight_* counters measure recorder
  // cost even when a fault plan drives the workload. Raw flight event
  // counts stay informational (more recorded events is not a regression);
  // flight_*_per_sec throughputs fall through to the generic per_sec rule.
  if (contains_any(name, {"overhead_pct"})) return Direction::kLowerBetter;
  if (contains_any(name, {"flight_events", "flight_dropped"}))
    return Direction::kInformational;
  // Fault-plane accounting is direction-neutral and must be classified
  // FIRST: "retransmit_backoff_us" or "dropped_bytes" would otherwise match
  // a lower-better suffix, yet more retransmits under a harsher fault plan
  // is correct behavior, not a regression.
  // corrupt / partition / quarantine / nak counters joined this list with
  // the adversarial plane v2: "corrupted_messages" or "partition_drops"
  // growing under a harsher plan is the plan working, and the suffix
  // heuristics below would misread their _us / dropped shapes.
  if (contains_any(name, {"retransmit", "dropped", "duplicate", "give_up", "fault",
                          "crash", "corrupt", "partition", "quarantine", "nak"}))
    return Direction::kInformational;
  // Slicing counters (bench_slicing, bench_sgsd_np): a bigger lattice
  // reduction ratio means the slice cut away more of the search space, and
  // fewer cuts visited means the search did less work. cuts_pruned stays
  // neutral -- rejecting MORE neighbors cheaply is how the slice wins, but
  // rejecting fewer because the lattice itself shrank is equally fine.
  if (contains_any(name, {"reduction_ratio"})) return Direction::kHigherBetter;
  if (contains_any(name, {"cuts_pruned"})) return Direction::kInformational;
  if (contains_any(name, {"cuts_visited"})) return Direction::kLowerBetter;
  if (contains_any(name, {"per_sec", "speedup", "throughput"}))
    return Direction::kHigherBetter;
  if (contains_any(name, {"bytes", "_checks", "_ns", "_us", "_ms"}))
    return Direction::kLowerBetter;
  return Direction::kInformational;
}

const Json* find_result(const Json& doc, const std::string& name) {
  for (const Json& run : doc.find("results")->as_array()) {
    const Json* n = run.find("name");
    if (n && n->is_string() && n->as_string() == name) return &run;
  }
  return nullptr;
}

// Compares fresh counters against the baseline; returns the regression count.
int compare_to_baseline(const Json& fresh, const Json& baseline, double tolerance) {
  int regressions = 0;
  int compared = 0;
  for (const Json& run : fresh.find("results")->as_array()) {
    const std::string name = run.find("name")->as_string();
    const Json* base_run = find_result(baseline, name);
    if (!base_run) continue;  // new case, nothing to compare against
    const Json* base_counters = base_run->find("counters");
    if (!base_counters || !base_counters->is_object()) continue;
    for (const auto& [counter, value] : run.find("counters")->as_object()) {
      const Json* base_value = base_counters->find(counter);
      if (!base_value || !base_value->is_number() || !value.is_number()) continue;
      const double fresh_v = value.as_double();
      const double base_v = base_value->as_double();
      ++compared;
      const Direction dir = counter_direction(counter);
      bool regressed = false;
      if (dir == Direction::kHigherBetter)
        regressed = fresh_v < base_v * (1.0 - tolerance);
      else if (dir == Direction::kLowerBetter)
        regressed = base_v >= 0 && fresh_v > base_v * (1.0 + tolerance);
      if (regressed) {
        ++regressions;
        std::cout << "WARNING: regression in " << name << " counter \"" << counter
                  << "\": baseline " << base_v << " -> fresh " << fresh_v
                  << " (tolerance " << tolerance * 100 << "%)\n";
      }
    }
  }
  std::cout << "baseline comparison: " << compared << " counters compared, " << regressions
            << " regressed\n";
  return regressions;
}

}  // namespace

// Resolves DIR/LATEST -> DIR/<snap>/BENCH_<bench>.json; empty string when
// the directory has no usable snapshot (first run, fresh checkout).
std::string resolve_baseline_dir(const std::string& dir, const std::string& bench) {
  std::ifstream latest(dir + "/LATEST");
  if (!latest) {
    std::cout << "no " << dir << "/LATEST, comparison skipped\n";
    return {};
  }
  std::string snap;
  std::getline(latest, snap);
  while (!snap.empty() && (snap.back() == '\n' || snap.back() == '\r' || snap.back() == ' '))
    snap.pop_back();
  if (snap.empty()) {
    std::cout << dir << "/LATEST is empty, comparison skipped\n";
    return {};
  }
  return dir + "/" + snap + "/BENCH_" + bench + ".json";
}

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string baseline_dir;
  double tolerance = 0.5;  // smoke workloads are noisy; generous by default
  bool hard = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--baseline=", 0) == 0)
      baseline_path = arg.substr(11);
    else if (arg.rfind("--baseline-dir=", 0) == 0)
      baseline_dir = arg.substr(15);
    else if (arg.rfind("--tolerance=", 0) == 0)
      tolerance = std::stod(arg.substr(12));
    else if (arg == "--hard")
      hard = true;
    else if (arg.rfind("--", 0) == 0)
      fail("unknown flag " + arg);
    else
      files.push_back(arg);
  }
  if (files.size() != 1) {
    std::cerr << "usage: check_bench_json [--baseline=FILE] [--baseline-dir=DIR] "
                 "[--tolerance=F] [--hard] <BENCH_x.json>\n";
    return 2;
  }

  const Json doc = load_and_validate(files[0]);
  std::cout << "ok: " << files[0] << " (" << doc.find("results")->as_array().size()
            << " runs)\n";

  if (baseline_path.empty() && !baseline_dir.empty())
    baseline_path = resolve_baseline_dir(baseline_dir, doc.find("bench")->as_string());

  if (!baseline_path.empty()) {
    std::ifstream probe(baseline_path);
    if (!probe) {
      std::cout << "no baseline at " << baseline_path << ", comparison skipped\n";
      return 0;
    }
    probe.close();
    const Json baseline = load_and_validate(baseline_path);
    const int regressions = compare_to_baseline(doc, baseline, tolerance);
    if (hard && regressions > 0) return 1;
  }
  return 0;
}
