// The execution configuration that pipebench/bench_pipeline.cpp prints on
// its config line ("threads":1,"engine":"conservative"). The library has
// one serial path for every algorithm; this header exists only for that
// line and goes away with the next change to the benchmark.
#pragma once

#include <cstdint>

namespace predctrl::parallel {

enum class Engine : int32_t { kConservative };

constexpr int32_t thread_count() { return 1; }
constexpr Engine engine() { return Engine::kConservative; }
constexpr const char* engine_name(Engine) { return "conservative"; }

}  // namespace predctrl::parallel
