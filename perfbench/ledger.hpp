// Per-layer ledger for the traced run.
//
// Every traced run measures the same ledger, whatever its workload:
// each metric is measured on the inputs of the workload it should move
// (its "home" workload, see perfbench/README.md), generated from the
// run's seed. Timings come from spans and clocks around public calls
// made here; counts are deltas of the obs::global_registry() counters
// the program publishes.
#pragma once

#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::vector<Metric> measure_layers(const Options& options, Tracer& tracer);

}  // namespace perfbench
