/// \file workloads.hpp
/// The benchmark's workloads. Each one generates its rules, packets and
/// update schedule from a seed, builds the device through the public
/// publisher API, drives it through the production dataplane objects,
/// checks every output against the LinearSearch oracle, and returns the
/// metrics of either the untraced end-to-end run or the traced
/// per-layer run.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its chrome trace (empty: not written).
  std::string trace_path;
};

struct RunResult {
  Ledger ledger;
  std::vector<Metric> metrics;
  /// Provenance of the run (thread counts, input sizes), as key/value.
  std::vector<std::pair<std::string, std::string>> info;
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload. \throws pclass::ConfigError for an unknown name.
[[nodiscard]] RunResult run_workload(const Options& opts);

}  // namespace perfbench
