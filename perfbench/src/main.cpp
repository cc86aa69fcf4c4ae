/// \file main.cpp
/// perfbench: the repository benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <chrome-trace.json>]
///
/// Prints a provenance line, then, as its last line, one JSON object
/// with exactly `correct`, `attempted`, `failed` and `metrics`: the
/// end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1. Exits 1 when any check failed, 2 on a usage error and 3
/// when the build is not one whose numbers may be reported (not
/// optimized, or sanitizer-instrumented).
#include <unistd.h>

#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "common/build_info.hpp"
#include "common/parse.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using perfbench::json_string;

/// Why this build may not report numbers; empty when it may.
std::string build_refusal() {
  const pclass::common::BuildInfo& b = pclass::common::build_info();
  if (b.build_type != "Release" && b.build_type != "RelWithDebInfo") {
    return "library build type is '" + b.build_type + "'";
  }
#ifndef __OPTIMIZE__
  return "benchmark compiled without optimization";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "benchmark compiled with a sanitizer";
#endif
  if (std::string_view(PERFBENCH_FLAGS).find("-fsanitize") !=
      std::string_view::npos) {
    return "build flags enable a sanitizer";
  }
  return {};
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-out <file>]\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string v = argv[++i];
    pclass::u64 n = 0;
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--trace-out") {
      opts.trace_path = v;
    } else if (!pclass::parse_count(v, n)) {
      return usage("bad number");
    } else if (a == "--seed") {
      opts.seed = n;
    } else if (a == "--seconds") {
      opts.seconds = static_cast<double>(n);
    } else if (a == "--trace") {
      opts.trace = n != 0;
    } else {
      return usage("unknown option");
    }
  }
  if (opts.workload.empty() || opts.seconds <= 0) {
    return usage("--workload and a positive --seconds are required");
  }

  if (const std::string why = build_refusal(); !why.empty()) {
    std::cerr << "perfbench: refusing to report: " << why << '\n';
    return 3;
  }

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << ": " << e.what() << '\n';
    return 1;
  }

  const pclass::common::BuildInfo& b = pclass::common::build_info();
  std::cout << "{\"provenance\": {\"workload\": " << json_string(opts.workload)
            << ", \"seed\": " << opts.seed << ", \"seconds\": " << opts.seconds
            << ", \"trace\": " << (opts.trace ? 1 : 0)
            << ", \"git_sha\": " << json_string(b.git_sha)
            << ", \"build_type\": " << json_string(b.build_type)
            << ", \"compiler\": " << json_string(b.compiler)
            << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN);
  for (const auto& [k, v] : r.info) {
    std::cout << ", " << json_string(k) << ": " << json_string(v);
  }
  std::cout << "}}\n";
  for (const std::string& m : r.ledger.messages()) {
    std::cerr << "perfbench: check failed: " << m << '\n';
  }
  std::cout << perfbench::result_line(r.ledger, r.metrics) << std::endl;
  return r.ledger.correct() ? 0 : 1;
}
