//===- Run.h - One benchmark run over one workload --------------*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run of the benchmark: compile the workload's modules, set up its
/// inputs several times, execute under the memoir and ade configurations
/// for the time budget, check every output, and reduce the samples to the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced
/// run). See perfbench/README.md for the metric definitions.
///
//===----------------------------------------------------------------------===//

#ifndef ADE_PERFBENCH_RUN_H
#define ADE_PERFBENCH_RUN_H

#include "Inputs.h"

#include "runtime/Stats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ade {
namespace perfbench {

struct RunConfig {
  WorkloadKind Workload = WorkloadKind::DenseKernel;
  uint64_t Seed = 0;
  /// Time budget of the timed phases (compile and execution).
  double Seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Input size, percent of the evaluation size.
  uint64_t ScalePercent = 100;
  /// Generated modules drawn for the compile workload.
  unsigned GeneratedModules = 512;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The exact counters of one executed module under one configuration
/// and engine; two traced runs of one seed must agree on all of them.
struct ExactCounters {
  std::string Label; // "<module>/<config>/<engine>".
  uint64_t Checksum = 0;
  runtime::InterpStats Build, Kernel;
  uint64_t Probes = 0;
  uint64_t Rehashes = 0;
  uint64_t PeakBytes = 0;

  bool operator==(const ExactCounters &O) const;
};

struct RunReport {
  /// Modules attempted and modules with any failure (trap, checksum
  /// mismatch, engine disagreement, parse or verify failure).
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// One line per failure.
  std::vector<std::string> Failures;
  /// Traced runs only.
  std::vector<ExactCounters> Counters;
};

/// Runs \p C, writing a human-readable report to stderr.
RunReport runWorkload(const RunConfig &C);

} // namespace perfbench
} // namespace ade

#endif // ADE_PERFBENCH_RUN_H
