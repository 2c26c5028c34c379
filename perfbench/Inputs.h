//===- Inputs.h - Seeded benchmark inputs and workload membership -*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the repository benchmark runs: the four workloads, which suite
/// programs each holds, and every input made from a workload seed. Each
/// input is the program's own bench::BenchmarkSpec::MakeInput input (the
/// public generators of bench/Workloads.h); the workload seed then renames
/// the nodes through a seeded bijection on their labels. Seed 0 is the identity, so it reproduces MakeInput's
/// inputs and `fig5_main`'s checksums at the same scale; other seeds keep
/// each graph's shape (and so its work) but change every label, hash
/// layout and hash iteration order.
///
//===----------------------------------------------------------------------===//

#ifndef ADE_PERFBENCH_INPUTS_H
#define ADE_PERFBENCH_INPUTS_H

#include "bench/Benchmarks.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ade {
namespace perfbench {

/// The benchmark's workloads (see perfbench/README.md for why each one
/// exists and the rule that assigns programs to the first three).
enum class WorkloadKind { DenseKernel, BuildHeavy, TranslateHeavy, Compile };

/// "dense-kernel", "build-heavy", "translate-heavy" or "compile".
const char *workloadName(WorkloadKind K);

/// Parses a workloadName(); false when \p Name names no workload.
bool workloadFromName(const std::string &Name, WorkloadKind &K);

/// The input scale \p K runs at: the compile workload executes the suite
/// on its smallest inputs, so that compilation dominates.
uint64_t workloadScale(WorkloadKind K, uint64_t ScalePercent);

/// One suite program with its seeded input.
struct ProgramInput {
  const bench::BenchmarkSpec *Spec = nullptr;
  bench::Workload Input;
  /// Distinct node labels in the input's A and B arrays.
  uint64_t Nodes = 0;
  /// The interpreted call-depth budget, as a user would pass
  /// `--max-depth`: a recursive search over the input's graph visits each
  /// node at most once per path, so one frame per node plus headroom
  /// bounds it. Never below the library default.
  uint64_t MaxDepth = 0;
};

/// The suite programs of \p K (the whole suite for the compile workload),
/// with inputs at workloadScale(K, ScalePercent) made from \p Seed.
std::vector<ProgramInput> makeProgramInputs(WorkloadKind K,
                                            uint64_t ScalePercent,
                                            uint64_t Seed);

/// The compile workload's seeded draw of \p Count generated modules
/// (fuzz::generateProgram, valid mode).
std::vector<std::string> generatedModules(uint64_t Seed, unsigned Count);

} // namespace perfbench
} // namespace ade

#endif // ADE_PERFBENCH_INPUTS_H
