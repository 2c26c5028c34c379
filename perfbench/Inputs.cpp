//===- Inputs.cpp - Seeded benchmark inputs and workload membership -------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "fuzz/Generator.h"
#include "interp/Interpreter.h"
#include "support/Random.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

using namespace ade;
using namespace ade::bench;
using namespace ade::perfbench;

const char *ade::perfbench::workloadName(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::DenseKernel:
    return "dense-kernel";
  case WorkloadKind::BuildHeavy:
    return "build-heavy";
  case WorkloadKind::TranslateHeavy:
    return "translate-heavy";
  case WorkloadKind::Compile:
    return "compile";
  }
  return "?";
}

bool ade::perfbench::workloadFromName(const std::string &Name,
                                      WorkloadKind &K) {
  for (WorkloadKind C :
       {WorkloadKind::DenseKernel, WorkloadKind::BuildHeavy,
        WorkloadKind::TranslateHeavy, WorkloadKind::Compile})
    if (Name == workloadName(C)) {
      K = C;
      return true;
    }
  return false;
}

uint64_t ade::perfbench::workloadScale(WorkloadKind K, uint64_t ScalePercent) {
  return K == WorkloadKind::Compile ? 1 : ScalePercent;
}

namespace {

/// Suite programs (bench::allBenchmarks abbreviations) of \p K.
const std::vector<std::string> &workloadPrograms(WorkloadKind K) {
  // Assigned by the measured rule in README.md ("Workloads"); the traced
  // run re-applies the rule and reports any program that has drifted.
  static const std::vector<std::string> Dense = {"BC",  "BP",  "FIM",
                                                 "MCBM", "PR", "PTA"};
  static const std::vector<std::string> Build = {"BFS", "IS", "KC", "SSSP",
                                                 "TC"};
  static const std::vector<std::string> Translate = {"CC", "CD", "KT",
                                                     "MST", "PP"};
  static const std::vector<std::string> All = [] {
    std::vector<std::string> Names;
    for (const BenchmarkSpec &B : allBenchmarks())
      Names.push_back(B.Abbrev);
    return Names;
  }();
  switch (K) {
  case WorkloadKind::DenseKernel:
    return Dense;
  case WorkloadKind::BuildHeavy:
    return Build;
  case WorkloadKind::TranslateHeavy:
    return Translate;
  case WorkloadKind::Compile:
    return All;
  }
  return All;
}

/// A bijection on odd 64-bit labels drawn from \p Seed (the identity for
/// Seed 0). Suite labels are odd, so the image is never the 0 that
/// programs may use as an "absent" sentinel.
struct Relabel {
  uint64_t Mask = 0; // Even, so parity is kept.
  uint64_t Mul = 1;  // Odd, so multiplication is invertible mod 2^64.

  explicit Relabel(uint64_t Seed) {
    if (Seed == 0)
      return;
    Rng R(Seed);
    Mask = R.next() & ~uint64_t(1);
    Mul = R.next() | 1;
  }
  uint64_t operator()(uint64_t Label) const { return (Label ^ Mask) * Mul; }
  void apply(std::vector<uint64_t> &Labels) const {
    for (uint64_t &L : Labels)
      L = (*this)(L);
  }
};

/// \p Spec's MakeInput input at scale \p S percent, relabeled by \p Seed;
/// Seed 0 gives MakeInput's own input.
Workload makeInput(const BenchmarkSpec &Spec, uint64_t S, uint64_t Seed) {
  Workload W = Spec.MakeInput(S);
  // A and B hold node (FIM: item; PTA: pointer and object) labels in
  // every recipe; C holds weights, capacities, offsets or kinds. P0 is a
  // node label (the source) in BFS, SSSP and PP, and P1 (the sink) in PP.
  bool LabelP0 = Spec.Abbrev == "BFS" || Spec.Abbrev == "SSSP" ||
                 Spec.Abbrev == "PP";
  bool LabelP1 = Spec.Abbrev == "PP";
  Relabel L(Seed);
  L.apply(W.A);
  L.apply(W.B);
  if (LabelP0)
    W.P0 = L(W.P0);
  if (LabelP1)
    W.P1 = L(W.P1);
  return W;
}

uint64_t countNodes(const Workload &W) {
  std::unordered_set<uint64_t> Nodes(W.A.begin(), W.A.end());
  Nodes.insert(W.B.begin(), W.B.end());
  return Nodes.size();
}

} // namespace

std::vector<ProgramInput>
ade::perfbench::makeProgramInputs(WorkloadKind K, uint64_t ScalePercent,
                                  uint64_t Seed) {
  std::vector<ProgramInput> Inputs;
  for (const std::string &Abbrev : workloadPrograms(K)) {
    ProgramInput P;
    P.Spec = findBenchmark(Abbrev);
    if (!P.Spec)
      throw std::invalid_argument("no suite program " + Abbrev);
    P.Input = makeInput(*P.Spec, workloadScale(K, ScalePercent), Seed);
    P.Nodes = countNodes(P.Input);
    P.MaxDepth =
        std::max<uint64_t>(interp::InterpOptions().MaxDepth, P.Nodes + 64);
    Inputs.push_back(std::move(P));
  }
  return Inputs;
}

std::vector<std::string> ade::perfbench::generatedModules(uint64_t Seed,
                                                          unsigned Count) {
  std::vector<std::string> Sources;
  for (unsigned I = 0; I != Count; ++I) {
    fuzz::GeneratorOptions Opts;
    Opts.Seed = Seed * 100003 + I;
    Sources.push_back(fuzz::generateProgram(Opts));
  }
  return Sources;
}
