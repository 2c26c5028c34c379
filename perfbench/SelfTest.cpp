//===- SelfTest.cpp - Determinism self-test of the benchmark -------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_selftest
///
/// Runs the traced run of every workload twice, at scale 10 so it takes
/// seconds, and requires identical exact counters — checksum,
/// instructions, sparse/dense accesses and the per-category operation
/// counts (translations executed among them), probes, rehashes, peak bytes
/// — and identical pipeline counters (translations inserted and
/// eliminated, enumerations, clones). Counts repeat only if the compiler
/// and both engines are deterministic. Each traced run also holds the VM
/// to the tree walker and ADE to MEMOIR, so any failure there fails the
/// test too. Exits 0 on success.
///
//===----------------------------------------------------------------------===//

#include "Run.h"
#include "Stack.h"

#include <cstdio>
#include <exception>

using namespace ade::perfbench;

namespace {

/// The metrics that are counts; timings may differ between runs.
bool isExactMetric(const Metric &M) { return M.Unit == "count"; }

bool sameRuns(const RunReport &A, const RunReport &B, const char *Name) {
  bool Ok = true;
  if (A.Counters.size() != B.Counters.size() || A.Counters.empty()) {
    std::fprintf(stderr, "%s: %zu vs %zu counter sets\n", Name,
                 A.Counters.size(), B.Counters.size());
    return false;
  }
  for (size_t I = 0; I != A.Counters.size(); ++I)
    if (!(A.Counters[I] == B.Counters[I])) {
      std::fprintf(stderr, "%s: %s differs between runs\n", Name,
                   A.Counters[I].Label.c_str());
      Ok = false;
    }
  for (size_t I = 0; I != A.Metrics.size(); ++I)
    if (isExactMetric(A.Metrics[I]) &&
        A.Metrics[I].Value != B.Metrics[I].Value) {
      std::fprintf(stderr, "%s: %s %.0f vs %.0f\n", Name,
                   A.Metrics[I].Name.c_str(), A.Metrics[I].Value,
                   B.Metrics[I].Value);
      Ok = false;
    }
  return Ok;
}

} // namespace

int main() {
  RunConfig C;
  C.ScalePercent = 10;
  C.Seconds = 1;
  C.Trace = true;
  C.GeneratedModules = 16;

  return runWithLargeStack([&] {
    bool Ok = true;
    try {
      for (WorkloadKind K :
           {WorkloadKind::DenseKernel, WorkloadKind::BuildHeavy,
            WorkloadKind::TranslateHeavy, WorkloadKind::Compile}) {
        C.Workload = K;
        RunReport First = runWorkload(C);
        RunReport Second = runWorkload(C);
        bool Same = sameRuns(First, Second, workloadName(K));
        bool Clean = First.Failed == 0 && Second.Failed == 0;
        std::fprintf(stderr, "selftest %s: %zu counter sets %s, %s\n",
                     workloadName(K), First.Counters.size(),
                     Same ? "identical" : "DIFFER",
                     Clean ? "no failures" : "FAILURES");
        Ok = Ok && Same && Clean;
      }
    } catch (const std::exception &E) {
      std::fprintf(stderr, "selftest: %s\n", E.what());
      Ok = false;
    }
    std::fprintf(stderr, "selftest %s\n", Ok ? "passed" : "FAILED");
    return Ok ? 0 : 1;
  });
}
