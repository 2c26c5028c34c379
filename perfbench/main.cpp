//===- main.cpp - The repository benchmark ---------------------------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object {"correct", "attempted", "failed", "metrics"}: the
/// end-to-end metrics untraced, the per-layer metrics traced. The
/// human-readable report goes to standard error. Exits 1 when any module
/// failed, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Run.h"
#include "Stack.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace ade::perfbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dense-kernel|build-heavy|"
               "translate-heavy|compile [--seed N] [--seconds S]"
               " [--trace 0|1]\n",
               Argv0);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  if (!*S || *S == '-')
    return false;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

void printJson(const RunReport &R) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed ? "false" : "true",
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed);
  for (size_t I = 0; I != R.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
                R.Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (I + 1 == Argc)
      return usage(Argv[0]);
    const char *Val = Argv[++I];
    uint64_t N = 0;
    if (!std::strcmp(Arg, "--workload")) {
      if (!workloadFromName(Val, C.Workload))
        return usage(Argv[0]);
      HaveWorkload = true;
    } else if (!std::strcmp(Arg, "--seed") && parseUnsigned(Val, N)) {
      C.Seed = N;
    } else if (!std::strcmp(Arg, "--seconds") && parseUnsigned(Val, N) &&
               N > 0) {
      C.Seconds = double(N);
    } else if (!std::strcmp(Arg, "--trace") && parseUnsigned(Val, N) &&
               N <= 1) {
      C.Trace = N == 1;
    } else {
      return usage(Argv[0]);
    }
  }
  if (!HaveWorkload)
    return usage(Argv[0]);

  return runWithLargeStack([&] {
    try {
      RunReport R = runWorkload(C);
      for (const std::string &F : R.Failures)
        std::fprintf(stderr, "failure: %s\n", F.c_str());
      printJson(R);
      return R.Failed ? 1 : 0;
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: %s\n", E.what());
      return 1;
    }
  });
}
