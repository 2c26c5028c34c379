//===- Run.cpp - One benchmark run over one workload ----------------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Run.h"

#include "Measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>

using namespace ade;
using namespace ade::perfbench;
using Clock = std::chrono::steady_clock;

bool ExactCounters::operator==(const ExactCounters &O) const {
  auto SameStats = [](const runtime::InterpStats &A,
                      const runtime::InterpStats &B) {
    return A.Sparse == B.Sparse && A.Dense == B.Dense &&
           A.InstructionsExecuted == B.InstructionsExecuted &&
           std::equal(std::begin(A.ByCategory), std::end(A.ByCategory),
                      std::begin(B.ByCategory));
  };
  return Checksum == O.Checksum && SameStats(Build, O.Build) &&
         SameStats(Kernel, O.Kernel) && Probes == O.Probes &&
         Rehashes == O.Rehashes && PeakBytes == O.PeakBytes;
}

namespace {

void logf(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

/// The highest of p50/p75/p90/p95/p99 with at least ten samples beyond
/// it, as "pNN=value"; "-" when there are fewer than twenty samples.
std::string tail(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const double Pcts[] = {99, 95, 90, 75, 50};
  for (double P : Pcts) {
    double Beyond = double(V.size()) * (100 - P) / 100;
    if (Beyond < 10)
      continue;
    size_t Rank = size_t(std::ceil(P / 100 * double(V.size())));
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "p%.0f=%.3f", P,
                  V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)]);
    return Buf;
  }
  return "-";
}

/// One timing and the interval it was taken in, on HostProbe's clock.
struct Sample {
  double Ms = 0;
  double FromMs = 0, ToMs = 0;
};

/// One module of the workload: a suite program or a generated module.
struct Unit {
  std::string Name;
  std::string Source;
  /// Input of a suite program; null for generated modules, which are
  /// compiled but not executed.
  const ProgramInput *In = nullptr;
  uint64_t MaxDepth = 0;
  /// Key-set size for the translation cost measurement.
  uint64_t Keys = 0;
  /// First failure; empty while healthy.
  std::string Failure;

  CompiledModule Ade, Memoir;
  /// ADE compile samples, per layer and per pass.
  std::vector<Sample> CompileMs, ParseMs, AdeMs, VmMs;
  std::map<std::string, std::vector<Sample>> PassMs;

  /// Untraced execution samples.
  std::vector<Sample> AdeRoi, AdeTotal, MemRoi, MemTotal;
  uint64_t AdePeak = 0, MemPeak = 0;
  uint64_t Checksum = 0;
  unsigned Pairs = 0;
  double SpentMs = 0;

  /// Traced run results, and when they were taken.
  ExecResult AdeTraced, MemTraced;
  TranslationCost Cost;
  double TracedFromMs = 0, TracedToMs = 0;

  bool executes() const { return In != nullptr; }
  bool healthy() const { return Failure.empty(); }
};

class WorkloadRun {
public:
  explicit WorkloadRun(const RunConfig &C) : C(C) {}
  RunReport run();

private:
  void fail(Unit &U, const std::string &Msg);
  void makeUnits();
  double compilePhase(double BudgetS);
  double setupPhase();
  void execPair(Unit &U);
  void execPhase(double BudgetS);
  void tracedPhase();
  void reportUnits() const;
  void endToEnd(RunReport &R, double SetupS) const;
  void perLayer(RunReport &R) const;
  void checkWorkloadRule() const;
  /// \p S's timings divided by the host probe factor around each.
  std::vector<double> normalized(const std::vector<Sample> &S) const;
  double normMedian(const std::vector<Sample> &S) const {
    return median(normalized(S));
  }

  const RunConfig &C;
  std::vector<ProgramInput> Inputs;
  std::vector<std::string> Generated;
  std::vector<Unit> Units;
  uint64_t RssAfterFirstRound = 0;
  std::vector<ExactCounters> Counters;
  HostProbe Probe;
};

std::vector<double> rawMs(const std::vector<Sample> &S) {
  std::vector<double> Ms;
  for (const Sample &X : S)
    Ms.push_back(X.Ms);
  return Ms;
}

std::vector<double>
WorkloadRun::normalized(const std::vector<Sample> &S) const {
  std::vector<double> Ms;
  for (const Sample &X : S)
    Ms.push_back(X.Ms / Probe.factorAround(X.FromMs, X.ToMs));
  return Ms;
}

void WorkloadRun::fail(Unit &U, const std::string &Msg) {
  logf("FAIL %s: %s\n", U.Name.c_str(), Msg.c_str());
  if (U.Failure.empty())
    U.Failure = Msg;
}

void WorkloadRun::makeUnits() {
  Inputs = makeProgramInputs(C.Workload, C.ScalePercent, C.Seed);
  for (const ProgramInput &P : Inputs) {
    Unit U;
    U.Name = P.Spec->Abbrev;
    U.Source = P.Spec->Source;
    U.In = &P;
    U.MaxDepth = P.MaxDepth;
    U.Keys = P.Nodes;
    Units.push_back(std::move(U));
  }
  if (C.Workload != WorkloadKind::Compile)
    return;
  Generated = generatedModules(C.Seed, C.GeneratedModules);
  for (size_t I = 0; I != Generated.size(); ++I) {
    Unit U;
    U.Name = "gen" + std::to_string(I);
    U.Source = Generated[I];
    Units.push_back(std::move(U));
  }
}

double WorkloadRun::compilePhase(double BudgetS) {
  constexpr unsigned MinRounds = 3;
  auto Start = Clock::now();
  for (unsigned Round = 0;; ++Round) {
    Probe.maybeRun();
    for (Unit &U : Units) {
      if (!U.healthy())
        continue;
      CompiledModule CM;
      CompileTimes T;
      std::string Error;
      double From = Probe.nowMs();
      if (!compileModule(U.Source, /*RunAde=*/true, CM, T, Error)) {
        fail(U, "ade compile: " + Error);
        continue;
      }
      double To = Probe.nowMs();
      U.CompileMs.push_back({T.totalMs(), From, To});
      U.ParseMs.push_back({T.ParseMs, From, To});
      U.AdeMs.push_back({T.AdeMs, From, To});
      U.VmMs.push_back({T.VmMs, From, To});
      for (const auto &[Pass, Ms] : T.PassMs)
        U.PassMs[Pass].push_back({Ms, From, To});
      if (Round != 0)
        continue;
      U.Ade = std::move(CM);
      if (U.executes() &&
          !compileModule(U.Source, /*RunAde=*/false, U.Memoir, T, Error))
        fail(U, "memoir compile: " + Error);
    }
    if (Round + 1 >= MinRounds && msSince(Start) >= BudgetS * 1e3)
      break;
  }
  return msSince(Start) / 1e3;
}

double WorkloadRun::setupPhase() {
  // At least five set-ups and half a second, so cheap set-ups still give
  // a steady median.
  std::vector<Sample> Samples;
  auto Start = Clock::now();
  while (Samples.size() < 5 || msSince(Start) < 500) {
    Probe.maybeRun();
    double From = Probe.nowMs();
    // Regenerate the inputs exactly as the run's own were made; they
    // must come out identical.
    std::vector<ProgramInput> Again =
        makeProgramInputs(C.Workload, C.ScalePercent, C.Seed);
    for (size_t I = 0; I != Again.size(); ++I) {
      const bench::Workload &A = Again[I].Input, &B = Inputs[I].Input;
      if (A.A != B.A || A.B != B.B || A.C != B.C || A.P0 != B.P0 ||
          A.P1 != B.P1)
        fail(Units[I], "input differs between draws of one seed");
    }
    if (!Generated.empty() &&
        generatedModules(C.Seed, C.GeneratedModules) != Generated)
      for (Unit &U : Units)
        fail(U, "generated modules differ between draws of one seed");
    for (Unit &U : Units) {
      if (!U.executes() || !U.healthy())
        continue;
      ExecOptions O;
      O.MaxDepth = U.MaxDepth;
      execute(*U.Memoir.M, *U.In, O, /*SetupOnly=*/true);
      execute(*U.Ade.M, *U.In, O, /*SetupOnly=*/true);
    }
    double To = Probe.nowMs();
    Samples.push_back({(To - From) / 1e3, From, To});
  }
  return normMedian(Samples);
}

void WorkloadRun::execPair(Unit &U) {
  Probe.maybeRun();
  double From = Probe.nowMs();
  ExecOptions O;
  O.MaxDepth = U.MaxDepth;
  ExecResult Mem = execute(*U.Memoir.M, *U.In, O);
  ExecResult Ade =
      Mem.Ok ? execute(*U.Ade.M, *U.In, O) : ExecResult();
  double To = Probe.nowMs();
  U.SpentMs += To - From;
  ++U.Pairs;
  if (!Mem.Ok)
    return fail(U, "memoir: " + Mem.Error);
  if (!Ade.Ok)
    return fail(U, "ade: " + Ade.Error);
  if (Ade.Checksum != Mem.Checksum)
    return fail(U, "ade checksum " + std::to_string(Ade.Checksum) +
                       " != memoir checksum " +
                       std::to_string(Mem.Checksum));
  if (U.Pairs == 1) {
    U.Checksum = Mem.Checksum;
    U.MemPeak = Mem.PeakBytes;
    U.AdePeak = Ade.PeakBytes;
  } else if (Mem.Checksum != U.Checksum || Mem.PeakBytes != U.MemPeak ||
             Ade.PeakBytes != U.AdePeak) {
    return fail(U, "checksum or peak bytes changed between repetitions");
  }
  U.MemRoi.push_back({Mem.KernelMs, From, To});
  U.MemTotal.push_back({Mem.totalMs(), From, To});
  U.AdeRoi.push_back({Ade.KernelMs, From, To});
  U.AdeTotal.push_back({Ade.totalMs(), From, To});
}

void WorkloadRun::execPhase(double BudgetS) {
  auto Start = Clock::now();
  for (Unit &U : Units)
    if (U.executes() && U.healthy())
      execPair(U);
  RssAfterFirstRound = peakRssBytes();
  // Then repeat whichever module has had the least execution time, so
  // short programs gather many samples and long ones at least one.
  while (true) {
    Unit *Next = nullptr;
    for (Unit &U : Units)
      if (U.executes() && U.healthy() && (!Next || U.SpentMs < Next->SpentMs))
        Next = &U;
    if (!Next ||
        msSince(Start) + Next->SpentMs / Next->Pairs > BudgetS * 1e3)
      break;
    execPair(*Next);
  }
}

ExactCounters countersOf(const std::string &Label, const ExecResult &R) {
  ExactCounters X;
  X.Label = Label;
  X.Checksum = R.Checksum;
  X.Build = R.BuildStats;
  X.Kernel = R.KernelStats;
  X.Probes = R.Probes.Probes;
  X.Rehashes = R.Probes.Rehashes;
  X.PeakBytes = R.PeakBytes;
  return X;
}

void WorkloadRun::tracedPhase() {
  runtime::Telemetry::Options TO;
  TO.SampleShift = 0; // Every collection operation.
  for (Unit &U : Units) {
    if (!U.executes() || !U.healthy())
      continue;
    Probe.maybeRun();
    U.TracedFromMs = Probe.nowMs();
    ExecOptions O;
    O.CollectStats = true;
    O.MaxDepth = U.MaxDepth;
    runtime::Telemetry MemTel(TO), AdeTel(TO);
    O.Tel = &MemTel;
    U.MemTraced = execute(*U.Memoir.M, *U.In, O);
    O.Tel = &AdeTel;
    U.AdeTraced = execute(*U.Ade.M, *U.In, O);
    // The tree walker is the independent reference for the VM.
    O.Tel = nullptr;
    O.Engine = vm::EngineKind::Tree;
    ExecResult Tree = execute(*U.Ade.M, *U.In, O);
    if (!U.MemTraced.Ok || !U.AdeTraced.Ok || !Tree.Ok) {
      fail(U, "traced run: " + U.MemTraced.Error + U.AdeTraced.Error +
                  Tree.Error);
      continue;
    }
    if (U.MemTraced.Checksum != U.Checksum ||
        U.AdeTraced.Checksum != U.Checksum) {
      fail(U, "traced checksum differs from the untraced one");
      continue;
    }
    ExactCounters Vm = countersOf(U.Name + "/ade/vm", U.AdeTraced);
    ExactCounters Ref = countersOf(U.Name + "/ade/tree", Tree);
    if (!(Vm == Ref))
      fail(U, "vm and tree walker disagree on checksum or exact counters");
    Counters.push_back(countersOf(U.Name + "/memoir/vm", U.MemTraced));
    Counters.push_back(Vm);
    Counters.push_back(Ref);
    U.Cost = measureTranslationCost(U.Keys);
    U.TracedToMs = Probe.nowMs();
  }
  Probe.maybeRun();
}

void WorkloadRun::reportUnits() const {
  logf("%-6s %5s %10s %10s %10s %10s %7s %9s %12s %s\n", "module", "n",
       "memoir_roi", "ade_roi", "memoir_tot", "ade_tot", "roi_x", "mem%",
       "checksum", "ade_roi tail (ms)");
  for (const Unit &U : Units) {
    if (!U.executes() || U.AdeRoi.empty())
      continue;
    double MemRoi = median(rawMs(U.MemRoi)), AdeRoi = median(rawMs(U.AdeRoi));
    logf("%-6s %5zu %10.3f %10.3f %10.3f %10.3f %6.2fx %8.1f%% %12llu %s\n",
         U.Name.c_str(), U.AdeRoi.size(), MemRoi, AdeRoi,
         median(rawMs(U.MemTotal)), median(rawMs(U.AdeTotal)),
         MemRoi / AdeRoi,
         100.0 * double(U.AdePeak) / double(std::max<uint64_t>(1, U.MemPeak)),
         (unsigned long long)U.Checksum, tail(rawMs(U.AdeRoi)).c_str());
  }
}

void WorkloadRun::endToEnd(RunReport &R, double SetupS) const {
  std::vector<double> AdeRoi, AdeTotal, MemRoi, MemTotal, AdePeak, MemPeak,
      Compile;
  for (const Unit &U : Units) {
    if (!U.healthy())
      continue;
    Compile.push_back(normMedian(U.CompileMs));
    if (!U.executes())
      continue;
    AdeRoi.push_back(normMedian(U.AdeRoi));
    AdeTotal.push_back(normMedian(U.AdeTotal));
    MemRoi.push_back(normMedian(U.MemRoi));
    MemTotal.push_back(normMedian(U.MemTotal));
    AdePeak.push_back(double(U.AdePeak) / 1024);
    MemPeak.push_back(double(U.MemPeak) / 1024);
  }
  // Times are host-normalized (see HostProbe); sizes are not.
  R.Metrics = {
      {"ade_roi_ms", geomean(AdeRoi), "ms"},
      {"ade_total_ms", geomean(AdeTotal), "ms"},
      {"memoir_roi_ms", geomean(MemRoi), "ms"},
      {"memoir_total_ms", geomean(MemTotal), "ms"},
      {"ade_peak_kib", geomean(AdePeak), "KiB"},
      {"memoir_peak_kib", geomean(MemPeak), "KiB"},
      {"compile_ms", geomean(Compile), "ms"},
      {"peak_rss_mib", double(RssAfterFirstRound) / (1 << 20), "MiB"},
      {"setup_s", SetupS, "s"},
  };
}

void WorkloadRun::perLayer(RunReport &R) const {
  // Compile layers: per-module medians, summed over the workload.
  double Parse = 0, Ade = 0, VmCompile = 0;
  std::map<std::string, double> Pass;
  double Enums = 0, Inserted = 0, Eliminated = 0, Cloned = 0;
  for (const Unit &U : Units) {
    if (!U.healthy())
      continue;
    Parse += normMedian(U.ParseMs);
    Ade += normMedian(U.AdeMs);
    VmCompile += normMedian(U.VmMs);
    for (const auto &[Name, Samples] : U.PassMs)
      Pass[Name] += normMedian(Samples);
    const core::TransformResult &T = U.Ade.Transform;
    Enums += T.EnumerationsCreated;
    Inserted += T.EncInserted + T.DecInserted + T.AddInserted;
    Eliminated += T.TranslationsSkipped;
    Cloned += U.Ade.FunctionsCloned;
  }

  // Runtime layers: traced counters and sampled times, summed over the
  // executed modules. Times are host-normalized like the end-to-end ones:
  // untraced samples each by the probe factor around it, the traced
  // measurements of a module by the factor around its traced phase.
  double Overhead = clockOverheadNs();
  double Dense = 0, Accesses = 0, KernelTr = 0, BuildTr = 0, AdeInstr = 0,
         MemInstr = 0, UntracedRoi = 0, Dispatch = 0, BitMs = 0, HashMs = 0,
         MemHashMs = 0, TrMs = 0, BuildTrMs = 0, Probes = 0, Rehashes = 0;
  std::vector<double> Traced, Untraced;
  for (const Unit &U : Units) {
    if (!U.executes() || !U.healthy())
      continue;
    const ExecResult &A = U.AdeTraced, &M = U.MemTraced;
    const runtime::InterpStats &K = A.KernelStats, &B = A.BuildStats;
    double TF = Probe.factorAround(U.TracedFromMs, U.TracedToMs);
    using runtime::OpCategory;
    auto CostMs = [&](const runtime::InterpStats &S) {
      return (double(S.category(OpCategory::Enc)) * U.Cost.EncNs +
              double(S.category(OpCategory::Dec)) * U.Cost.DecNs +
              double(S.category(OpCategory::EnumAdd)) * U.Cost.AddNs) /
             1e6 / TF;
    };
    auto ChanMs = [&](const ExecResult &R, ChannelTimes::Family F) {
      return R.KernelChannels.correctedNs(F, Overhead) / 1e6 / TF;
    };
    Dense += double(K.Dense);
    Accesses += double(K.totalAccesses());
    KernelTr += double(translationsIn(K));
    BuildTr += double(translationsIn(B));
    AdeInstr += double(K.InstructionsExecuted);
    MemInstr += double(M.KernelStats.InstructionsExecuted);
    double Roi = normMedian(U.AdeRoi);
    UntracedRoi += Roi;
    double Bit = ChanMs(A, ChannelTimes::Bit);
    double Hash = ChanMs(A, ChannelTimes::Hash);
    BitMs += Bit;
    HashMs += Hash;
    MemHashMs += ChanMs(M, ChannelTimes::Hash);
    TrMs += CostMs(K);
    BuildTrMs += CostMs(B);
    Dispatch +=
        Roi - (Bit + Hash + ChanMs(A, ChannelTimes::Other) + CostMs(K));
    Probes += double(A.Probes.Probes + M.Probes.Probes);
    Rehashes += double(A.Probes.Rehashes + M.Probes.Rehashes);
    Traced.push_back(A.KernelMs / TF);
    Untraced.push_back(Roi);
  }

  auto PassMs = [&](const char *Name) {
    auto It = Pass.find(Name);
    return It == Pass.end() ? 0.0 : It->second;
  };
  R.Metrics = {
      {"parser.parse_ms", Parse, "ms"},
      {"core.ade_ms", Ade, "ms"},
      {"core.cloning_ms", PassMs("cloning"), "ms"},
      {"core.analysis_ms", PassMs("analysis"), "ms"},
      {"core.planning_ms", PassMs("planning"), "ms"},
      {"core.transform_ms", PassMs("transform"), "ms"},
      {"core.selection_ms", PassMs("selection"), "ms"},
      {"core.verify_ms", PassMs("verify"), "ms"},
      {"analysis.absint_ms", PassMs("absint"), "ms"},
      {"vm.compile_ms", VmCompile, "ms"},
      {"core.enumerations", Enums, "count"},
      {"core.translations_inserted", Inserted, "count"},
      {"core.translations_eliminated", Eliminated, "count"},
      {"core.functions_cloned", Cloned, "count"},
      {"runtime.dense_share", Accesses ? Dense / Accesses : 0, "ratio"},
      {"runtime.translations_executed", KernelTr, "count"},
      {"runtime.build_translations", BuildTr, "count"},
      {"vm.ade_instructions", AdeInstr, "count"},
      {"vm.memoir_instructions", MemInstr, "count"},
      {"vm.ns_per_instruction", AdeInstr ? UntracedRoi * 1e6 / AdeInstr : 0,
       "ns"},
      {"vm.dispatch_ms", Dispatch, "ms"},
      {"collections.bit_ms", BitMs, "ms"},
      {"collections.hash_ms", HashMs, "ms"},
      {"collections.memoir_hash_ms", MemHashMs, "ms"},
      {"collections.translation_ms", TrMs, "ms"},
      {"collections.build_translation_ms", BuildTrMs, "ms"},
      {"collections.probes", Probes, "count"},
      {"collections.rehashes", Rehashes, "count"},
      {"trace.overhead",
       Untraced.empty() ? 0 : geomean(Traced) / geomean(Untraced), "ratio"},
  };
}

void WorkloadRun::checkWorkloadRule() const {
  // The rule that assigned the suite programs to workloads (README.md,
  // "Workloads"), re-applied to this run's measurements.
  for (const Unit &U : Units) {
    if (!U.In || !U.healthy() || U.AdeTotal.empty())
      continue;
    const runtime::InterpStats &K = U.AdeTraced.KernelStats;
    double Accesses = double(std::max<uint64_t>(1, K.totalAccesses()));
    double DenseShare = double(K.Dense) / Accesses;
    double TranslationShare = double(translationsIn(K)) / Accesses;
    double BuildShare =
        1 - median(rawMs(U.AdeRoi)) / median(rawMs(U.AdeTotal));
    const char *Measured = DenseShare < 0.85 || TranslationShare >= 0.10
                               ? "translate-heavy"
                           : BuildShare >= 0.5 ? "build-heavy"
                                               : "dense-kernel";
    logf("rule %-5s build share %5.1f%%, kernel dense share %5.1f%%, "
         "kernel translations %.1f%% of accesses, instructions ade/memoir "
         "%.2f, peak ade/memoir %.2f -> %s%s\n",
         U.Name.c_str(), 100 * BuildShare, 100 * DenseShare,
         100 * TranslationShare,
         double(K.InstructionsExecuted) /
             double(std::max<uint64_t>(
                 1, U.MemTraced.KernelStats.InstructionsExecuted)),
         double(U.AdePeak) / double(std::max<uint64_t>(1, U.MemPeak)),
         Measured,
         std::string(Measured) == workloadName(C.Workload)
             ? ""
             : " (drifted from its workload)");
  }
}

RunReport WorkloadRun::run() {
  logf("perfbench: workload %s, seed %llu, %.0f s, %s, scale %llu%%\n",
       workloadName(C.Workload), (unsigned long long)C.Seed, C.Seconds,
       C.Trace ? "traced" : "untraced",
       (unsigned long long)workloadScale(C.Workload, C.ScalePercent));
  makeUnits();
  for (const Unit &U : Units)
    if (U.In)
      logf("  %-5s nodes %llu, max depth %llu\n", U.Name.c_str(),
           (unsigned long long)U.In->Nodes,
           (unsigned long long)U.MaxDepth);

  // Compile time is measured first, before anything executes. A few
  // seconds of it keep compile_ms steady on the execution workloads; the
  // compile workload spends most of its budget there.
  double CompileS = compilePhase(
      C.Seconds * (C.Workload == WorkloadKind::Compile ? 0.6 : 0.2));
  double SetupS = setupPhase();
  // Traced runs spend half the budget on the untraced reference.
  execPhase((C.Seconds - CompileS) * (C.Trace ? 0.5 : 1.0));
  if (C.Trace)
    tracedPhase();
  reportUnits();

  RunReport R;
  for (const Unit &U : Units) {
    ++R.Attempted;
    if (!U.healthy()) {
      ++R.Failed;
      R.Failures.push_back(U.Name + ": " + U.Failure);
    }
  }
  if (C.Trace) {
    perLayer(R);
    if (C.Workload != WorkloadKind::Compile)
      checkWorkloadRule();
    R.Counters = std::move(Counters);
  } else {
    endToEnd(R, SetupS);
  }
  logf("host probe: median %.3f ms over %zu probes, factor %.3f (times "
       "below are normalized by it; the table above is raw)\n",
       Probe.medianMs(), Probe.probes(), Probe.factor());
  logf("error_rate %.4f (%llu of %llu modules failed)\n",
       double(R.Failed) / double(R.Attempted),
       (unsigned long long)R.Failed, (unsigned long long)R.Attempted);
  for (const Metric &M : R.Metrics)
    logf("  %-34s %14.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  return R;
}

} // namespace

RunReport ade::perfbench::runWorkload(const RunConfig &C) {
  return WorkloadRun(C).run();
}
