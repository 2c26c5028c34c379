//===- Measure.h - Timed calls into each layer ------------------*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's only contact with the system under test. Each layer is
/// timed from outside, around the benchmark's own calls into its public
/// entry points (parser::parseModule, core::runADE, vm::compileFunction,
/// vm::Engine::callByName); counters come from what the layers already
/// expose (PipelineResult, Engine::stats, Engine::probeTotals,
/// MemoryTracker, runtime::Telemetry channels). Engine failures
/// (interp::InterpError) are caught and returned as diagnosed results.
///
//===----------------------------------------------------------------------===//

#ifndef ADE_PERFBENCH_MEASURE_H
#define ADE_PERFBENCH_MEASURE_H

#include "Inputs.h"

#include "core/Pipeline.h"
#include "runtime/Stats.h"
#include "runtime/Telemetry.h"
#include "vm/Engine.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ade {
namespace perfbench {

/// Milliseconds since \p T0 on the steady clock.
inline double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// Wall time of one compile, per layer.
struct CompileTimes {
  double ParseMs = 0; // parser::parseModule plus ir::verifyModule.
  double AdeMs = 0;   // core::runADE (0 when ADE is skipped).
  double VmMs = 0;    // vm::compileFunction over every defined function.
  /// PipelineResult::Timing, one entry per ADE pass in run order.
  std::vector<std::pair<std::string, double>> PassMs;

  double totalMs() const { return ParseMs + AdeMs + VmMs; }
};

/// A module ready to execute, with the ADE pipeline's exact counters.
struct CompiledModule {
  std::unique_ptr<ir::Module> M;
  core::TransformResult Transform;
  unsigned FunctionsCloned = 0;
};

/// Parses and verifies \p Source, runs ADE when \p RunAde, and compiles
/// every defined function to bytecode, timing each step. On a parse or
/// verify failure returns false with \p Error set.
bool compileModule(std::string_view Source, bool RunAde, CompiledModule &Out,
                   CompileTimes &Times, std::string &Error);

/// How one execution is observed.
struct ExecOptions {
  vm::EngineKind Engine = vm::EngineKind::Vm;
  /// InterpOptions::CollectStats; off for timed runs.
  bool CollectStats = false;
  /// Telemetry sink attached to the engine; null for timed runs.
  runtime::Telemetry *Tel = nullptr;
  /// InterpOptions::MaxDepth; 0 keeps the library default.
  uint64_t MaxDepth = 0;
};

/// Collection time the telemetry sampled, by implementation family.
struct ChannelTimes {
  enum Family {
    Bit,   // BitSet, BitMap, SparseBitSet.
    Hash,  // HashSet, HashMap, SwissSet, SwissMap.
    Other, // Sequences and FlatSet.
    NumFamilies
  };
  double Ns[NumFamilies] = {};
  uint64_t Ops[NumFamilies] = {};

  /// \p F's time less \p OverheadNs (see clockOverheadNs) per sampled
  /// operation.
  double correctedNs(Family F, double OverheadNs) const {
    return std::max(0.0, Ns[F] - double(Ops[F]) * OverheadNs);
  }

  ChannelTimes operator-(const ChannelTimes &O) const {
    ChannelTimes D;
    for (int F = 0; F != NumFamilies; ++F) {
      D.Ns[F] = Ns[F] - O.Ns[F];
      D.Ops[F] = Ops[F] - O.Ops[F];
    }
    return D;
  }
};

/// Sums \p Tel's channels by implementation family.
ChannelTimes channelTimes(const runtime::Telemetry &Tel);

/// The latency a sampled operation that does nothing would record: the
/// median gap between two back-to-back runtime::Telemetry::nowNanos
/// reads. Subtracted per sampled operation from channel time.
double clockOverheadNs();

/// Outcome of one execution.
struct ExecResult {
  bool Ok = false;
  std::string Error;
  uint64_t Checksum = 0;
  double BuildMs = 0;  // @build
  double KernelMs = 0; // @kernel
  /// MemoryTracker peak over setup, @build and @kernel.
  uint64_t PeakBytes = 0;
  /// Dynamic statistics (CollectStats only) of each phase.
  runtime::InterpStats BuildStats, KernelStats;
  runtime::ProbeCounters Probes;
  /// Sampled collection time of @kernel (telemetry only).
  ChannelTimes KernelChannels;

  double totalMs() const { return BuildMs + KernelMs; }
};

/// Constructs an engine over \p M and fills \p In's sequences, then —
/// unless \p SetupOnly — calls @build and @kernel.
ExecResult execute(ir::Module &M, const ProgramInput &In,
                   const ExecOptions &Opts, bool SetupOnly = false);

/// Per-operation cost of the enumeration translations, measured on the
/// public ade::Enumeration over \p Keys sparse labels.
struct TranslationCost {
  double EncNs = 0;
  double DecNs = 0;
  double AddNs = 0;
};

TranslationCost measureTranslationCost(uint64_t Keys);

/// Enc + dec + add operations recorded in \p S.
uint64_t translationsIn(const runtime::InterpStats &S);

/// A fixed memory-bound probe, independent of the code under test: random
/// read-modify-writes over a 2 MiB table, the size of one core's L2. Only
/// a second pass is timed, after an untimed one refills the table, so the
/// cache state left by the calls before it drops out. Its time tracks how
/// fast the host serves this process at the moment, which on a shared
/// host swings by up to 1.8x over tens of seconds as other tenants load
/// the shared caches (README.md, "Noise"). The benchmark probes between
/// its timed calls and divides each timing by the probe factor around it,
/// so timings read as on a host running at the probe's nominal speed.
class HostProbe {
public:
  /// The probe's time on the host the benchmark was defined on when it
  /// was quiet (4-vCPU 2.1 GHz Xeon VM, 2 MiB L2 per core).
  static constexpr double NominalMs = 3.4;

  HostProbe();

  /// Milliseconds since the probe was constructed: the time axis of
  /// factorAround.
  double nowMs() const { return msSince(Epoch); }

  /// Runs one probe unless one ran in the last 100 ms.
  void maybeRun();

  /// The median of the probes within a second of [FromMs, ToMs] (the
  /// window widened until it holds five, or every probe) over NominalMs;
  /// 1 before any probe ran.
  double factorAround(double FromMs, double ToMs) const;

  /// Median over every probe of the run, and its factor.
  double medianMs() const;
  double factor() const { return medianMs() / NominalMs; }
  size_t probes() const { return Probes.size(); }

private:
  void run();

  std::vector<uint64_t> Table;
  std::chrono::steady_clock::time_point Epoch;
  /// (start, duration) of each probe, in ms, in time order.
  std::vector<std::pair<double, double>> Probes;
};

/// Peak resident set size of this process in bytes (VmHWM), 0 when the
/// platform does not report it.
uint64_t peakRssBytes();

} // namespace perfbench
} // namespace ade

#endif // ADE_PERFBENCH_MEASURE_H
