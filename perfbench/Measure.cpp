//===- Measure.cpp - Timed calls into each layer --------------------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "collections/Enumeration.h"
#include "collections/MemoryTracker.h"
#include "interp/InterpError.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "vm/Compiler.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace ade;
using namespace ade::perfbench;
using Clock = std::chrono::steady_clock;

namespace {
/// Keeps timed loops whose results are unused observable.
volatile uint64_t LoopSink;
} // namespace

bool ade::perfbench::compileModule(std::string_view Source, bool RunAde,
                                   CompiledModule &Out, CompileTimes &Times,
                                   std::string &Error) {
  Times = CompileTimes();
  std::vector<std::string> Errors;
  auto T0 = Clock::now();
  Out.M = parser::parseModule(Source, Errors);
  bool Parsed = Out.M && Errors.empty() && ir::verifyModule(*Out.M, Errors);
  Times.ParseMs = msSince(T0);
  if (!Parsed) {
    Error = Errors.empty() ? "parse failed" : Errors.front();
    return false;
  }

  if (RunAde) {
    T0 = Clock::now();
    core::PipelineResult R = core::runADE(*Out.M);
    Times.AdeMs = msSince(T0);
    Out.Transform = R.Transform;
    Out.FunctionsCloned = R.FunctionsCloned;
    for (const TimerGroup::Phase &P : R.Timing.phases())
      Times.PassMs.emplace_back(P.Name, P.Seconds * 1e3);
  }

  T0 = Clock::now();
  for (const auto &F : Out.M->functions())
    if (!F->isExternal())
      vm::compileFunction(*F);
  Times.VmMs = msSince(T0);
  return true;
}

ChannelTimes ade::perfbench::channelTimes(const runtime::Telemetry &Tel) {
  ChannelTimes T;
  for (const auto &[Key, Chan] : Tel.channels()) {
    ChannelTimes::Family F = ChannelTimes::Other;
    switch (Key.second) {
    case ir::Selection::BitSet:
    case ir::Selection::BitMap:
    case ir::Selection::SparseBitSet:
      F = ChannelTimes::Bit;
      break;
    case ir::Selection::HashSet:
    case ir::Selection::HashMap:
    case ir::Selection::SwissSet:
    case ir::Selection::SwissMap:
      F = ChannelTimes::Hash;
      break;
    default:
      break;
    }
    T.Ns[F] += double(Chan.LatencyNs.sum());
    T.Ops[F] += Chan.LatencyNs.count();
  }
  return T;
}

double ade::perfbench::clockOverheadNs() {
  std::vector<uint64_t> Gaps(1 << 16);
  for (uint64_t &Gap : Gaps) {
    uint64_t T0 = runtime::Telemetry::nowNanos();
    Gap = runtime::Telemetry::nowNanos() - T0;
  }
  std::nth_element(Gaps.begin(), Gaps.begin() + Gaps.size() / 2, Gaps.end());
  return double(Gaps[Gaps.size() / 2]);
}

ExecResult ade::perfbench::execute(ir::Module &M, const ProgramInput &In,
                                   const ExecOptions &Opts, bool SetupOnly) {
  ExecResult R;
  interp::InterpOptions IO;
  IO.CollectStats = Opts.CollectStats;
  IO.Tel = Opts.Tel;
  if (Opts.MaxDepth)
    IO.MaxDepth = Opts.MaxDepth;

  MemoryTracker::instance().reset();
  vm::Engine Runner(Opts.Engine, M, IO);
  ir::Type *SeqTy = M.types().seqTy(M.types().intTy(64, /*Signed=*/false));
  auto FillSeq = [&](const std::vector<uint64_t> &Data) {
    auto *Seq = static_cast<runtime::RtSeq *>(Runner.newCollection(SeqTy));
    for (uint64_t V : Data)
      Seq->append(V);
    return vm::Engine::collToBits(Seq);
  };
  const bench::Workload &W = In.Input;
  std::vector<uint64_t> BuildArgs = {FillSeq(W.A), FillSeq(W.B), FillSeq(W.C),
                                     W.P0, W.P1};
  if (SetupOnly) {
    R.Ok = true;
    return R;
  }

  try {
    auto T0 = Clock::now();
    Runner.callByName("build", BuildArgs);
    R.BuildMs = msSince(T0);
    R.BuildStats = Runner.stats();
    Runner.stats().reset();
    ChannelTimes Before = Opts.Tel ? channelTimes(*Opts.Tel) : ChannelTimes();
    T0 = Clock::now();
    R.Checksum = Runner.callByName("kernel", {});
    R.KernelMs = msSince(T0);
    if (Opts.Tel)
      R.KernelChannels = channelTimes(*Opts.Tel) - Before;
    R.KernelStats = Runner.stats();
    R.Probes = Runner.probeTotals();
    R.PeakBytes = MemoryTracker::instance().peakBytes();
    R.Ok = true;
  } catch (const interp::InterpError &E) {
    R.Error = E.what();
  }
  return R;
}

TranslationCost ade::perfbench::measureTranslationCost(uint64_t Keys) {
  Keys = std::max<uint64_t>(Keys, 1);
  std::vector<uint64_t> Labels(Keys);
  for (uint64_t I = 0; I != Keys; ++I)
    Labels[I] = bench::scrambleLabel(I);

  constexpr int Reps = 5;
  std::vector<double> Enc, Dec, Add;
  uint64_t Sink = 0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    Enumeration<uint64_t> E;
    auto T0 = Clock::now();
    for (uint64_t L : Labels)
      Sink += E.add(L).first;
    Add.push_back(msSince(T0));
    T0 = Clock::now();
    for (uint64_t L : Labels)
      Sink += E.encode(L);
    Enc.push_back(msSince(T0));
    T0 = Clock::now();
    for (uint64_t I = 0; I != Keys; ++I)
      Sink += E.decode(I);
    Dec.push_back(msSince(T0));
  }
  LoopSink = Sink;
  auto PerOpNs = [&](std::vector<double> &Ms) {
    std::sort(Ms.begin(), Ms.end());
    return Ms[Ms.size() / 2] * 1e6 / double(Keys);
  };
  return {PerOpNs(Enc), PerOpNs(Dec), PerOpNs(Add)};
}

uint64_t ade::perfbench::translationsIn(const runtime::InterpStats &S) {
  return S.category(runtime::OpCategory::Enc) +
         S.category(runtime::OpCategory::Dec) +
         S.category(runtime::OpCategory::EnumAdd);
}

HostProbe::HostProbe()
    : Table((2u << 20) / sizeof(uint64_t), 1), Epoch(Clock::now()) {}

void HostProbe::maybeRun() {
  double Start = nowMs();
  if (!Probes.empty() && Start - Probes.back().first < 100)
    return;
  // The calls timed before this one evicted the table, by how much
  // depending on their own footprint. An untimed pass refills it, so the
  // timed pass starts from the same cache state whatever ran before.
  run();
  double TimedStart = nowMs();
  run();
  Probes.emplace_back(Start, nowMs() - TimedStart);
}

void HostProbe::run() {
  uint64_t X = 0x9e3779b97f4a7c15ULL, Acc = 0;
  size_t Mask = Table.size() - 1; // The size is a power of two.
  for (int I = 0; I != 1000000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    size_t J = X & Mask;
    Acc += Table[J];
    Table[(J * 7) & Mask] += Acc;
  }
  LoopSink = Acc;
}

namespace {
double medianOf(std::vector<double> V) {
  std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
  return V[V.size() / 2];
}
} // namespace

double HostProbe::factorAround(double FromMs, double ToMs) const {
  if (Probes.empty())
    return 1;
  std::vector<double> Near;
  for (double Margin = 1000;; Margin *= 2) {
    Near.clear();
    for (const auto &[At, Ms] : Probes)
      if (At >= FromMs - Margin && At <= ToMs + Margin)
        Near.push_back(Ms);
    if (Near.size() >= 5 || Near.size() == Probes.size())
      break;
  }
  return medianOf(Near) / NominalMs;
}

double HostProbe::medianMs() const {
  if (Probes.empty())
    return NominalMs;
  std::vector<double> All;
  for (const auto &P : Probes)
    All.push_back(P.second);
  return medianOf(All);
}

uint64_t ade::perfbench::peakRssBytes() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  uint64_t Kib = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0) {
      Kib = std::strtoull(Line + 6, nullptr, 10);
      break;
    }
  std::fclose(F);
  return Kib * 1024;
}
