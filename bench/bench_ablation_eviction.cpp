//===- bench/bench_ablation_eviction.cpp ----------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension: replication under constrained storage, with and without
/// eviction, under a popularity shift.
///
/// Grid storage elements are finite (the paper's Li-Zen nodes had 10 GB
/// disks), so replica *creation* needs an eviction policy — the OptorSim
/// line of work.  Five HIT-produced datasets are fetched by Li-Zen
/// clients through a site store that fits only two; halfway through, a
/// "new data release" inverts the popularity order.  Compared:
///
///   * frozen   -- no eviction: whatever replicated first stays forever;
///   * naive    -- LRU eviction with no admission control: every warm
///                 file displaces a resident one, and the replication
///                 traffic itself clogs the 30 Mb/s access link (thrash);
///   * admission -- LRU eviction, but only files hotter than the victim
///                 may displace it.
///
/// The shift is where eviction earns its keep: a frozen store keeps
/// serving yesterday's hot files over the LAN while today's arrive over
/// the WAN.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exp/Options.h"
#include "grid/DynamicReplicator.h"
#include "grid/Experiment.h"
#include "replica/StorageElement.h"

using namespace dgsim;
using namespace dgsim::units;

namespace {

exp::TrialResult run(EvictionPolicy Policy, bool Admission, uint64_t Seed) {
  PaperTestbedOptions O;
  O.Seed = Seed;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  ReplicaCatalog &Cat = T.grid().catalog();
  std::vector<std::string> Names;
  for (int I = 0; I < 5; ++I) {
    std::string Lfn = "ds-" + std::to_string(I);
    Cat.registerFile(Lfn, megabytes(400));
    Cat.addReplica(Lfn, T.hit(I % 4));
    Names.push_back(Lfn);
  }

  CostModelPolicy CmPolicy;
  ReplicaSelector Sel(Cat, T.grid().info(), CmPolicy);
  ReplicaManager Manager(Cat, Sel, T.grid().transfers());
  StorageManager SM(Cat, Policy);
  SM.attachStore(T.lz(1), megabytes(900)); // Fits two datasets.

  DynamicReplicationConfig C;
  C.AccessThreshold = 2;
  C.Window = 7200.0;
  C.MaxReplicasPerFile = 8;
  C.HotnessAdmission = Admission;
  DynamicReplicator Rep(T.grid(), Manager, C);
  Rep.setStorageManager(&SM);
  Rep.setStorageHost("lizen", T.lz(1));

  auto RunPhase = [&](const std::vector<std::string> &Popularity) {
    WorkloadConfig W;
    W.JobCount = 20;
    W.MeanInterarrival = 240.0;
    W.ZipfExponent = 1.4;
    W.Files = Popularity;
    W.Streams = 8;
    Workload Load(T.grid(), Manager, {&T.lz(2), &T.lz(3), &T.lz(4)}, W);
    Load.setJobObserver([&Rep](const JobRecord &R) { Rep.onJob(R); });
    Load.start();
    T.sim().run();
    return Load.stats().TransferSeconds.mean();
  };

  T.sim().runUntil(bench::WarmupSeconds);
  exp::TrialResult Result;
  Result.set("phase1_s", RunPhase(Names)); // ds-0/ds-1 hot.
  std::vector<std::string> Shifted(Names.rbegin(), Names.rend());
  Result.set("phase2_s", RunPhase(Shifted)); // ds-4/ds-3 hot.
  Result.set("replications",
             static_cast<double>(Rep.replicationsCompleted()));
  Result.set("evictions", static_cast<double>(SM.evictions()));
  Result.SpecHash = T.grid().spec().hash();
  return Result;
}

} // namespace

int main(int argc, char **argv) {
  exp::BenchOptions Opt =
      exp::parseBenchOptions(argc, argv, "abl-eviction", /*BaseSeed=*/2005);
  bench::banner("Extension: eviction under a popularity shift",
                "5 datasets through a 2-dataset store; frozen vs naive "
                "LRU vs LRU+admission");

  exp::Scenario S;
  S.Id = Opt.Id;
  S.Title = "Eviction policies under a popularity shift";
  S.Axes = {{"config", {"frozen", "naive-lru", "lru-admission"}}};
  S.Seeds = Opt.seeds();
  S.Metrics = {"phase1_s", "phase2_s", "replications", "evictions"};
  S.Run = [](const exp::TrialPoint &P) {
    const std::string &C = P.param("config");
    if (C == "frozen")
      return run(EvictionPolicy::None, /*Admission=*/true, P.Seed);
    if (C == "naive-lru")
      return run(EvictionPolicy::Lru, /*Admission=*/false, P.Seed);
    return run(EvictionPolicy::Lru, /*Admission=*/true, P.Seed);
  };
  std::vector<exp::TrialRecord> Records = exp::runScenario(S, Opt);

  const char *Labels[] = {"frozen (no eviction)", "naive LRU",
                          "LRU + admission"};
  auto Mean = [&](const char *Config, const char *Metric) {
    return exp::meanMetric(Records, "config", Config, Metric);
  };
  Table T;
  T.setHeader({"configuration", "phase-1 transfer (s)",
               "phase-2 transfer (s)", "replications", "evictions"});
  for (size_t I = 0; I < 3; ++I) {
    const std::string &C = S.Axes[0].Values[I];
    T.beginRow();
    T.add(std::string(Labels[I]));
    T.add(Mean(C.c_str(), "phase1_s"), 1);
    T.add(Mean(C.c_str(), "phase2_s"), 1);
    T.add(static_cast<long long>(Mean(C.c_str(), "replications")));
    T.add(static_cast<long long>(Mean(C.c_str(), "evictions")));
  }
  T.print(stdout);
  std::printf("\n");

  // What the sweep shows: under this light load, free (naive) eviction
  // adapts to the shift fastest and wins phase 2; admission control is
  // deliberately conservative — it evicts less (no thrash risk) at the
  // price of slower adaptation.  Under heavy load the ordering flips:
  // naive eviction floods the 30 Mb/s access link with replication
  // traffic (observed 5x slowdowns in the overloaded regime), which is
  // precisely what admission control prevents.
  bool NaiveAdaptsToShift =
      Mean("naive-lru", "phase2_s") < Mean("frozen", "phase2_s") * 0.9;
  bool AdmissionChurnsLess =
      Mean("lru-admission", "evictions") < Mean("naive-lru", "evictions");
  bool FrozenNeverEvicts = Mean("frozen", "evictions") == 0.0;
  bench::shapeCheck(NaiveAdaptsToShift,
                    "after the shift, LRU eviction beats the frozen store "
                    "by >10% (it hosts today's hot files)");
  bench::shapeCheck(AdmissionChurnsLess,
                    "admission control evicts less than naive LRU "
                    "(thrash guard)");
  bench::shapeCheck(FrozenNeverEvicts, "the frozen store never evicts");
  return bench::exitCode();
}
