//===- bench/bench_ablation_weights.cpp ---------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: cost-model weight sensitivity and P^BW normalisation.
///
/// The paper fixes W = (0.8, 0.1, 0.1) "after several experimental
/// measurements" and lists determining the weights as future work.  This
/// bench (a) sweeps the bandwidth weight from 0 to 1 (CPU and I/O split
/// the remainder evenly) and reports the workload's mean transfer time and
/// the Kendall rank correlation between candidate scores and measured
/// fetch times of file-a; (b) contrasts the two readings of "highest
/// theoretical bandwidth" (client-access vs per-path), showing the literal
/// per-path reading can invert the ranking on heterogeneous links.
///
/// Runs on the ExperimentRunner as two scenarios: the weight sweep writes
/// BENCH_abl-weights.json, the normalisation comparison
/// BENCH_abl-weights-norm.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exp/Options.h"
#include "grid/Experiment.h"
#include "replica/ReplicaSelector.h"
#include "support/Statistics.h"

#include <cstdlib>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

namespace {

double runWorkloadMeanTransfer(CostWeights W, uint64_t Seed) {
  PaperTestbedOptions O;
  O.Seed = Seed;
  PaperTestbed T(O);
  T.publishFileA();
  ReplicaCatalog &Cat = T.grid().catalog();
  Cat.registerFile("event-set", megabytes(512));
  Cat.addReplica("event-set", T.hit(1));
  Cat.addReplica("event-set", T.lz(2));
  Cat.registerFile("survey-img", megabytes(768));
  Cat.addReplica("survey-img", T.alpha(3));
  Cat.addReplica("survey-img", T.lz(1));

  CostModelPolicy Policy(W);
  ReplicaSelector Sel(Cat, T.grid().info(), Policy);
  ReplicaManager Manager(Cat, Sel, T.grid().transfers());
  WorkloadConfig Cfg;
  Cfg.JobCount = 30;
  Cfg.MeanInterarrival = 45.0;
  Cfg.Streams = 8;
  Workload Load(T.grid(), Manager, {&T.alpha(1), &T.hit(3), &T.lz(4)}, Cfg);
  T.sim().runUntil(bench::WarmupSeconds);
  Load.start();
  T.sim().run();
  return Load.stats().TransferSeconds.mean();
}

/// Candidate scores for file-a -> alpha1 under the given weights and
/// normalisation, plus measured fetch times for ranking comparison.
struct RankData {
  std::vector<double> Scores;
  std::vector<double> Seconds;
};

RankData rankData(CostWeights W, BwNormalization Norm, uint64_t Seed) {
  PaperTestbedOptions O;
  O.Seed = Seed;
  O.Info.Normalization = Norm;
  PaperTestbed T(O);
  T.publishFileA();
  T.sim().runUntil(bench::WarmupSeconds);
  CostModelPolicy Policy(W);
  ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), Policy, W);
  RankData D;
  for (const CandidateReport &C :
       Sel.scoreAll(T.alpha(1).node(), PaperTestbed::FileA)) {
    D.Scores.push_back(C.Score);
    // Measure each candidate serially on a fresh testbed.
    PaperTestbedOptions MO;
    MO.Seed = Seed;
    PaperTestbed M(MO);
    M.sim().runUntil(bench::WarmupSeconds);
    TransferSpec Spec;
    Spec.Source = M.grid().findHost(C.Candidate->name());
    Spec.Destination = &M.alpha(1);
    Spec.FileBytes = megabytes(1024);
    Spec.Protocol = TransferProtocol::GridFtpModeE;
    Spec.Streams = 8;
    double Seconds = 0.0;
    M.grid().transfers().submit(
        Spec, [&](const TransferResult &R) { Seconds = R.totalSeconds(); });
    M.sim().run();
    D.Seconds.push_back(Seconds);
  }
  return D;
}

CostWeights weightsFor(double Wb) {
  CostWeights W;
  W.Bandwidth = Wb;
  W.Cpu = (1.0 - Wb) / 2.0;
  W.Io = (1.0 - Wb) / 2.0;
  return W;
}

} // namespace

int main(int argc, char **argv) {
  exp::BenchOptions Opt =
      exp::parseBenchOptions(argc, argv, "abl-weights", /*BaseSeed=*/2005);
  bench::banner("Ablation: cost-model weights and P^BW normalisation",
                "paper future work: \"how to determine the system factors "
                "weight\"");

  // Scenario 1: bandwidth-weight sweep.
  exp::Scenario Sw;
  Sw.Id = Opt.Id;
  Sw.Title = "Cost-model bandwidth-weight sweep";
  Sw.Axes = {{"w_bw", {"0.0", "0.2", "0.4", "0.6", "0.8", "1.0"}}};
  Sw.Seeds = Opt.seeds();
  Sw.Metrics = {"mean_transfer_s", "rank_tau"};
  Sw.Run = [](const exp::TrialPoint &P) {
    double Wb = std::atof(P.param("w_bw").c_str());
    CostWeights W = weightsFor(Wb);
    exp::TrialResult R;
    R.set("mean_transfer_s", runWorkloadMeanTransfer(W, P.Seed));
    RankData D = rankData(W, BwNormalization::ClientAccess, P.Seed);
    // Score should anti-correlate with transfer time: report -tau so a
    // perfect model scores +1.
    R.set("rank_tau", -stats::kendallTau(D.Scores, D.Seconds));
    R.SpecHash = PaperTestbed::spec({}).hash();
    return R;
  };
  std::vector<exp::TrialRecord> SwRecords = exp::runScenario(Sw, Opt);

  Table Sweep;
  Sweep.setHeader({"W_bw", "W_cpu", "W_io", "mean transfer (s)",
                   "rank corr (tau)"});
  for (const std::string &V : Sw.Axes[0].Values) {
    CostWeights W = weightsFor(std::atof(V.c_str()));
    Sweep.beginRow();
    Sweep.add(W.Bandwidth, 2);
    Sweep.add(W.Cpu, 2);
    Sweep.add(W.Io, 2);
    Sweep.add(exp::meanMetric(SwRecords, "w_bw", V, "mean_transfer_s"), 1);
    Sweep.add(exp::meanMetric(SwRecords, "w_bw", V, "rank_tau"), 2);
  }
  Sweep.print(stdout);
  std::printf("\n");

  // Scenario 2: normalisation comparison at the paper's weights.
  exp::BenchOptions NormOpt = Opt;
  NormOpt.Id = "abl-weights-norm";
  NormOpt.JsonPath.clear(); // Default path BENCH_abl-weights-norm.json.
  exp::Scenario Sn;
  Sn.Id = NormOpt.Id;
  Sn.Title = "P^BW normalisation comparison at paper weights";
  Sn.Axes = {{"norm", {"client-access", "per-path"}}};
  Sn.Seeds = Opt.seeds();
  Sn.Metrics = {"rank_tau"};
  Sn.Run = [](const exp::TrialPoint &P) {
    BwNormalization N = P.param("norm") == "per-path"
                            ? BwNormalization::PerPath
                            : BwNormalization::ClientAccess;
    RankData D = rankData(CostWeights(), N, P.Seed);
    exp::TrialResult R;
    R.set("rank_tau", -stats::kendallTau(D.Scores, D.Seconds));
    return R;
  };
  std::vector<exp::TrialRecord> SnRecords = exp::runScenario(Sn, NormOpt);

  Table Norm;
  Norm.setHeader({"P_bw normalisation", "rank corr (tau)"});
  for (const std::string &V : Sn.Axes[0].Values) {
    Norm.beginRow();
    Norm.add(V);
    Norm.add(exp::meanMetric(SnRecords, "norm", V, "rank_tau"), 2);
  }
  Norm.print(stdout);
  std::printf("\n");

  auto SweepMean = [&](const char *V) {
    return exp::meanMetric(SwRecords, "w_bw", V, "mean_transfer_s");
  };
  bool BwHelps = SweepMean("0.8") < SweepMean("0.0");
  bool PaperNearBest = true;
  for (const std::string &V : Sw.Axes[0].Values)
    PaperNearBest &= SweepMean("0.8") <= SweepMean(V.c_str()) * 1.10;
  bool ClientAccessRanksBetter =
      exp::meanMetric(SnRecords, "norm", "client-access", "rank_tau") >
      exp::meanMetric(SnRecords, "norm", "per-path", "rank_tau");
  bench::shapeCheck(BwHelps, "bandwidth-aware weights beat bandwidth-blind "
                             "weights on mean transfer time");
  bench::shapeCheck(PaperNearBest,
                    "the paper's 0.8/0.1/0.1 is within 10% of the best "
                    "sweep point");
  bench::shapeCheck(ClientAccessRanksBetter,
                    "client-access P^BW normalisation ranks replicas "
                    "better than the literal per-path reading");
  return bench::exitCode();
}
