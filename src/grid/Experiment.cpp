//===- grid/Experiment.cpp -----------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/Experiment.h"

#include "support/Units.h"

#include <cassert>

using namespace dgsim;

void ExperimentStats::add(const JobRecord &R) {
  Records.push_back(R);
  if (!R.Fetch.Succeeded) {
    ++FailedJobs;
    return;
  }
  TotalSeconds.add(R.totalSeconds());
  if (R.Fetch.LocalHit)
    ++LocalHits;
  else
    TransferSeconds.add(R.transferSeconds());
}

Workload::Workload(DataGrid &Grid, ReplicaManager &Manager,
                   std::vector<Host *> Clients, WorkloadConfig Config)
    : Grid(Grid), Manager(Manager), Clients(std::move(Clients)), Config(Config),
      Rng(Grid.sim().forkRng()),
      Files(Config.Files.empty() ? Grid.catalog().listFiles()
                                 : Config.Files) {
  assert(!this->Clients.empty() && "workloads need at least one client");
  assert(!Files.empty() && "workloads need a populated catalogue");
  assert(Config.MeanInterarrival > 0.0 && "non-positive interarrival");
  assert(Config.Streams >= 1 && "need at least one stream");
  assert(Config.ComputeSecondsPerGB >= 0.0 && "negative compute cost");
  for ([[maybe_unused]] const std::string &F : Files)
    assert(Grid.catalog().hasFile(F) && "workload file not in catalogue");
}

void Workload::start() {
  if (Config.JobCount == 0)
    return;
  scheduleNextArrival();
}

void Workload::setJobObserver(
    std::function<void(const JobRecord &)> NewObserver) {
  assert(Submitted == 0 && "observer must be set before start()");
  Observer = std::move(NewObserver);
}

void Workload::scheduleNextArrival() {
  // Arrivals are foreground events: the experiment is not done until every
  // job has been submitted and has finished.
  SimTime Gap = Rng.exponential(Config.MeanInterarrival);
  Grid.sim().schedule(Gap, [this] {
    Host *Client = Clients[Rng.uniformInt(Clients.size())];
    const std::string &Lfn = Files[Rng.zipf(Files.size(),
                                            Config.ZipfExponent)];
    startJob(*Client, Lfn);
    if (++Submitted < Config.JobCount)
      scheduleNextArrival();
  });
}

void Workload::startJob(Host &Client, const std::string &Lfn) {
  FetchOptions Opts;
  Opts.Streams = Config.Streams;
  Opts.Register = false;
  Manager.fetch(Lfn, Client, Opts, [this, &Client](const FetchResult &F) {
    JobRecord R{&Client, F, /*ComputeSeconds=*/0.0, /*FinishTime=*/F.EndTime};
    if (!F.Succeeded)
      return finishJob(R); // No data, nothing to compute over.
    double GB = F.FileBytes / units::GB;
    R.ComputeSeconds = Client.computeTime(Config.ComputeSecondsPerGB * GB);
    Grid.sim().schedule(R.ComputeSeconds, [this, R = std::move(R)]() mutable {
      R.FinishTime = Grid.sim().now();
      finishJob(R);
    });
  });
}

void Workload::finishJob(const JobRecord &R) {
  Stats.add(R);
  if (Observer)
    Observer(R);
}
