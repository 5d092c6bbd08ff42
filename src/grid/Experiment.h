//===- grid/Experiment.h - Workloads and experiment statistics --------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment harness: a Poisson/Zipf workload generator over a grid's
/// file catalogue and aggregate statistics — the machinery behind the
/// policy-comparison, weight-sensitivity and replication ablations.
///
/// Each job is the client loop of the paper's Fig 1: the application needs
/// a logical file, uses a local replica or fetches the one the selection
/// server picks with GridFTP — one non-registering ReplicaManager::fetch —
/// then computes over the data.  A job whose fetch failed computes nothing.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRID_EXPERIMENT_H
#define DGSIM_GRID_EXPERIMENT_H

#include "grid/DataGrid.h"
#include "replica/ReplicaManager.h"
#include "support/Statistics.h"

#include <functional>
#include <string>
#include <vector>

namespace dgsim {

/// One finished job.
struct JobRecord {
  Host *Client = nullptr;
  /// The job's fetch: file, final source, local hit, start (the job's
  /// submit time) and outcome.
  FetchResult Fetch;
  /// Zero when the fetch failed: no compute phase runs then.
  SimTime ComputeSeconds = 0.0;
  SimTime FinishTime = 0.0;

  SimTime totalSeconds() const { return FinishTime - Fetch.StartTime; }
  /// Zero when the replica was local.
  SimTime transferSeconds() const { return Fetch.EndTime - Fetch.StartTime; }
};

/// Aggregated results of a batch of jobs.
struct ExperimentStats {
  std::vector<JobRecord> Records;
  RunningStats TransferSeconds; // Successful remote fetches only.
  RunningStats TotalSeconds;    // Jobs whose fetch succeeded.
  size_t LocalHits = 0;
  /// Jobs whose fetch failed; they are in Records only.
  size_t FailedJobs = 0;

  size_t jobCount() const { return Records.size(); }
  double localHitRate() const {
    return Records.empty()
               ? 0.0
               : static_cast<double>(LocalHits) / Records.size();
  }

  void add(const JobRecord &R);
};

/// Workload shape.
struct WorkloadConfig {
  /// Mean seconds between job arrivals (exponential).
  SimTime MeanInterarrival = 30.0;
  /// Total jobs to submit.
  size_t JobCount = 50;
  /// Zipf exponent over the catalogue's files (0 = uniform popularity).
  double ZipfExponent = 0.8;
  /// Popularity-ordered file list (most popular first).  Empty means
  /// "all catalogue files, name order" — use an explicit list to model
  /// popularity shifts (e.g. a new data release taking over).
  std::vector<std::string> Files;
  /// GridFTP (MODE E) parallel streams per job fetch.
  unsigned Streams = 8;
  /// Reference-machine compute seconds per gigabyte of input.
  double ComputeSecondsPerGB = 2.0;
};

/// Generates jobs against a grid from a set of client hosts.
class Workload {
public:
  /// Clients must be non-empty; jobs pick a client uniformly and a file by
  /// Zipf rank over the catalogue (registration-name order).
  Workload(DataGrid &Grid, ReplicaManager &Manager,
           std::vector<Host *> Clients, WorkloadConfig Config);

  /// Submits the arrival process; run the simulator afterwards.
  void start();

  /// Registers a callback fired after every finished job, failed ones
  /// included (e.g. a DynamicReplicator's onJob).  Must be set before
  /// start().
  void setJobObserver(std::function<void(const JobRecord &)> Observer);

  /// \returns aggregated results (valid once the simulator drained).
  const ExperimentStats &stats() const { return Stats; }

  /// \returns true when every submitted job has finished.
  bool finished() const { return Stats.jobCount() == Config.JobCount; }

private:
  void scheduleNextArrival();
  /// Runs one Fig 1 job: fetch \p Lfn to \p Client, then compute.
  void startJob(Host &Client, const std::string &Lfn);
  void finishJob(const JobRecord &R);

  DataGrid &Grid;
  ReplicaManager &Manager;
  std::vector<Host *> Clients;
  WorkloadConfig Config;
  RandomEngine Rng;
  std::vector<std::string> Files;
  size_t Submitted = 0;
  ExperimentStats Stats;
  std::function<void(const JobRecord &)> Observer;
};

} // namespace dgsim

#endif // DGSIM_GRID_EXPERIMENT_H
