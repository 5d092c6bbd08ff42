//===- tests/FastPathTest.cpp - Selection fast-path + serial pin suite ----===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot-path equivalence contract (DESIGN.md §13): the selection caches
/// are pure performance substitutions — every observable byte of a run is
/// identical with them on or off.  Alongside, journals captured from the
/// serial kernel pin whole-run results, so a change to the kernel or to
/// the batched resource ticks that moves any result shows here:
///
///   * the paper-testbed transfers behind the fig3/fig4 goldens;
///   * the batched 16-site chaos grid (batched sensors, batched host
///     loads, batched cap refresh, fault plan, open-loop workload), with
///     the selection caches on and off, and with transfer-log feedback.
///
/// Last, these scenarios plus a flow-churn run execute 2/4/8 at once on a
/// ThreadPool, as ExperimentRunner --jobs runs trials: every concurrent
/// journal must equal the serial one, so simulators share no state.
///
//===----------------------------------------------------------------------===//

#include "grid/DataGrid.h"
#include "grid/Hierarchy.h"
#include "grid/Testbed.h"
#include "grid/Workload.h"
#include "monitor/TransferLog.h"
#include "net/FlowNetwork.h"
#include "replica/ReplicaManager.h"
#include "replica/ReplicaSelector.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "support/Units.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

namespace {

//===----------------------------------------------------------------------===//
// Whole runs: paper-testbed transfers (the fig3/fig4 scenarios)
//===----------------------------------------------------------------------===//

/// One fig3/fig4-style transfer on a fresh paper testbed.  Returns a
/// bit-exact journal of the result.
std::string runTestbedTransfer(TransferProtocol Protocol, unsigned Streams) {
  PaperTestbed T;
  T.sim().runUntil(30.0);
  TransferSpec Spec;
  Spec.Source = T.grid().findHost("hit0");
  Spec.Destination = T.grid().findHost("alpha1");
  Spec.FileBytes = megabytes(256);
  Spec.Protocol = Protocol;
  Spec.Streams = Streams;
  TransferResult Result;
  T.grid().transfers().submit(Spec,
                              [&](const TransferResult &R) { Result = R; });
  T.sim().run();
  char Line[160];
  std::snprintf(Line, sizeof(Line), "st=%d d=%.17g tot=%.17g thr=%.17g e=%llu",
                int(Result.Status), Result.DataSeconds, Result.totalSeconds(),
                Result.meanThroughput(),
                static_cast<unsigned long long>(T.sim().eventsExecuted()));
  return Line;
}

// The pinned journals below were captured from the serial kernel before
// the calendar queue and the in-run parallel layer were removed; they
// equal what every scheduler and thread count produced then.

const char *const Fig3Journal = "st=0 d=75.366399999999999 "
                                "tot=76.012164705882356 "
                                "thr=28251841.745454364 e=4990";
const char *const Fig4Journal = "st=0 d=9.423243750000001 "
                                "tot=10.087408455882354 "
                                "thr=212887547.61860764 e=1944";

TEST(FastPathDeterminism, TestbedFig3TransferMatchesPinnedJournal) {
  EXPECT_EQ(runTestbedTransfer(TransferProtocol::GridFtpStream, 1),
            Fig3Journal);
}

TEST(FastPathDeterminism, TestbedFig4ParallelStreamsMatchesPinnedJournal) {
  EXPECT_EQ(runTestbedTransfer(TransferProtocol::GridFtpModeE, 8),
            Fig4Journal);
}

//===----------------------------------------------------------------------===//
// Whole runs: the batched 16-site chaos grid
//===----------------------------------------------------------------------===//

/// The chaos grid — batched sensors + host loads, batched cap refresh,
/// fault plan, open-loop workload — with the selection caches on or off.
/// Every counter the WorkloadDriver keeps is folded into the journal; the
/// transfer-log append count joins it when log feedback is on.
std::string runBatchedGrid(uint64_t Seed, bool SelectionCaches,
                           bool LogFeedback = false) {
  GridSpec Spec;
  Spec.Seed = Seed;
  Spec.Info.BandwidthPeriod = 10.0;
  Spec.Info.HostPeriod = 5.0;
  Spec.Info.BatchSensors = true;
  Spec.Info.BatchHostLoads = true;
  Spec.Info.StaggerGroups = 4;

  HierarchySpec H;
  H.Seed = Seed * 9176 + 16;
  H.Regions = 2;
  H.SitesPerRegion = 8;
  H.HostsPerSite = 1;
  H.FileCount = 24;
  H.FileSizeMin = megabytes(1);
  H.FileSizeMax = megabytes(4);
  H.ReplicasPerFile = 4;
  HierarchyLayout Layout;
  std::vector<std::string> Problems = appendHierarchy(Spec, H, &Layout);
  EXPECT_TRUE(Problems.empty());

  WorkloadSpec Load;
  Load.Name = "det-load";
  Load.Start = 0.0;
  Load.ArrivalsPerSecond = 25.0;
  Load.Duration = 20.0;
  for (size_t I = 0; I < Layout.Hosts.size(); I += 2)
    Load.Clients.push_back(Layout.Hosts[I]);
  Load.Lfns = Layout.Lfns;
  Load.ZipfExponent = 0.8;
  Spec.Workloads.push_back(Load);

  Spec.Faults.sensorBlackout(6.0, 8.0);
  Spec.Faults.mtbf(FaultKind::StorageOutage, Layout.Hosts[1], "", 7.0, 4.0,
                   20.0);

  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  G->transfers().setBatchedRefresh(true);
  if (LogFeedback)
    G->enableTransferLog();

  CostModelPolicy Cost;
  TwoChoicePolicy Policy(Cost, RandomEngine(Seed * 7919 + 13).fork());
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  if (!SelectionCaches) {
    G->info().setFactorCacheEnabled(false);
    Sel.setRankingCacheEnabled(false);
  }
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());
  WorkloadDriver Driver(*G, Mgr);

  FetchOptions FO;
  FO.Streams = 4;
  FO.MaxFailovers = 2;
  FO.Register = false;
  Driver.start(0, FO);
  G->sim().run();

  const WorkloadCounters &C = Driver.counters();
  double SojournSum = 0.0;
  for (double S : C.SojournSeconds)
    SojournSum += S;
  char Line[256];
  std::snprintf(
      Line, sizeof(Line),
      "a=%llu c=%llu f=%llu s=%llu lh=%llu gp=%.17g sj=%.17g e=%llu "
      "end=%.17g h=%llx",
      static_cast<unsigned long long>(C.Arrivals),
      static_cast<unsigned long long>(C.Completed),
      static_cast<unsigned long long>(C.Failed),
      static_cast<unsigned long long>(C.Shed),
      static_cast<unsigned long long>(C.LocalHits), C.GoodputBytes, SojournSum,
      static_cast<unsigned long long>(G->sim().eventsExecuted()),
      G->sim().now(), static_cast<unsigned long long>(Spec.hash()));
  std::string Journal = Line;
  if (G->transferLog())
    Journal += " lg=" + std::to_string(G->transferLog()->totalAppends());
  return Journal;
}

const char *const GridJournal =
    "a=478 c=478 f=0 s=0 lh=94 gp=1304908254.0784802 "
    "sj=3536.5046559837019 e=1490 end=73.364265940490043 "
    "h=82479c60474c4ee1";

TEST(FastPathDeterminism, GridBatchedRunMatchesPinnedJournal) {
  EXPECT_EQ(runBatchedGrid(42, true), GridJournal);
}

TEST(FastPathDeterminism, GridUncachedSelectionMatchesCached) {
  std::string Baseline = runBatchedGrid(42, true);
  EXPECT_EQ(Baseline, runBatchedGrid(42, false));
}

TEST(FastPathDeterminism, GridLogFeedbackMatchesPinnedJournal) {
  EXPECT_EQ(runBatchedGrid(42, true, true),
            "a=478 c=478 f=0 s=0 lh=94 gp=1304908254.0784802 "
            "sj=3531.3174084262682 e=1490 end=73.364265940490043 "
            "h=82479c60474c4ee1 lg=384");
}

TEST(FastPathDeterminism, GridLogFeedbackUncachedMatchesCached) {
  // Transfer-log feedback on: the FactorCache entry now carries the log
  // version and query hints, and a cache hit must reproduce the refined
  // prediction byte-for-byte.  The feedback-on journal legitimately
  // differs from the feedback-off one (predictions change selections),
  // so equality is asserted within the feedback-on configuration.
  std::string Baseline = runBatchedGrid(42, true, true);
  EXPECT_EQ(Baseline, runBatchedGrid(42, false, true));
}

//===----------------------------------------------------------------------===//
// Concurrent trials: what ExperimentRunner --jobs relies on
//===----------------------------------------------------------------------===//

/// Runs \p Trial \p Workers times at once on a pool of \p Workers
/// threads, the way the experiment layer runs independent trials, and
/// returns every journal.  Any state shared between simulators (a static
/// cache, a global RNG) would make some journal differ from the serial one.
std::vector<std::string>
runConcurrently(unsigned Workers, const std::function<std::string()> &Trial) {
  std::vector<std::string> Journals(Workers);
  ThreadPool Pool(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Pool.submit([&Journals, &Trial, I] { Journals[I] = Trial(); });
  Pool.wait();
  return Journals;
}

/// Shared-core flow churn: 24 sites on a saturated star, flows started,
/// cancelled and re-capped at random, the clock advanced in small steps.
/// The journal pins every live flow's final rate to 17 significant digits
/// plus the rebalance statistics and the event count.
std::string runChurn(uint64_t Seed) {
  Simulator Sim(Seed);
  Topology Topo;
  constexpr size_t NumSites = 24;
  NodeId Core = Topo.addNode("core");
  std::vector<NodeId> Site(NumSites);
  for (size_t I = 0; I < NumSites; ++I) {
    Site[I] = Topo.addNode("site" + std::to_string(I));
    // Narrow enough that the star saturates under the flow mix below, so
    // rebalance components span many flows.
    Topo.addLink(Site[I], Core, mbps(100), 0.002);
  }
  Routing Router(Topo);
  TcpModel Tcp;
  FlowNetwork Net(Sim, Topo, Router, Tcp);

  RandomEngine Rng(Seed * 48271 + 11);
  auto start = [&] {
    size_t A = size_t(Rng.uniform() * NumSites) % NumSites;
    size_t B = (A + 1 + size_t(Rng.uniform() * (NumSites - 1))) % NumSites;
    FlowOptions Options;
    Options.Streams = 1 + unsigned(Rng.uniform() * 4.0);
    Options.EndpointCap = Rng.uniform(mbps(1), mbps(50));
    Options.Background = true;
    return Net.startFlow(Site[A], Site[B], gigabytes(Rng.uniform(1.0, 8.0)),
                         Options, nullptr);
  };

  std::vector<FlowId> Live;
  for (size_t I = 0; I < 300; ++I)
    Live.push_back(start());
  for (size_t I = 0; I < 400; ++I) {
    while (!Live.empty() && Net.remainingBytes(Live.back()) == 0.0)
      Live.pop_back();
    double Op = Rng.uniform();
    if (Op < 0.35 && !Live.empty()) {
      size_t Pick = size_t(Rng.uniform() * Live.size()) % Live.size();
      Net.cancelFlow(Live[Pick]);
      Live[Pick] = Live.back();
      Live.pop_back();
      Live.push_back(start());
    } else if (Op < 0.70 || Live.empty()) {
      Live.push_back(start());
    } else {
      size_t Pick = size_t(Rng.uniform() * Live.size()) % Live.size();
      Net.setEndpointCap(Live[Pick], Rng.uniform(mbps(1), mbps(50)));
    }
    if (I % 32 == 31)
      Sim.runUntil(Sim.now() + 0.05);
  }

  std::string Journal;
  char Line[64];
  for (FlowId Id : Live) {
    std::snprintf(Line, sizeof(Line), "%.17g\n", Net.currentRate(Id));
    Journal += Line;
  }
  std::snprintf(Line, sizeof(Line), "ev=%llu dem=%llu e=%llu\n",
                static_cast<unsigned long long>(Net.rebalanceEvents()),
                static_cast<unsigned long long>(Net.rebalanceDemandsSolved()),
                static_cast<unsigned long long>(Sim.eventsExecuted()));
  Journal += Line;
  return Journal;
}

class ChurnThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChurnThreads, BitIdenticalToSerial) {
  std::string Serial = runChurn(20050607);
  for (const std::string &J :
       runConcurrently(GetParam(), [] { return runChurn(20050607); }))
    EXPECT_EQ(Serial, J);
}

INSTANTIATE_TEST_SUITE_P(Threads, ChurnThreads, ::testing::Values(2, 4, 8));

class TestbedThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(TestbedThreads, Fig3StyleTransferBitIdentical) {
  for (const std::string &J : runConcurrently(GetParam(), [] {
         return runTestbedTransfer(TransferProtocol::GridFtpStream, 1);
       }))
    EXPECT_EQ(J, Fig3Journal);
}

TEST_P(TestbedThreads, Fig4StyleParallelStreamsBitIdentical) {
  for (const std::string &J : runConcurrently(GetParam(), [] {
         return runTestbedTransfer(TransferProtocol::GridFtpModeE, 8);
       }))
    EXPECT_EQ(J, Fig4Journal);
}

INSTANTIATE_TEST_SUITE_P(Threads, TestbedThreads, ::testing::Values(2, 4, 8));

class GridThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(GridThreads, BatchedChaosRunBitIdentical) {
  for (const std::string &J :
       runConcurrently(GetParam(), [] { return runBatchedGrid(42, true); }))
    EXPECT_EQ(J, GridJournal);
}

INSTANTIATE_TEST_SUITE_P(Threads, GridThreads, ::testing::Values(2, 4, 8));

} // namespace
