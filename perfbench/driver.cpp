//===- perfbench/driver.cpp - dgsim benchmark driver ----------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload and prints one JSON result line.
///
///   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///                    [--trace-out PATH]
///
/// The driver builds every input (GridSpec, HierarchySpec, WorkloadSpec,
/// FaultPlan) from the seed and drives dgsim's public API on one thread.
/// Layers are measured from outside: a span wraps each call this file
/// makes into a layer's public functions, and counters are read through
/// public accessors after the run.
///
/// One run repeats the seed's trial until the run phases have taken
/// --seconds of wall time.  Every trial of a seed is the same simulation,
/// so all trials must print the same fingerprint; with --trace 1 the
/// trials alternate untraced and traced, which checks "trace on == trace
/// off" from outside.  See perfbench/README.md for the metrics.
///
//===----------------------------------------------------------------------===//

#include "grid/DataGrid.h"
#include "grid/Hierarchy.h"
#include "grid/Testbed.h"
#include "net/FlowNetwork.h"
#include "replica/ReplicaManager.h"
#include "replica/ReplicaSelector.h"
#include "replica/SelectionPolicy.h"
#include "support/AllocStats.h"
#include "support/InlineFunction.h"
#include "support/Resource.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// Layer boundaries the driver times.  Each span wraps one call into the
/// named layer's public API.
enum SpanName : uint8_t {
  GridBuild,     ///< DataGrid::buildFrom
  SimRun,        ///< Simulator::run
  ReplicaFetch,  ///< ReplicaManager::fetch
  ReplicaPolicy, ///< SelectionPolicy::choose, via TimedPolicy
  ReplicaRemove, ///< ReplicaManager::remove
  NumSpanNames
};

constexpr const char *SpanNames[NumSpanNames] = {
    "grid.build", "sim.run", "replica.fetch", "replica.policy",
    "replica.remove"};

struct Span {
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span, -1 at top level.
  int32_t Parent = -1;
  SpanName Name = SimRun;
  /// Arrival index of the fetch the span serves, -1 when unknown.
  int64_t Request = -1;
};

/// In-memory span recorder.  When off, open() and close() do nothing.
class Tracer {
public:
  explicit Tracer(bool On) : On(On), Origin(Clock::now()) {}

  bool on() const { return On; }

  /// Opens a span nested in the innermost open one.  A span without a
  /// request id inherits its parent's.
  int32_t open(SpanName Name, int64_t Request = -1) {
    if (!On)
      return -1;
    int32_t Parent = Stack.empty() ? -1 : Stack.back();
    if (Request < 0 && Parent >= 0)
      Request = Spans[size_t(Parent)].Request;
    Spans.push_back({nowNs(), 0, Parent, Name, Request});
    int32_t Index = int32_t(Spans.size() - 1);
    Stack.push_back(Index);
    return Index;
  }

  void close(int32_t Index) {
    if (Index < 0)
      return;
    Spans[size_t(Index)].EndNs = nowNs();
    Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - Origin)
        .count();
  }

  bool On;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer &T, SpanName Name, int64_t Request = -1)
      : T(T), Index(T.open(Name, Request)) {}
  ~ScopedSpan() { T.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int32_t Index;
};

/// Per-name totals over a finished trace.
struct SpanTotals {
  uint64_t Calls[NumSpanNames] = {};
  /// Duration minus the time covered by child spans, seconds.
  double SelfSeconds[NumSpanNames] = {};
  /// Inclusive durations of every ReplicaFetch span, microseconds.
  std::vector<double> FetchMicros;
};

SpanTotals totalSpans(const std::vector<Span> &Spans) {
  SpanTotals Out;
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += S.EndNs - S.StartNs;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    int64_t Dur = S.EndNs - S.StartNs;
    ++Out.Calls[S.Name];
    Out.SelfSeconds[S.Name] += double(Dur - ChildNs[I]) * 1e-9;
    if (S.Name == ReplicaFetch)
      Out.FetchMicros.push_back(double(Dur) * 1e-3);
  }
  return Out;
}

bool writeSpans(const std::vector<Span> &Spans, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "span,name,parent,request,start_ns,end_ns\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu,%s,%" PRId32 ",%" PRId64 ",%" PRId64 ",%" PRId64 "\n",
                 I, SpanNames[S.Name], S.Parent, S.Request, S.StartNs,
                 S.EndNs);
  }
  return std::fclose(F) == 0;
}

/// Times every choose() of the policy it wraps; selections are unchanged.
class TimedPolicy final : public SelectionPolicy {
public:
  TimedPolicy(SelectionPolicy &Inner, Tracer &T) : Inner(Inner), T(T) {}
  const std::string &name() const override { return Inner.name(); }
  Host *choose(NodeId Client, const std::vector<Host *> &Candidates,
               InformationService &Info) override {
    ScopedSpan S(T, ReplicaPolicy);
    return Inner.choose(Client, Candidates, Info);
  }
  void setHealthTracker(HealthTracker *H) override {
    Inner.setHealthTracker(H);
  }

private:
  SelectionPolicy &Inner;
  Tracer &T;
};

//===----------------------------------------------------------------------===//
// Trial results
//===----------------------------------------------------------------------===//

/// \returns the \p Q quantile (nearest rank) of \p V, 0 when empty.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  size_t K = std::min(V.size() - 1, size_t(Q * double(V.size())));
  std::nth_element(V.begin(), V.begin() + std::ptrdiff_t(K), V.end());
  return V[K];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// \returns this process's peak resident set in bytes (VmHWM).  Unlike
/// getrusage, it does not carry over the launching process's peak.
uint64_t peakRss() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return peakRssBytes();
  char Line[256];
  unsigned long long Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %llu kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb ? Kb * 1024 : peakRssBytes();
}

/// Exact text of a double, so fingerprints compare bit patterns.
std::string hexDouble(double X) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%a", X);
  return Buf;
}

/// What one trial measured.  Layer holds the deterministic per-layer
/// values; Spans is empty unless the trial was traced.
struct TrialOut {
  double SetupSeconds = 0.0;
  double RunSeconds = 0.0;
  bool Traced = false;
  /// Untimed first trial of an untraced run.
  bool Warmup = false;
  uint64_t Attempted = 0;
  uint64_t Completed = 0;
  uint64_t FailedOps = 0;
  std::vector<std::string> Problems;
  /// Canonical text of everything the simulation decided.
  std::string Fingerprint;
  std::map<std::string, double> Layer;
  std::vector<Span> Spans;
  SpanTotals Totals;
};

//===----------------------------------------------------------------------===//
// Workloads: paper-testbed, tiered-churn
//===----------------------------------------------------------------------===//

/// Everything a fetch trial needs besides the seed-built GridSpec.
struct FetchConfig {
  GridSpec Spec;
  FetchOptions Fetch;
  /// Sample two holders and rank them with the cost model (tiered grids).
  bool TwoChoice = false;
  /// TransferManager scale-mode endpoint-cap refresh.
  bool BatchedRefresh = false;
  /// Completed-transfer feedback into the information service.
  bool TransferLog = false;
  /// When non-zero, extra replicas registered by fetches are removed in
  /// FIFO order so at most this many exist at once.
  size_t ExtraReplicaCap = 0;
  /// Transfer retry policy; unset keeps TransferManager's default.
  std::optional<RetryPolicy> Retry;
  /// Period of the daemon that samples the path-sensor population.
  SimTime SamplePeriod = 5.0;
};

/// \returns the hosts of \p Layout that may crash: every host except the
/// clients and each file's first replica holder, so every file always has
/// a live holder and no fetch can run out of sources.
std::vector<std::string> crashTargets(const GridSpec &Spec,
                                      const HierarchyLayout &Layout) {
  std::vector<std::string> Keep = Spec.Workloads.front().Clients;
  for (const CatalogFileSpec &F : Spec.Files)
    Keep.push_back(F.ReplicaHosts.front());
  std::vector<std::string> Out;
  for (const std::string &H : Layout.Hosts)
    if (std::find(Keep.begin(), Keep.end(), H) == Keep.end())
      Out.push_back(H);
  return Out;
}

/// The scale-mode tiered grid of bench_scale: a core, Sites/32 regional
/// backbones, one host per site, batched phase-staggered sensors and
/// TTL-evicted path sensors.  Every \p ClientStride-th host fetches.
FetchConfig tieredConfig(uint64_t Seed, unsigned Sites, unsigned Files,
                         unsigned Replicas, unsigned StaggerGroups,
                         SimTime PathTtl, double Rate, uint64_t Fetches,
                         size_t ClientStride, HierarchyLayout &Layout) {
  FetchConfig C;
  GridSpec &Spec = C.Spec;
  Spec.Seed = Seed;
  Spec.Info.BandwidthPeriod = 30.0;
  Spec.Info.HostPeriod = 15.0;
  Spec.Info.BatchSensors = true;
  Spec.Info.BatchHostLoads = true;
  Spec.Info.StaggerGroups = StaggerGroups;
  Spec.Info.PathSensorTtl = PathTtl;

  HierarchySpec H;
  // bench_scale's default-seed topology for every seed: hierarchy draws
  // (access classes, replica placement) decide whether the core couples
  // most flows into one solver component, which swings run time by an
  // order of magnitude between seeds.  The seed drives everything else.
  H.Seed = 7 * 9176 + Sites;
  H.Regions = Sites / 32;
  H.SitesPerRegion = Sites / H.Regions;
  H.HostsPerSite = 1;
  H.RootLink = LinkClassSpec{40e9, 0.008, 0.0, 1.0};
  H.AccessClasses = {{10e9, 0.002, 0.0, 0.25}, {1e9, 0.005, 0.0, 0.75}};
  H.DiskReadRate = 4e9;
  H.DiskWriteRate = 3.2e9;
  H.FileCount = Files;
  H.FileSizeMin = megabytes(1);
  H.FileSizeMax = megabytes(4);
  H.ReplicasPerFile = Replicas;
  std::vector<std::string> Problems = appendHierarchy(Spec, H, &Layout);
  if (!Problems.empty()) {
    std::fprintf(stderr, "error: hierarchy: %s\n", Problems.front().c_str());
    std::exit(2);
  }

  WorkloadSpec Load;
  Load.Name = "bench-load";
  Load.ArrivalsPerSecond = Rate;
  Load.Duration = double(Fetches) / Rate;
  for (size_t I = 0; I < Layout.Hosts.size(); I += ClientStride)
    Load.Clients.push_back(Layout.Hosts[I]);
  Load.Lfns = Layout.Lfns;
  Load.ZipfExponent = 0.8;
  Spec.Workloads.push_back(Load);

  C.TwoChoice = true;
  C.BatchedRefresh = true;
  C.Fetch.Streams = 8;
  C.SamplePeriod = 1.0;
  return C;
}

FetchConfig tieredChurnConfig(uint64_t Seed) {
  HierarchyLayout Layout;
  const SimTime Duration = 200.0;
  const double Rate = 1000.0;
  FetchConfig C = tieredConfig(Seed, /*Sites=*/256, /*Files=*/64,
                               /*Replicas=*/4, /*StaggerGroups=*/16,
                               /*PathTtl=*/20.0, Rate,
                               uint64_t(Duration * Rate), /*ClientStride=*/4,
                               Layout);
  C.Fetch.MaxFailovers = 8;
  C.Fetch.Register = true;
  C.ExtraReplicaCap = 256;
  // Crashed sources are given up on after two refused reconnects, so the
  // fetch fails over instead of waiting out the reboot.
  RetryPolicy Retry;
  Retry.StallTimeout = 5.0;
  Retry.MaxAttempts = 2;
  C.Retry = Retry;
  // Seeded crash/reboot processes, so holders die under in-flight
  // transfers and fetches fail over.
  for (const std::string &H : crashTargets(C.Spec, Layout))
    C.Spec.Faults.mtbf(FaultKind::HostCrash, H, {}, /*Mtbf=*/40.0,
                       /*Mttr=*/20.0, /*Horizon=*/Duration);
  return C;
}

FetchConfig paperTestbedConfig(uint64_t Seed) {
  PaperTestbedOptions Opt;
  Opt.Seed = Seed;
  FetchConfig C;
  C.Spec = PaperTestbed::spec(Opt);
  RandomEngine Rng(Seed * 6364136223846793005ULL + 1442695040888963407ULL);
  WorkloadSpec Load;
  Load.Name = "bench-load";
  for (int I = 0; I < 16; ++I) {
    CatalogFileSpec F;
    F.Lfn = "bench-f" + std::to_string(I);
    F.SizeBytes = megabytes(std::floor(Rng.uniform(256.0, 2048.0)));
    F.ReplicaHosts = {"alpha4", "hit0", "lz02"};
    C.Spec.Files.push_back(F);
    Load.Lfns.push_back(F.Lfn);
  }
  Load.Clients = {"alpha1", "alpha2", "alpha3", "hit1",
                  "hit2",   "lz01",   "lz03"};
  Load.ArrivalsPerSecond = 1.0 / 60.0;
  Load.Duration = 2.0 * 86400.0;
  C.Spec.Workloads.push_back(Load);
  C.Fetch.Register = false;
  C.TransferLog = true;
  C.SamplePeriod = 60.0;
  return C;
}

/// One fetch trial: the grid and replica stack for one seed, and an
/// open-loop driver replaying the grid's expanded arrivals.  The driver
/// mirrors WorkloadDriver but calls ReplicaManager::fetch itself, so each
/// call can be timed and tagged with its arrival index.
class FetchTrial {
public:
  FetchTrial(const FetchConfig &Config, Tracer &T) : Config(Config), T(T) {
    {
      ScopedSpan S(T, GridBuild);
      Grid = DataGrid::buildFrom(Config.Spec);
    }
    if (Config.TransferLog)
      Grid->enableTransferLog();
    SelectionPolicy *Policy = &Cost;
    if (Config.TwoChoice) {
      Two.emplace(Cost, RandomEngine(Config.Spec.Seed * 7919 + 13).fork());
      Policy = &*Two;
    }
    if (T.on()) {
      Timed.emplace(*Policy, T);
      Policy = &*Timed;
    }
    Sel.emplace(Grid->catalog(), Grid->info(), *Policy);
    Mgr.emplace(Grid->catalog(), *Sel, Grid->transfers());
    if (Config.BatchedRefresh)
      Grid->transfers().setBatchedRefresh(true);
    if (Config.Retry)
      Grid->transfers().setRetryPolicy(*Config.Retry);
    const WorkloadSpec &Load = Grid->spec().Workloads.front();
    for (const std::string &Name : Load.Clients)
      Clients.push_back(Grid->findHost(Name));
    Lfns = Load.Lfns;
    Resolved.assign(Grid->workloadArrivals(0).size(), 0);
    Sojourns.reserve(Resolved.size());
    Grid->sim().schedulePeriodic(
        Config.SamplePeriod,
        [this] {
          PathSensorsPeak =
              std::max(PathSensorsPeak, Grid->info().pathSensorCount());
        },
        Config.SamplePeriod);
    if (!Resolved.empty())
      scheduleArrival(0);
  }

  void run() {
    ScopedSpan S(T, SimRun);
    Grid->sim().run();
  }

  void finish(TrialOut &Out) {
    const size_t Arrived = Resolved.size();
    Out.Attempted = Arrived;
    Out.Completed = Completed;
    Out.FailedOps = Failed + Shed + Expired;
    if (Arrivals != Arrived)
      Out.Problems.push_back("arrivals fired " + std::to_string(Arrivals) +
                             " of " + std::to_string(Arrived));
    size_t NotOnce = size_t(std::count_if(
        Resolved.begin(), Resolved.end(), [](uint8_t N) { return N != 1; }));
    if (NotOnce != 0)
      Out.Problems.push_back(std::to_string(NotOnce) +
                             " arrivals did not resolve exactly once");
    if (Completed + Failed + Shed + Expired != Arrived)
      Out.Problems.push_back("completed + failed + shed + expired != "
                             "arrivals");
    if (ShortDeliveries != 0)
      Out.Problems.push_back(std::to_string(ShortDeliveries) +
                             " successful fetches with DeliveredBytes more "
                             "than a byte from FileBytes");

    Simulator &Sim = Grid->sim();
    FlowNetwork &Net = Grid->network();
    InformationService &Info = Grid->info();
    TransferManager &Tm = Grid->transfers();
    auto &L = Out.Layer;
    L["sim.events"] = double(Sim.eventsExecuted());
    L["net.rebalances"] = double(Net.rebalanceEvents());
    L["net.demands_solved"] = double(Net.rebalanceDemandsSolved());
    L["net.mean_component"] =
        Net.rebalanceEvents() ? double(Net.rebalanceDemandsSolved()) /
                                    double(Net.rebalanceEvents())
                              : 0.0;
    L["net.max_rebalance_error"] = Net.maxRebalanceError();
    L["monitor.factor_queries"] = double(Info.factorQueries());
    L["monitor.factor_recomputes"] = double(Info.factorRecomputes());
    L["monitor.factor_hit_ratio"] =
        Info.factorQueries()
            ? 1.0 - double(Info.factorRecomputes()) /
                        double(Info.factorQueries())
            : 0.0;
    L["monitor.path_sensors_peak"] = double(PathSensorsPeak);
    L["monitor.path_churn"] = double(Info.pathsStructureVersion());
    L["monitor.log_appends"] =
        Grid->transferLog() ? double(Grid->transferLog()->totalAppends())
                            : 0.0;
    L["replica.rank_rebinds"] = double(Sel->rankingRebinds());
    L["replica.failovers"] = double(Mgr->totalFailovers());
    L["replica.removes"] = double(Removes);
    L["gridftp.completed"] = double(Tm.completedTransfers());
    L["gridftp.failed"] = double(Tm.failedTransfers());
    L["gridftp.restarts"] = double(Tm.totalRestarts());
    L["gridftp.timeouts"] = double(Tm.totalTimeouts());
    L["gridftp.queued"] = double(Tm.totalQueued());
    L["fault.windows"] =
        Grid->faults() ? double(Grid->faults()->counters().totalFaults())
                       : 0.0;
    L["grid.arrivals"] = double(Arrived);
    L["fetch_p50_sim_s"] = quantile(Sojourns, 0.50);
    L["fetch_p99_sim_s"] = quantile(Sojourns, 0.99);
    L["fetch_fail_ratio"] =
        Arrived ? double(Failed + Shed + Expired) / double(Arrived) : 0.0;

    double SojournSum = 0.0;
    for (double S : Sojourns)
      SojournSum += S;
    Out.Fingerprint = "events=" + std::to_string(Sim.eventsExecuted()) +
                      " now=" + hexDouble(Sim.now()) +
                      " completed=" + std::to_string(Completed) +
                      " failed=" + std::to_string(Failed) +
                      " shed=" + std::to_string(Shed) +
                      " expired=" + std::to_string(Expired) +
                      " sojourn_sum=" + hexDouble(SojournSum) +
                      " goodput=" + hexDouble(GoodputBytes);
    for (const char *Key :
         {"net.rebalances", "net.demands_solved", "monitor.factor_queries",
          "monitor.factor_recomputes", "monitor.path_sensors_peak",
          "monitor.path_churn", "monitor.log_appends", "replica.rank_rebinds",
          "replica.failovers", "replica.removes", "gridftp.completed",
          "gridftp.failed", "gridftp.restarts", "gridftp.timeouts",
          "gridftp.queued", "fault.windows"})
      Out.Fingerprint += std::string(" ") + Key + "=" +
                         std::to_string(uint64_t(L.at(Key)));
  }

private:
  void scheduleArrival(size_t Pos) {
    SimTime At = Grid->workloadArrivals(0)[Pos].Time;
    Grid->sim().scheduleAt(At, [this, Pos] { arrive(Pos); });
  }

  /// Open loop: the successor is scheduled before this fetch runs, so
  /// arrivals never wait for earlier fetches.
  void arrive(size_t Pos) {
    const std::vector<WorkloadArrival> &Arr = Grid->workloadArrivals(0);
    if (Pos + 1 < Arr.size())
      scheduleArrival(Pos + 1);
    const WorkloadArrival &A = Arr[Pos];
    ++Arrivals;
    ScopedSpan S(T, ReplicaFetch, int64_t(Pos));
    Mgr->fetch(Lfns[A.LfnIdx], *Clients[A.ClientIdx], Config.Fetch,
               [this, Pos](const FetchResult &R) { resolve(Pos, R); });
  }

  void resolve(size_t Pos, const FetchResult &R) {
    ++Resolved[Pos];
    if (!R.Succeeded) {
      if (R.Shed)
        ++Shed;
      else if (R.DeadlineExpired)
        ++Expired;
      else
        ++Failed;
      return;
    }
    ++Completed;
    GoodputBytes += R.FileBytes;
    // Bytes are doubles and a resumed transfer sums its parts, so the
    // check allows the one byte tests/FaultTest.cpp allows.
    if (!R.LocalHit && std::abs(R.DeliveredBytes - R.FileBytes) > 1.0)
      ++ShortDeliveries;
    // Sojourn from the scheduled arrival, so generator lateness (zero in
    // simulated time) would count too.
    Sojourns.push_back(R.EndTime - Grid->workloadArrivals(0)[Pos].Time);
    if (Config.ExtraReplicaCap == 0 || !Config.Fetch.Register || R.LocalHit)
      return;
    const WorkloadArrival &A = Grid->workloadArrivals(0)[Pos];
    Extra.push_back({A.LfnIdx, Clients[A.ClientIdx]});
    while (Extra.size() > Config.ExtraReplicaCap) {
      auto [Lfn, Holder] = Extra.front();
      Extra.pop_front();
      ScopedSpan S(T, ReplicaRemove);
      Removes += Mgr->remove(Lfns[Lfn], *Holder) ? 1 : 0;
    }
  }

  const FetchConfig &Config;
  Tracer &T;
  std::unique_ptr<DataGrid> Grid;
  CostModelPolicy Cost;
  std::optional<TwoChoicePolicy> Two;
  std::optional<TimedPolicy> Timed;
  std::optional<ReplicaSelector> Sel;
  std::optional<ReplicaManager> Mgr;
  std::vector<Host *> Clients;
  std::vector<std::string> Lfns;
  /// Resolutions per arrival; each must end at exactly 1.
  std::vector<uint8_t> Resolved;
  std::vector<double> Sojourns;
  /// Extra replicas registered by fetches, oldest first.
  std::deque<std::pair<uint32_t, Host *>> Extra;
  uint64_t Arrivals = 0, Completed = 0, Failed = 0, Shed = 0, Expired = 0;
  uint64_t ShortDeliveries = 0, Removes = 0;
  Bytes GoodputBytes = 0.0;
  size_t PathSensorsPeak = 0;
};

TrialOut runFetchTrial(const FetchConfig &Config, bool Traced) {
  TrialOut Out;
  Tracer T(Traced);
  uint64_t Heap0 = InlineFunction<void()>::heapFallbacks();
  uint64_t Pool0 = PoolStats::growths();
  auto T0 = Clock::now();
  FetchTrial Trial(Config, T);
  Out.SetupSeconds = secondsSince(T0);
  auto T1 = Clock::now();
  Trial.run();
  Out.RunSeconds = secondsSince(T1);
  Trial.finish(Out);
  Out.Layer["support.callback_heap_fallbacks"] =
      double(InlineFunction<void()>::heapFallbacks() - Heap0);
  Out.Layer["support.pool_growths"] = double(PoolStats::growths() - Pool0);
  Out.Fingerprint +=
      " heap_fallbacks=" +
      std::to_string(uint64_t(Out.Layer["support.callback_heap_fallbacks"]));
  Out.Spans = T.spans();
  return Out;
}

//===----------------------------------------------------------------------===//
// Runs and the result line
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Printed with --trace 0: measured on untraced trials only.
constexpr MetricDef EndToEnd[] = {
    {"ops_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

/// Printed with --trace 1.  Names a workload does not exercise read 0.
constexpr MetricDef PerLayer[] = {
    {"sim.events", "count"},
    {"sim.run.self_s", "s"},
    {"sim.events_per_self_s", "1/s"},
    {"net.rebalances", "count"},
    {"net.demands_solved", "count"},
    {"net.mean_component", "count"},
    {"net.max_rebalance_error", "ratio"},
    {"monitor.factor_queries", "count"},
    {"monitor.factor_recomputes", "count"},
    {"monitor.factor_hit_ratio", "ratio"},
    {"monitor.path_sensors_peak", "count"},
    {"monitor.path_churn", "count"},
    {"monitor.log_appends", "count"},
    {"replica.fetch.self_s", "s"},
    {"replica.fetch_p50_us", "us"},
    {"replica.fetch_p99_us", "us"},
    {"replica.fetch_calls", "count"},
    {"replica.policy.self_s", "s"},
    {"replica.policy_calls", "count"},
    {"replica.remove.self_s", "s"},
    {"replica.removes", "count"},
    {"replica.rank_rebinds", "count"},
    {"replica.failovers", "count"},
    {"gridftp.completed", "count"},
    {"gridftp.failed", "count"},
    {"gridftp.restarts", "count"},
    {"gridftp.timeouts", "count"},
    {"gridftp.queued", "count"},
    {"fault.windows", "count"},
    {"grid.build.self_s", "s"},
    {"grid.arrivals", "count"},
    {"support.callback_heap_fallbacks", "count"},
    {"support.pool_growths", "count"},
    {"bench.trace_overhead", "ratio"},
    {"fetch_p50_sim_s", "s"},
    {"fetch_p99_sim_s", "s"},
    {"fetch_fail_ratio", "ratio"},
};

constexpr const char *WorkloadNames[] = {"paper-testbed", "tiered-churn"};

/// A run takes at least this many set-ups; small set-ups repeat until
/// they add up to MinSetupSeconds, so setup_s is a median of many.
constexpr size_t MinSetups = 3;
constexpr size_t MaxSetups = 2000;
constexpr double MinSetupSeconds = 1.0;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  int Trace = -1;
  std::string TraceOut;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("every flag takes a value");
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = End != Value && *End == '\0';
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value, &End);
      if (End == Value || *End != '\0' || !(A.Seconds > 0.0))
        usage("--seconds takes a positive number");
    } else if (Flag == "--trace") {
      if (std::string_view(Value) != "0" && std::string_view(Value) != "1")
        usage("--trace takes 0 or 1");
      A.Trace = Value[0] - '0';
    } else if (Flag == "--trace-out") {
      A.TraceOut = Value;
    } else {
      usage("unknown flag");
    }
  }
  if (std::find_if(std::begin(WorkloadNames), std::end(WorkloadNames),
                   [&](const char *N) { return A.Workload == N; }) ==
      std::end(WorkloadNames))
    usage("--workload must name a workload listed in BENCHMARK.json");
  if (!HaveSeed || A.Seconds <= 0.0 || A.Trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return A;
}

void printMetric(bool &First, const char *Name, double Value,
                 const char *Unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              First ? "" : ", ", Name, Value, Unit);
  First = false;
}

/// Seed of a run's input \p Index: input 0 is the run's own seed, later
/// inputs are fresh draws from it (splitmix64).
uint64_t inputSeed(uint64_t Seed, size_t Index) {
  if (Index == 0)
    return Seed;
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ULL * Index;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Median over \p Trials of \p Get.
template <typename Fn>
double medianOver(const std::vector<const TrialOut *> &Trials, Fn Get) {
  std::vector<double> Xs;
  for (const TrialOut *T : Trials)
    Xs.push_back(Get(*T));
  return median(Xs);
}

/// The workload \p Name built from \p Seed.
FetchConfig fetchConfig(const std::string &Name, uint64_t Seed) {
  return Name == "paper-testbed" ? paperTestbedConfig(Seed)
                                 : tieredChurnConfig(Seed);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  auto RunTrial = [&](size_t Input, bool Traced) {
    return runFetchTrial(fetchConfig(A.Workload, inputSeed(A.Seed, Input)),
                         Traced);
  };

  // Trials run until their run phases fill --seconds.  Each takes the
  // next input drawn from the seed, so a run's median spans several
  // inputs.  Trial 1 repeats trial 0's input, and with --trace 1 every
  // input runs untraced and then traced: trials of one input must give
  // one fingerprint.  Trial 0 sets peak_rss_mb.  Without --trace it is
  // also the warm-up: it fills the allocator and caches, and its run
  // phase is neither timed towards --seconds nor in ops_per_s.
  struct Planned {
    size_t Input;
    bool Traced;
  };
  auto Plan = [&](size_t K) -> Planned {
    if (A.Trace)
      return {K / 2, K % 2 == 1};
    return {K == 0 ? 0 : K - 1, false};
  };
  std::vector<TrialOut> Trials;
  std::map<size_t, std::string> Fingerprints;
  std::vector<std::string> Problems;
  double RunTotal = 0.0;
  uint64_t PeakRss = 0;
  while (Trials.size() < 2 || RunTotal < A.Seconds ||
         (A.Trace && Trials.size() % 2 == 1)) {
    Planned P = Plan(Trials.size());
    Trials.push_back(RunTrial(P.Input, P.Traced));
    TrialOut &T = Trials.back();
    T.Traced = P.Traced;
    T.Warmup = !A.Trace && Trials.size() == 1;
    if (Trials.size() == 1)
      PeakRss = peakRss();
    if (!T.Warmup)
      RunTotal += T.RunSeconds;
    T.Totals = totalSpans(T.Spans);
    if (!A.TraceOut.empty() && T.Traced && !writeSpans(T.Spans, A.TraceOut))
      T.Problems.push_back("cannot write spans to " + A.TraceOut);
    T.Spans = {};
    auto [It, New] = Fingerprints.emplace(P.Input, T.Fingerprint);
    if (!New && It->second != T.Fingerprint)
      T.Problems.push_back("fingerprint differs from the first trial of "
                           "input " + std::to_string(P.Input));
    std::printf("# trial %zu input %zu traced=%d warmup=%d setup_s=%.6f "
                "run_s=%.6f ops=%" PRIu64 "\n# fingerprint %s\n",
                Trials.size() - 1, P.Input, int(T.Traced), int(T.Warmup),
                T.SetupSeconds, T.RunSeconds, T.Completed,
                T.Fingerprint.c_str());
  }

  // Set-up times of the trials; small set-ups repeat (input 0).
  std::vector<double> Setups;
  double SetupTotal = 0.0;
  for (const TrialOut &T : Trials) {
    Setups.push_back(T.SetupSeconds);
    SetupTotal += T.SetupSeconds;
  }
  if (Setups.size() < MinSetups || SetupTotal < MinSetupSeconds) {
    FetchConfig Config = fetchConfig(A.Workload, A.Seed);
    while (Setups.size() < MinSetups ||
           (SetupTotal < MinSetupSeconds && Setups.size() < MaxSetups)) {
      Tracer Off(false);
      auto T0 = Clock::now();
      FetchTrial Trial(Config, Off);
      double S = secondsSince(T0);
      Setups.push_back(S);
      SetupTotal += S;
    }
  }

  // Correctness: every trial's own checks, including its fingerprint.
  uint64_t Attempted = 0, Failed = 0;
  std::vector<const TrialOut *> Untraced, Traced;
  for (size_t I = 0; I != Trials.size(); ++I) {
    const TrialOut &T = Trials[I];
    for (const std::string &P : T.Problems)
      Problems.push_back("trial " + std::to_string(I) + ": " + P);
    Attempted += T.Attempted;
    Failed += T.FailedOps;
    if (!T.Warmup)
      (T.Traced ? Traced : Untraced).push_back(&T);
  }
  // Each failed check counts as one failed operation.
  Failed += Problems.size();
  for (const std::string &P : Problems)
    std::printf("# check failed: %s\n", P.c_str());
  auto Ops = [](const TrialOut &T) {
    return double(T.Completed) / T.RunSeconds;
  };

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Problems.empty() ? "true" : "false", Attempted, Failed);
  bool First = true;
  if (!A.Trace) {
    double Values[] = {medianOver(Untraced, Ops), median(Setups),
                       double(PeakRss) / (1024.0 * 1024.0)};
    for (size_t I = 0; I != std::size(EndToEnd); ++I)
      printMetric(First, EndToEnd[I].Name, Values[I], EndToEnd[I].Unit);
  } else {
    // Counters: median over the traced trials' inputs.
    std::map<std::string, double> V;
    for (const auto &KV : Traced.front()->Layer)
      V[KV.first] = medianOver(Traced, [&](const TrialOut &T) {
        return T.Layer.at(KV.first);
      });
    auto Self = [&](SpanName N) {
      return medianOver(Traced, [N](const TrialOut &T) {
        return T.Totals.SelfSeconds[N];
      });
    };
    auto Calls = [&](SpanName N) {
      return medianOver(Traced, [N](const TrialOut &T) {
        return double(T.Totals.Calls[N]);
      });
    };
    V["sim.run.self_s"] = Self(SimRun);
    V["sim.events_per_self_s"] =
        V["sim.run.self_s"] > 0.0 ? V["sim.events"] / V["sim.run.self_s"]
                                  : 0.0;
    V["replica.fetch.self_s"] = Self(ReplicaFetch);
    V["replica.fetch_p50_us"] = medianOver(Traced, [](const TrialOut &T) {
      return quantile(T.Totals.FetchMicros, 0.50);
    });
    V["replica.fetch_p99_us"] = medianOver(Traced, [](const TrialOut &T) {
      return quantile(T.Totals.FetchMicros, 0.99);
    });
    V["replica.fetch_calls"] = Calls(ReplicaFetch);
    V["replica.policy.self_s"] = Self(ReplicaPolicy);
    V["replica.policy_calls"] = Calls(ReplicaPolicy);
    V["replica.remove.self_s"] = Self(ReplicaRemove);
    V["grid.build.self_s"] = Self(GridBuild);
    // Trials 2k and 2k+1 ran the same input untraced and traced.
    std::vector<double> Ratios;
    for (size_t I = 0; I != Traced.size(); ++I)
      Ratios.push_back(Ops(*Traced[I]) / Ops(*Untraced[I]));
    V["bench.trace_overhead"] = median(Ratios);
    for (const MetricDef &M : PerLayer) {
      auto It = V.find(M.Name);
      printMetric(First, M.Name, It == V.end() ? 0.0 : It->second, M.Unit);
    }
  }
  std::printf("}}\n");
  return Problems.empty() ? 0 : 1;
}
