//===- replica/HealthTracker.cpp -------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replica/HealthTracker.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dgsim;

const char *dgsim::breakerStateName(BreakerState S) {
  switch (S) {
  case BreakerState::Closed:
    return "closed";
  case BreakerState::Open:
    return "open";
  case BreakerState::HalfOpen:
    return "half-open";
  }
  assert(false && "unknown breaker state");
  return "?";
}

HealthTracker::HealthTracker(Simulator &Sim, HealthConfig Config)
    : Sim(Sim), Config(Config), Rng(Sim.forkRng()) {
  assert(Config.Alpha > 0.0 && Config.Alpha <= 1.0 && "alpha in (0, 1]");
  assert(Config.CloseThreshold < Config.TripThreshold &&
         "hysteresis band inverted: close threshold must sit below trip");
  assert(Config.ProbeJitter >= 0.0 && Config.ProbeJitter < 1.0 &&
         "probe jitter is a fraction of the open window");
}

HealthTracker::SiteState &HealthTracker::refresh(const Host &Site) {
  SiteState &S = Sites[&Site];
  if (S.State == BreakerState::Open && Sim.now() >= S.OpenUntil) {
    S.State = BreakerState::HalfOpen;
    S.ProbeInFlight = false;
    ++Version;
    if (Trace)
      Trace->recordf(Sim.now(), TraceCategory::Health,
                     "%s: breaker half-open (probe window)",
                     Site.name().c_str());
  }
  return S;
}

void HealthTracker::trip(SiteState &S, const Host &Site) {
  ++S.ConsecutiveTrips;
  ++Trips;
  double Window =
      std::min(Config.OpenSeconds *
                   std::pow(Config.OpenBackoffFactor,
                            static_cast<double>(S.ConsecutiveTrips - 1)),
               Config.OpenMaxSeconds);
  // Deterministic jitter: same seed, same probe schedule — but breakers
  // tripped by one event don't all probe at the same instant.
  if (Config.ProbeJitter > 0.0)
    Window *= 1.0 + Config.ProbeJitter * (2.0 * Rng.uniform() - 1.0);
  S.State = BreakerState::Open;
  S.OpenUntil = Sim.now() + Window;
  S.ProbeInFlight = false;
  if (Trace)
    Trace->recordf(Sim.now(), TraceCategory::Health,
                   "%s: breaker OPEN for %.3f s (trip %u, failure ewma %.3f)",
                   Site.name().c_str(), Window, S.ConsecutiveTrips, S.FailEwma);
}

void HealthTracker::recordSuccess(const Host &Site, Bytes PayloadBytes,
                                  SimTime DataSeconds) {
  SiteState &S = refresh(Site);
  ++Version;
  double Tput =
      DataSeconds > 0.0 ? PayloadBytes * 8.0 / DataSeconds : 0.0;
  S.TputEwma = S.Samples == 0
                   ? Tput
                   : Config.Alpha * Tput + (1.0 - Config.Alpha) * S.TputEwma;
  S.PeakTput = std::max(S.PeakTput, S.TputEwma);
  S.FailEwma *= 1.0 - Config.Alpha;
  ++S.Samples;
  if (S.State == BreakerState::HalfOpen) {
    S.ProbeInFlight = false;
    if (S.FailEwma <= Config.CloseThreshold) {
      S.State = BreakerState::Closed;
      S.ConsecutiveTrips = 0;
      if (Trace)
        Trace->recordf(Sim.now(), TraceCategory::Health,
                       "%s: breaker closed (failure ewma %.3f)",
                       Site.name().c_str(), S.FailEwma);
    }
    // Otherwise stay HalfOpen: the next probe keeps draining the EWMA.
  }
}

void HealthTracker::recordFailure(const Host &Site) {
  SiteState &S = refresh(Site);
  ++Version;
  S.FailEwma = Config.Alpha + (1.0 - Config.Alpha) * S.FailEwma;
  ++S.Samples;
  switch (S.State) {
  case BreakerState::HalfOpen:
    // The probe failed: rest the site for a longer window.
    trip(S, Site);
    break;
  case BreakerState::Closed:
    if (S.Samples >= Config.MinSamples && S.FailEwma >= Config.TripThreshold)
      trip(S, Site);
    break;
  case BreakerState::Open:
    break; // Stragglers dispatched before the trip resolve harmlessly.
  }
}

void HealthTracker::noteAbandoned(const Host &Site) {
  auto It = Sites.find(&Site);
  if (It != Sites.end() && It->second.ProbeInFlight) {
    It->second.ProbeInFlight = false;
    ++Version;
  }
}

BreakerState HealthTracker::state(const Host &Site) {
  return refresh(Site).State;
}

bool HealthTracker::allows(const Host &Site) {
  SiteState &S = refresh(Site);
  if (S.State == BreakerState::Open)
    return false;
  if (S.State == BreakerState::HalfOpen && S.ProbeInFlight)
    return false;
  return true;
}

void HealthTracker::noteDispatch(const Host &Site) {
  SiteState &S = refresh(Site);
  if (S.State == BreakerState::HalfOpen && !S.ProbeInFlight) {
    S.ProbeInFlight = true;
    ++Version;
    if (Trace)
      Trace->recordf(Sim.now(), TraceCategory::Health, "%s: probe dispatched",
                     Site.name().c_str());
  }
}

double HealthTracker::healthScore(const Host &Site) {
  SiteState &S = refresh(Site);
  if (S.Samples == 0)
    return 1.0;
  double TputFactor =
      S.PeakTput > 0.0
          ? std::clamp(S.TputEwma / S.PeakTput, Config.HealthFloor, 1.0)
          : 1.0;
  return std::max(Config.HealthFloor, (1.0 - S.FailEwma) * TputFactor);
}

double HealthTracker::failureRate(const Host &Site) const {
  auto It = Sites.find(&Site);
  return It == Sites.end() ? 0.0 : It->second.FailEwma;
}

BitRate HealthTracker::throughputEwma(const Host &Site) const {
  auto It = Sites.find(&Site);
  return It == Sites.end() ? 0.0 : It->second.TputEwma;
}
