//===- monitor/Forecaster.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "monitor/Forecaster.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace dgsim;

void RunningMeanForecaster::observe(double Value) {
  Sum += Value;
  Count += 1.0;
}

SlidingMeanForecaster::SlidingMeanForecaster(size_t Window)
    : Window(Window) {
  assert(Window > 0 && "window must be positive");
  Ring.resize(Window);
}

void SlidingMeanForecaster::observe(double Value) {
  // Same arithmetic order as the original deque form (add, then subtract
  // the expired value), so the running Sum stays bit-identical.
  Sum += Value;
  if (Count < Window) {
    Ring[Count++] = Value;
    return;
  }
  Sum -= Ring[Head];
  Ring[Head] = Value;
  Head = Head + 1 == Window ? 0 : Head + 1;
}

double SlidingMeanForecaster::predict() const {
  return Count == 0 ? 0.0 : Sum / static_cast<double>(Count);
}

SlidingMedianForecaster::SlidingMedianForecaster(size_t Window)
    : Window(Window) {
  assert(Window > 0 && "window must be positive");
  Ring.resize(Window);
  Sorted.reserve(Window);
}

void SlidingMedianForecaster::observe(double Value) {
  if (Count < Window) {
    Ring[Count++] = Value;
    Sorted.insert(std::upper_bound(Sorted.begin(), Sorted.end(), Value),
                  Value);
    return;
  }
  // Steady state: replace the expired value with the new one by shifting
  // only the elements between the two positions, one memmove instead of an
  // erase plus an insert.
  double Expired = Ring[Head];
  Ring[Head] = Value;
  Head = Head + 1 == Window ? 0 : Head + 1;
  double *B = Sorted.data();
  size_t N = Sorted.size();
  size_t Out = std::lower_bound(B, B + N, Expired) - B;
  assert(Out < N && B[Out] == Expired && "sorted window out of sync");
  size_t In = std::upper_bound(B, B + N, Value) - B;
  if (In > Out) {
    // New value sorts after the expired one: close the gap leftwards.
    std::memmove(B + Out, B + Out + 1, (In - 1 - Out) * sizeof(double));
    B[In - 1] = Value;
  } else {
    // New value sorts before (or at) the expired slot: shift rightwards.
    std::memmove(B + In + 1, B + In, (Out - In) * sizeof(double));
    B[In] = Value;
  }
}

double SlidingMedianForecaster::predict() const {
  size_t N = Count;
  if (N == 0)
    return 0.0;
  if (N % 2 == 1)
    return Sorted[N / 2];
  return (Sorted[N / 2 - 1] + Sorted[N / 2]) / 2.0;
}

ExponentialSmoothingForecaster::ExponentialSmoothingForecaster(double Alpha)
    : Alpha(Alpha) {
  assert(Alpha > 0.0 && Alpha <= 1.0 && "gain outside (0, 1]");
}

void ExponentialSmoothingForecaster::observe(double Value) {
  if (!Seen) {
    Smoothed = Value;
    Seen = true;
    return;
  }
  Smoothed = Alpha * Value + (1.0 - Alpha) * Smoothed;
}

NwsForecaster::NwsForecaster()
    : Mean5(5), Mean10(10), Mean20(20), Mean40(40), Median5(5),
      Median10(10), Median20(20), Median40(40), Smooth05(0.05),
      Smooth25(0.25), Smooth75(0.75) {}

template <typename Self, typename Fn>
void NwsForecaster::forEachMember(Self &S, Fn &&Visit) {
  Visit(S.Last);
  Visit(S.RunMean);
  Visit(S.Mean5);
  Visit(S.Mean10);
  Visit(S.Mean20);
  Visit(S.Mean40);
  Visit(S.Median5);
  Visit(S.Median10);
  Visit(S.Median20);
  Visit(S.Median40);
  Visit(S.Smooth05);
  Visit(S.Smooth25);
  Visit(S.Smooth75);
}

void NwsForecaster::observe(double Value) {
  // Score each member on this observation *before* it sees the value (the
  // postcast error), then feed the value in.  The visitor inlines to
  // direct member calls: this runs once per sensor sample.
  if (Observations != 0) {
    size_t I = 0;
    forEachMember(*this, [&](const auto &M) {
      double E = M.predict() - Value;
      SquaredError[I++] += E * E;
    });
  }
  forEachMember(*this, [Value](auto &M) { M.observe(Value); });
  ++Observations;
}

size_t NwsForecaster::bestIndex() const {
  size_t Best = 0;
  for (size_t I = 1; I != BatterySize; ++I)
    if (SquaredError[I] < SquaredError[Best])
      Best = I;
  return Best;
}

double NwsForecaster::predict() const { return memberPredict(bestIndex()); }

const std::string &NwsForecaster::bestMemberName() const {
  static const std::string Names[BatterySize] = {
      "last",          "run_mean",         "sw_mean(5)",
      "sw_mean(10)",   "sw_mean(20)",      "sw_mean(40)",
      "sw_median(5)",  "sw_median(10)",    "sw_median(20)",
      "sw_median(40)", "exp_smooth(0.05)", "exp_smooth(0.25)",
      "exp_smooth(0.75)"};
  return Names[bestIndex()];
}

double NwsForecaster::memberMse(size_t I) const {
  assert(I < BatterySize && "member index out of range");
  size_t Scored = Observations > 1 ? Observations - 1 : 0;
  return Scored ? SquaredError[I] / static_cast<double>(Scored) : 0.0;
}

double NwsForecaster::memberPredict(size_t I) const {
  assert(I < BatterySize && "member index out of range");
  double P = 0.0;
  size_t K = 0;
  forEachMember(*this, [&](const auto &M) {
    if (K++ == I)
      P = M.predict();
  });
  return P;
}
