//===- monitor/Forecaster.h - NWS-style forecasting battery ---------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Short-term performance forecasting in the style of the Network Weather
/// Service (Wolski, Spring & Hayes 1999), which the paper uses to "measure
/// and predict" network bandwidth "as accurate[ly] as possible".
///
/// NWS runs a battery of cheap predictors over each measurement series and,
/// at each step, reports the prediction of whichever predictor has the
/// lowest accumulated error so far ("dynamic predictor selection").  We
/// implement the classic battery: last value, running mean, sliding-window
/// means and medians of several widths, and exponential smoothing with
/// several gains, plus the adaptive meta-forecaster.
///
/// State ownership: a forecaster's state is private to the sensor that
/// owns it and is advanced only through that sensor's observe() calls.
/// A forecast is therefore a pure function of that sensor's sample
/// stream — the property InformationService's factor cache relies on —
/// so no forecaster may keep global/static mutable state or draw from a
/// shared RNG.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_MONITOR_FORECASTER_H
#define DGSIM_MONITOR_FORECASTER_H

#include <cstddef>
#include <string>
#include <vector>

namespace dgsim {

// Each battery member below has the same two-call surface: observe() feeds
// an observation, predict() reads the one-step-ahead forecast (0 before the
// first observation).

/// Forecasts the most recent observation.
class LastValueForecaster {
public:
  void observe(double Value) { Last = Value; }
  double predict() const { return Last; }

private:
  double Last = 0.0;
};

/// Forecasts the mean of the entire history.
class RunningMeanForecaster {
public:
  void observe(double Value);
  double predict() const { return Count ? Sum / Count : 0.0; }

private:
  double Sum = 0.0;
  double Count = 0.0;
};

/// Forecasts the mean of the last \p Window observations.
///
/// The window lives in a flat ring buffer (one allocation, no deque block
/// bookkeeping): observe() only needs the expiring value, not ordered
/// traversal.
class SlidingMeanForecaster {
public:
  explicit SlidingMeanForecaster(size_t Window);
  void observe(double Value);
  double predict() const;

private:
  size_t Window;
  /// Ring of the last Window values; Head is the oldest once full.
  std::vector<double> Ring;
  size_t Head = 0;
  size_t Count = 0;
  double Sum = 0.0;
};

/// Forecasts the median of the last \p Window observations.
///
/// The window is kept in sorted order incrementally (insert/erase are
/// O(Window) memmoves over a few hundred bytes), so predict() is O(1).
/// The meta-forecaster calls every member's predict() once per
/// observation to score it, which made the sort-on-read implementation
/// the hottest path in sensor-heavy runs.
class SlidingMedianForecaster {
public:
  explicit SlidingMedianForecaster(size_t Window);
  void observe(double Value);
  double predict() const;

private:
  size_t Window;
  /// Ring of the last Window values in arrival order; identifies which
  /// value expires next.
  std::vector<double> Ring;
  size_t Head = 0;
  size_t Count = 0;
  /// The same multiset as Ring, kept sorted.
  std::vector<double> Sorted;
};

/// Exponentially smoothed forecast with gain \p Alpha in (0, 1].
class ExponentialSmoothingForecaster {
public:
  explicit ExponentialSmoothingForecaster(double Alpha);
  void observe(double Value);
  double predict() const { return Smoothed; }

private:
  double Alpha;
  double Smoothed = 0.0;
  bool Seen = false;
};

/// The NWS meta-forecaster: runs the whole battery, tracks each member's
/// mean squared error over the stream seen so far, and forwards the
/// prediction of the current winner.
///
/// The battery is stored as concrete members: observe() makes 26 direct
/// member calls per observation and a grid run constructs one battery per
/// sensor.  Member names come from one static table.
class NwsForecaster {
public:
  /// Builds the default battery (13 predictors).
  NwsForecaster();

  void observe(double Value);
  double predict() const;

  /// \returns the name of the member with the lowest MSE so far, e.g.
  /// "sw_mean(10)".
  const std::string &bestMemberName() const;

  /// \returns the current MSE of member \p I (battery order).
  double memberMse(size_t I) const;

  /// \returns member \p I's current prediction (battery order).  The
  /// prediction-accuracy harness ranks replicas under every member, not
  /// just the adaptive winner.
  double memberPredict(size_t I) const;

  /// \returns the battery size.
  size_t memberCount() const { return BatterySize; }

  /// \returns the number of observations consumed.
  size_t observationCount() const { return Observations; }

private:
  static constexpr size_t BatterySize = 13;

  size_t bestIndex() const;

  /// Calls \p Visit on every member of \p S (*this, const or not) in
  /// battery order.
  template <typename Self, typename Fn>
  static void forEachMember(Self &S, Fn &&Visit);

  // Battery order (fixed; MSE accumulation and tie-breaking depend on it):
  // last, run_mean, sw_mean(5,10,20,40), sw_median(5,10,20,40),
  // exp_smooth(0.05,0.25,0.75).
  LastValueForecaster Last;
  RunningMeanForecaster RunMean;
  SlidingMeanForecaster Mean5, Mean10, Mean20, Mean40;
  SlidingMedianForecaster Median5, Median10, Median20, Median40;
  ExponentialSmoothingForecaster Smooth05, Smooth25, Smooth75;
  double SquaredError[BatterySize] = {};
  size_t Observations = 0;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_FORECASTER_H
