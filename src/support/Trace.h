//===- support/Trace.h - Structured simulation event tracing --------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight trace log for simulation-level events: transfers starting
/// and finishing, replica selections, replication triggers, link failures.
/// Components hold an optional TraceLog pointer and record only when the
/// category is enabled, so tracing costs nothing when off.  Tools dump the
/// log after a run (`gridftp_url_copy -v` does).
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_SUPPORT_TRACE_H
#define DGSIM_SUPPORT_TRACE_H

#include "support/Units.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dgsim {

/// Event categories a TraceLog can record.
enum class TraceCategory : unsigned {
  Transfer = 0,
  Selection,
  Replication,
  Network,
  Monitor,
  /// Fault-injection activity: outages beginning/ending, crash/reboot,
  /// blackout windows (src/fault/FaultInjector).
  Fault,
  /// Site-health activity: circuit-breaker state transitions, probe
  /// dispatch, EWMA trips (src/replica/HealthTracker).
  Health,
};

/// Number of categories (for iteration).
inline constexpr unsigned NumTraceCategories = 7;

/// \returns a short printable category name ("transfer", ...).
const char *traceCategoryName(TraceCategory C);

/// One recorded event.
struct TraceEvent {
  SimTime Time = 0.0;
  TraceCategory Category = TraceCategory::Transfer;
  std::string Message;
};

/// The log.  All categories start disabled.
class TraceLog {
public:
  /// Enables one category.
  void enable(TraceCategory C);

  /// Enables every category.
  void enableAll();

  /// Disables one category (already-recorded events remain).
  void disable(TraceCategory C);

  /// \returns true when \p C is currently recorded.
  bool enabled(TraceCategory C) const;

  /// Appends a printf-formatted event (truncated to 255 characters) if its
  /// category is enabled; returns before formatting when it is not.
  void recordf(SimTime Time, TraceCategory C, const char *Fmt, ...)
      __attribute__((format(printf, 4, 5)));

  /// All recorded events, in record order.
  const std::vector<TraceEvent> &events() const { return Events; }

  /// Events of one category, in record order.
  std::vector<const TraceEvent *> byCategory(TraceCategory C) const;

  /// Renders the log as "[time] category: message" lines.
  std::string str() const;

  size_t size() const { return Events.size(); }
  void clear() { Events.clear(); }

private:
  uint32_t EnabledMask = 0;
  std::vector<TraceEvent> Events;
};

} // namespace dgsim

#endif // DGSIM_SUPPORT_TRACE_H
