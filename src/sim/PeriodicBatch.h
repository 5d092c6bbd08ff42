//===- sim/PeriodicBatch.h - Many same-period tickers, one event -----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives any number of same-period members behind one periodic kernel
/// event.  At 10k+ sensors or load processes, one periodic event each
/// dominates the event heap; a batch replaces them with a single event
/// that ticks every member in registration order.
///
/// Templated on the member type so each member tick is a direct call.  A
/// member type T befriends PeriodicBatch<T> and gives it three private
/// members: `void tick()`, `PeriodicBatch<T> *Batch = nullptr` and
/// `size_t BatchPos`.  The batch maintains the last two; the member's
/// destructor calls `Batch->remove(*this)` while Batch is set.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_SIM_PERIODICBATCH_H
#define DGSIM_SIM_PERIODICBATCH_H

#include "sim/Simulator.h"

#include <cassert>
#include <vector>

namespace dgsim {

/// Ticks a set of same-period members behind one periodic kernel event.
///
/// Members tick in registration order at every tick, which keeps runs
/// deterministic.  Removal nulls the member slot in O(1); the member list
/// compacts when more than half of it is dead, preserving order.  A member
/// added during a tick is first ticked on the next tick.  The phase lets
/// an owner stagger several batches across one period so a large
/// population does not tick in a single burst.
template <typename T> class PeriodicBatch {
public:
  /// Ticks every \p Period seconds, first \p Phase seconds after creation.
  PeriodicBatch(Simulator &Sim, SimTime Period, SimTime Phase = 0.0)
      : Sim(Sim), Period(Period) {
    assert(Period > 0.0 && "batches need a positive period");
    assert(Phase >= 0.0 && "batch phase must be non-negative");
    Periodic = Sim.schedulePeriodic(Period, [this] { tick(); }, Phase);
  }

  ~PeriodicBatch() {
    assert(size() == 0 && "batch destroyed while members still attached");
    Sim.cancelPeriodic(Periodic);
  }

  PeriodicBatch(const PeriodicBatch &) = delete;
  PeriodicBatch &operator=(const PeriodicBatch &) = delete;

  size_t size() const { return Members.size() - Dead; }
  SimTime period() const { return Period; }

  void add(T &M) {
    assert(!M.Batch && "member already batch-driven");
    M.Batch = this;
    M.BatchPos = Members.size();
    Members.push_back(&M);
  }

  void remove(T &M) {
    assert(M.Batch == this && Members[M.BatchPos] == &M &&
           "not a member of this batch");
    Members[M.BatchPos] = nullptr;
    M.Batch = nullptr;
    ++Dead;
    if (Dead * 2 > Members.size()) {
      size_t Out = 0;
      for (T *Live : Members)
        if (Live) {
          Live->BatchPos = Out;
          Members[Out++] = Live;
        }
      Members.resize(Out);
      Dead = 0;
    }
  }

private:
  void tick() {
    // Index-based iteration over the pre-tick size: members added by a
    // tick start next tick, and the pass stays well defined even if
    // Members reallocates.
    size_t N = Members.size();
    for (size_t I = 0; I != N; ++I)
      if (T *M = Members[I])
        M->tick();
  }

  Simulator &Sim;
  SimTime Period;
  EventId Periodic = InvalidEventId;
  std::vector<T *> Members;
  size_t Dead = 0;
};

} // namespace dgsim

#endif // DGSIM_SIM_PERIODICBATCH_H
