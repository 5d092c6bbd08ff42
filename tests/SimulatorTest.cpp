//===- tests/SimulatorTest.cpp - Unit tests for the event kernel ----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/PeriodicBatch.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

using namespace dgsim;

TEST(Simulator, StartsAtTimeZero) {
  Simulator Sim;
  EXPECT_DOUBLE_EQ(Sim.now(), 0.0);
  EXPECT_EQ(Sim.pendingEvents(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.schedule(3.0, [&] { Order.push_back(3); });
  Sim.schedule(1.0, [&] { Order.push_back(1); });
  Sim.schedule(2.0, [&] { Order.push_back(2); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(Sim.now(), 3.0);
  EXPECT_EQ(Sim.eventsExecuted(), 3u);
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  Simulator Sim;
  std::vector<int> Order;
  for (int I = 0; I < 10; ++I)
    Sim.schedule(1.0, [&Order, I] { Order.push_back(I); });
  Sim.run();
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(Simulator, NestedScheduling) {
  Simulator Sim;
  double FiredAt = -1.0;
  Sim.schedule(1.0, [&] {
    Sim.schedule(2.0, [&] { FiredAt = Sim.now(); });
  });
  Sim.run();
  EXPECT_DOUBLE_EQ(FiredAt, 3.0);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator Sim;
  double FiredAt = -1.0;
  Sim.scheduleAt(5.5, [&] { FiredAt = Sim.now(); });
  Sim.run();
  EXPECT_DOUBLE_EQ(FiredAt, 5.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator Sim;
  bool Fired = false;
  EventId Id = Sim.schedule(1.0, [&] { Fired = true; });
  EXPECT_TRUE(Sim.cancel(Id));
  EXPECT_FALSE(Sim.cancel(Id)); // Second cancel is a no-op.
  Sim.run();
  EXPECT_FALSE(Fired);
  EXPECT_EQ(Sim.eventsExecuted(), 0u);
}

TEST(Simulator, CancelAfterExecutionIsNoop) {
  Simulator Sim;
  EventId Id = Sim.schedule(1.0, [] {});
  Sim.run();
  EXPECT_FALSE(Sim.cancel(Id));
  EXPECT_EQ(Sim.pendingEvents(), 0u);
}

TEST(Simulator, CancelInvalidHandle) {
  Simulator Sim;
  EXPECT_FALSE(Sim.cancel(InvalidEventId));
  EXPECT_FALSE(Sim.cancel(12345));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator Sim;
  int Fired = 0;
  Sim.schedule(1.0, [&] { ++Fired; });
  Sim.schedule(2.0, [&] { ++Fired; });
  Sim.schedule(3.0, [&] { ++Fired; });
  Sim.runUntil(2.0);
  EXPECT_EQ(Fired, 2);
  EXPECT_DOUBLE_EQ(Sim.now(), 2.0);
  EXPECT_EQ(Sim.pendingEvents(), 1u);
  Sim.run();
  EXPECT_EQ(Fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator Sim;
  Sim.runUntil(10.0);
  EXPECT_DOUBLE_EQ(Sim.now(), 10.0);
}

TEST(Simulator, StopAbortsRun) {
  Simulator Sim;
  int Fired = 0;
  Sim.schedule(1.0, [&] {
    ++Fired;
    Sim.stop();
  });
  Sim.schedule(2.0, [&] { ++Fired; });
  Sim.run();
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(Sim.pendingEvents(), 1u);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator Sim;
  std::vector<double> Times;
  Sim.schedulePeriodic(2.0, [&] { Times.push_back(Sim.now()); });
  Sim.runUntil(7.0);
  ASSERT_EQ(Times.size(), 4u); // t = 0, 2, 4, 6
  EXPECT_DOUBLE_EQ(Times[0], 0.0);
  EXPECT_DOUBLE_EQ(Times[3], 6.0);
}

TEST(Simulator, PeriodicWithPhase) {
  Simulator Sim;
  std::vector<double> Times;
  Sim.schedulePeriodic(2.0, [&] { Times.push_back(Sim.now()); }, 1.0);
  Sim.runUntil(6.0);
  ASSERT_EQ(Times.size(), 3u); // t = 1, 3, 5
  EXPECT_DOUBLE_EQ(Times[0], 1.0);
}

TEST(Simulator, CancelPeriodicStopsFiring) {
  Simulator Sim;
  int Count = 0;
  EventId Handle = Sim.schedulePeriodic(1.0, [&] { ++Count; });
  Sim.schedule(2.5, [&] { Sim.cancelPeriodic(Handle); });
  Sim.runUntil(10.0);
  EXPECT_EQ(Count, 3); // t = 0, 1, 2
}

TEST(Simulator, CancelPeriodicFromOwnCallback) {
  Simulator Sim;
  int Count = 0;
  EventId Handle = InvalidEventId;
  Handle = Sim.schedulePeriodic(1.0, [&] {
    if (++Count == 2)
      Sim.cancelPeriodic(Handle);
  });
  Sim.runUntil(10.0);
  EXPECT_EQ(Count, 2);
}

TEST(Simulator, RunExitsWhenOnlyDaemonsRemain) {
  Simulator Sim;
  int Ticks = 0;
  Sim.schedulePeriodic(1.0, [&] { ++Ticks; });
  Sim.run(); // Must return immediately: only daemon events pending.
  EXPECT_EQ(Ticks, 0);
  EXPECT_DOUBLE_EQ(Sim.now(), 0.0);
}

TEST(Simulator, DaemonsFireWhileForegroundWorkExists) {
  Simulator Sim;
  std::vector<double> TickTimes;
  Sim.schedulePeriodic(1.0, [&] { TickTimes.push_back(Sim.now()); });
  Sim.schedule(3.5, [] {}); // Foreground anchor.
  Sim.run();
  // Ticks at 0, 1, 2, 3 fire before the anchor at 3.5; then run() exits.
  ASSERT_EQ(TickTimes.size(), 4u);
  EXPECT_DOUBLE_EQ(TickTimes.back(), 3.0);
  EXPECT_DOUBLE_EQ(Sim.now(), 3.5);
}

TEST(Simulator, ScheduleDaemonAtAbsoluteTime) {
  Simulator Sim;
  std::vector<double> Times;
  Sim.scheduleDaemonAt(5.0, [&] { Times.push_back(Sim.now()); });
  Sim.schedule(8.0, [&] { Times.push_back(Sim.now()); });
  Sim.run();
  ASSERT_EQ(Times.size(), 2u);
  EXPECT_DOUBLE_EQ(Times[0], 5.0);
  EXPECT_DOUBLE_EQ(Times[1], 8.0);
}

TEST(Simulator, ScheduleDaemonIsCancellable) {
  Simulator Sim;
  bool Fired = false;
  EventId Id = Sim.scheduleDaemon(1.0, [&] { Fired = true; });
  EXPECT_TRUE(Sim.cancel(Id));
  Sim.runUntil(5.0);
  EXPECT_FALSE(Fired);
}

TEST(Simulator, ForkRngIsDeterministic) {
  Simulator A(99), B(99);
  RandomEngine RA = A.forkRng(), RB = B.forkRng();
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(RA.next(), RB.next());
}

TEST(Simulator, ManyEventsStressOrder) {
  Simulator Sim;
  RandomEngine R(7);
  double LastTime = -1.0;
  bool Monotone = true;
  for (int I = 0; I < 5000; ++I)
    Sim.schedule(R.uniform(0, 1000), [&] {
      if (Sim.now() < LastTime)
        Monotone = false;
      LastTime = Sim.now();
    });
  Sim.run();
  EXPECT_TRUE(Monotone);
  EXPECT_EQ(Sim.eventsExecuted(), 5000u);
}

//===----------------------------------------------------------------------===//
// Indexed-heap edge cases: in-flight cancellation and handle reuse
//===----------------------------------------------------------------------===//

TEST(Simulator, CancelFromInsideFiringEvent) {
  // A fires at the same timestamp as B but earlier in FIFO order, and
  // cancels B while the kernel is mid-pop: B must never run.
  Simulator Sim;
  bool BFired = false;
  EventId B = InvalidEventId;
  Sim.schedule(1.0, [&] { EXPECT_TRUE(Sim.cancel(B)); });
  B = Sim.schedule(1.0, [&] { BFired = true; });
  Sim.run();
  EXPECT_FALSE(BFired);
  EXPECT_EQ(Sim.eventsExecuted(), 1u);
}

TEST(Simulator, CancelSelfWhileFiringIsNoop) {
  // The slot is released before the closure runs, so a self-cancel sees a
  // stale handle and reports false instead of corrupting the heap.
  Simulator Sim;
  EventId Self = InvalidEventId;
  bool Ran = false;
  Self = Sim.schedule(1.0, [&] {
    Ran = true;
    EXPECT_FALSE(Sim.cancel(Self));
  });
  Sim.run();
  EXPECT_TRUE(Ran);
}

TEST(Simulator, CancelOfAlreadyPoppedIdIsNoop) {
  Simulator Sim;
  EventId Id = Sim.schedule(1.0, [] {});
  Sim.run();
  EXPECT_FALSE(Sim.cancel(Id));
  EXPECT_FALSE(Sim.cancel(Id)); // Idempotent.
}

TEST(Simulator, GenerationReuseStaleCancel) {
  // After an event fires, its slot is recycled with a bumped generation:
  // the old handle must not cancel the new occupant.
  Simulator Sim;
  EventId Id1 = Sim.schedule(1.0, [] {});
  Sim.runUntil(2.0);

  bool SecondFired = false;
  EventId Id2 = Sim.schedule(1.0, [&] { SecondFired = true; });
  EXPECT_NE(Id1, Id2); // Same slot, different generation.
  EXPECT_FALSE(Sim.cancel(Id1));
  Sim.run();
  EXPECT_TRUE(SecondFired);
}

TEST(Simulator, MoveOnlyCaptureInCallback) {
  Simulator Sim;
  auto Payload = std::make_unique<int>(42);
  int Seen = 0;
  Sim.schedule(1.0, [P = std::move(Payload), &Seen] { Seen = *P; });
  Sim.run();
  EXPECT_EQ(Seen, 42);
}

TEST(Simulator, EventSlotChurnDoesNotGrow) {
  // Schedule/cancel churn must recycle slots through the free list, not
  // grow the slot table without bound.
  Simulator Sim;
  for (int I = 0; I < 10000; ++I) {
    EventId Id = Sim.schedule(1.0, [] {});
    EXPECT_TRUE(Sim.cancel(Id));
  }
  EXPECT_LE(Sim.eventSlotCount(), 2u);
  EXPECT_EQ(Sim.pendingEvents(), 0u);
}

TEST(Simulator, InterleavedCancelKeepsHeapConsistent) {
  // Cancel every other event out of a large batch, then verify the
  // survivors run in time order with nothing lost or duplicated.
  Simulator Sim;
  std::vector<EventId> Ids;
  std::vector<int> Fired;
  for (int I = 0; I < 1000; ++I)
    Ids.push_back(Sim.schedule(1.0 + (I % 97) * 0.5, [&Fired, I] {
      Fired.push_back(I);
    }));
  for (size_t I = 0; I < Ids.size(); I += 2)
    EXPECT_TRUE(Sim.cancel(Ids[I]));
  Sim.run();
  EXPECT_EQ(Fired.size(), 500u);
  double LastTime = -1.0;
  (void)LastTime;
  for (int I : Fired)
    EXPECT_EQ(I % 2, 1);
}

//===----------------------------------------------------------------------===//
// Periodic slot reuse
//===----------------------------------------------------------------------===//

TEST(Simulator, PeriodicCancelThenRescheduleOrdering) {
  // A cancelled periodic's slot may be reused immediately; the stale
  // handle must not affect the new periodic.
  Simulator Sim;
  int OldTicks = 0, NewTicks = 0;
  EventId Old = Sim.schedulePeriodic(1.0, [&] { ++OldTicks; });
  Sim.runUntil(2.5); // Old ticks at 0, 1, 2.
  EXPECT_TRUE(Sim.cancelPeriodic(Old));

  EventId Fresh = Sim.schedulePeriodic(1.0, [&] { ++NewTicks; });
  EXPECT_NE(Old, Fresh);
  EXPECT_FALSE(Sim.cancelPeriodic(Old)); // Stale: generation mismatch.
  Sim.runUntil(5.0);
  EXPECT_EQ(OldTicks, 3);
  EXPECT_EQ(NewTicks, 3); // Ticks at 2.5, 3.5, 4.5.
  EXPECT_TRUE(Sim.cancelPeriodic(Fresh));
}

TEST(Simulator, PeriodicChurnDoesNotGrow) {
  // Regression test for the leak this kernel rework fixed: cancelPeriodic
  // used to strand PeriodicState entries forever.
  Simulator Sim;
  for (int I = 0; I < 10000; ++I) {
    EventId Id = Sim.schedulePeriodic(1.0, [] {});
    EXPECT_TRUE(Sim.cancelPeriodic(Id));
  }
  EXPECT_LE(Sim.periodicSlotCount(), 2u);
  EXPECT_LE(Sim.eventSlotCount(), 2u);
  Sim.runUntil(10.0); // Nothing left to fire.
  EXPECT_EQ(Sim.eventsExecuted(), 0u);
}

TEST(Simulator, PeriodicRescheduleFromOwnCallback) {
  // Cancel-then-reschedule from inside the firing tick: self-cancel stops
  // the activity (the already-armed next tick is killed before it fires)
  // and the replacement periodic — which may reuse the freed slot — keeps
  // its own cadence.
  Simulator Sim;
  int FastTicks = 0, SlowTicks = 0;
  EventId Fast = InvalidEventId;
  Fast = Sim.schedulePeriodic(1.0, [&] {
    ++FastTicks;
    if (FastTicks == 2) {
      EXPECT_TRUE(Sim.cancelPeriodic(Fast));
      Sim.schedulePeriodic(4.0, [&] { ++SlowTicks; });
    }
  });
  Sim.runUntil(10.5);
  // Fast ticks at 0 and 1, then cancels itself mid-fire.
  EXPECT_EQ(FastTicks, 2);
  // The slow one starts at t=1: ticks at 1, 5, 9.
  EXPECT_EQ(SlowTicks, 3);
}

//===----------------------------------------------------------------------===//
// EventCallback storage
//===----------------------------------------------------------------------===//

TEST(EventCallback, SmallCapturesStayInline) {
  uint64_t Before = EventCallback::heapFallbacks();
  Simulator Sim;
  int A = 0, B = 0, C = 0;
  double X = 1.0;
  // 3 pointers + a double: well under the inline budget.
  Sim.schedule(1.0, [&A, &B, &C, X] { A = B + C + int(X); });
  Sim.run();
  EXPECT_EQ(EventCallback::heapFallbacks(), Before);
}

TEST(EventCallback, OversizedCapturesFallBackToHeap) {
  uint64_t Before = EventCallback::heapFallbacks();
  std::array<char, 128> Big{};
  Big[0] = 7;
  EventCallback Cb([Big] { (void)Big; });
  EXPECT_EQ(EventCallback::heapFallbacks(), Before + 1);
  Cb();
}

TEST(EventCallback, MoveTransfersOwnership) {
  auto P = std::make_unique<int>(5);
  int Seen = 0;
  EventCallback A([P = std::move(P), &Seen] { Seen = *P; });
  EventCallback B(std::move(A));
  EXPECT_FALSE(static_cast<bool>(A));
  EXPECT_TRUE(static_cast<bool>(B));
  B();
  EXPECT_EQ(Seen, 5);
}

//===----------------------------------------------------------------------===//
// PeriodicBatch
//===----------------------------------------------------------------------===//

namespace {

/// A minimal batch member: logs its id on every tick, then runs an
/// optional hook.
class Ticker {
public:
  Ticker(int Id, std::vector<int> &Log, PeriodicBatch<Ticker> &B)
      : Id(Id), Log(Log) {
    B.add(*this);
  }
  ~Ticker() {
    if (Batch)
      Batch->remove(*this);
  }

  size_t pos() const { return BatchPos; }
  std::function<void()> OnTick;

private:
  friend class PeriodicBatch<Ticker>;

  void tick() {
    Log.push_back(Id);
    if (OnTick)
      OnTick();
  }

  int Id;
  std::vector<int> &Log;
  PeriodicBatch<Ticker> *Batch = nullptr;
  size_t BatchPos = 0;
};

} // namespace

TEST(PeriodicBatch, TicksMembersInRegistrationOrder) {
  Simulator Sim;
  PeriodicBatch<Ticker> B(Sim, 1.0);
  std::vector<int> Log;
  Ticker T2(2, Log, B), T0(0, Log, B), T1(1, Log, B);
  EXPECT_EQ(B.size(), 3u);
  Sim.runUntil(2.5); // Ticks at 0, 1 and 2.
  EXPECT_EQ(Log, (std::vector<int>{2, 0, 1, 2, 0, 1, 2, 0, 1}));
}

TEST(PeriodicBatch, RemovedMemberStopsTickingMidRun) {
  Simulator Sim;
  PeriodicBatch<Ticker> B(Sim, 1.0);
  std::vector<int> Log;
  Ticker T0(0, Log, B);
  auto T1 = std::make_unique<Ticker>(1, Log, B);
  Ticker T2(2, Log, B);
  Sim.runUntil(0.5);
  T1.reset();
  EXPECT_EQ(B.size(), 2u);
  Sim.runUntil(1.5);
  EXPECT_EQ(Log, (std::vector<int>{0, 1, 2, 0, 2}));
}

TEST(PeriodicBatch, CompactsAtHalfDeadKeepingOrder) {
  Simulator Sim;
  PeriodicBatch<Ticker> B(Sim, 1.0);
  std::vector<int> Log;
  std::vector<std::unique_ptr<Ticker>> Ts;
  for (int I = 0; I != 6; ++I)
    Ts.push_back(std::make_unique<Ticker>(I, Log, B));
  // Three dead of six is exactly half: the slots stay where they are.
  for (int I : {0, 2, 4})
    Ts[I].reset();
  EXPECT_EQ(Ts[5]->pos(), 5u);
  // A fourth death tips past half: the survivors compact, in order.
  Ts[1].reset();
  EXPECT_EQ(B.size(), 2u);
  EXPECT_EQ(Ts[3]->pos(), 0u);
  EXPECT_EQ(Ts[5]->pos(), 1u);
  // Compacted positions stay valid for removal and new members append.
  Ticker T6(6, Log, B);
  EXPECT_EQ(T6.pos(), 2u);
  Ts[3].reset();
  Sim.runUntil(0.5);
  EXPECT_EQ(Log, (std::vector<int>{5, 6}));
}

TEST(PeriodicBatch, MemberAddedDuringTickStartsNextTick) {
  Simulator Sim;
  PeriodicBatch<Ticker> B(Sim, 1.0);
  std::vector<int> Log;
  std::unique_ptr<Ticker> Late;
  Ticker T0(0, Log, B);
  T0.OnTick = [&] {
    if (!Late)
      Late = std::make_unique<Ticker>(1, Log, B);
  };
  Sim.runUntil(1.5);
  EXPECT_EQ(Log, (std::vector<int>{0, 0, 1}));
}

TEST(PeriodicBatch, PhaseOffsetsEveryTick) {
  Simulator Sim;
  PeriodicBatch<Ticker> B(Sim, 10.0, 4.0);
  EXPECT_DOUBLE_EQ(B.period(), 10.0);
  std::vector<int> Log;
  std::vector<SimTime> When;
  Ticker T(0, Log, B);
  T.OnTick = [&] { When.push_back(Sim.now()); };
  Sim.runUntil(25.0);
  EXPECT_EQ(When, (std::vector<SimTime>{4.0, 14.0, 24.0}));
}
