// Tests for the discrete-event simulation kernel.
#include "simcore/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "common/callback.hpp"
#include "common/check.hpp"

namespace sage::sim {
namespace {

// -- InlineCallback (the SimEngine::Callback type) ---------------------------

TEST(InlineCallbackTest, DefaultIsEmptyAndComparesToNullptr) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_TRUE(cb == nullptr);
  EXPECT_FALSE(cb != nullptr);
  EXPECT_FALSE(cb.is_inline());
}

TEST(InlineCallbackTest, SmallCapturesStayInline) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  EXPECT_TRUE(cb.is_inline());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, OversizedCapturesSpillToHeapAndStillRun) {
  std::array<long, 16> big{};  // 128 bytes of capture > kInlineSize
  big[7] = 42;
  long seen = 0;
  InlineCallback cb([big, &seen] { seen = big[7]; });
  static_assert(sizeof(big) > InlineCallback::kInlineSize);
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(seen, 42);
}

TEST(InlineCallbackTest, MoveTransfersTargetAndEmptiesSource) {
  int hits = 0;
  InlineCallback a([&hits] { ++hits; });
  InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: post-move state is specified
  EXPECT_FALSE(a.is_inline());
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_TRUE(b.is_inline());
  b();
  EXPECT_EQ(hits, 1);

  InlineCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, MoveOnlyCapturesAreSchedulable) {
  // The whole point of dropping std::function: a callback owning a moved-in
  // unique_ptr payload can be scheduled directly.
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  InlineCallback cb([p = std::move(payload), &seen] { seen = *p; });
  cb();
  EXPECT_EQ(seen, 7);

  SimEngine engine;
  auto p2 = std::make_unique<int>(11);
  engine.schedule_after(SimDuration::seconds(1), [p = std::move(p2), &seen] {
    seen = *p;
  });
  engine.run();
  EXPECT_EQ(seen, 11);
}

TEST(InlineCallbackTest, ResetAndNullAssignDestroyTheCapture) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> c;
    ~Probe() {
      if (c) ++*c;
    }
    Probe(std::shared_ptr<int> c) : c(std::move(c)) {}
    Probe(Probe&&) noexcept = default;
    void operator()() {}
  };
  {
    InlineCallback cb{Probe{counter}};
    EXPECT_EQ(*counter, 0);  // moved-from temporary's husk holds no pointer
    cb.reset();
    EXPECT_EQ(*counter, 1) << "reset must run the capture's destructor";
    EXPECT_TRUE(cb == nullptr);
  }
  InlineCallback cb2{Probe{counter}};
  cb2 = nullptr;
  EXPECT_EQ(*counter, 2);
  EXPECT_EQ(counter.use_count(), 1) << "no leaked capture copies";
}

TEST(SimEngineTest, FiresInTimestampOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_after(SimDuration::seconds(3), [&] { order.push_back(3); });
  engine.schedule_after(SimDuration::seconds(1), [&] { order.push_back(1); });
  engine.schedule_after(SimDuration::seconds(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now().to_seconds(), 3.0);
}

TEST(SimEngineTest, EqualTimestampsFireFifo) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_after(SimDuration::seconds(1), [&, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimEngineTest, ClockAdvancesOnlyThroughEvents) {
  SimEngine engine;
  EXPECT_EQ(engine.now(), SimTime::epoch());
  SimTime seen;
  engine.schedule_after(SimDuration::minutes(5), [&] { seen = engine.now(); });
  engine.run();
  EXPECT_EQ(seen, SimTime::epoch() + SimDuration::minutes(5));
}

TEST(SimEngineTest, NestedSchedulingWorks) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_after(SimDuration::seconds(1), [&] {
    ++fired;
    engine.schedule_after(SimDuration::seconds(1), [&] { ++fired; });
  });
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now().to_seconds(), 2.0);
}

TEST(SimEngineTest, CancelPreventsFiring) {
  SimEngine engine;
  bool fired = false;
  EventHandle h = engine.schedule_after(SimDuration::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(SimEngineTest, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

TEST(SimEngineTest, HandleNotPendingAfterFiring) {
  SimEngine engine;
  EventHandle h = engine.schedule_after(SimDuration::seconds(1), [] {});
  engine.run();
  EXPECT_FALSE(h.pending());
}

TEST(SimEngineTest, StaleHandleDoesNotCancelReusedSlot) {
  SimEngine engine;
  int fired = 0;
  EventHandle a = engine.schedule_after(SimDuration::seconds(1), [&] { fired += 1; });
  a.cancel();
  // The freed slot is recycled by the next event; the stale handle must see
  // the generation mismatch and stay inert.
  EventHandle b = engine.schedule_after(SimDuration::seconds(2), [&] { fired += 10; });
  a.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  engine.run();
  EXPECT_EQ(fired, 10);
}

TEST(SimEngineTest, HandleOfFiredEventDoesNotCancelReusedSlot) {
  SimEngine engine;
  int fired = 0;
  EventHandle a = engine.schedule_after(SimDuration::seconds(1), [&] { fired += 1; });
  engine.run();
  EventHandle b = engine.schedule_after(SimDuration::seconds(1), [&] { fired += 10; });
  a.cancel();  // a's slot now belongs to b
  EXPECT_TRUE(b.pending());
  engine.run();
  EXPECT_EQ(fired, 11);
}

TEST(SimEngineTest, CancelRemovesEventFromHeapEagerly) {
  SimEngine engine;
  EventHandle h = engine.schedule_after(SimDuration::seconds(1), [] {});
  EXPECT_EQ(engine.live_events(), 1u);
  h.cancel();
  // Nothing is left behind to surface later: the queue is empty at once.
  EXPECT_EQ(engine.live_events(), 0u);
  EXPECT_TRUE(engine.empty());
  EXPECT_FALSE(engine.peek_next_time(nullptr));
  EXPECT_EQ(engine.run(), 0u);
}

TEST(SimEngineTest, LiveEventsCountsOnlyPendingEvents) {
  SimEngine engine;
  EventHandle a = engine.schedule_after(SimDuration::seconds(1), [] {});
  EventHandle b = engine.schedule_after(SimDuration::seconds(2), [] {});
  EXPECT_EQ(engine.live_events(), 2u);
  a.cancel();
  EXPECT_EQ(engine.live_events(), 1u);
  // The earliest pending event is b, with no cancelled entry ahead of it.
  SimTime next;
  ASSERT_TRUE(engine.peek_next_time(&next));
  EXPECT_EQ(next, SimTime::epoch() + SimDuration::seconds(2));
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.live_events(), 0u);
  EXPECT_FALSE(b.pending());
}

TEST(SimEngineTest, RunUntilStopsAtHorizon) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_after(SimDuration::seconds(1), [&] { ++fired; });
  engine.schedule_after(SimDuration::seconds(10), [&] { ++fired; });
  const auto n = engine.run_until(SimTime::epoch() + SimDuration::seconds(5));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  // The clock lands exactly on the horizon even with pending future work.
  EXPECT_EQ(engine.now().to_seconds(), 5.0);
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEngineTest, SchedulingInThePastThrows) {
  SimEngine engine;
  engine.schedule_after(SimDuration::seconds(5), [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(SimTime::epoch(), [] {}), CheckFailure);
  EXPECT_THROW(
      engine.schedule_after(SimDuration::zero() - SimDuration::seconds(1), [] {}),
      CheckFailure);
}

TEST(SimEngineTest, StepFiresExactlyOne) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_after(SimDuration::seconds(1), [&] { ++fired; });
  engine.schedule_after(SimDuration::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(fired, 2);
}

TEST(SimEngineTest, CountsFiredEvents) {
  SimEngine engine;
  for (int i = 0; i < 7; ++i) engine.schedule_after(SimDuration::seconds(i + 1), [] {});
  engine.run();
  EXPECT_EQ(engine.events_fired(), 7u);
}

// -- Indexed heap: reschedule ------------------------------------------------

void expect_accounting(const SimEngine& e) {
  EXPECT_EQ(e.events_scheduled(), e.events_fired() + e.events_cancelled() + e.live_events());
}

SimTime at_s(double s) { return SimTime::epoch() + SimDuration::seconds(s); }

TEST(SimEngineRescheduleTest, EarlierLaterAndSameTime) {
  SimEngine engine;
  std::vector<char> order;
  EventHandle a = engine.schedule_at(at_s(1), [&] { order.push_back('a'); });
  EventHandle b = engine.schedule_at(at_s(2), [&] { order.push_back('b'); });
  engine.schedule_at(at_s(2), [&] { order.push_back('d'); });
  EventHandle c = engine.schedule_at(at_s(3), [&] { order.push_back('c'); });
  EXPECT_TRUE(c.reschedule(at_s(0.5)));  // earlier: now the root
  EXPECT_TRUE(a.reschedule(at_s(5)));    // later: now the last
  // Same time: the fresh sequence number sends b behind d, exactly as a
  // cancel followed by schedule_at(2 s) would.
  EXPECT_TRUE(b.reschedule(at_s(2)));
  EXPECT_EQ(engine.events_rescheduled(), 3u);
  EXPECT_EQ(engine.run(), 4u);
  EXPECT_EQ(order, (std::vector<char>{'c', 'd', 'b', 'a'}));
  EXPECT_EQ(engine.now(), at_s(5));
}

TEST(SimEngineRescheduleTest, MovesRootLeafAndMiddleEntries) {
  // Seven events scheduled in time order form a sorted heap: t1 is the root,
  // t2 a middle entry, t7 the last leaf.
  SimEngine engine;
  std::vector<int> order;
  std::vector<EventHandle> h;
  for (int i = 1; i <= 7; ++i) {
    h.push_back(engine.schedule_at(at_s(i), [&order, i] { order.push_back(i); }));
  }
  EXPECT_TRUE(h[0].reschedule(at_s(10)));   // root sinks to the bottom
  EXPECT_TRUE(h[6].reschedule(at_s(0.5)));  // leaf rises to the root
  EXPECT_TRUE(h[1].reschedule(at_s(8)));    // middle entry sinks
  SimTime next;
  ASSERT_TRUE(engine.peek_next_time(&next));
  EXPECT_EQ(next, at_s(0.5));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{7, 3, 4, 5, 6, 2, 1}));
}

TEST(SimEngineRescheduleTest, RefusesEventsThatAreNotPending) {
  SimEngine engine;
  int fired = 0;
  EventHandle none;
  EXPECT_FALSE(none.reschedule(at_s(1)));

  EventHandle done = engine.schedule_at(at_s(1), [&] { ++fired; });
  engine.run();
  EXPECT_FALSE(done.reschedule(at_s(2)));

  EventHandle gone = engine.schedule_at(at_s(3), [&] { ++fired; });
  gone.cancel();
  EXPECT_FALSE(gone.reschedule(at_s(4)));

  // `done`'s slot now belongs to a new event; the stale handle must not move it.
  EventHandle fresh = engine.schedule_at(at_s(6), [&] { fired += 10; });
  EXPECT_FALSE(done.reschedule(at_s(2)));
  SimTime next;
  ASSERT_TRUE(engine.peek_next_time(&next));
  EXPECT_EQ(next, at_s(6));

  EXPECT_EQ(engine.events_rescheduled(), 0u);
  engine.run();
  EXPECT_EQ(fired, 11);
  EXPECT_FALSE(fresh.pending());
  expect_accounting(engine);
}

TEST(SimEngineRescheduleTest, HandleStaysPendingAndCancellable) {
  SimEngine engine;
  int fired = 0;
  EventHandle a = engine.schedule_at(at_s(1), [&] { ++fired; });
  EventHandle b = engine.schedule_at(at_s(2), [&] { ++fired; });
  ASSERT_TRUE(a.reschedule(at_s(3)));
  EXPECT_TRUE(a.pending());
  expect_accounting(engine);
  a.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_EQ(engine.events_cancelled(), 1u);
  EXPECT_EQ(engine.live_events(), 1u);
  expect_accounting(engine);
  ASSERT_TRUE(b.reschedule(at_s(4)));
  ASSERT_TRUE(b.reschedule(at_s(4)));
  EXPECT_EQ(engine.events_rescheduled(), 3u);
  // Rescheduling neither schedules nor cancels.
  EXPECT_EQ(engine.events_scheduled(), 2u);
  expect_accounting(engine);
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), at_s(4));
  expect_accounting(engine);
}

TEST(SimEngineRescheduleTest, IntoThePastThrows) {
  SimEngine engine;
  EventHandle h = engine.schedule_at(at_s(5), [] {});
  engine.run_until(at_s(2));
  EXPECT_THROW(h.reschedule(at_s(1)), CheckFailure);
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.reschedule(at_s(2)));  // now() itself is allowed
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(engine.now(), at_s(2));
}

TEST(SimEngineRescheduleTest, ReservedNumberOrdersAsSchedulingAtTakeTime) {
  SimEngine engine;
  std::vector<char> order;
  const std::uint64_t early = engine.take_seq();
  engine.schedule_at(at_s(2), [&] { order.push_back('b'); });
  EventHandle c = engine.schedule_at(at_s(3), [&] { order.push_back('c'); });
  const std::uint64_t late = engine.take_seq();
  engine.schedule_at(at_s(2), [&] { order.push_back('d'); });
  // Scheduled last, but under a number taken before b: fires ahead of it.
  engine.schedule_at(at_s(2), early, [&] { order.push_back('a'); });
  // Moved onto the same instant under a number taken between b and d.
  EXPECT_TRUE(c.reschedule(at_s(2), late));
  EXPECT_EQ(engine.events_rescheduled(), 1u);
  EXPECT_EQ(engine.run(), 4u);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
  expect_accounting(engine);
}

TEST(SimEngineRescheduleTest, ReservedNumberChecks) {
  SimEngine engine;
  const std::uint64_t seq = engine.take_seq();
  EventHandle h = engine.schedule_at(at_s(5), [] {});
  engine.run_until(at_s(2));
  // Past times fail with a reserved number exactly as without one.
  EXPECT_THROW(engine.schedule_at(at_s(1), seq, [] {}), CheckFailure);
  EXPECT_THROW(h.reschedule(at_s(1), seq), CheckFailure);
  // So does a number the engine has not handed out yet.
  const std::uint64_t next = engine.take_seq() + 1;
  EXPECT_THROW(engine.schedule_at(at_s(3), next, [] {}), CheckFailure);
  EXPECT_THROW(h.reschedule(at_s(3), next), CheckFailure);
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(engine.live_events(), 1u);
  expect_accounting(engine);
  // A handle that is not pending refuses before looking at the number.
  EventHandle idle;
  EXPECT_FALSE(idle.reschedule(at_s(3), next));
}

TEST(SimEngineRescheduleTest, RandomizedDifferentialAgainstCancelAndSchedule) {
  // Replays a seeded mix of schedule / cancel / reschedule / step / run_until
  // against a reference queue with cancel+schedule semantics: a sorted
  // (time, seq) set in which a reschedule is an erase plus an insert under a
  // fresh sequence number. Interleaved take_seq() calls reserve numbers that
  // later schedules and reschedules use, which the reference keys under the
  // number as taken, i.e. as if the event had been scheduled at take time.
  // The engine must fire exactly the same ids in the same order. Delays are
  // drawn from a few microseconds so equal-time FIFO ties are frequent.
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (at_us, seq)
  SimEngine engine;
  std::set<std::pair<Key, int>> model;
  std::vector<std::optional<Key>> model_key;  // per id; empty once dead
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  std::vector<int> expected;
  std::vector<std::uint64_t> reserved;  // taken, not yet used
  std::uint64_t seq = 0;
  std::uint64_t reserved_used = 0;
  std::uint64_t checks_thrown = 0;
  std::mt19937_64 rng(20130520);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
  };
  const auto delay = [&] { return static_cast<std::int64_t>(pick(8)); };
  // Mostly a pending event, sometimes any handle (fired, cancelled or live).
  const auto target = [&] {
    if (model.empty() || pick(4) == 0) return pick(handles.size());
    return static_cast<std::size_t>(std::next(model.begin(), pick(model.size()))->second);
  };
  // A reserved number, oldest-first or newest-first, consumed by the caller.
  const auto take_reserved = [&] {
    const std::size_t i = pick(2) == 0 ? 0 : reserved.size() - 1;
    const std::uint64_t r = reserved[i];
    reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(i));
    ++reserved_used;
    return r;
  };
  const auto model_pop_through = [&](std::int64_t horizon_us) {
    while (!model.empty() && model.begin()->first.first <= horizon_us) {
      const int id = model.begin()->second;
      model.erase(model.begin());
      model_key[id].reset();
      expected.push_back(id);
    }
  };

  for (int op = 0; op < 10000; ++op) {
    const std::int64_t now_us = engine.now().count_micros();
    const std::size_t kind = pick(15);
    if (kind < 4 || handles.empty() || (kind == 12 && reserved.empty())) {
      const int id = static_cast<int>(handles.size());
      const std::int64_t at = now_us + delay();
      handles.push_back(engine.schedule_at(SimTime::from_micros(at),
                                           [&fired, id] { fired.push_back(id); }));
      model_key.emplace_back(Key{at, seq++});
      model.insert({*model_key.back(), id});
    } else if (kind == 12) {
      const int id = static_cast<int>(handles.size());
      const std::int64_t at = now_us + delay();
      const std::uint64_t r = take_reserved();
      handles.push_back(engine.schedule_at(SimTime::from_micros(at), r,
                                           [&fired, id] { fired.push_back(id); }));
      model_key.emplace_back(Key{at, r});
      model.insert({*model_key.back(), id});
    } else if (kind < 5) {
      const std::size_t id = target();
      handles[id].cancel();
      if (model_key[id]) {
        model.erase({*model_key[id], static_cast<int>(id)});
        model_key[id].reset();
      }
    } else if (kind < 8 || kind == 13) {
      const std::size_t id = target();
      const std::int64_t at = now_us + delay();
      const bool use_reserved = kind == 13 && !reserved.empty() && model_key[id].has_value();
      const std::uint64_t key_seq = use_reserved ? take_reserved() : seq;
      const bool moved = use_reserved
                             ? handles[id].reschedule(SimTime::from_micros(at), key_seq)
                             : handles[id].reschedule(SimTime::from_micros(at));
      ASSERT_EQ(moved, model_key[id].has_value()) << "op " << op;
      if (moved) {
        if (!use_reserved) ++seq;
        model.erase({*model_key[id], static_cast<int>(id)});
        model_key[id] = Key{at, key_seq};
        model.insert({*model_key[id], static_cast<int>(id)});
      }
    } else if (kind < 9) {
      const bool stepped = engine.step();
      ASSERT_EQ(stepped, !model.empty()) << "op " << op;
      if (stepped) {
        const int id = model.begin()->second;
        model_key[id].reset();
        model.erase(model.begin());
        expected.push_back(id);
      }
    } else if (kind < 10) {
      const std::int64_t horizon = now_us + delay();
      engine.run_until(SimTime::from_micros(horizon));
      model_pop_through(horizon);
    } else if (kind < 12) {
      const std::uint64_t r = engine.take_seq();
      ASSERT_EQ(r, seq) << "op " << op;
      reserved.push_back(seq++);
    } else {
      // Misuse must fail the check and leave the engine untouched: a time
      // in the past (when the clock has moved), or the next number, which
      // has not been handed out yet.
      const std::size_t id = target();
      if (now_us > 0 && !reserved.empty()) {
        EXPECT_THROW(engine.schedule_at(SimTime::from_micros(now_us - 1), reserved.front(),
                                        [] {}),
                     CheckFailure);
        if (model_key[id]) {
          EXPECT_THROW(handles[id].reschedule(SimTime::from_micros(now_us - 1),
                                              reserved.front()),
                       CheckFailure);
        }
        ++checks_thrown;
      }
      EXPECT_THROW(engine.schedule_at(SimTime::from_micros(now_us), seq, [] {}), CheckFailure);
      if (model_key[id]) {
        EXPECT_THROW(handles[id].reschedule(SimTime::from_micros(now_us), seq), CheckFailure);
      }
      ++checks_thrown;
    }
    ASSERT_EQ(fired, expected) << "op " << op;
    ASSERT_EQ(engine.live_events(), model.size()) << "op " << op;
    ASSERT_EQ(engine.events_scheduled(),
              engine.events_fired() + engine.events_cancelled() + engine.live_events());
  }
  engine.run();
  model_pop_through(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(fired, expected);
  EXPECT_GT(engine.events_rescheduled(), 1000u);
  EXPECT_GT(engine.events_fired(), 1000u);
  EXPECT_GT(reserved_used, 500u);
  EXPECT_GT(checks_thrown, 300u);
}

TEST(PeriodicTaskTest, FiresAtInterval) {
  SimEngine engine;
  int fired = 0;
  PeriodicTask task(engine, SimDuration::seconds(10), [&] { ++fired; });
  task.start();
  engine.run_until(SimTime::epoch() + SimDuration::seconds(35));
  EXPECT_EQ(fired, 3);  // t = 10, 20, 30
}

TEST(PeriodicTaskTest, StopHalts) {
  SimEngine engine;
  int fired = 0;
  PeriodicTask task(engine, SimDuration::seconds(10), [&] { ++fired; });
  task.start();
  engine.run_until(SimTime::epoch() + SimDuration::seconds(25));
  task.stop();
  engine.run_until(SimTime::epoch() + SimDuration::minutes(10));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, CallbackMayStopItself) {
  SimEngine engine;
  int fired = 0;
  PeriodicTask task(engine, SimDuration::seconds(1), [&] {
    if (++fired == 3) task.stop();
  });
  task.start();
  engine.run();
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTaskTest, DestructorCancels) {
  SimEngine engine;
  int fired = 0;
  {
    PeriodicTask task(engine, SimDuration::seconds(1), [&] { ++fired; });
    task.start();
  }
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST(PeriodicTaskTest, RestartAfterStop) {
  SimEngine engine;
  int fired = 0;
  PeriodicTask task(engine, SimDuration::seconds(1), [&] { ++fired; });
  task.start();
  engine.run_until(SimTime::epoch() + SimDuration::seconds(2));
  task.stop();
  task.start();
  engine.run_until(SimTime::epoch() + SimDuration::seconds(4));
  EXPECT_EQ(fired, 4);
}

}  // namespace
}  // namespace sage::sim
