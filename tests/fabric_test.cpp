// Tests for the fluid-flow WAN fabric (max-min sharing, per-flow TCP caps,
// NIC limits, failures, egress accounting) on the *stable* topology, where
// rates are analytic.
#include "cloud/fabric.hpp"

#include <gtest/gtest.h>

#include "cloud/topology.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"
#include "test_util.hpp"

namespace sage::cloud {
namespace {

using sage::testing::run_until;

constexpr Region kNEU = Region::kNorthEU;
constexpr Region kWEU = Region::kWestEU;
constexpr Region kNUS = Region::kNorthUS;

const ByteRate kSmallNic = ByteRate::megabits_per_sec(100);  // 12.5 MB/s

struct FabricFixture : public ::testing::Test {
  sim::SimEngine engine;
  Topology topo = stable_topology();
  Fabric fabric{engine, topo, /*seed=*/7};

  NodeId vm(Region r) { return fabric.add_node(r, kSmallNic, kSmallNic); }

  /// Start a flow and run to completion; returns the result.
  FlowResult run_flow(NodeId src, NodeId dst, Bytes size, FlowOptions options = {}) {
    FlowResult out{};
    bool done = false;
    fabric.start_flow(src, dst, size, options, [&](const FlowResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(run_until(engine, [&] { return done; }, SimDuration::hours(12)));
    return out;
  }
};

TEST_F(FabricFixture, SingleWanFlowHitsPerFlowCap) {
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  const Bytes size = cap * SimDuration::seconds(20);  // ~20 s of payload
  const FlowResult r = run_flow(vm(kNEU), vm(kNUS), size);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.transferred, size);
  const double expected_s = 20.0 + topo.link(kNEU, kNUS).latency.to_seconds();
  EXPECT_NEAR(r.elapsed().to_seconds(), expected_s, 0.5);
}

TEST_F(FabricFixture, IntraRegionFlowIsNicBound) {
  const Bytes size = kSmallNic * SimDuration::seconds(10);
  const FlowResult r = run_flow(vm(kNEU), vm(kNEU), size);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.elapsed().to_seconds(), 10.0, 0.2);
}

TEST_F(FabricFixture, IntraFlowIsMuchFasterThanTransatlantic) {
  const Bytes size = Bytes::mb(50);
  const FlowResult intra = run_flow(vm(kNEU), vm(kNEU), size);
  const FlowResult wan = run_flow(vm(kNEU), vm(kNUS), size);
  ASSERT_TRUE(intra.ok());
  ASSERT_TRUE(wan.ok());
  EXPECT_GT(wan.elapsed() / intra.elapsed(), 3.0);
}

TEST_F(FabricFixture, NicSharedAcrossConcurrentFlows) {
  // Six concurrent flows out of one VM exceed its NIC: each should get
  // NIC/6, not the WAN per-flow cap.
  const NodeId src = vm(kNEU);
  const Bytes size = Bytes::mb(10);
  int done = 0;
  std::vector<FlowResult> results(6);
  for (int i = 0; i < 6; ++i) {
    fabric.start_flow(src, vm(kNUS), size, {}, [&, i](const FlowResult& r) {
      results[static_cast<std::size_t>(i)] = r;
      ++done;
    });
  }
  ASSERT_TRUE(run_until(engine, [&] { return done == 6; }, SimDuration::hours(1)));
  const double share = kSmallNic.to_mb_per_sec() / 6.0;  // ~2.08 MB/s
  for (const FlowResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.achieved_rate().to_mb_per_sec(), share, 0.15);
  }
}

TEST_F(FabricFixture, WanAggregateCapacitySaturates) {
  // Twelve distinct VM pairs exceed the pair link's aggregate capacity
  // (8x the per-flow cap): each flow gets capacity/12.
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  const ByteRate aggregate = topo.link(kNEU, kNUS).capacity;
  const Bytes size = Bytes::mb(10);
  int done = 0;
  std::vector<FlowResult> results(12);
  for (int i = 0; i < 12; ++i) {
    fabric.start_flow(vm(kNEU), vm(kNUS), size, {}, [&, i](const FlowResult& r) {
      results[static_cast<std::size_t>(i)] = r;
      ++done;
    });
  }
  ASSERT_TRUE(run_until(engine, [&] { return done == 12; }, SimDuration::hours(1)));
  const double share = aggregate.to_mb_per_sec() / 12.0;
  ASSERT_LT(share, cap.to_mb_per_sec());  // sanity: link is the bottleneck
  for (const FlowResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.achieved_rate().to_mb_per_sec(), share, 0.2);
  }
}

TEST_F(FabricFixture, TwoFlowsBelowCapacityEachGetFullCap) {
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  const Bytes size = cap * SimDuration::seconds(15);
  int done = 0;
  std::vector<FlowResult> results(2);
  for (int i = 0; i < 2; ++i) {
    fabric.start_flow(vm(kNEU), vm(kNUS), size, {}, [&, i](const FlowResult& r) {
      results[static_cast<std::size_t>(i)] = r;
      ++done;
    });
  }
  ASSERT_TRUE(run_until(engine, [&] { return done == 2; }, SimDuration::hours(1)));
  for (const FlowResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.elapsed().to_seconds(), 15.0, 0.5);
  }
}

TEST_F(FabricFixture, DemandCapBindsFlow) {
  FlowOptions options;
  options.demand_cap = ByteRate::mb_per_sec(1.0);
  const FlowResult r = run_flow(vm(kNEU), vm(kNUS), Bytes::mb(10), options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.elapsed().to_seconds(), 10.0, 0.3);
}

TEST_F(FabricFixture, DemandLimitedFlowLeavesCapacityToOthers) {
  // One throttled + one free flow out of the same NIC: the free flow keeps
  // the WAN per-flow cap because the throttled one does not contend.
  const NodeId src = vm(kNEU);
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  FlowOptions slow;
  slow.demand_cap = ByteRate::mb_per_sec(0.5);
  bool slow_done = false;
  fabric.start_flow(src, vm(kNUS), Bytes::mb(5), slow,
                    [&](const FlowResult&) { slow_done = true; });
  FlowResult fast{};
  bool fast_done = false;
  fabric.start_flow(src, vm(kNUS), cap * SimDuration::seconds(10), {},
                    [&](const FlowResult& r) {
                      fast = r;
                      fast_done = true;
                    });
  ASSERT_TRUE(run_until(engine, [&] { return fast_done && slow_done; },
                        SimDuration::hours(1)));
  EXPECT_NEAR(fast.elapsed().to_seconds(), 10.0, 0.5);
}

TEST_F(FabricFixture, ExtraSetupLatencyDelaysCompletion) {
  FlowOptions options;
  options.extra_setup_latency = SimDuration::seconds(2);
  const ByteRate cap = topo.link(kNEU, kNUS).per_flow_cap;
  const FlowResult r = run_flow(vm(kNEU), vm(kNUS), cap * SimDuration::seconds(5), options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.elapsed().to_seconds(), 7.0, 0.3);
}

TEST_F(FabricFixture, CancelMidFlight) {
  const NodeId a = vm(kNEU);
  const NodeId b = vm(kNUS);
  FlowResult result{};
  bool done = false;
  const FlowId id = fabric.start_flow(a, b, Bytes::mb(100), {}, [&](const FlowResult& r) {
    result = r;
    done = true;
  });
  engine.run_until(engine.now() + SimDuration::seconds(10));
  EXPECT_TRUE(fabric.flow_active(id));
  EXPECT_GT(fabric.flow_transferred(id), Bytes::zero());
  fabric.cancel_flow(id);
  EXPECT_TRUE(done);
  EXPECT_EQ(result.outcome, FlowOutcome::kCancelled);
  EXPECT_GT(result.transferred, Bytes::zero());
  EXPECT_LT(result.transferred, Bytes::mb(100));
  EXPECT_FALSE(fabric.flow_active(id));
}

TEST_F(FabricFixture, NodeFailureAbortsItsFlows) {
  const NodeId a = vm(kNEU);
  const NodeId b = vm(kNUS);
  FlowResult result{};
  bool done = false;
  fabric.start_flow(a, b, Bytes::mb(100), {}, [&](const FlowResult& r) {
    result = r;
    done = true;
  });
  engine.run_until(engine.now() + SimDuration::seconds(5));
  fabric.set_node_failed(b, true);
  EXPECT_TRUE(done);
  EXPECT_EQ(result.outcome, FlowOutcome::kFailed);
  EXPECT_TRUE(fabric.node_failed(b));
}

TEST_F(FabricFixture, FlowToFailedNodeFailsAsync) {
  const NodeId a = vm(kNEU);
  const NodeId b = vm(kNUS);
  fabric.set_node_failed(b, true);
  FlowResult result{};
  bool done = false;
  fabric.start_flow(a, b, Bytes::mb(1), {}, [&](const FlowResult& r) {
    result = r;
    done = true;
  });
  EXPECT_FALSE(done);  // asynchronous, never re-entrant
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(result.outcome, FlowOutcome::kFailed);
  EXPECT_TRUE(result.transferred.is_zero());
}

TEST_F(FabricFixture, RecoveredNodeAcceptsFlows) {
  const NodeId a = vm(kNEU);
  const NodeId b = vm(kNUS);
  fabric.set_node_failed(b, true);
  fabric.set_node_failed(b, false);
  const FlowResult r = run_flow(a, b, Bytes::mb(1));
  EXPECT_TRUE(r.ok());
}

TEST_F(FabricFixture, EgressCountsOnlyCrossRegionBytes) {
  const Bytes wan_bytes = Bytes::mb(8);
  (void)run_flow(vm(kNEU), vm(kNUS), wan_bytes);
  (void)run_flow(vm(kNEU), vm(kNEU), Bytes::mb(32));  // intra: free
  EXPECT_NEAR(fabric.egress_from(kNEU).to_mb(), wan_bytes.to_mb(), 0.01);
  EXPECT_TRUE(fabric.egress_from(kNUS).is_zero());
}

TEST_F(FabricFixture, PairFlowCountTracksLiveFlows) {
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kNUS), 0u);
  bool done = false;
  fabric.start_flow(vm(kNEU), vm(kNUS), Bytes::mb(50), {},
                    [&](const FlowResult&) { done = true; });
  engine.run_until(engine.now() + SimDuration::seconds(2));
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kNUS), 1u);
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kWEU), 0u);
  ASSERT_TRUE(run_until(engine, [&] { return done; }, SimDuration::hours(1)));
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kNUS), 0u);
}

TEST_F(FabricFixture, PairFlowCountIncludesSetupPhase) {
  // Flows count against their pair link from start_flow on, before the
  // setup-latency event activates them (the monitoring layer must see a
  // just-launched transfer when deciding whether to probe).
  fabric.start_flow(vm(kNEU), vm(kNUS), Bytes::mb(50), {}, [](const FlowResult&) {});
  fabric.start_flow(vm(kNEU), vm(kNUS), Bytes::mb(50), {}, [](const FlowResult&) {});
  const FlowId weu = fabric.start_flow(vm(kNEU), vm(kWEU), Bytes::mb(50), {},
                                       [](const FlowResult&) {});
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kNUS), 2u);
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kWEU), 1u);
  EXPECT_EQ(fabric.pair_flow_count(kWEU, kNEU), 0u);  // counts are directed
  fabric.cancel_flow(weu);  // cancelled during setup: count drops immediately
  EXPECT_EQ(fabric.pair_flow_count(kNEU, kWEU), 0u);
}

TEST_F(FabricFixture, StableRefreshDoesNotChurnEventQueue) {
  // On a drift-free topology every refresh re-settles to the same rates, so
  // the completion-event hysteresis must keep the scheduled events where
  // they are instead of moving them every tick. Microsecond truncation in
  // the recomputed finish target occasionally forces a legitimate move, so
  // assert strong suppression rather than zero.
  constexpr int kFlows = 8;
  for (int i = 0; i < kFlows; ++i) {
    fabric.start_flow(vm(kNEU), vm(kNUS), Bytes::gb(50), {}, [](const FlowResult&) {});
  }
  engine.run_until(engine.now() + SimDuration::seconds(5));  // activate + settle
  const std::uint64_t moved = engine.events_rescheduled();
  const std::uint64_t scheduled = engine.events_scheduled();
  constexpr int kTicks = 240;  // 120 s at the default 500 ms refresh
  engine.run_until(engine.now() + SimDuration::seconds(120));
  const std::uint64_t growth = engine.events_rescheduled() - moved;
  // Without hysteresis every tick moves all completions: kFlows * kTicks.
  // Demand at least 80% suppression.
  EXPECT_LE(growth, static_cast<std::uint64_t>(kFlows) * kTicks / 5);
  // Pending completions move in place; only the refresh ticks themselves
  // are new events.
  EXPECT_LE(engine.events_scheduled() - scheduled, static_cast<std::uint64_t>(kTicks) + 1);
}

TEST(FabricDeterminismTest, IdenticalSeedsProduceIdenticalFinishTimes) {
  // Two runs with the same seed on the *noisy* topology must agree on every
  // completion to the microsecond; settlement order must not depend on hash
  // layout or platform.
  const auto run_once = [] {
    sim::SimEngine engine;
    Fabric fabric(engine, default_topology(), /*seed=*/42);
    std::vector<NodeId> nodes;
    for (Region r : kAllRegions) {
      for (int i = 0; i < 2; ++i) {
        nodes.push_back(fabric.add_node(r, ByteRate::megabits_per_sec(400),
                                        ByteRate::megabits_per_sec(400)));
      }
    }
    std::vector<std::pair<FlowId, std::int64_t>> finishes;
    for (int i = 0; i < 40; ++i) {
      const NodeId src = nodes[static_cast<std::size_t>(i) % nodes.size()];
      const NodeId dst = nodes[static_cast<std::size_t>(i * 5 + 3) % nodes.size()];
      if (fabric.node_region(src) == fabric.node_region(dst)) continue;
      engine.schedule_after(SimDuration::seconds(i), [&fabric, &engine, &finishes, src,
                                                      dst, i] {
        fabric.start_flow(src, dst, Bytes::mb(20 * (i % 7 + 1)), {},
                          [&finishes, &engine](const FlowResult& r) {
                            finishes.emplace_back(r.id, engine.now().count_micros());
                          });
      });
    }
    engine.run();
    return finishes;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(FabricFixture, ZeroByteFlowCompletesAfterSetup) {
  const FlowResult r = run_flow(vm(kNEU), vm(kNUS), Bytes::zero());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.transferred.is_zero());
  EXPECT_NEAR(r.elapsed().to_seconds(), topo.link(kNEU, kNUS).latency.to_seconds(), 1e-3);
}

TEST_F(FabricFixture, RejectsSelfFlow) {
  const NodeId a = vm(kNEU);
  EXPECT_THROW(fabric.start_flow(a, a, Bytes::mb(1), {}, [](const FlowResult&) {}),
               CheckFailure);
}

TEST_F(FabricFixture, StableTopologyCapacityIsConstant) {
  const ByteRate c1 = fabric.pair_capacity_now(kNEU, kNUS);
  engine.run_until(engine.now() + SimDuration::hours(5));
  const ByteRate c2 = fabric.pair_capacity_now(kNEU, kNUS);
  EXPECT_DOUBLE_EQ(c1.bytes_per_second(), c2.bytes_per_second());
}

TEST(FabricVariabilityTest, DefaultTopologyCapacityMoves) {
  sim::SimEngine engine;
  Fabric fabric(engine, default_topology(), /*seed=*/3);
  OnlineStats stats;
  for (int i = 0; i < 200; ++i) {
    engine.run_until(engine.now() + SimDuration::minutes(5));
    stats.add(fabric.pair_capacity_now(Region::kNorthEU, Region::kNorthUS)
                  .to_mb_per_sec());
  }
  EXPECT_GT(stats.stddev() / stats.mean(), 0.03);  // visibly variable
  EXPECT_GT(stats.min(), 0.0);
}

TEST_F(FabricFixture, RefreshRestartedByCompletionCallbackRunsOneChain) {
  // A flow that finishes exactly on a refresh tick completes inside that
  // tick's advancement, and its callback starts another flow. The start
  // re-arms the refresh chain while the firing tick is no longer pending;
  // the tick must then not schedule a second successor, or two refresh
  // chains would run for as long as flows remain.
  const NodeId a = vm(kNEU);
  const NodeId b = vm(kNUS);
  const SimDuration latency = topo.link(kNEU, kNUS).latency;
  constexpr double kRate = 1e6;  // 1 byte per microsecond: exact arithmetic
  FlowOptions capped;
  capped.demand_cap = ByteRate::bytes_per_sec(kRate);
  // The chain starts with this flow (first tick at 500 ms). The flow
  // activates after the link latency, so its completion key is younger
  // than the tick's event and the tick fires first.
  const Bytes size = Bytes::of((SimDuration::millis(500) - latency).count_micros());
  bool first_done = false;
  bool second_done = false;
  fabric.start_flow(a, b, size, capped, [&](const FlowResult& r) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.finished, SimTime::epoch() + SimDuration::millis(500));
    first_done = true;
    fabric.start_flow(a, b, Bytes::gb(1), capped,
                      [&](const FlowResult&) { second_done = true; });
  });
  engine.run_until(SimTime::epoch() + SimDuration::seconds(10));
  ASSERT_TRUE(first_done);
  const std::uint64_t fired = engine.events_fired();
  engine.run_until(SimTime::epoch() + SimDuration::seconds(110));
  EXPECT_FALSE(second_done);
  // 100 s at a 500 ms period, and nothing else due: one tick per period.
  EXPECT_EQ(engine.events_fired() - fired, 200u);
}

// -- Completion horizon -----------------------------------------------------
//
// A flow's completion event sits in the engine heap only while its target
// falls at or before the next refresh tick. The fixture runs on the stable
// topology with every flow capped at 2^20 B/s and every instant a multiple
// of 1/64 s, so byte progress and finish targets are exact: a flow's key is
// set once at activation and kept by every later settle. The parameter
// selects grid-aligned (true) or phase-locked (false) refresh; the first
// flow starts off the grid so the two tick sequences differ.

constexpr std::int64_t kStepUs = 15'625;  // 1/64 s
constexpr double kExactRate = 1'048'576.0;  // 2^20 B/s: 16384 B per step

SimTime at_us(std::int64_t us) { return SimTime::from_micros(us); }

class FabricHorizonTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr std::int64_t kStartUs = 13 * kStepUs;  // first flow start
  static constexpr std::int64_t kPeriodUs = 500'000;

  sim::SimEngine engine;
  Topology topo = stable_topology();
  Fabric fabric{engine, topo, /*seed=*/7};

  void SetUp() override { fabric.set_refresh_grid(GetParam()); }

  NodeId vm(Region r) { return fabric.add_node(r, kSmallNic, kSmallNic); }

  /// The refresh tick grid: absolute multiples of the period in grid mode,
  /// otherwise phase-locked to the first flow's start.
  [[nodiscard]] std::int64_t last_tick_before(std::int64_t t_us) const {
    const std::int64_t origin = GetParam() ? 0 : kStartUs;
    return origin + (t_us - origin - 1) / kPeriodUs * kPeriodUs;
  }

  /// Start a NEU->NUS flow of `steps` 1/64 s steps at kStartUs. Extra setup
  /// latency puts activation on the step grid; returns its finish time.
  std::int64_t start_exact_flow(std::int64_t steps, std::vector<std::int64_t>* finished,
                                char tag = 'c', std::vector<char>* order = nullptr) {
    const std::int64_t latency = topo.link(kNEU, kNUS).latency.count_micros();
    const std::int64_t activation = (kStartUs + latency + kStepUs - 1) / kStepUs * kStepUs;
    FlowOptions opts;
    opts.demand_cap = ByteRate::bytes_per_sec(kExactRate);
    opts.extra_setup_latency = SimDuration::micros(activation - kStartUs - latency);
    const Bytes size = Bytes::of(16'384 * steps);
    const NodeId src = vm(kNEU);
    const NodeId dst = vm(kNUS);
    engine.schedule_at(at_us(kStartUs), [=, this] {
      fabric.start_flow(src, dst, size, opts, [=, this](const FlowResult& r) {
        EXPECT_TRUE(r.ok());
        finished->push_back(r.finished.count_micros());
        if (order != nullptr) order->push_back(tag);
      });
    });
    return activation + steps * kStepUs;
  }
};

TEST_P(FabricHorizonTest, CompletionEntersHorizonAtTickAndFiresOnTarget) {
  std::vector<std::int64_t> finished;
  const std::int64_t target = start_exact_flow(195, &finished);  // ~3.3 s
  const std::int64_t arm_tick = last_tick_before(target);
  // Until the tick before the target, only the refresh event is queued.
  for (std::int64_t t = kStartUs + 4 * kStepUs; t < arm_tick; t += kStepUs) {
    engine.run_until(at_us(t));
    ASSERT_EQ(engine.live_events(), 1u) << "at " << t << " us";
  }
  engine.run_until(at_us(arm_tick));
  EXPECT_EQ(engine.live_events(), 2u);  // that tick armed the completion
  engine.run_until(at_us(target + 10 * kStepUs));
  EXPECT_EQ(finished, (std::vector<std::int64_t>{target}));
  EXPECT_EQ(engine.events_rescheduled(), 0u);
}

TEST_P(FabricHorizonTest, KeptTargetIsArmedUnderItsOldNumber) {
  // Probes at exactly the completion's target, one scheduled before the
  // flow's key was taken (activation) and one after. Arming the kept key
  // under its original number puts the completion between them; a fresh
  // number at arming time would put it last.
  std::vector<std::int64_t> finished;
  std::vector<char> order;
  const std::int64_t target = start_exact_flow(195, &finished, 'c', &order);
  engine.schedule_at(at_us(target), [&] { order.push_back('a'); });
  engine.run_until(at_us(kStartUs + 8 * kStepUs));  // activated, key taken
  ASSERT_EQ(fabric.active_flow_count(), 1u);
  engine.schedule_at(at_us(target), [&] { order.push_back('b'); });
  engine.run_until(at_us(target + kStepUs));
  EXPECT_EQ(order, (std::vector<char>{'a', 'c', 'b'}));
  EXPECT_EQ(finished, (std::vector<std::int64_t>{target}));
}

TEST_P(FabricHorizonTest, StrandedFlowsDropTheirEventsAndResumeOnRestore) {
  // Two flows on one pair link: the short one's completion is armed when
  // the link goes down, the long one's is not. Stranding cancels the armed
  // event; restoring re-keys both, shifted by exactly the outage.
  std::vector<std::int64_t> finished;
  const std::int64_t short_target = start_exact_flow(195, &finished);   // ~3.3 s
  const std::int64_t long_target = start_exact_flow(1'000, &finished);  // ~15.9 s
  const std::int64_t down = 208 * kStepUs;  // 3.25 s, inside the short horizon
  const std::int64_t outage = 160 * kStepUs;  // 2.5 s
  ASSERT_LT(last_tick_before(short_target), down);
  ASSERT_LT(down, short_target);
  engine.run_until(at_us(down));
  EXPECT_EQ(engine.live_events(), 2u);  // refresh + the short completion
  fabric.set_link_chaos_scale(kNEU, kNUS, 0.0, /*abort_flows=*/false);
  EXPECT_EQ(engine.live_events(), 1u);  // stranded: no completion queued
  engine.run_until(at_us(down + outage - kStepUs));
  EXPECT_EQ(engine.live_events(), 1u);
  EXPECT_TRUE(finished.empty());
  engine.run_until(at_us(down + outage));
  fabric.set_link_chaos_scale(kNEU, kNUS, 1.0, /*abort_flows=*/false);
  EXPECT_EQ(engine.live_events(), 2u);  // the short one is due before the next tick
  engine.run_until(at_us(long_target + outage + kStepUs));
  EXPECT_EQ(finished, (std::vector<std::int64_t>{short_target + outage, long_target + outage}));
  EXPECT_EQ(engine.events_scheduled(),
            engine.events_fired() + engine.events_cancelled() + engine.live_events());
}

TEST_P(FabricHorizonTest, LiveEventsStayWithinTheHorizonOnNoisyLinks) {
  // The bulk-staging shape on the noisy default topology: ~100 flows from
  // three sender regions into two receiver NICs, one link-connected
  // component, with sizes spread so completions keep happening. At every
  // sample the queue holds the refresh tick plus at most the flows whose
  // projected finish falls before the next tick, never one per flow.
  sim::SimEngine eng;
  Fabric fab(eng, default_topology(), /*seed=*/11);
  fab.set_refresh_grid(GetParam());
  const ByteRate nic = ByteRate::megabits_per_sec(800);
  const std::array<NodeId, 2> sinks = {fab.add_node(kNUS, nic, nic), fab.add_node(kNUS, nic, nic)};
  std::vector<std::pair<FlowId, Bytes>> flows;
  int done = 0;
  int i = 0;
  for (Region r : {kNEU, kWEU, Region::kSouthUS}) {
    for (int k = 0; k < 34; ++k, ++i) {
      const NodeId src = fab.add_node(r, nic, nic);
      const Bytes size = Bytes::mb(4.0 * (1 + (i * 7) % 40));
      flows.emplace_back(fab.start_flow(src, sinks[static_cast<std::size_t>(i) % 2], size, {},
                                        [&](const FlowResult& res) {
                                          EXPECT_TRUE(res.ok());
                                          ++done;
                                        }),
                         size);
    }
  }
  eng.run_until(eng.now() + SimDuration::seconds(1));  // every flow active
  std::size_t peak_active = 0;
  std::uint64_t samples = 0;
  while (done < static_cast<int>(flows.size())) {
    eng.run_until(eng.now() + SimDuration::millis(37));
    std::size_t due = 0;
    for (const auto& [id, size] : flows) {
      if (!fab.flow_active(id) || fab.flow_rate(id).is_zero()) continue;
      const Bytes left = size - fab.flow_transferred(id);
      const double eta = static_cast<double>(left.count()) / fab.flow_rate(id).bytes_per_second();
      if (eta <= 0.501) ++due;
    }
    peak_active = std::max(peak_active, fab.active_flow_count());
    ASSERT_LE(eng.live_events(), 1 + due) << "at " << eng.now().to_seconds() << " s";
    ++samples;
    ASSERT_LT(samples, 100'000u) << "flows did not drain";
  }
  EXPECT_EQ(peak_active, flows.size());
  EXPECT_EQ(eng.events_scheduled(),
            eng.events_fired() + eng.events_cancelled() + eng.live_events());
}

INSTANTIATE_TEST_SUITE_P(RefreshModes, FabricHorizonTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Grid" : "PhaseLocked";
                         });

}  // namespace
}  // namespace sage::cloud
