/**
 * @file
 * Tests for the SLO-aware serving control plane: eager completion
 * (harvestDoneBy / nextDoneCycle, out-of-order cluster retires), the
 * adaptive queue-depth controller, priority/EDF dispatch with
 * deadlines, hedged requests against replicated tables, weighted fair
 * queueing between tenants, and the queue-wait vs service-time
 * breakdown plus LatencyRecorder::merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "catalog/tenant.h"
#include "catalog/tenant_serving.h"
#include "cluster/cluster.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "workload/depth_controller.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::workload {
namespace {

TEST(LatencyRecorder, MergeEqualsAddingAllSamples)
{
    LatencyRecorder a;
    LatencyRecorder b;
    LatencyRecorder whole;
    for (std::uint64_t v : {120u, 40u, 900u, 5u}) {
        a.add(Nanos{v});
        whole.add(Nanos{v});
    }
    for (std::uint64_t v : {77u, 3000u, 61u}) {
        b.add(Nanos{v});
        whole.add(Nanos{v});
    }
    LatencyRecorder merged;
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.mean(), whole.mean());
    EXPECT_EQ(merged.max(), whole.max());
    for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(merged.percentile(p), whole.percentile(p)) << p;
    // Merging an empty recorder is a no-op; merging INTO an empty one
    // reproduces the source.
    LatencyRecorder empty;
    merged.merge(empty);
    EXPECT_EQ(merged.count(), whole.count());
    LatencyRecorder fresh;
    fresh.merge(whole);
    EXPECT_EQ(fresh.percentile(99.0), whole.percentile(99.0));
}

// ---- DepthController law --------------------------------------------

DepthControllerConfig
fastConfig()
{
    DepthControllerConfig config;
    config.minDepth = 1;
    config.maxDepth = 8;
    config.windowRequests = 16;
    config.adjustEvery = 4;
    // Pin the bands and the patience so the law tests stay valid if
    // the bench-tuned defaults move.
    config.backlogHigh = 1.0;
    config.backlogLow = 0.25;
    config.waitHigh = 0.05;
    config.waitLow = 0.01;
    config.shedPatience = 1;
    return config;
}

/** Strictly increasing device clock for feeding onCompletion. */
struct FakeClock
{
    std::uint64_t now = 0;
    Nanos tick(std::uint64_t step = 1000)
    {
        now += step;
        return Nanos{now};
    }
};

TEST(DepthController, SustainedBacklogGrowsToMaxDepth)
{
    DepthController ctl(fastConfig(), Nanos{}, 1);
    FakeClock clk;
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(10);
            ctl.onCompletion(Nanos{1000}, clk.tick());
        }
    }
    EXPECT_EQ(ctl.depth(), 8u);
    // Multiplicative increase: 1 -> 2 -> 4 -> 8.
    EXPECT_GE(ctl.adjustments(), 3u);
}

TEST(DepthController, EmptyBacklogShedsToMinDepth)
{
    DepthController ctl(fastConfig(), Nanos{}, 8);
    FakeClock clk;
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(0);
            ctl.onCompletion(Nanos{1000}, clk.tick());
        }
    }
    EXPECT_EQ(ctl.depth(), 1u);
}

TEST(DepthController, HoldBandHoldsAndLoadDropSheds)
{
    // Mid-band backlog: no movement (the hysteresis band).
    DepthController ctl(fastConfig(), Nanos{}, 4);
    FakeClock clk;
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(i == 0 ? 2 : 0); // mean 0.5 — inside band
            ctl.onCompletion(Nanos{1000}, clk.tick());
        }
    }
    EXPECT_EQ(ctl.depth(), 4u);
    const std::uint64_t adjustmentsBefore = ctl.adjustments();
    // Load drop: the backlog empties and the controller walks the
    // depth back down instead of pinning the saturated setting.
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(0);
            ctl.onCompletion(Nanos{1000}, clk.tick());
        }
    }
    EXPECT_EQ(ctl.depth(), 1u);
    EXPECT_GT(ctl.adjustments(), adjustmentsBefore);
}

TEST(DepthController, TailGuardShedsInsideHoldBand)
{
    DepthControllerConfig config = fastConfig();
    DepthController ctl(config, Nanos{500}, 4);
    FakeClock clk;
    // Mid-band backlog but a blown window p99: the SLO guard sheds.
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(i == 0 ? 2 : 0);
            ctl.onCompletion(Nanos{10'000}, clk.tick());
        }
    }
    EXPECT_EQ(ctl.depth(), 1u);
}

TEST(DepthController, WaitShareGrowsDepthWithoutBacklog)
{
    // Below saturation the eager dispatcher keeps the dispatch queue
    // empty and the under-provisioning cost shows up as queue wait:
    // the wait share alone must drive growth.
    DepthController ctl(fastConfig(), Nanos{}, 1);
    FakeClock clk;
    ctl.prime(Nanos{0});
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(0);
            ctl.onWait(Nanos{10'000}); // 10 us waited per request
            // 100 us elapsed per completion: wait share 0.1 > high.
            ctl.onCompletion(Nanos{1000}, clk.tick(100'000));
        }
    }
    EXPECT_EQ(ctl.depth(), 8u);
}

TEST(DepthController, ShedPatienceDelaysTheStepDown)
{
    DepthControllerConfig config = fastConfig();
    config.shedPatience = 3;
    DepthController ctl(config, Nanos{}, 4);
    FakeClock clk;
    ctl.prime(Nanos{0});
    const auto quietDecision = [&] {
        for (int i = 0; i < 4; ++i) {
            ctl.onBacklog(0);
            ctl.onCompletion(Nanos{1000}, clk.tick());
        }
    };
    quietDecision();
    quietDecision();
    EXPECT_EQ(ctl.depth(), 4u); // two quiet decisions: still holding
    quietDecision();
    EXPECT_EQ(ctl.depth(), 3u); // third consecutive one sheds
    // A grow signal resets the streak.
    for (int i = 0; i < 4; ++i) {
        ctl.onBacklog(10);
        ctl.onCompletion(Nanos{1000}, clk.tick());
    }
    EXPECT_EQ(ctl.depth(), 6u);
    quietDecision();
    quietDecision();
    EXPECT_EQ(ctl.depth(), 6u);
}

// ---- Serving-loop equivalence and the breakdown ---------------------

model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

std::unique_ptr<engine::RmSsd>
makeFunctionalDevice(const model::ModelConfig &config)
{
    engine::RmSsdOptions options;
    options.functional = true;
    auto device = std::make_unique<engine::RmSsd>(config, options);
    device->loadTables();
    return device;
}

/**
 * The legacy FIFO serving loop, hand-rolled: the same Poisson arrivals
 * as simulateServing, each request served by a blocking infer(). Returns
 * every request's completion cycle in order.
 */
std::vector<Cycle>
blockingInferLoop(engine::InferenceDevice &device, TraceGenerator &gen,
                  const ServingConfig &sc, LatencyRecorder &latencies)
{
    device.resetTiming();
    device.setMaxInflight(1);
    Rng rng(sc.seed);
    double arrivalNanos = 0.0;
    std::vector<Cycle> completions;
    for (std::uint32_t r = 0; r < sc.numRequests; ++r) {
        const double u = std::max(rng.nextDouble(), 1e-12);
        arrivalNanos += -(1e9 / sc.arrivalQps) * std::log(u);
        const Cycle arrival =
            nanosToCycles(Nanos{static_cast<std::uint64_t>(arrivalNanos)});
        if (device.deviceNow() < arrival)
            device.advanceHostClock(
                cyclesToNanos(arrival - device.deviceNow()));
        const Cycle end =
            device.infer(gen.nextBatch(sc.batchSize)).completionCycle;
        latencies.add(cyclesToNanos(end - arrival));
        completions.push_back(end);
    }
    return completions;
}

TEST(SloServing, Depth1SingleClassMatchesLegacyLoopExactly)
{
    // The serving loop at depth 1 with one best-effort class replays
    // a blocking infer() loop's device schedule completion for
    // completion, on one device and on a sharded fleet. The serving
    // run over the first k requests ends at the blocking loop's k-th
    // completion cycle.
    const model::ModelConfig config = tinyConfig();
    const auto makeCluster = [&] {
        cluster::ClusterOptions options;
        options.sharding.numDevices = 2;
        options.device.functional = true;
        return std::make_unique<cluster::RmSsdCluster>(config, options);
    };
    const std::vector<std::function<
        std::unique_ptr<engine::InferenceDevice>()>>
        backends{[&] { return makeFunctionalDevice(config); },
                 makeCluster};
    for (std::size_t b = 0; b < backends.size(); ++b) {
        for (const double qps : {500.0, 5e6}) {
            ServingConfig sc;
            sc.arrivalQps = qps;
            sc.numRequests = 12;
            TraceGenerator gen(config, localityK(0.3));
            LatencyRecorder blocking;
            auto device = backends[b]();
            const std::vector<Cycle> completions =
                blockingInferLoop(*device, gen, sc, blocking);

            for (std::uint32_t k = 1; k <= sc.numRequests; ++k) {
                auto served = backends[b]();
                gen.reset();
                ServingConfig prefix = sc;
                prefix.numRequests = k;
                const ServingResult r =
                    simulateServing(*served, gen, prefix);
                EXPECT_EQ(served->lastCompletion(), completions[k - 1])
                    << "backend " << b << " qps " << qps << " k " << k;
                if (k < sc.numRequests)
                    continue;
                EXPECT_EQ(served->deviceNow(), device->deviceNow());
                EXPECT_EQ(r.meanLatency, blocking.mean()) << qps;
                EXPECT_EQ(r.p50, blocking.percentile(50.0)) << qps;
                EXPECT_EQ(r.p99, blocking.percentile(99.0)) << qps;
                EXPECT_EQ(r.maxLatency, blocking.max()) << qps;
            }
        }
    }
}

TEST(SloServing, QueueWaitPlusServiceAccountsForLatency)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    TraceGenerator gen(config, localityK(0.3));

    ServingConfig sc;
    sc.arrivalQps = 5e6; // saturating: real queueing happens
    sc.numRequests = 60;
    sc.queueDepth = 1;
    const ServingResult depth1 = simulateServing(*device, gen, sc);
    gen.reset();
    device = makeFunctionalDevice(config);
    sc.queueDepth = 4;
    const ServingResult r = simulateServing(*device, gen, sc);

    EXPECT_EQ(r.queueWaitNanos.count(), sc.numRequests);
    EXPECT_EQ(r.serviceNanos.count(), sc.numRequests);
    EXPECT_GT(r.queueWaitNanos.mean(), 0.0);
    // Per request, wait + service telescopes to the latency; across
    // the run the means must line up (1 ns rounding per term).
    EXPECT_NEAR(r.queueWaitNanos.mean() + r.serviceNanos.mean(),
                static_cast<double>(r.meanLatency.raw()), 2.0);
    // Time-weighted occupancy rises with the queue depth. It is NOT
    // capped at the host depth: the §IV-D presend overlaps the next
    // command send with the previous readout, so accept-to-completion
    // spans of more than queueDepth requests can genuinely coexist.
    EXPECT_GT(r.meanQueueDepth, 1.0);
    EXPECT_GT(r.meanQueueDepth, depth1.meanQueueDepth);
}

TEST(SloServing, AdaptiveDepthExcludesExplicitQueueDepthSweep)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    TraceGenerator gen(config, localityK(0.3));
    ServingConfig sc;
    sc.queueDepth = 4;
    sc.slo.adaptiveDepth = true;
    EXPECT_DEATH((void)simulateServing(*device, gen, sc),
                 "mutually exclusive");
}

TEST(SloServing, ControllerConvergesUpAtSaturationDownWhenIdle)
{
    // Cached x2 fleet: depth buys real overlap at saturation (the
    // Fig. 17 setting), so the controller must walk up there — and
    // stay at the floor when the offered load is a trickle.
    model::ModelConfig config = model::rmc1().withRowsPerTable(100000);
    config.lookupsPerTable = 16;
    const auto makeFleet = [&] {
        cluster::ClusterOptions options;
        options.sharding.numDevices = 2;
        options.device.evCache.enabled = true;
        options.device.evCache.expectedHitRatio = 0.8;
        options.device.coalesceIndices = true;
        return std::make_unique<cluster::RmSsdCluster>(config, options);
    };
    TraceConfig trace = localityK(0.0);
    trace.hotRowsPerTable = 200;

    ServingConfig sc;
    sc.numRequests = 120;
    sc.slo.adaptiveDepth = true;
    sc.slo.controller.maxDepth = 4;
    sc.slo.controller.windowRequests = 32;
    sc.slo.controller.adjustEvery = 8;

    auto saturated = makeFleet();
    TraceGenerator genSat(config, trace);
    for (int r = 0; r < 40; ++r)
        saturated->infer(genSat.nextBatch(1));
    sc.arrivalQps = 5e6;
    const ServingResult sat = simulateServing(*saturated, genSat, sc);
    EXPECT_GT(sat.finalDepth, 1u);
    EXPECT_GT(sat.depthAdjustments, 0u);

    auto idle = makeFleet();
    TraceGenerator genIdle(config, trace);
    for (int r = 0; r < 40; ++r)
        idle->infer(genIdle.nextBatch(1));
    sc.arrivalQps = 0.02 * sat.achievedQps;
    const ServingResult light = simulateServing(*idle, genIdle, sc);
    EXPECT_EQ(light.finalDepth, 1u);
}

TEST(SloServing, PriorityClassJumpsTheQueueAndDeadlinesAreCounted)
{
    const model::ModelConfig config = tinyConfig();
    auto device = makeFunctionalDevice(config);
    TraceGenerator gen(config, localityK(0.3));

    ServingConfig sc;
    sc.arrivalQps = 5e6; // saturating: a dispatch queue actually forms
    sc.numRequests = 160;
    ServingClass premium;
    premium.name = "premium";
    premium.share = 1.0;
    premium.priority = 1;
    premium.deadline = Nanos{50'000};
    ServingClass bulk;
    bulk.name = "bulk";
    bulk.share = 3.0;
    bulk.priority = 0;
    sc.slo.classes = {premium, bulk};
    const ServingResult r = simulateServing(*device, gen, sc);

    ASSERT_EQ(r.classes.size(), 2u);
    EXPECT_EQ(r.classes[0].requests + r.classes[1].requests,
              static_cast<std::uint64_t>(sc.numRequests));
    EXPECT_GT(r.classes[0].requests, 0u);
    EXPECT_GT(r.classes[1].requests, 0u);
    // Priority dispatch: premium requests spend less time parked in
    // the host queue, and their tail reflects it.
    EXPECT_LT(r.classes[0].meanQueueWait.raw(),
              r.classes[1].meanQueueWait.raw());
    EXPECT_LT(r.classes[0].p99.raw(), r.classes[1].p99.raw());
    // Only the deadlined class can miss, and the fleet total is the
    // per-class sum.
    EXPECT_EQ(r.classes[1].deadlineMisses, 0u);
    EXPECT_EQ(r.deadlineMisses,
              r.classes[0].deadlineMisses + r.classes[1].deadlineMisses);
}

} // namespace
} // namespace rmssd::workload

namespace rmssd::engine {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

TEST(EagerCompletion, HarvestDoneByRetiresExactlyTheFinished)
{
    const model::ModelConfig config = tinyConfig();
    RmSsdOptions options;
    options.functional = true;
    RmSsd device(config, options);
    device.loadTables();
    device.setMaxInflight(4);
    EXPECT_EQ(device.nextDoneCycle(), kNeverCycle);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    const RequestId a = device.submit(gen.nextBatch(2));
    const RequestId b = device.submit(gen.nextBatch(2));
    const RequestId c = device.submit(gen.nextBatch(2));
    ASSERT_EQ(device.inflight(), 3u);

    // The earliest in-flight completion bounds the first harvest: one
    // cycle earlier retires nothing, the bound itself retires the
    // oldest request.
    const Cycle first = device.nextDoneCycle();
    ASSERT_NE(first, kNeverCycle);
    EXPECT_EQ(device.harvestDoneBy(first - Cycle{1}), 0u);
    EXPECT_GE(device.harvestDoneBy(first), 1u);
    auto completion = device.poll();
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->id, a);

    // Harvesting "everything ever" retires the rest in queue order.
    const std::uint32_t rest =
        device.harvestDoneBy(Cycle{~std::uint64_t{0}});
    EXPECT_EQ(rest, 2u);
    EXPECT_EQ(device.inflight(), 0u);
    EXPECT_EQ(device.nextDoneCycle(), kNeverCycle);
    EXPECT_EQ(device.poll()->id, b);
    EXPECT_EQ(device.poll()->id, c);
    EXPECT_FALSE(device.poll().has_value());
}

TEST(CompletionContract, TakeRetiresExactlyThatRequest)
{
    const model::ModelConfig config = tinyConfig();
    RmSsdOptions options;
    options.functional = true;
    RmSsd device(config, options);
    device.loadTables();
    device.setMaxInflight(4);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    const RequestId a = device.submit(gen.nextBatch(2));
    const RequestId b = device.submit(gen.nextBatch(2));
    const RequestId c = device.submit(gen.nextBatch(2));
    const Cycle aDone = device.doneCycle(a);
    const Cycle cDone = device.doneCycle(c);
    ASSERT_NE(device.doneCycle(b), kNeverCycle);

    // Taking the middle request retires it alone; its neighbours stay
    // in flight with their done cycles untouched.
    const auto taken = device.take(b);
    ASSERT_TRUE(taken.has_value());
    EXPECT_EQ(taken->id, b);
    EXPECT_EQ(device.inflight(), 2u);
    EXPECT_EQ(device.doneCycle(a), aDone);
    EXPECT_EQ(device.doneCycle(c), cDone);
    EXPECT_EQ(device.doneCycle(b), kNeverCycle);
    EXPECT_FALSE(device.poll().has_value());

    // A retired-and-queued request reads done at Cycle{0}; take pops
    // it without retiring anything else.
    ASSERT_TRUE(device.retireNext());
    EXPECT_EQ(device.doneCycle(a), Cycle{0});
    EXPECT_EQ(device.take(a)->id, a);
    EXPECT_EQ(device.inflight(), 1u);
    EXPECT_EQ(device.drain().size(), 1u);
}

TEST(CompletionContract, TakeUnknownIdReturnsNullopt)
{
    const model::ModelConfig config = tinyConfig();
    RmSsd device(config, RmSsdOptions{});
    device.loadTables();
    device.setMaxInflight(2);
    EXPECT_FALSE(device.take(7).has_value());

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    const RequestId id = device.submit(gen.nextBatch(1));
    EXPECT_FALSE(device.take(id + 1).has_value());
    EXPECT_EQ(device.doneCycle(id + 1), kNeverCycle);
    EXPECT_EQ(device.inflight(), 1u);
    // A consumed ticket is unknown from then on.
    ASSERT_TRUE(device.take(id).has_value());
    EXPECT_FALSE(device.take(id).has_value());
}

} // namespace
} // namespace rmssd::engine

namespace rmssd::cluster {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

/** Single-device EmbeddingOnly reference outputs for a batch. */
std::vector<float>
referencePooled(const model::ModelConfig &config,
                const std::vector<model::Sample> &batch)
{
    engine::RmSsdOptions options;
    options.variant = engine::EngineVariant::EmbeddingOnly;
    options.functional = true;
    engine::RmSsd device(config, options);
    device.loadTables();
    return device.infer(batch).outputs;
}

/** A sample touching a single table with @p lookups indices. */
model::Sample
singleTableSample(const model::ModelConfig &config, std::uint32_t table,
                  std::size_t lookups)
{
    model::Sample sample;
    sample.dense.assign(config.denseInputDim(), 0.0f);
    sample.indices.resize(config.numTables);
    for (std::size_t l = 0; l < lookups; ++l)
        sample.indices[table].push_back(
            (l * 7 + 3) % config.rowsPerTable);
    return sample;
}

TEST(EagerCompletion, ClusterRetiresOutOfOrderAcrossDisjointShards)
{
    // Request A hammers a shard-0 table; request B, submitted later,
    // touches only an idle shard-1 table and finishes first. The
    // id-matched gather lets B retire while A is still in flight —
    // impossible under the old FIFO pairing.
    const model::ModelConfig config = tinyConfig();
    ClusterOptions options;
    options.sharding.numDevices = 2;
    options.embeddingOnly = true;
    options.device.functional = true;
    RmSsdCluster fleet(config, options);
    fleet.setMaxInflight(4);

    std::uint32_t tableOn0 = config.numTables;
    std::uint32_t tableOn1 = config.numTables;
    for (std::uint32_t g = 0; g < config.numTables; ++g) {
        const auto &owners = fleet.shardPlan().ownersPerTable[g];
        if (owners.size() == 1 && owners[0] == 0)
            tableOn0 = g;
        if (owners.size() == 1 && owners[0] == 1)
            tableOn1 = g;
    }
    ASSERT_LT(tableOn0, config.numTables);
    ASSERT_LT(tableOn1, config.numTables);

    const std::vector<model::Sample> heavy{
        singleTableSample(config, tableOn0, 200)};
    const std::vector<model::Sample> light{
        singleTableSample(config, tableOn1, 1)};
    const engine::RequestId slow = fleet.submit(heavy);
    const engine::RequestId fast = fleet.submit(light);
    ASSERT_EQ(fleet.inflight(), 2u);

    const Cycle firstDone = fleet.nextDoneCycle();
    ASSERT_NE(firstDone, engine::kNeverCycle);
    // The head of the FIFO is NOT ready at the earliest completion —
    // the later request is.
    EXPECT_EQ(fleet.doneCycle(fast), firstDone);
    EXPECT_GT(fleet.doneCycle(slow), firstDone);
    EXPECT_EQ(fleet.harvestDoneBy(firstDone), 1u);
    auto completion = fleet.poll();
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->id, fast);
    EXPECT_EQ(fleet.inflight(), 1u);

    const auto rest = fleet.drain();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].id, slow);
    EXPECT_GT(rest[0].outcome.completionCycle,
              completion->outcome.completionCycle);
}

TEST(EagerCompletion, TenantFleetHarvestIsFifo)
{
    // A later request that finishes first (disjoint shards of the
    // fleet's cluster backend) waits behind the unfinished older one:
    // fleet completions finalize in submission order.
    const model::ModelConfig config = tinyConfig();
    std::vector<catalog::TenantSpec> specs(1);
    specs[0].id = "solo";
    specs[0].config = config;
    specs[0].trace = workload::localityK(0.3);
    catalog::FleetOptions options;
    options.numDevices = 2;
    options.device.functional = true;
    catalog::TenantFleet fleet(std::move(specs), options);
    fleet.setMaxInflight(4);

    const auto &plan =
        dynamic_cast<const RmSsdCluster &>(fleet.backend()).shardPlan();
    std::uint32_t tableOn0 = config.numTables;
    std::uint32_t tableOn1 = config.numTables;
    for (std::uint32_t g = 0; g < config.numTables; ++g) {
        const auto &owners = plan.ownersPerTable[g];
        if (owners.size() == 1 && owners[0] == 0)
            tableOn0 = g;
        if (owners.size() == 1 && owners[0] == 1)
            tableOn1 = g;
    }
    ASSERT_LT(tableOn0, config.numTables);
    ASSERT_LT(tableOn1, config.numTables);

    const engine::RequestId slow = fleet.submit(
        std::vector<model::Sample>{singleTableSample(config, tableOn0, 200)});
    const engine::RequestId fast = fleet.submit(
        std::vector<model::Sample>{singleTableSample(config, tableOn1, 1)});
    const Cycle fastDone = fleet.doneCycle(fast);
    const Cycle slowDone = fleet.doneCycle(slow);
    ASSERT_LT(fastDone, slowDone);

    EXPECT_EQ(fleet.harvestDoneBy(fastDone), 0u);
    EXPECT_EQ(fleet.inflight(), 2u);
    EXPECT_FALSE(fleet.poll().has_value());
    EXPECT_EQ(fleet.harvestDoneBy(slowDone), 2u);
    EXPECT_EQ(fleet.poll()->id, slow);
    EXPECT_EQ(fleet.poll()->id, fast);
}

TEST(EagerCompletion, ShardQueueDepthDecouplesFromClusterDepth)
{
    const model::ModelConfig config = tinyConfig();
    ClusterOptions options;
    options.sharding.numDevices = 2;
    options.embeddingOnly = true;
    options.device.functional = true;
    options.shardQueueDepth = 8;
    RmSsdCluster fleet(config, options);
    fleet.setMaxInflight(2);

    EXPECT_EQ(fleet.maxInflight(), 2u);
    for (std::uint32_t d = 0; d < fleet.numDevices(); ++d)
        EXPECT_EQ(fleet.shard(d).maxInflight(), 8u);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    for (int r = 0; r < 6; ++r) {
        fleet.submit(gen.nextBatch(2));
        EXPECT_LE(fleet.inflight(), 2u);
    }
    EXPECT_EQ(fleet.drain().size(), 6u);
}

TEST(HedgedRequests, WinnerBytesMatchReferenceAndHedgesFire)
{
    // Replicated hot table + a backed-up home shard: the router
    // issues the lookup to both replicas and the gather takes the
    // first completion. Outputs must stay byte-exact against the
    // unsharded reference (the in-flight memcmp between winner and
    // loser enforces replica agreement).
    const model::ModelConfig config = tinyConfig();
    workload::TraceGenerator histGen(config, workload::localityK(0.0));
    ClusterOptions options;
    options.sharding.numDevices = 2;
    options.sharding.replicateHottest = 1;
    options.embeddingOnly = true;
    options.device.functional = true;
    options.histograms = histGen.tableHistograms(2000);
    options.hedge.enabled = true;
    options.hedge.queueThreshold = 0; // hedge every replicated lookup
    RmSsdCluster fleet(config, options);
    fleet.setMaxInflight(4);

    workload::TraceGenerator gen(config, workload::localityK(0.3));
    workload::TraceGenerator refGen(config, workload::localityK(0.3));
    for (int r = 0; r < 8; ++r) {
        const auto batch = gen.nextBatch(3);
        const std::vector<float> reference =
            referencePooled(config, refGen.nextBatch(3));
        fleet.submit(batch);
        const auto completions = fleet.drain();
        ASSERT_EQ(completions.size(), 1u);
        const std::vector<float> &sharded = completions[0].outcome.outputs;
        ASSERT_EQ(sharded.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_EQ(sharded[i], reference[i])
                << "request " << r << " element " << i;
    }
    EXPECT_GT(fleet.hedgesIssued().value(), 0u);
    EXPECT_GE(fleet.hedgesIssued().value(), fleet.hedgeWins().value());
}

TEST(HedgedRequests, DoneCycleTakesTheEarlierReplicaPerTable)
{
    // Shard 1 is backed up with a heavy request; the next request
    // hits the replicated table (hedged to both shards) plus a table
    // only shard 0 holds. Per table the earlier replica counts, and
    // the request is done when its slowest table is.
    const model::ModelConfig config = tinyConfig();
    workload::TraceGenerator histGen(config, workload::localityK(0.0));
    ClusterOptions options;
    options.sharding.numDevices = 2;
    options.sharding.replicateHottest = 1;
    options.embeddingOnly = true;
    options.histograms = histGen.tableHistograms(2000);
    options.hedge.enabled = true;
    options.hedge.queueThreshold = 0; // hedge every replicated lookup
    RmSsdCluster fleet(config, options);
    fleet.setMaxInflight(4);

    std::uint32_t replicated = config.numTables;
    std::uint32_t tableOn0 = config.numTables;
    std::uint32_t tableOn1 = config.numTables;
    for (std::uint32_t g = 0; g < config.numTables; ++g) {
        const auto &owners = fleet.shardPlan().ownersPerTable[g];
        if (owners.size() == 2)
            replicated = g;
        else if (owners[0] == 0)
            tableOn0 = g;
        else
            tableOn1 = g;
    }
    ASSERT_LT(replicated, config.numTables);
    ASSERT_LT(tableOn0, config.numTables);
    ASSERT_LT(tableOn1, config.numTables);

    // Sub-request tickets: the heavy request is shard 1's first; the
    // mixed request is shard 0's first and shard 1's second.
    fleet.submit(std::vector<model::Sample>{
        singleTableSample(config, tableOn1, 200)});
    model::Sample mixed = singleTableSample(config, replicated, 1);
    mixed.indices[tableOn0] = {5};
    const engine::RequestId id =
        fleet.submit(std::vector<model::Sample>{mixed});
    const Cycle shard0 = fleet.shard(0).doneCycle(1);
    const Cycle shard1 = fleet.shard(1).doneCycle(2);
    ASSERT_NE(shard1, engine::kNeverCycle);
    ASSERT_LT(shard0, shard1);

    const Cycle replicatedReady = std::min(shard0, shard1);
    const Cycle tableOn0Ready = shard0;
    EXPECT_EQ(fleet.doneCycle(id),
              std::max(replicatedReady, tableOn0Ready));
    EXPECT_LT(fleet.doneCycle(id), shard1);
    EXPECT_EQ(fleet.drain().size(), 2u);
}

} // namespace
} // namespace rmssd::cluster

namespace rmssd::catalog {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig config = model::rmc1().withRowsPerTable(512);
    config.lookupsPerTable = 4;
    return config;
}

TEST(WeightedFairQueueing, ContendedDispatchSharesTrackWeights)
{
    // Two identical tenants, weights 3:1, both saturating the shared
    // backend: while both have parked backlogs the SFQ scheduler must
    // hand out dispatch slots 3:1.
    std::vector<TenantSpec> specs(2);
    specs[0].id = "gold";
    specs[0].config = tinyConfig();
    specs[0].trace = workload::localityK(0.3);
    specs[0].trafficShare = 3.0;
    specs[1].id = "bronze";
    specs[1].config = tinyConfig();
    specs[1].trace = workload::localityK(0.3);
    specs[1].trafficShare = 1.0;
    FleetOptions options;
    options.device.functional = true;
    TenantFleet fleet(std::move(specs), options);

    FleetServingConfig sc;
    sc.loads.resize(2);
    sc.loads[0].arrivalQps = 5e6;
    sc.loads[0].numRequests = 120;
    sc.loads[1].arrivalQps = 5e6;
    sc.loads[1].numRequests = 120;
    sc.queueDepth = 4;
    sc.wfq = true;
    const FleetServingResult r = simulateFleetServing(fleet, sc);

    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.requests, 240u);
    const double gold = r.tenants[0].contendedDispatchShare;
    const double bronze = r.tenants[1].contendedDispatchShare;
    ASSERT_GT(gold + bronze, 0.99); // shares partition the contended run
    EXPECT_NEAR(gold, 0.75, 0.05);
    EXPECT_NEAR(bronze, 0.25, 0.05);
    // The favored tenant's backlog drains faster, so its tail is no
    // worse under the same offered load.
    EXPECT_LE(r.tenants[0].p99.raw(), r.tenants[1].p99.raw());
}

TEST(WeightedFairQueueing, OffByDefaultKeepsLegacyDispatch)
{
    const auto run = [&](bool wfq) {
        std::vector<TenantSpec> specs(2);
        specs[0].id = "a";
        specs[0].config = tinyConfig();
        specs[0].trace = workload::localityK(0.3);
        specs[1].id = "b";
        specs[1].config = tinyConfig();
        specs[1].trace = workload::localityK(0.3);
        FleetOptions options;
        options.device.functional = true;
        TenantFleet fleet(std::move(specs), options);
        FleetServingConfig sc;
        sc.loads.resize(2);
        sc.loads[0].arrivalQps = 800.0;
        sc.loads[0].numRequests = 30;
        sc.loads[1].arrivalQps = 800.0;
        sc.loads[1].numRequests = 30;
        sc.queueDepth = 2;
        sc.wfq = wfq;
        return simulateFleetServing(fleet, sc);
    };
    const FleetServingResult legacy = run(false);
    EXPECT_EQ(legacy.tenants[0].contendedDispatchShare, 0.0);
    EXPECT_EQ(legacy.tenants[1].contendedDispatchShare, 0.0);
    // Equal weights, light load: wfq ordering degenerates to arrival
    // order, so fleet throughput is unchanged.
    const FleetServingResult wfq = run(true);
    EXPECT_EQ(wfq.achievedQps, legacy.achievedQps);
}

} // namespace
} // namespace rmssd::catalog
