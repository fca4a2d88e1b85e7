/**
 * @file
 * Fig. 17 (extension beyond the paper) — Cross-request pipelining via
 * the asynchronous submit/poll device interface. The serving loop
 * keeps up to `queueDepth` requests in flight: request r+1's host DMA
 * and embedding issue overlap request r's MLP tail and result
 * readback, bounded by the per-engine occupancy tracks (the EV
 * translator's issue port, the MLP units, the host DMA channel).
 *
 * Depth 1 is the blocking infer() loop bit-for-bit — the depth-1 rows
 * here ARE today's simulateServing numbers. The win appears where a
 * request leaves engine headroom behind it: cache-friendly traffic
 * (hot rows served from the device-side EV cache) on sharded fleets,
 * where the scatter/gather host window at depth 1 leaves the shards'
 * engines idle between requests.
 *
 * Two readouts per model (RMC1, RMC2):
 *  - saturated achieved QPS vs queue depth 1/2/4/8 for a cached
 *    single device and cached x2/x4 fleets, with speedup vs depth 1
 *    (at saturation the deeper queue raises QPS AND lowers p99 — the
 *    same requests finish sooner);
 *  - p99 latency of the x4 fleet under a FIXED offered load (~90 % of
 *    its depth-1 saturation): the serving loop harvests every
 *    finished request at each dispatch, and the deeper queue raises
 *    the fleet's capacity, so the same load queues less and the tail
 *    DROPS too.
 *
 * The "mean depth" column is the time-weighted device occupancy
 * (ServingResult::meanQueueDepth). Under the §IV-D presend the next
 * command send overlaps the previous readout, so it can exceed the
 * ticket depth even at depth 1.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace {

using namespace rmssd;

/**
 * Cache-friendly trace: K = 0 locality concentrated on 200 hot rows
 * per table, so the device-side EV cache (planned for an 0.8 hit
 * ratio) actually runs warm and the flash path has headroom to
 * overlap across requests.
 */
workload::TraceConfig
pipelineTrace()
{
    workload::TraceConfig trace = workload::localityK(0.0);
    trace.hotRowsPerTable = 200;
    return trace;
}

/** Cached single device (x1) or cached fleet (x2/x4). */
std::unique_ptr<engine::InferenceDevice>
makeSystem(const model::ModelConfig &cfg, std::uint32_t numDevices)
{
    if (numDevices == 1) {
        engine::RmSsdOptions options;
        options.evCache.enabled = true;
        options.evCache.expectedHitRatio = 0.8;
        options.coalesceIndices = true;
        auto device = std::make_unique<engine::RmSsd>(cfg, options);
        device->loadTables();
        return device;
    }
    cluster::ClusterOptions options;
    options.sharding.numDevices = numDevices;
    options.device.evCache.enabled = true;
    options.device.evCache.expectedHitRatio = 0.8;
    options.device.coalesceIndices = true;
    return std::make_unique<cluster::RmSsdCluster>(cfg, options);
}

/**
 * Build a fresh system, warm its caches with 40 single-sample
 * requests, then run the serving loop at @p queueDepth. A fresh
 * system per depth keeps every depth's cache state and sample stream
 * identical — the depth is the only variable.
 */
workload::ServingResult
runAtDepth(const model::ModelConfig &cfg, std::uint32_t numDevices,
           std::uint32_t queueDepth, double arrivalQps)
{
    auto system = makeSystem(cfg, numDevices);
    workload::TraceGenerator gen(cfg, pipelineTrace());
    for (int r = 0; r < 40; ++r)
        system->infer(gen.nextBatch(1));

    workload::ServingConfig sc;
    sc.arrivalQps = arrivalQps;
    sc.batchSize = 1;
    sc.numRequests = 160;
    sc.queueDepth = queueDepth;
    return simulateServing(*system, gen, sc);
}

/** Effectively back-to-back arrivals: the device is the bottleneck. */
constexpr double kSaturatingQps = 5e6;

void
runFigure()
{
    bench::banner("Fig. 17 - Cross-request pipelining",
                  "achieved QPS and tail vs queue depth (batch 1)");

    const std::vector<std::uint32_t> depths{1, 2, 4, 8};
    const std::vector<std::uint32_t> fleets{1, 2, 4};

    for (const char *modelName : {"RMC1", "RMC2"}) {
        const model::ModelConfig cfg = model::modelByName(modelName);
        std::printf("--- %s ---\n", modelName);
        bench::TextTable table({"system", "depth", "QPS", "speedup",
                                "p99 (us)", "mean depth"});
        table.setCaption(modelName);

        for (const std::uint32_t numDevices : fleets) {
            const std::string system =
                "RM-SSD x" + std::to_string(numDevices);
            double qpsDepth1 = 0.0;
            for (const std::uint32_t depth : depths) {
                const workload::ServingResult r =
                    runAtDepth(cfg, numDevices, depth, kSaturatingQps);
                if (depth == 1)
                    qpsDepth1 = r.achievedQps;
                table.addRow(
                    {system, std::to_string(depth),
                     bench::fmt(r.achievedQps, 0),
                     bench::fmt(r.achievedQps / qpsDepth1, 2) + "x",
                     bench::fmt(
                         static_cast<double>(r.p99.raw()) / 1e3, 1),
                     bench::fmt(r.meanQueueDepth, 2)});
            }
        }
        table.print();
        std::printf("\n");
    }

    // Fixed offered load on the x4 fleets: same arrivals, deeper
    // queue. Finished requests are harvested at every dispatch, so
    // depth only adds overlap: the fleet's capacity rises and the
    // same offered load queues less.
    std::printf("--- Fixed offered load (x4 fleet, 90%% of depth-1 "
                "saturation) ---\n");
    bench::TextTable tail(
        {"model", "depth", "offered QPS", "p99 (us)", "mean depth"});
    tail.setCaption("fixed-load tail (x4)");
    for (const char *modelName : {"RMC1", "RMC2"}) {
        const model::ModelConfig cfg = model::modelByName(modelName);
        const double saturated =
            runAtDepth(cfg, 4, 1, kSaturatingQps).achievedQps;
        const double offered = 0.9 * saturated;
        for (const std::uint32_t depth : {1u, 4u}) {
            const workload::ServingResult r =
                runAtDepth(cfg, 4, depth, offered);
            tail.addRow(
                {modelName, std::to_string(depth),
                 bench::fmt(offered, 0),
                 bench::fmt(static_cast<double>(r.p99.raw()) / 1e3,
                            1),
                 bench::fmt(r.meanQueueDepth, 2)});
        }
    }
    tail.print();
    std::printf(
        "\nExpected shape: depth-1 rows identical to the blocking "
        "serving loop; cached fleets gain >1.2x at depth >= 4 (the "
        "scatter/gather host window stops serializing the shards); "
        "flat curves where flash is already saturated; and at fixed "
        "sub-saturation load depth 4 lowers the tail as well, since "
        "the added capacity leaves the same load less queued.\n");
}

void
BM_PipelinedSubmit(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    engine::RmSsd device(cfg, engine::RmSsdOptions{});
    device.loadTables();
    device.setMaxInflight(4);
    workload::TraceGenerator gen(cfg, bench::defaultTrace());
    const auto batch = gen.nextBatch(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(device.submit(batch));
        while (device.poll()) {
        }
    }
    device.drain();
}
BENCHMARK(BM_PipelinedSubmit);

void
BM_ClusterPipelinedSubmit(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    cluster::ClusterOptions options;
    options.sharding.numDevices = 2;
    cluster::RmSsdCluster fleet(cfg, options);
    fleet.setMaxInflight(4);
    workload::TraceGenerator gen(cfg, bench::defaultTrace());
    const auto batch = gen.nextBatch(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fleet.submit(batch));
        while (fleet.poll()) {
        }
    }
    fleet.drain();
}
BENCHMARK(BM_ClusterPipelinedSubmit);

} // namespace

int
main(int argc, char **argv)
{
    runFigure();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
