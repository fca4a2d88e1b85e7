/**
 * @file
 * Fig. 14 — Throughput vs input-trace locality: RM-SSD stays flat
 * while RecSSD's host-cache advantage evaporates as the hot-access
 * fraction drops (K = 0 / 0.3 / 1 / 2 -> 80/65/45/30 % hit ratio).
 *
 * Extension beyond the paper: the RM-SSD+cache column adds the
 * device-side EV cache + intra-batch coalescing, sized to cover the
 * trace's hot set. Its QPS now *rises* with locality (hot fraction)
 * instead of staying flat — the device exploits the same skew RecSSD's
 * host cache does, without the host round-trip.
 *
 * Cache v2 columns: at the SAME capacity, "RM-SSD+lfu" turns on
 * TinyLFU admission (the cold tail can no longer evict hot lines) and
 * "RM-SSD+part" adds static per-table partitioning sized from the
 * trace histogram. The measured hit%% columns show the admission
 * filter closing the gap between the LRU hit ratio and the trace's
 * hot-access fraction, and the QPS columns the throughput that buys.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "baseline/rm_ssd_system.h"
#include "bench_common.h"
#include "catalog/catalog.h"
#include "engine/ev_cache.h"
#include "engine/freq_sketch.h"
#include "model/model_zoo.h"
#include "workload/trace_gen.h"

namespace {

using namespace rmssd;

/**
 * EV cache sized to hold 1/@p divisor of the trace's per-table hot
 * set. divisor 1 covers the whole hot set (capacity misses vanish);
 * larger divisors create the capacity pressure under which the
 * admission policy decides the hit ratio.
 */
engine::EvCacheConfig
cacheForTrace(const model::ModelConfig &cfg,
              const workload::TraceConfig &tc,
              std::uint64_t divisor = 1)
{
    engine::EvCacheConfig cc;
    cc.enabled = true;
    cc.capacityBytes = Bytes{tc.hotRowsPerTable * cfg.numTables *
                             cfg.vectorBytes() / divisor};
    const std::uint64_t rowsPerTable =
        cc.capacityBytes.raw() / cfg.vectorBytes() / cfg.numTables;
    cc.expectedHitRatio = workload::expectedHitRatio(tc, rowsPerTable);
    return cc;
}

void
runFigure()
{
    bench::banner("Fig. 14 - Locality sensitivity",
                  "QPS vs locality knob K (batch 4)");

    const std::vector<double> ks{0.0, 0.3, 1.0, 2.0};

    for (const char *modelName : {"RMC1", "RMC2", "RMC3"}) {
        const model::ModelConfig cfg = model::modelByName(modelName);
        std::printf("--- %s ---\n", modelName);
        bench::TextTable table(
            {"K", "hit ratio", "RecSSD QPS", "RM-SSD QPS",
             "RM-SSD+cache QPS", "cache speedup", "LRU/4 QPS",
             "LRU/4 hit%", "lfu/4 QPS", "lfu/4 hit%", "part/4 QPS",
             "part/4 hit%", "lfu speedup"});
        table.setCaption(modelName);
        for (const double k : ks) {
            const workload::TraceConfig tc = workload::localityK(k);

            auto recssd = catalog::makeSystem("RecSSD", cfg);
            workload::TraceGenerator genR(cfg, tc);
            const double qRec = recssd->run(genR, 4, 6, 4).qps();

            auto rmssd = catalog::makeSystem("RM-SSD", cfg);
            workload::TraceGenerator genM(cfg, tc);
            const double qRm = rmssd->run(genM, 4, 6, 1).qps();

            // The EV cache is cold at construction; a longer window
            // lets it warm to its steady-state hit ratio.
            baseline::RmSsdSystem cached(cfg, cacheForTrace(cfg, tc));
            workload::TraceGenerator genC(cfg, tc);
            const double qCache = cached.run(genC, 4, 32, 8).qps();

            // Cache v2 comparison at EQUAL, constrained capacity
            // (1/4 of the hot set): under capacity pressure plain
            // LRU lets the cold tail churn the Zipf head out, while
            // TinyLFU admission keeps it resident.
            const engine::EvCacheConfig qCfg =
                cacheForTrace(cfg, tc, 4);
            baseline::RmSsdSystem lruQ(cfg, qCfg, "RM-SSD+cache/4");
            workload::TraceGenerator genQ(cfg, tc);
            const auto rLru = lruQ.run(genQ, 4, 32, 16);
            const double qLru = rLru.qps();

            engine::EvCacheConfig lfuCfg = qCfg;
            lfuCfg.admission = engine::EvCacheAdmission::TinyLfu;
            baseline::RmSsdSystem lfu(cfg, lfuCfg, "RM-SSD+lfu");
            workload::TraceGenerator genL(cfg, tc);
            const auto rLfu = lfu.run(genL, 4, 32, 16);
            const double qLfu = rLfu.qps();

            // Same capacity again, TinyLFU plus per-table partitions
            // sized from the trace's per-table histogram.
            engine::EvCacheConfig partCfg = lfuCfg;
            {
                workload::TraceGenerator profile(cfg, tc);
                partCfg.tableShares = workload::planTableShares(
                    profile.tableHistograms(50000));
            }
            baseline::RmSsdSystem part(cfg, partCfg, "RM-SSD+part");
            workload::TraceGenerator genP(cfg, tc);
            const auto rPart = part.run(genP, 4, 32, 16);
            const double qPart = rPart.qps();

            table.addRow(
                {bench::fmt(k, 1),
                 bench::fmt(tc.hotAccessFraction * 100.0, 0) + "%",
                 bench::fmt(qRec, 0), bench::fmt(qRm, 0),
                 bench::fmt(qCache, 0),
                 bench::fmt(qCache / qRm, 2) + "x",
                 bench::fmt(qLru, 0),
                 bench::fmt(rLru.cacheHitRatio * 100.0, 1) + "%",
                 bench::fmt(qLfu, 0),
                 bench::fmt(rLfu.cacheHitRatio * 100.0, 1) + "%",
                 bench::fmt(qPart, 0),
                 bench::fmt(rPart.cacheHitRatio * 100.0, 1) + "%",
                 bench::fmt(qLfu / qLru, 2) + "x"});
        }
        table.print();
        std::printf("\n");
    }
    std::printf("Expected shape: RecSSD degrades as K grows; RM-SSD "
                "is locality-insensitive (flat); RM-SSD+cache rises "
                "with the hot-access fraction; at equal capacity the "
                "TinyLFU columns beat the LRU ones on both hit ratio "
                "and QPS.\n");
}

void
BM_RecssdColdTrace(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    auto sys = catalog::makeSystem("RecSSD", cfg);
    workload::TraceGenerator gen(cfg, workload::localityK(2.0));
    sys->run(gen, 4, 1, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sys->run(gen, 4, 1, 0).totalNanos);
    }
}
BENCHMARK(BM_RecssdColdTrace);

void
BM_RmssdCacheHotTrace(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    const workload::TraceConfig tc = workload::localityK(0.0);
    baseline::RmSsdSystem sys(cfg, cacheForTrace(cfg, tc));
    workload::TraceGenerator gen(cfg, tc);
    sys.run(gen, 4, 8, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sys.run(gen, 4, 1, 0).totalNanos);
    }
}
BENCHMARK(BM_RmssdCacheHotTrace);

/** 512 pre-generated samples of @p gen as one (table, index) stream. */
std::vector<std::pair<TableId, EvIndex>>
lookupStream(workload::TraceGenerator &gen)
{
    std::vector<std::pair<TableId, EvIndex>> stream;
    for (int i = 0; i < 512; ++i) {
        const model::Sample s = gen.next();
        for (std::uint32_t t = 0; t < s.indices.size(); ++t)
            for (const std::uint64_t idx : s.indices[t])
                stream.emplace_back(TableId{t}, EvIndex{idx});
    }
    return stream;
}

/**
 * The EV cache alone, without flash, engine or serving loop: a TinyLFU
 * cache with per-table partitions at 1/4 of the hot set, probe then
 * fill on miss, over a pre-generated K = 0.3 RMC1 stream. Gives the
 * component's host cost its own before/after number.
 */
void
BM_EvCacheLookupSkewed(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    const workload::TraceConfig tc = workload::localityK(0.3);
    workload::TraceGenerator gen(cfg, tc);
    engine::EvCacheConfig cc = cacheForTrace(cfg, tc, 4);
    cc.admission = engine::EvCacheAdmission::TinyLfu;
    cc.tableShares =
        workload::planTableShares(gen.tableHistograms(50000));
    const auto stream = lookupStream(gen);

    engine::EvCache cache(cc, Bytes{cfg.vectorBytes()});
    for (auto _ : state) {
        for (const auto &[table, index] : stream) {
            const bool hit = cache.lookup(table, index, nullptr);
            benchmark::DoNotOptimize(hit);
            if (!hit)
                cache.fill(table, index, {});
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(stream.size()));
    state.counters["hit_ratio"] = cache.hitRatio();
}
BENCHMARK(BM_EvCacheLookupSkewed);

/**
 * The TinyLFU sketch alone, sized as the sketch of
 * BM_EvCacheLookupSkewed's cache: per stream key, the
 * lookup's record, then the fill's admission test (candidate and
 * victim estimates; the victim is the key half a stream away).
 */
void
BM_FrequencySketchRecordEstimate(benchmark::State &state)
{
    const model::ModelConfig cfg = model::rmc1();
    const workload::TraceConfig tc = workload::localityK(0.3);
    workload::TraceGenerator gen(cfg, tc);
    const engine::EvCacheConfig cc = cacheForTrace(cfg, tc, 4);
    const std::uint64_t lines = cc.capacityBytes / Bytes{cfg.vectorBytes()};
    engine::FrequencySketch sketch(lines * cc.sketchCountersPerLine,
                                   lines * cc.sketchSamplePerLine);
    // EvCache's key layout: table id above a 48-bit row index.
    std::vector<std::uint64_t> keys;
    for (const auto &[table, index] : lookupStream(gen))
        keys.push_back((static_cast<std::uint64_t>(table.raw()) << 48) |
                       index.raw());

    const std::size_t half = keys.size() / 2;
    for (auto _ : state) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
            sketch.record(keys[i]);
            const bool admit =
                sketch.estimate(keys[i]) >
                sketch.estimate(keys[(i + half) % keys.size()]);
            benchmark::DoNotOptimize(admit);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FrequencySketchRecordEstimate);

} // namespace

int
main(int argc, char **argv)
{
    runFigure();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
