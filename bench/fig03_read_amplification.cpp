/**
 * @file
 * Fig. 3 — I/O traffic (read) amplification of the naive SSD
 * recommendation system vs an ideal byte-addressable device:
 * Ideal / SSD-M / SSD-S for RMC1-3.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>
#include <vector>

#include "bench_common.h"
#include "catalog/catalog.h"
#include "host/page_cache.h"
#include "model/model_zoo.h"
#include "workload/trace_gen.h"

namespace {

using namespace rmssd;

void
runFigure()
{
    bench::banner("Fig. 3 - Read amplification",
                  "Host I/O traffic / ideal byte-addressable traffic "
                  "(Ideal = 1.0)");

    bench::TextTable table(
        {"model", "Ideal", "SSD-M", "SSD-S", "max (page/EV)"});
    for (const char *modelName : {"RMC1", "RMC2", "RMC3"}) {
        const model::ModelConfig cfg = model::modelByName(modelName);
        std::vector<std::string> row{modelName, "1.0"};
        for (const char *system : {"SSD-M", "SSD-S"}) {
            auto sys = catalog::makeSystem(system, cfg);
            workload::TraceGenerator gen(cfg, bench::defaultTrace());
            const auto r = sys->run(gen, 1, 8, 6);
            row.push_back(bench::fmt(r.readAmplification(), 1));
        }
        row.push_back(bench::fmt(4096.0 / cfg.vectorBytes(), 0));
        table.addRow(std::move(row));
    }
    table.print();
    std::printf("\nNote: amplification = (misses x 4 KB page fills) /"
                " (lookups x EVsize).\n");
}

/** Cyclic scan of 2^18 pages through a 2^16 cache: every access
 *  misses, so this times the eviction path only. */
void
BM_PageCacheAccess(benchmark::State &state)
{
    host::PageCache cache(1 << 16);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access({0, i++ % (1 << 18)}));
    }
}
BENCHMARK(BM_PageCacheAccess);

/** Skewed stream over 2^18 pages through a 2^16 cache (page rank
 *  = 2^18 * u^4, u uniform): mostly hits, the regime the SSD-S
 *  baseline runs in. Reports the hit ratio it measured. */
void
BM_PageCacheAccessSkewed(benchmark::State &state)
{
    constexpr std::uint64_t kPages = 1 << 18;
    std::vector<host::PageKey> stream(1 << 20);
    std::mt19937_64 rng(1);
    for (host::PageKey &key : stream) {
        const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
        key = {0, static_cast<std::uint64_t>(
                      u * u * u * u * static_cast<double>(kPages))};
    }
    host::PageCache cache(1 << 16);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(stream[i]));
        i = (i + 1) & (stream.size() - 1);
    }
    state.counters["hit_ratio"] = cache.hitRatio();
}
BENCHMARK(BM_PageCacheAccessSkewed);

} // namespace

int
main(int argc, char **argv)
{
    runFigure();
    return rmssd::bench::runMicrobenchmarks(argc, argv);
}
