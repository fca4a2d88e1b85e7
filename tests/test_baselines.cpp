/**
 * @file
 * Tests for the comparison systems: catalog coverage, traffic and
 * breakdown accounting, cache behaviour, and the paper's qualitative
 * performance ordering on a scaled-down workload.
 */

#include <gtest/gtest.h>

#include "baseline/dram_system.h"
#include "baseline/emb_vectorsum_system.h"
#include "baseline/recssd_system.h"
#include "baseline/rm_ssd_system.h"
#include "baseline/ssd_naive_system.h"
#include "catalog/catalog.h"
#include "model/model_zoo.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::baseline {
namespace {

/** Scaled-down RMC1-like config that keeps tests fast. */
model::ModelConfig
miniConfig()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(100000);
    cfg.lookupsPerTable = 16;
    return cfg;
}

workload::TraceConfig
miniTrace()
{
    workload::TraceConfig tc = workload::localityK(0.3);
    tc.hotRowsPerTable = 500;
    return tc;
}

TEST(Registry, BuildsEverySystem)
{
    const model::ModelConfig cfg = miniConfig();
    for (const std::string &name :
         catalog::ModelCatalog::builtin().systemNames()) {
        const auto sys = catalog::makeSystem(name, cfg);
        ASSERT_NE(sys, nullptr) << name;
        EXPECT_EQ(sys->name(), name);
    }
    EXPECT_EXIT(catalog::makeSystem("NoSuchSystem", cfg),
                ::testing::ExitedWithCode(1), "unknown system");
}

TEST(DramSystemTest, BreakdownHasNoDeviceTime)
{
    const model::ModelConfig cfg = miniConfig();
    DramSystem sys(cfg);
    workload::TraceGenerator gen(cfg, miniTrace());
    const auto r = sys.run(gen, 4, 5, 0);
    EXPECT_EQ(r.samples, 20u);
    EXPECT_EQ(r.breakdown.embSsd, Nanos{});
    EXPECT_EQ(r.breakdown.embFs, Nanos{});
    EXPECT_GT(r.breakdown.embOp, Nanos{});
    EXPECT_GT(r.breakdown.topMlp, Nanos{});
    EXPECT_EQ(r.hostTrafficBytes, Bytes{});
    EXPECT_GT(r.qps(), 0.0);
}

TEST(SsdNaiveSystemTest, SsdSIsSlowerThanSsdM)
{
    const model::ModelConfig cfg = miniConfig();
    SsdNaiveSystem ssdS(cfg, 0.25);
    SsdNaiveSystem ssdM(cfg, 0.5);
    workload::TraceGenerator genS(cfg, miniTrace());
    workload::TraceGenerator genM(cfg, miniTrace());
    const auto rs = ssdS.run(genS, 4, 10, 5);
    const auto rm = ssdM.run(genM, 4, 10, 5);
    EXPECT_GE(rs.totalNanos, rm.totalNanos);
    // Both amplify reads well above the ideal byte-addressable
    // device (Fig. 3).
    EXPECT_GT(rs.readAmplification(), 2.0);
    EXPECT_GE(rs.readAmplification(), rm.readAmplification() * 0.99);
}

TEST(SsdNaiveSystemTest, BreakdownDominatedByEmbeddingPath)
{
    const model::ModelConfig cfg = miniConfig();
    SsdNaiveSystem sys(cfg, 0.25);
    workload::TraceGenerator gen(cfg, miniTrace());
    const auto r = sys.run(gen, 1, 10, 3);
    const Nanos embedding =
        r.breakdown.embFs + r.breakdown.embSsd + r.breakdown.embOp;
    EXPECT_GT(embedding, r.breakdown.topMlp + r.breakdown.botMlp);
}

TEST(RecssdSystemTest, WarmCacheHitsTheHotSet)
{
    const model::ModelConfig cfg = miniConfig();
    RecssdSystem sys(cfg, /*cacheVectorsPerTable=*/2000);
    workload::TraceGenerator gen(cfg, miniTrace());
    const auto cold = sys.run(gen, 4, 5, 0);
    RecssdSystem warm(cfg, 2000);
    workload::TraceGenerator gen2(cfg, miniTrace());
    const auto warmed = warm.run(gen2, 4, 5, 30);
    // Warm-up lowers device traffic per measured lookup.
    EXPECT_LT(static_cast<double>(warmed.totalNanos.raw()),
              static_cast<double>(cold.totalNanos.raw()) * 1.01);
}

TEST(RecssdSystemTest, ThroughputDegradesWithLocality)
{
    // Fig. 14's key contrast, device side: less locality -> more
    // flash reads for RecSSD.
    const model::ModelConfig cfg = miniConfig();
    workload::TraceConfig hot = miniTrace();
    hot.hotAccessFraction = 0.8;
    workload::TraceConfig cold = miniTrace();
    cold.hotAccessFraction = 0.3;

    RecssdSystem sysHot(cfg, 2000);
    workload::TraceGenerator genHot(cfg, hot);
    const auto rHot = sysHot.run(genHot, 4, 10, 20);

    RecssdSystem sysCold(cfg, 2000);
    workload::TraceGenerator genCold(cfg, cold);
    const auto rCold = sysCold.run(genCold, 4, 10, 20);

    EXPECT_GT(rHot.qps(), rCold.qps());
}

TEST(HostVectorCacheTest, LruSemantics)
{
    HostVectorCache cache(2);
    EXPECT_FALSE(cache.access(0, 1));
    EXPECT_FALSE(cache.access(0, 2));
    EXPECT_TRUE(cache.access(0, 1));
    EXPECT_FALSE(cache.access(0, 3)); // evicts row 2
    EXPECT_FALSE(cache.access(0, 2));
    EXPECT_NEAR(cache.hitRatio(), 1.0 / 5.0, 1e-9);
}

TEST(SystemOrdering, MatchesThePaperQualitatively)
{
    // RM-SSD > RecSSD > SSD-S in throughput; RM-SSD >> SSD-S.
    const model::ModelConfig cfg = miniConfig();

    SsdNaiveSystem ssdS(cfg, 0.25);
    workload::TraceGenerator g1(cfg, miniTrace());
    const double qSsd = ssdS.run(g1, 4, 8, 4).qps();

    RecssdSystem recssd(cfg, 2000);
    workload::TraceGenerator g2(cfg, miniTrace());
    const double qRec = recssd.run(g2, 4, 8, 20).qps();

    RmSsdSystem rmssd(cfg);
    workload::TraceGenerator g3(cfg, miniTrace());
    const double qRm = rmssd.run(g3, 4, 8, 2).qps();

    EXPECT_GT(qRec, qSsd);
    EXPECT_GT(qRm, qRec);
    EXPECT_GT(qRm, 5.0 * qSsd);
}

TEST(EmbVectorSumSystemTest, SlsOnlySkipsMlp)
{
    const model::ModelConfig cfg = miniConfig();
    EmbVectorSumSystem sys(cfg);
    workload::TraceGenerator gen(cfg, miniTrace());
    sys.setSlsOnly(true);
    const auto r = sys.run(gen, 2, 5, 0);
    EXPECT_EQ(r.breakdown.topMlp, Nanos{});
    EXPECT_EQ(r.breakdown.botMlp, Nanos{});
    EXPECT_GT(r.breakdown.embSsd, Nanos{});
}

TEST(EmbVectorSumSystemTest, TrafficIsPooledVectors)
{
    const model::ModelConfig cfg = miniConfig();
    EmbVectorSumSystem sys(cfg);
    workload::TraceGenerator gen(cfg, miniTrace());
    const auto r = sys.run(gen, 1, 4, 0);
    // Batch-1 pooled result: numTables * dim * 4 B per inference.
    const std::uint64_t pooled =
        static_cast<std::uint64_t>(cfg.numTables) * cfg.embDim *
        sizeof(float);
    EXPECT_EQ(r.hostTrafficBytes, Bytes{4u * pooled});
}

TEST(RmSsdSystemTest, TrafficFarBelowNaiveSsd)
{
    // Table IV's headline: RM-SSD's host traffic is orders of
    // magnitude below SSD-S's.
    const model::ModelConfig cfg = miniConfig();

    SsdNaiveSystem ssdS(cfg, 0.25);
    workload::TraceGenerator g1(cfg, miniTrace());
    const auto rs = ssdS.run(g1, 1, 8, 4);

    RmSsdSystem rm(cfg);
    workload::TraceGenerator g2(cfg, miniTrace());
    const auto rr = rm.run(g2, 1, 8, 0);

    ASSERT_GT(rr.hostTrafficBytes, Bytes{});
    EXPECT_GT(rs.hostTrafficBytes / rr.hostTrafficBytes, 50u);
}

} // namespace
} // namespace rmssd::baseline
