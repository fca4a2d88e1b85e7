/**
 * @file
 * Tests for the Embedding Lookup Engine: functional pooling equality
 * against the reference SLS, channel striping, and timing behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "engine/embedding_engine.h"
#include "engine/ev_sum.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "model/tensor.h"

namespace rmssd::engine {
namespace {

/** Small functional device used by most tests here. */
RmSsdOptions
functionalOptions()
{
    RmSsdOptions opt;
    opt.functional = true;
    return opt;
}

model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 8;
    return cfg;
}

TEST(EvSum, AccumulateBytesAddsFloats)
{
    std::vector<float> acc{1.0f, 2.0f};
    const float vals[2] = {0.5f, -1.0f};
    std::vector<std::uint8_t> raw(sizeof(vals));
    std::memcpy(raw.data(), vals, sizeof(vals));
    EvSum::accumulateBytes(raw, acc);
    EXPECT_FLOAT_EQ(acc[0], 1.5f);
    EXPECT_FLOAT_EQ(acc[1], 1.0f);
}

TEST(EmbeddingEngine, PooledResultMatchesReference)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    const model::Sample s = dev.model().makeSample(3);
    const EmbeddingResult res =
        dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), true);
    ASSERT_EQ(res.pooled.size(), 1u);

    const model::Vector ref =
        dev.model().embedding().pooledReference(s.indices);
    EXPECT_LT(model::maxAbsDiff(res.pooled[0], ref), 1e-4f);
}

TEST(EmbeddingEngine, PoolingIsOrderInvariant)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    model::Sample s = dev.model().makeSample(5);
    const EmbeddingResult a =
        dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), true);
    for (auto &idx : s.indices)
        std::reverse(idx.begin(), idx.end());
    const EmbeddingResult b =
        dev.embeddingEngine().run(a.doneCycle, std::span(&s, 1), true);
    EXPECT_LT(model::maxAbsDiff(a.pooled[0], b.pooled[0]), 1e-4f);
}

TEST(EmbeddingEngine, TimingCoversAtLeastOneVectorRead)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    const model::Sample s = dev.model().makeSample(1);
    const EmbeddingResult res =
        dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), false);
    EXPECT_GE(res.elapsed(),
              dev.flash().timing().vectorReadTotalCycles(
                  Bytes{cfg.vectorBytes()}));
    EXPECT_GT(res.issueEndCycle, Cycle{});
    EXPECT_LE(res.issueEndCycle, res.doneCycle);
}

TEST(EmbeddingEngine, LookupsStripeOverChannels)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    const model::Sample s = dev.model().makeSample(2);
    dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), false);
    // 8 tables x 8 lookups = 64 reads over 4 channels; with random
    // rows every channel must see traffic.
    for (std::uint32_t c = 0; c < 4; ++c) {
        EXPECT_GT(dev.flash().fmc(c).vectorReads().value(), 0u)
            << "channel " << c;
    }
    EXPECT_EQ(dev.embeddingEngine().lookups().value(), 64u);
    EXPECT_EQ(dev.embeddingEngine().lookupBytes().value(),
              64u * cfg.vectorBytes());
}

TEST(EmbeddingEngine, BatchTimeScalesRoughlyLinearly)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, functionalOptions());
    dev.loadTables();

    std::vector<model::Sample> one{dev.model().makeSample(1)};
    std::vector<model::Sample> four;
    for (int i = 0; i < 4; ++i)
        four.push_back(dev.model().makeSample(10 + i));

    dev.flash().resetTiming();
    const Cycle t1 = dev.embeddingEngine()
                         .run(Cycle{}, std::span(one), false)
                         .elapsed();
    dev.flash().resetTiming();
    const Cycle t4 = dev.embeddingEngine()
                         .run(Cycle{}, std::span(four), false)
                         .elapsed();
    EXPECT_GT(t4, 2 * t1);
    EXPECT_LT(t4, 8 * t1);
}

/** Duplicate (table, index) lookups of one batch, by a std::map. */
std::uint64_t
duplicatesIn(const std::vector<model::Sample> &batch)
{
    std::map<std::pair<std::size_t, std::uint64_t>, std::uint32_t> seen;
    std::uint64_t dups = 0;
    for (const model::Sample &s : batch)
        for (std::size_t t = 0; t < s.indices.size(); ++t)
            for (const std::uint64_t idx : s.indices[t])
                dups += ++seen[{t, idx}] > 1 ? 1 : 0;
    return dups;
}

/**
 * Back-to-back batches whose keys overlap across batches (each batch
 * reuses rows of the one before) and within a batch, growing to a
 * batch larger than any earlier one.
 */
std::vector<std::vector<model::Sample>>
overlappingBatches(const model::DlrmModel &model)
{
    std::vector<std::vector<model::Sample>> batches;
    std::uint64_t seed = 100;
    for (const std::size_t size : {3u, 1u, 4u, 2u, 12u}) {
        std::vector<model::Sample> batch;
        for (std::size_t i = 0; i < size; ++i)
            batch.push_back(model.makeSample(seed++));
        if (!batches.empty()) {
            // Carry rows over from the previous batch: they were read
            // there and must be read again here, not coalesced.
            const model::Sample &prev = batches.back().front();
            for (std::size_t t = 0; t < batch[0].indices.size(); t += 2)
                batch[0].indices[t] = prev.indices[t];
        }
        batch[0].indices[5][1] = batch[0].indices[5][0];
        if (size > 1)
            batch[1].indices[3] = batch[0].indices[3];
        batches.push_back(std::move(batch));
    }
    return batches;
}

TEST(CoalescingScratch, NoKeyCoalescesAcrossBatches)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions coalOpt = functionalOptions();
    coalOpt.coalesceIndices = true;
    RmSsd plain(cfg, functionalOptions());
    RmSsd coal(cfg, coalOpt);
    RmSsdOptions cachedOpt = coalOpt;
    cachedOpt.evCache.enabled = true;
    RmSsd cached(cfg, cachedOpt);
    plain.loadTables();
    coal.loadTables();
    cached.loadTables();

    std::uint64_t expected = 0;
    for (const auto &batch : overlappingBatches(plain.model())) {
        const std::uint64_t dups = duplicatesIn(batch);
        ASSERT_GT(dups, 0u);
        expected += dups;
        for (const bool functional : {true, false}) {
            const EmbeddingResult a = plain.embeddingEngine().run(
                Cycle{}, std::span(batch), functional);
            const EmbeddingResult b = coal.embeddingEngine().run(
                Cycle{}, std::span(batch), functional);
            const EmbeddingResult c = cached.embeddingEngine().run(
                Cycle{}, std::span(batch), functional);
            ASSERT_EQ(a.pooled.size(), functional ? batch.size() : 0u);
            ASSERT_EQ(b.pooled.size(), a.pooled.size());
            ASSERT_EQ(c.pooled.size(), a.pooled.size());
            for (std::size_t i = 0; i < a.pooled.size(); ++i) {
                EXPECT_EQ(a.pooled[i], b.pooled[i]) << "sample " << i;
                EXPECT_EQ(a.pooled[i], c.pooled[i]) << "sample " << i;
            }
        }
        expected += dups; // the timing-only rerun coalesces the same
        EXPECT_EQ(coal.embeddingEngine().coalescedLookups().value(),
                  expected);
        EXPECT_EQ(cached.embeddingEngine().coalescedLookups().value(),
                  expected);
        // Without a cache every lookup that did not coalesce reads
        // flash, carried-over keys included.
        EXPECT_EQ(coal.embeddingEngine().flashReads().value() + expected,
                  coal.embeddingEngine().lookups().value());
    }
    EXPECT_GT(cached.evCache()->hits().value(), 0u);
}

class SteadyStateRate : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SteadyStateRate, AnalyticFormulaTracksSimulation)
{
    // bEV check: a long uniform stream approaches the analytic
    // steady-state cycles-per-read within 25%.
    const std::uint32_t evBytes = GetParam();
    model::ModelConfig cfg = model::rmc1();
    cfg.embDim = evBytes / 4;
    cfg.withRowsPerTable(4096);
    cfg.lookupsPerTable = 64;
    cfg.numTables = 4;

    RmSsdOptions opt; // timing only
    RmSsd dev(cfg, opt);
    dev.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 8; ++i)
        batch.push_back(dev.model().makeSample(i));
    const EmbeddingResult res =
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false);
    const double simPerRead =
        static_cast<double>(res.elapsed().raw()) /
        static_cast<double>(dev.embeddingEngine().lookups().value());
    const double analytic = EmbeddingEngine::steadyStateCyclesPerRead(
        dev.flash().geometry(), dev.flash().timing(), Bytes{evBytes});
    EXPECT_NEAR(simPerRead, analytic, analytic * 0.25);
}

INSTANTIATE_TEST_SUITE_P(SweepEvSizes, SteadyStateRate,
                         ::testing::Values(128u, 256u, 512u));

} // namespace
} // namespace rmssd::engine
