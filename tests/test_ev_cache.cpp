/**
 * @file
 * Tests for the device-side EV cache and intra-batch index
 * coalescing: LRU eviction mechanics, functional equivalence of the
 * reuse path (pooled outputs bit-identical with cache/coalescing on
 * vs. off), hit-ratio against the localityK trace generator, and the
 * cache-aware steady-state read-rate model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "engine/embedding_engine.h"
#include "engine/ev_cache.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "workload/trace_gen.h"

namespace rmssd::engine {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 8;
    return cfg;
}

/** A one-set cache of @p ways lines (direct LRU observation). */
EvCache
oneSetCache(std::uint32_t ways, std::uint32_t lineBytes = 16)
{
    EvCacheConfig cc;
    cc.enabled = true;
    cc.capacityBytes =
        Bytes{static_cast<std::uint64_t>(ways) * lineBytes};
    cc.ways = ways;
    return EvCache(cc, Bytes{lineBytes});
}

TEST(EvCache, GeometryFromConfig)
{
    EvCacheConfig cc;
    cc.capacityBytes = Bytes{1024};
    cc.ways = 4;
    const EvCache cache(cc, Bytes{32}); // 32 lines -> 8 sets x 4 ways
    EXPECT_EQ(cache.numSets(), 8u);
    EXPECT_EQ(cache.ways(), 4u);
    EXPECT_EQ(cache.lineBytes(), Bytes{32});
}

TEST(EvCache, LruEvictsOldestLine)
{
    EvCache cache = oneSetCache(2);
    cache.fill(TableId{}, EvIndex{1}, {});
    cache.fill(TableId{}, EvIndex{2}, {});
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{2}));

    // Touch index 1 so index 2 becomes LRU, then overflow the set.
    EXPECT_TRUE(cache.lookup(TableId{}, EvIndex{1}, nullptr));
    cache.fill(TableId{}, EvIndex{3}, {});
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_FALSE(cache.contains(TableId{}, EvIndex{2}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{3}));
    EXPECT_EQ(cache.evictions().value(), 1u);
}

TEST(EvCache, RefillRefreshesInsteadOfEvicting)
{
    EvCache cache = oneSetCache(2);
    cache.fill(TableId{}, EvIndex{1}, {});
    cache.fill(TableId{}, EvIndex{2}, {});
    cache.fill(TableId{}, EvIndex{1}, {}); // refresh, not a new line
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{2}));
    EXPECT_EQ(cache.evictions().value(), 0u);

    cache.fill(TableId{}, EvIndex{3}, {}); // now 2 is LRU
    EXPECT_FALSE(cache.contains(TableId{}, EvIndex{2}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
}

TEST(EvCache, TablesDoNotAlias)
{
    EvCache cache = oneSetCache(4);
    cache.fill(TableId{1}, EvIndex{7}, {});
    EXPECT_TRUE(cache.contains(TableId{1}, EvIndex{7}));
    EXPECT_FALSE(cache.contains(TableId{2}, EvIndex{7}));
    EXPECT_FALSE(cache.lookup(TableId{2}, EvIndex{7}, nullptr));
}

TEST(EvCache, FunctionalLookupRequiresData)
{
    EvCache cache = oneSetCache(2);
    cache.fill(TableId{}, EvIndex{1}, {}); // timing-only line, no bytes
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(cache.lookup(TableId{}, EvIndex{1}, &out)) << "dataless line must miss "
                                              "a functional probe";
    const std::vector<std::uint8_t> bytes{1, 2, 3, 4};
    cache.fill(TableId{}, EvIndex{1}, bytes);
    EXPECT_TRUE(cache.lookup(TableId{}, EvIndex{1}, &out));
    EXPECT_EQ(out, bytes);
}

TEST(EvCache, InvalidateDropsLinesKeepsCounters)
{
    EvCache cache = oneSetCache(2);
    cache.fill(TableId{}, EvIndex{1}, {});
    EXPECT_TRUE(cache.lookup(TableId{}, EvIndex{1}, nullptr));
    cache.invalidate();
    EXPECT_FALSE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_EQ(cache.hits().value(), 1u);
}

TEST(EffectiveCyclesPerRead, ShrinksWithHitRatioAndFloors)
{
    const flash::Geometry g = flash::tableIIGeometry();
    const flash::NandTiming t = flash::tableIITiming();
    const double base =
        EmbeddingEngine::steadyStateCyclesPerRead(g, t, Bytes{128});
    EXPECT_DOUBLE_EQ(
        EmbeddingEngine::effectiveCyclesPerRead(g, t, Bytes{128}, 0.0), base);
    const double half =
        EmbeddingEngine::effectiveCyclesPerRead(g, t, Bytes{128}, 0.5);
    EXPECT_DOUBLE_EQ(half, base * 0.5);
    // A perfect cache is still bounded by the translator issue rate.
    EXPECT_DOUBLE_EQ(
        EmbeddingEngine::effectiveCyclesPerRead(g, t, Bytes{128}, 1.0),
        static_cast<double>(EvTranslator::kCyclesPerIndex.raw()));
}

/** Device options with the reuse path fully on (functional). */
RmSsdOptions
cachedOptions()
{
    RmSsdOptions opt;
    opt.functional = true;
    opt.evCache.enabled = true;
    opt.coalesceIndices = true;
    return opt;
}

TEST(EvCacheEquivalence, PooledOutputsBitIdenticalOnVsOff)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions plainOpt;
    plainOpt.functional = true;
    RmSsd plain(cfg, plainOpt);
    plain.loadTables();
    RmSsd cached(cfg, cachedOptions());
    cached.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 6; ++i)
        batch.push_back(plain.model().makeSample(100 + i));
    // Force heavy duplication: every sample hits the same few rows.
    for (auto &idx : batch[1].indices)
        idx = batch[0].indices[0];

    const EmbeddingResult a =
        plain.embeddingEngine().run(Cycle{}, std::span(batch), true);
    // Two passes over the cached device: the second runs hot.
    const EmbeddingResult b =
        cached.embeddingEngine().run(Cycle{}, std::span(batch), true);
    const EmbeddingResult c =
        cached.embeddingEngine().run(Cycle{}, std::span(batch), true);

    ASSERT_EQ(a.pooled.size(), b.pooled.size());
    for (std::size_t s = 0; s < a.pooled.size(); ++s) {
        ASSERT_EQ(a.pooled[s].size(), b.pooled[s].size());
        for (std::size_t d = 0; d < a.pooled[s].size(); ++d) {
            EXPECT_EQ(a.pooled[s][d], b.pooled[s][d])
                << "sample " << s << " dim " << d;
            EXPECT_EQ(a.pooled[s][d], c.pooled[s][d])
                << "warm sample " << s << " dim " << d;
        }
    }
    EXPECT_GT(cached.evCache()->hits().value(), 0u)
        << "second pass should hit";
    EXPECT_GT(cached.embeddingEngine().coalescedLookups().value(), 0u);
}

TEST(EvCacheEquivalence, EndToEndInferenceMatchesPlainDevice)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions plainOpt;
    plainOpt.functional = true;
    RmSsd plain(cfg, plainOpt);
    plain.loadTables();
    RmSsd cached(cfg, cachedOptions());
    cached.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(plain.model().makeSample(7 + i));

    const auto outA = plain.infer(batch).outputs;
    const auto outB = cached.infer(batch).outputs;
    ASSERT_EQ(outA.size(), outB.size());
    for (std::size_t i = 0; i < outA.size(); ++i)
        EXPECT_EQ(outA[i], outB[i]) << "sample " << i;
}

TEST(EvCacheTiming, WarmBatchFinishesEarlier)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt;
    opt.evCache.enabled = true;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(dev.model().makeSample(50 + i));

    const Cycle cold =
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false).elapsed();
    dev.flash().resetTiming();
    const Cycle warm =
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false).elapsed();
    EXPECT_LT(warm, cold);
    EXPECT_EQ(dev.evCache()->misses().value(),
              dev.evCache()->fills().value());
}

TEST(Coalescing, DuplicateIndicesReadFlashOnce)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt;
    opt.coalesceIndices = true;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    model::Sample s = dev.model().makeSample(9);
    // All lookups of table 0 reference one row.
    const auto row = s.indices[0][0];
    std::fill(s.indices[0].begin(), s.indices[0].end(), row);

    dev.embeddingEngine().run(Cycle{}, std::span(&s, 1), false);
    const std::uint64_t lookups = cfg.lookupsPerSample();
    EXPECT_EQ(dev.embeddingEngine().lookups().value(), lookups);
    // At least the 7 duplicates of table 0 must coalesce; random draws
    // in other tables may add more.
    EXPECT_GE(dev.embeddingEngine().coalescedLookups().value(), 7u);
    EXPECT_EQ(dev.embeddingEngine().flashReads().value() +
                  dev.embeddingEngine().coalescedLookups().value(),
              lookups);
    EXPECT_EQ(dev.embeddingEngine().lookupBytes().value(),
              dev.embeddingEngine().flashReads().value() *
                  cfg.vectorBytes());
}

TEST(Coalescing, NeverSlowerThanPlainEngine)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions plainOpt;
    RmSsd plain(cfg, plainOpt);
    plain.loadTables();
    RmSsdOptions coalOpt;
    coalOpt.coalesceIndices = true;
    RmSsd coal(cfg, coalOpt);
    coal.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(plain.model().makeSample(i));
    for (auto &idx : batch[2].indices)
        idx = batch[3].indices[0];

    const Cycle tPlain =
        plain.embeddingEngine().run(Cycle{}, std::span(batch), false).elapsed();
    const Cycle tCoal =
        coal.embeddingEngine().run(Cycle{}, std::span(batch), false).elapsed();
    EXPECT_LE(tCoal, tPlain);
}

TEST(EvCacheHitRatio, TracksLocalityKTraceEstimate)
{
    // Hot-set-sized cache against the K = 0 trace (80 % hot): the
    // measured hit ratio converges toward workload::expectedHitRatio.
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(200000);
    cfg.lookupsPerTable = 40;
    cfg.numTables = 4;

    workload::TraceConfig tc = workload::localityK(0.0);
    tc.hotRowsPerTable = 2000;

    RmSsdOptions opt;
    opt.evCache.enabled = true;
    // Oversize 4x: the estimate assumes the hot set stays resident,
    // so leave headroom for cold-tail pollution and set conflicts.
    opt.evCache.capacityBytes = Bytes{4ull * tc.hotRowsPerTable *
                                      cfg.numTables *
                                      cfg.vectorBytes()};
    RmSsd dev(cfg, opt);
    dev.loadTables();

    workload::TraceGenerator gen(cfg, tc);
    // Warm the cache, then measure.
    for (int b = 0; b < 30; ++b) {
        const auto batch = gen.nextBatch(8);
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false);
    }
    const std::uint64_t hits0 = dev.evCache()->hits().value();
    const std::uint64_t misses0 = dev.evCache()->misses().value();
    for (int b = 0; b < 30; ++b) {
        const auto batch = gen.nextBatch(8);
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false);
    }
    const double measured =
        static_cast<double>(dev.evCache()->hits().value() - hits0) /
        static_cast<double>(dev.evCache()->hits().value() - hits0 +
                            dev.evCache()->misses().value() - misses0);

    const double expected = workload::expectedHitRatio(
        tc, opt.evCache.capacityBytes.raw() / cfg.vectorBytes() /
                cfg.numTables);
    EXPECT_DOUBLE_EQ(expected, 0.80);
    EXPECT_NEAR(measured, expected, 0.12);
    EXPECT_GT(measured, 0.5);
}

TEST(ExpectedHitRatio, PartialCoverageFollowsPowerLaw)
{
    workload::TraceConfig tc;
    tc.hotAccessFraction = 0.8;
    tc.hotRowsPerTable = 10000;
    tc.hotSkew = 2.0;
    // Covering a quarter of the hot set captures sqrt(1/4) = half of
    // the hot draws.
    EXPECT_NEAR(workload::expectedHitRatio(tc, 2500), 0.4, 1e-9);
    EXPECT_DOUBLE_EQ(workload::expectedHitRatio(tc, 0), 0.0);
    EXPECT_DOUBLE_EQ(workload::expectedHitRatio(tc, 20000), 0.8);
}

TEST(FrequencySketch, ConservativeCountAndSaturation)
{
    FrequencySketch sketch(256, 1000);
    EXPECT_EQ(sketch.estimate(42), 0u);
    for (int i = 0; i < 5; ++i)
        sketch.record(42);
    EXPECT_EQ(sketch.estimate(42), 5u);
    // 4-bit counters saturate at 15.
    for (int i = 0; i < 100; ++i)
        sketch.record(42);
    EXPECT_EQ(sketch.estimate(42), FrequencySketch::kMaxCount);
    // An untouched key stays (close to) zero; with 256 counters and
    // one resident key, all four rows colliding is impossible.
    EXPECT_LT(sketch.estimate(43), FrequencySketch::kMaxCount);
}

TEST(FrequencySketch, PeriodicHalvingDecays)
{
    // sampleSize 8: the 8th record halves every counter.
    FrequencySketch sketch(256, 8);
    for (int i = 0; i < 7; ++i)
        sketch.record(7);
    EXPECT_EQ(sketch.estimate(7), 7u);
    EXPECT_EQ(sketch.halvings().value(), 0u);
    sketch.record(7); // 8th addition triggers the halving
    EXPECT_EQ(sketch.halvings().value(), 1u);
    EXPECT_EQ(sketch.estimate(7), 4u); // (7+1)/2
    EXPECT_EQ(sketch.additions(), 4u);
}

/**
 * Reference sketch: the original nibble-packed layout (two 4-bit
 * counters per byte, branchy conservative update, masked halving)
 * with the same slot function. The byte-wide FrequencySketch must
 * match it estimate for estimate.
 */
class NibbleSketch
{
  public:
    NibbleSketch(std::uint64_t counters, std::uint64_t sampleSize)
        : sampleSize_(std::max<std::uint64_t>(1, sampleSize))
    {
        const std::uint64_t width =
            std::bit_ceil(std::max<std::uint64_t>(64, counters));
        mask_ = width - 1;
        table_.assign(width / 2, 0);
    }

    void
    record(std::uint64_t key)
    {
        std::uint32_t minCount = FrequencySketch::kMaxCount;
        std::uint64_t slots[FrequencySketch::kDepth];
        for (std::uint32_t row = 0; row < FrequencySketch::kDepth; ++row) {
            slots[row] = slotOf(key, row);
            minCount = std::min(minCount, counterAt(slots[row]));
        }
        if (minCount < FrequencySketch::kMaxCount) {
            for (const std::uint64_t slot : slots)
                if (counterAt(slot) == minCount)
                    setCounterAt(slot, minCount + 1);
        }
        if (++additions_ >= sampleSize_) {
            for (std::uint8_t &byte : table_)
                byte = static_cast<std::uint8_t>((byte >> 1) & 0x77);
            additions_ /= 2;
            ++halvings_;
        }
    }

    std::uint32_t
    estimate(std::uint64_t key) const
    {
        std::uint32_t minCount = FrequencySketch::kMaxCount;
        for (std::uint32_t row = 0; row < FrequencySketch::kDepth; ++row)
            minCount = std::min(minCount, counterAt(slotOf(key, row)));
        return minCount;
    }

    std::uint64_t numCounters() const { return mask_ + 1; }
    std::uint64_t additions() const { return additions_; }
    std::uint64_t halvings() const { return halvings_; }

  private:
    std::uint64_t
    slotOf(std::uint64_t key, std::uint32_t row) const
    {
        std::uint64_t x = key + 0x9e3779b97f4a7c15ULL * (row + 1);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return (x ^ (x >> 31)) & mask_;
    }

    std::uint32_t
    counterAt(std::uint64_t slot) const
    {
        const std::uint8_t byte = table_[slot >> 1];
        return (slot & 1) ? (byte >> 4) : (byte & 0x0f);
    }

    void
    setCounterAt(std::uint64_t slot, std::uint32_t v)
    {
        std::uint8_t &byte = table_[slot >> 1];
        if (slot & 1)
            byte = static_cast<std::uint8_t>((byte & 0x0f) | (v << 4));
        else
            byte = static_cast<std::uint8_t>((byte & 0xf0) | v);
    }

    std::vector<std::uint8_t> table_;
    std::uint64_t mask_;
    std::uint64_t sampleSize_;
    std::uint64_t additions_ = 0;
    std::uint64_t halvings_ = 0;
};

TEST(FrequencySketchLockstep, MatchesNibbleReference)
{
    // 64 counters make the four rows of a key alias; 2^17 is the
    // cached device's sketch size. Sample size 1 halves on every
    // record, 8 often, and the large one never within a stream.
    constexpr std::uint64_t kRecords = 4096;
    for (const std::uint64_t counters : {64ULL, 256ULL, 1ULL << 17}) {
        for (const std::uint64_t sample : {1ULL, 8ULL, 1ULL << 40}) {
            for (const bool saturating : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "counters " << counters << " sample "
                             << sample << " saturating " << saturating);
                FrequencySketch sketch(counters, sample);
                NibbleSketch ref(counters, sample);
                ASSERT_EQ(sketch.numCounters(), ref.numCounters());
                Rng rng(counters * 31 + sample);
                for (std::uint64_t i = 0; i < kRecords; ++i) {
                    // Zipf-skewed ranks over 512 keys (rank ~ 512 u^4),
                    // or one key recorded past saturation.
                    const double u = rng.nextDouble();
                    const std::uint64_t key =
                        saturating ? 42
                                   : splitmix64(static_cast<std::uint64_t>(
                                         512.0 * u * u * u * u));
                    const std::uint32_t after = sketch.record(key);
                    ref.record(key);
                    ASSERT_EQ(after, ref.estimate(key)) << "record " << i;
                    ASSERT_EQ(sketch.estimate(key), ref.estimate(key))
                        << "record " << i;
                    const std::uint64_t other =
                        splitmix64(rng.nextBounded(512));
                    ASSERT_EQ(sketch.estimate(other), ref.estimate(other))
                        << "record " << i;
                    ASSERT_EQ(sketch.additions(), ref.additions());
                    ASSERT_EQ(sketch.halvings().value(), ref.halvings());
                }
            }
        }
    }
}

/** One-set TinyLFU cache of @p ways lines. */
EvCache
oneSetLfuCache(std::uint32_t ways)
{
    EvCacheConfig cc;
    cc.enabled = true;
    cc.capacityBytes = Bytes{static_cast<std::uint64_t>(ways) * 16};
    cc.ways = ways;
    cc.admission = EvCacheAdmission::TinyLfu;
    return EvCache(cc, Bytes{16});
}

TEST(TinyLfuAdmission, OneHitWonderRejectedHotKeyAdmitted)
{
    EvCache cache = oneSetLfuCache(2);
    ASSERT_NE(cache.sketch(), nullptr);

    // Establish two resident keys and give them some popularity.
    cache.fill(TableId{}, EvIndex{1}, {});
    cache.fill(TableId{}, EvIndex{2}, {});
    for (int i = 0; i < 3; ++i) {
        cache.lookup(TableId{}, EvIndex{1}, nullptr);
        cache.lookup(TableId{}, EvIndex{2}, nullptr);
    }

    // A one-hit wonder misses once and its fill must bounce off the
    // admission filter: estimated frequency 1 vs. the victim's 3.
    EXPECT_FALSE(cache.lookup(TableId{}, EvIndex{9}, nullptr));
    cache.fill(TableId{}, EvIndex{9}, {});
    EXPECT_FALSE(cache.contains(TableId{}, EvIndex{9}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{2}));
    EXPECT_EQ(cache.admissionRejects().value(), 1u);
    EXPECT_EQ(cache.evictions().value(), 0u);

    // A genuinely hot newcomer out-polls the victim and gets in.
    for (int i = 0; i < 5; ++i)
        cache.lookup(TableId{}, EvIndex{5}, nullptr);
    cache.fill(TableId{}, EvIndex{5}, {});
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{5}));
    EXPECT_EQ(cache.evictions().value(), 1u);
}

TEST(TinyLfuAdmission, AlwaysAdmitKeepsPr1Behaviour)
{
    // The default policy has no sketch and admits every fill — the
    // exact PR-1 LRU cache.
    EvCache cache = oneSetCache(2);
    EXPECT_EQ(cache.sketch(), nullptr);
    cache.fill(TableId{}, EvIndex{1}, {});
    cache.fill(TableId{}, EvIndex{2}, {});
    cache.fill(TableId{}, EvIndex{9}, {}); // one-hit wonder admitted
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{9}));
    EXPECT_EQ(cache.admissionRejects().value(), 0u);
}

/** A cache of @p lines lines with a W-TinyLFU admission window. */
EvCache
windowCache(std::uint32_t lines, double fraction,
            EvCacheAdmission admission = EvCacheAdmission::AlwaysAdmit)
{
    EvCacheConfig cc;
    cc.enabled = true;
    cc.capacityBytes = Bytes{static_cast<std::uint64_t>(lines) * 16};
    cc.ways = 2;
    cc.windowFraction = fraction;
    cc.admission = admission;
    return EvCache(cc, Bytes{16});
}

TEST(WTinyLfuWindow, CarvedFromLineBudget)
{
    // The window shares the line budget with the main array: no SRAM
    // beyond what the plain cache already used.
    const EvCache cache = windowCache(8, 0.25);
    EXPECT_EQ(cache.windowLines(), 2u);
    EXPECT_EQ(cache.numSets() * cache.ways(), 6u);

    // A tiny positive fraction still gets one probation line.
    EXPECT_EQ(windowCache(8, 0.01).windowLines(), 1u);

    // Fraction 0 is the plain cache, exactly.
    const EvCache plain = windowCache(8, 0.0);
    EXPECT_EQ(plain.windowLines(), 0u);
    EXPECT_EQ(plain.numSets() * plain.ways(), 8u);
}

TEST(WTinyLfuWindow, WindowHitsCountedSeparately)
{
    EvCache cache = windowCache(8, 0.25);
    cache.fill(TableId{}, EvIndex{1}, {}); // new key -> window
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_TRUE(cache.lookup(TableId{}, EvIndex{1}, nullptr));
    EXPECT_EQ(cache.hits().value(), 1u);
    EXPECT_EQ(cache.admissionWindowHits().value(), 1u);
}

TEST(WTinyLfuWindow, EvictedVictimGraduatesToMain)
{
    // One-line window: filling a second key spills the first toward
    // the main array (AlwaysAdmit lets it straight in).
    EvCache cache = windowCache(8, 0.01);
    ASSERT_EQ(cache.windowLines(), 1u);
    cache.fill(TableId{}, EvIndex{1}, {});
    cache.fill(TableId{}, EvIndex{2}, {});
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{2}));

    // Index 1 now lives in the main array: hitting it is a main hit,
    // not a window hit.
    EXPECT_TRUE(cache.lookup(TableId{}, EvIndex{1}, nullptr));
    EXPECT_EQ(cache.admissionWindowHits().value(), 0u);
}

TEST(WTinyLfuWindow, GraduationRunsThroughTinyLfuFilter)
{
    // Two main lines (one set), one window line, TinyLFU admission.
    EvCache cache = windowCache(3, 0.34, EvCacheAdmission::TinyLfu);
    ASSERT_EQ(cache.windowLines(), 1u);
    ASSERT_EQ(cache.numSets() * cache.ways(), 2u);

    // Two popular residents occupy the main set.
    for (const std::uint64_t idx : {1, 2}) {
        cache.fill(TableId{}, EvIndex{idx}, {});
        cache.fill(TableId{}, EvIndex{99}, {}); // spill idx from window
    }
    for (int i = 0; i < 3; ++i) {
        cache.lookup(TableId{}, EvIndex{1}, nullptr);
        cache.lookup(TableId{}, EvIndex{2}, nullptr);
    }
    ASSERT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    ASSERT_TRUE(cache.contains(TableId{}, EvIndex{2}));

    // A one-hit wonder enjoys its window probation but bounces off
    // the admission filter when a newer key spills it toward main.
    cache.lookup(TableId{}, EvIndex{9}, nullptr);
    cache.fill(TableId{}, EvIndex{9}, {});
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{9})); // in window
    const std::uint64_t rejectsBefore =
        cache.admissionRejects().value();
    cache.fill(TableId{}, EvIndex{10}, {}); // spills 9
    EXPECT_FALSE(cache.contains(TableId{}, EvIndex{9}));
    EXPECT_GT(cache.admissionRejects().value(), rejectsBefore);
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{1}));
    EXPECT_TRUE(cache.contains(TableId{}, EvIndex{2}));
}

TEST(WTinyLfuWindow, InvalidateCoversWindow)
{
    EvCache cache = windowCache(8, 0.25);
    cache.fill(TableId{}, EvIndex{1}, {}); // in window
    cache.invalidate();
    EXPECT_FALSE(cache.contains(TableId{}, EvIndex{1}));
}

TEST(WTinyLfuWindow, PooledOutputsBitIdenticalWithWindow)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions plainOpt;
    plainOpt.functional = true;
    RmSsd plain(cfg, plainOpt);
    plain.loadTables();

    RmSsdOptions opt = cachedOptions();
    opt.evCache.windowFraction = 0.05;
    opt.evCache.admission = EvCacheAdmission::TinyLfu;
    RmSsd windowed(cfg, opt);
    windowed.loadTables();

    std::vector<model::Sample> batch;
    for (int i = 0; i < 6; ++i)
        batch.push_back(plain.model().makeSample(300 + i));

    const EmbeddingResult a =
        plain.embeddingEngine().run(Cycle{}, std::span(batch), true);
    const EmbeddingResult b =
        windowed.embeddingEngine().run(Cycle{}, std::span(batch), true);
    const EmbeddingResult c =
        windowed.embeddingEngine().run(Cycle{}, std::span(batch), true);

    ASSERT_EQ(a.pooled.size(), b.pooled.size());
    for (std::size_t s = 0; s < a.pooled.size(); ++s) {
        ASSERT_EQ(a.pooled[s].size(), b.pooled[s].size());
        for (std::size_t d = 0; d < a.pooled[s].size(); ++d) {
            EXPECT_EQ(a.pooled[s][d], b.pooled[s][d])
                << "sample " << s << " dim " << d;
            EXPECT_EQ(a.pooled[s][d], c.pooled[s][d])
                << "warm sample " << s << " dim " << d;
        }
    }
    EXPECT_GT(windowed.evCache()->windowLines(), 0u);
}

TEST(PartitionPlanner, LargestRemainderWithFloor)
{
    const std::vector<double> shares{3.0, 1.0};
    const auto parts = planTablePartitions(10, shares);
    ASSERT_EQ(parts.size(), 2u);
    // Contiguous cover of all 10 sets, proportional 3:1 on the spare
    // sets after the one-set floors.
    EXPECT_EQ(parts[0].firstSet, 0u);
    EXPECT_EQ(parts[0].numSets, 7u);
    EXPECT_EQ(parts[1].firstSet, 7u);
    EXPECT_EQ(parts[1].numSets, 3u);

    // A vanishing share still gets its floor set.
    const std::vector<double> skewed{1000.0, 1e-6};
    const auto floors = planTablePartitions(8, skewed);
    EXPECT_EQ(floors[0].numSets, 7u);
    EXPECT_EQ(floors[1].numSets, 1u);
}

TEST(Partitioning, TableTrafficCannotCrossPartitions)
{
    // 8 sets x 1 way, split evenly between two tables. Table 0 may
    // thrash its own half all it wants; table 1's lines survive.
    EvCacheConfig cc;
    cc.enabled = true;
    cc.capacityBytes = Bytes{8 * 16};
    cc.ways = 1;
    cc.tableShares = {1.0, 1.0};
    EvCache cache(cc, Bytes{16});
    ASSERT_EQ(cache.partitions().size(), 2u);
    EXPECT_EQ(cache.partitions()[0].numSets, 4u);
    EXPECT_EQ(cache.partitions()[1].firstSet, 4u);

    for (std::uint64_t i = 0; i < 4; ++i)
        cache.fill(TableId{1}, EvIndex{i}, {});
    std::vector<std::uint64_t> resident;
    for (std::uint64_t i = 0; i < 4; ++i)
        if (cache.contains(TableId{1}, EvIndex{i}))
            resident.push_back(i);
    ASSERT_FALSE(resident.empty());

    // Flood table 0 with far more distinct keys than the whole cache.
    for (std::uint64_t i = 0; i < 1000; ++i)
        cache.fill(TableId{0}, EvIndex{i}, {});

    for (const std::uint64_t i : resident)
        EXPECT_TRUE(cache.contains(TableId{1}, EvIndex{i}))
            << "table 0 traffic evicted table 1 line " << i;
}

TEST(TableHistograms, ProfilesEveryTableWithoutPerturbingStream)
{
    model::ModelConfig cfg = model::rmc3();
    cfg.withRowsPerTable(100000);
    workload::TraceConfig tc = workload::localityK(0.0);

    workload::TraceGenerator gen(cfg, tc);
    workload::TraceGenerator ref(cfg, tc);
    const auto hist = gen.tableHistograms(5000);
    ASSERT_EQ(hist.size(), cfg.numTables);
    for (const auto &h : hist) {
        EXPECT_EQ(h.totalLookups, 5000u);
        EXPECT_GT(h.uniqueHotIndices, 0u);
        EXPECT_GE(h.uniqueIndices, h.uniqueHotIndices);
        EXPECT_GE(h.hotLookups, h.uniqueHotIndices);
        // K = 0: 80 % of draws land in the hot set.
        EXPECT_NEAR(static_cast<double>(h.hotLookups) / 5000.0, 0.8,
                    0.05);
    }

    // Profiling must not advance the main sample stream.
    const model::Sample a = gen.next();
    const model::Sample b = ref.next();
    EXPECT_EQ(a.indices, b.indices);

    const auto shares = workload::planTableShares(hist);
    ASSERT_EQ(shares.size(), hist.size());
    for (std::size_t t = 0; t < shares.size(); ++t)
        EXPECT_DOUBLE_EQ(
            shares[t],
            static_cast<double>(hist[t].uniqueHotIndices));
}

TEST(Replanning, DriftTriggersKernelResearch)
{
    // Plan against a wildly optimistic hit ratio, then feed the
    // device a cold uniform trace: the measured window drifts far
    // below the plan and replanIfDrifted must re-run the search with
    // a larger effective read cost.
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(1u << 20);

    RmSsdOptions opt;
    opt.evCache.enabled = true;
    opt.evCache.expectedHitRatio = 0.9;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    EXPECT_DOUBLE_EQ(dev.plannedHitRatio(), 0.9);
    // No probes yet: an empty window never triggers a re-plan.
    EXPECT_FALSE(dev.replanIfDrifted(0.05));

    workload::TraceConfig tc;
    tc.hotAccessFraction = 0.0; // pure uniform: hit ratio ~ 0
    workload::TraceGenerator gen(cfg, tc);
    for (int b = 0; b < 4; ++b) {
        const auto batch = gen.nextBatch(4);
        dev.embeddingEngine().run(Cycle{}, std::span(batch), false);
    }

    const double rcpvBefore = dev.searchResult().readCyclesPerVector;
    EXPECT_TRUE(dev.replanIfDrifted(0.05));
    EXPECT_EQ(dev.replans().value(), 1u);
    EXPECT_LT(dev.plannedHitRatio(), 0.1);
    EXPECT_GT(dev.searchResult().readCyclesPerVector, rcpvBefore);

    // The fresh window is empty again; no immediate second re-plan.
    EXPECT_FALSE(dev.replanIfDrifted(0.05));
}

TEST(Replanning, WithinThresholdLeavesPlanAlone)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(1u << 20);
    RmSsdOptions opt;
    opt.evCache.enabled = true;
    opt.evCache.expectedHitRatio = 0.5;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    workload::TraceConfig tc;
    tc.hotAccessFraction = 0.0;
    workload::TraceGenerator gen(cfg, tc);
    const auto batch = gen.nextBatch(4);
    dev.embeddingEngine().run(Cycle{}, std::span(batch), false);

    // Drift is ~0.5 but the threshold is wider: keep the plan.
    EXPECT_FALSE(dev.replanIfDrifted(1.0));
    EXPECT_EQ(dev.replans().value(), 0u);
    EXPECT_DOUBLE_EQ(dev.plannedHitRatio(), 0.5);
}

TEST(RmSsdCache, SearchAdaptsToExpectedHitRatio)
{
    // With the cache on, the kernel search sees a smaller T_emb and
    // must still produce a feasible (or at worst MLP-bound) plan; the
    // embedding read estimate should shrink accordingly.
    const model::ModelConfig cfg = model::rmc1();
    RmSsdOptions plain;
    RmSsd dev(cfg, plain);

    RmSsdOptions cachedOpt;
    cachedOpt.evCache.enabled = true;
    cachedOpt.evCache.expectedHitRatio = 0.8;
    RmSsd cached(cfg, cachedOpt);

    const double perReadPlain =
        static_cast<double>(dev.searchResult().embReadCycles.raw()) /
        dev.searchResult().plan.microBatch;
    const double perReadCached =
        static_cast<double>(cached.searchResult().embReadCycles.raw()) /
        cached.searchResult().plan.microBatch;
    EXPECT_LT(perReadCached, perReadPlain);
}

// ---------------------------------------------------------------------
// Lockstep reference: the array-of-structs cache (one heap payload per
// line) that EvCache replaced, kept here as an executable specification
// of lookup, fill, window spill, TinyLFU admission and LRU victim order.

/** Array-of-structs EV cache: the behaviour EvCache must reproduce. */
class RefEvCache
{
  public:
    RefEvCache(const EvCacheConfig &config, Bytes lineBytes)
        : ways_(config.ways)
    {
        const std::uint64_t lines = std::max<std::uint64_t>(
            1, config.capacityBytes / lineBytes);
        std::uint64_t windowLines = static_cast<std::uint64_t>(
            config.windowFraction * static_cast<double>(lines));
        if (config.windowFraction > 0.0 && windowLines == 0 && lines > 1)
            windowLines = 1;
        windowLines = std::min(windowLines, lines - 1);
        window_.resize(windowLines);
        const std::uint64_t mainLines = lines - windowLines;
        ways_ = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(ways_, mainLines));
        sets_.resize(std::max<std::uint64_t>(1, mainLines / ways_));
        for (auto &set : sets_)
            set.resize(ways_);
        if (!config.tableShares.empty())
            partitions_ = planTablePartitions(
                static_cast<std::uint32_t>(sets_.size()),
                config.tableShares);
        if (config.admission == EvCacheAdmission::TinyLfu)
            sketch_ = std::make_unique<FrequencySketch>(
                lines * config.sketchCountersPerLine,
                lines * config.sketchSamplePerLine);
    }

    bool lookup(TableId tableId, EvIndex index,
                std::vector<std::uint8_t> *out)
    {
        const std::uint64_t key = makeKey(tableId, index);
        if (sketch_)
            sketch_->record(key);
        for (Line &line : window_) {
            if (line.valid && line.key == key) {
                if (out && line.data.empty())
                    break;
                line.lastUse = ++tick_;
                ++hits;
                ++windowHits;
                if (out)
                    *out = line.data;
                return true;
            }
        }
        for (Line &line : sets_[setIndex(tableId, key)]) {
            if (line.valid && line.key == key) {
                if (out && line.data.empty())
                    break;
                line.lastUse = ++tick_;
                ++hits;
                if (out)
                    *out = line.data;
                return true;
            }
        }
        ++misses;
        return false;
    }

    void fill(TableId tableId, EvIndex index,
              std::span<const std::uint8_t> data)
    {
        const std::uint64_t key = makeKey(tableId, index);
        if (window_.empty()) {
            fillMain(tableId, key, data);
            return;
        }
        for (Line &line : window_) {
            if (line.valid && line.key == key) {
                line.lastUse = ++tick_;
                line.data.assign(data.begin(), data.end());
                ++fills;
                return;
            }
        }
        for (Line &line : sets_[setIndex(tableId, key)]) {
            if (line.valid && line.key == key) {
                fillMain(tableId, key, data);
                return;
            }
        }
        Line &slot = *std::min_element(
            window_.begin(), window_.end(),
            [](const Line &a, const Line &b) {
                if (a.valid != b.valid)
                    return !a.valid;
                return a.lastUse < b.lastUse;
            });
        if (slot.valid)
            fillMain(TableId{static_cast<std::uint32_t>(slot.key >> 48)},
                     slot.key, slot.data);
        slot.valid = true;
        slot.key = key;
        slot.lastUse = ++tick_;
        slot.data.assign(data.begin(), data.end());
        ++fills;
    }

    bool contains(TableId tableId, EvIndex index) const
    {
        const std::uint64_t key = makeKey(tableId, index);
        for (const Line &line : window_)
            if (line.valid && line.key == key)
                return true;
        for (const Line &line : sets_[setIndex(tableId, key)])
            if (line.valid && line.key == key)
                return true;
        return false;
    }

    void invalidate()
    {
        // Invalid lines keep their stale key and stamp, as before.
        for (auto &set : sets_) {
            for (Line &line : set) {
                line.valid = false;
                line.data.clear();
            }
        }
        for (Line &line : window_) {
            line.valid = false;
            line.data.clear();
        }
    }

    std::uint64_t hits = 0, misses = 0, fills = 0, evictions = 0,
                  rejects = 0, windowHits = 0;

  private:
    struct Line
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0; //!< kept stale when invalidated
        bool valid = false;
        std::vector<std::uint8_t> data;
    };

    static std::uint64_t makeKey(TableId tableId, EvIndex index)
    {
        return (static_cast<std::uint64_t>(tableId.raw()) << 48) |
               index.raw();
    }

    std::size_t setIndex(TableId tableId, std::uint64_t key) const
    {
        if (partitions_.empty())
            return static_cast<std::size_t>(splitmix64(key) %
                                            sets_.size());
        const EvCachePartition &p = partitions_[tableId.raw()];
        return p.firstSet +
               static_cast<std::size_t>(splitmix64(key) % p.numSets);
    }

    void fillMain(TableId tableId, std::uint64_t key,
                  std::span<const std::uint8_t> data)
    {
        auto &set = sets_[setIndex(tableId, key)];
        Line *victim = nullptr;
        for (Line &line : set) {
            if (line.valid && line.key == key) {
                victim = &line;
                break;
            }
            if (!line.valid && !victim)
                victim = &line;
        }
        if (!victim) {
            victim = &*std::min_element(
                set.begin(), set.end(), [](const Line &a, const Line &b) {
                    return a.lastUse < b.lastUse;
                });
            if (sketch_ &&
                sketch_->estimate(key) <= sketch_->estimate(victim->key)) {
                ++rejects;
                return;
            }
            ++evictions;
        }
        victim->valid = true;
        victim->key = key;
        victim->lastUse = ++tick_;
        victim->data.assign(data.begin(), data.end());
        ++fills;
    }

    std::uint32_t ways_;
    std::uint64_t tick_ = 0;
    std::vector<std::vector<Line>> sets_;
    std::vector<Line> window_;
    std::vector<EvCachePartition> partitions_;
    std::unique_ptr<FrequencySketch> sketch_;
};

/** Payload of (key, version): refreshed fills carry new bytes. */
std::vector<std::uint8_t>
payload(std::uint64_t key, std::uint64_t version, std::uint32_t bytes)
{
    std::vector<std::uint8_t> data(bytes);
    for (std::uint32_t i = 0; i < bytes; ++i)
        data[i] = static_cast<std::uint8_t>(
            splitmix64(hashCombine(key, version) + i));
    return data;
}

TEST(EvCacheLockstep, MatchesAosReferenceOnSkewedStreams)
{
    constexpr std::uint32_t kTables = 3;
    constexpr std::uint64_t kRows = 400;
    constexpr std::uint32_t kLineBytes = 16;
    constexpr int kOps = 12000;

    for (const bool partitioned : {false, true}) {
        for (const EvCacheAdmission admission :
             {EvCacheAdmission::AlwaysAdmit, EvCacheAdmission::TinyLfu}) {
            for (const double window : {0.0, 0.05}) {
                SCOPED_TRACE(::testing::Message()
                             << "partitioned " << partitioned
                             << " tinylfu "
                             << (admission == EvCacheAdmission::TinyLfu)
                             << " window " << window);
                EvCacheConfig cc;
                cc.enabled = true;
                cc.capacityBytes = Bytes{96 * kLineBytes};
                cc.ways = 4;
                cc.admission = admission;
                cc.windowFraction = window;
                if (partitioned)
                    cc.tableShares = {1.0, 2.0, 3.0};
                EvCache cache(cc, Bytes{kLineBytes});
                RefEvCache ref(cc, Bytes{kLineBytes});
                ASSERT_EQ(cache.windowLines() > 0, window > 0.0);

                Rng rng(partitioned * 4 + (window > 0.0) * 2 +
                        (admission == EvCacheAdmission::TinyLfu));
                std::vector<std::uint8_t> got, want;
                for (int op = 0; op < kOps; ++op) {
                    if (op == kOps / 2) {
                        cache.invalidate();
                        ref.invalidate();
                    }
                    // Skewed keys: 3/4 of draws hit 48 rows per table
                    // with a squared-uniform rank, the rest are uniform.
                    const TableId table{static_cast<std::uint32_t>(
                        rng.nextBounded(kTables))};
                    const double u = rng.nextDouble();
                    const EvIndex index{
                        rng.nextDouble() < 0.75
                            ? static_cast<std::uint64_t>(u * u * 48)
                            : rng.nextBounded(kRows)};
                    const bool functional = rng.nextBounded(2) == 0;
                    const std::uint64_t key =
                        (static_cast<std::uint64_t>(table.raw()) << 48) |
                        index.raw();

                    got.clear();
                    want.clear();
                    const bool hit = cache.lookup(
                        table, index, functional ? &got : nullptr);
                    const bool refHit = ref.lookup(
                        table, index, functional ? &want : nullptr);
                    ASSERT_EQ(hit, refHit) << "op " << op;
                    ASSERT_EQ(got, want) << "op " << op;
                    if (!hit || rng.nextBounded(8) == 0) {
                        // Miss served from flash (or a refresh).
                        const auto version = static_cast<std::uint64_t>(op);
                        const std::vector<std::uint8_t> data =
                            functional ? payload(key, version, kLineBytes)
                                       : std::vector<std::uint8_t>{};
                        cache.fill(table, index, data);
                        ref.fill(table, index, data);
                    }
                    ASSERT_EQ(cache.hits().value(), ref.hits) << "op " << op;
                    ASSERT_EQ(cache.misses().value(), ref.misses);
                    ASSERT_EQ(cache.fills().value(), ref.fills) << "op " << op;
                    ASSERT_EQ(cache.evictions().value(), ref.evictions)
                        << "op " << op;
                    ASSERT_EQ(cache.admissionRejects().value(), ref.rejects)
                        << "op " << op;
                    ASSERT_EQ(cache.admissionWindowHits().value(),
                              ref.windowHits)
                        << "op " << op;
                    if (op % 199 != 0 && op != kOps - 1)
                        continue;
                    for (std::uint32_t t = 0; t < kTables; ++t)
                        for (std::uint64_t r = 0; r < kRows; ++r)
                            ASSERT_EQ(cache.contains(TableId{t}, EvIndex{r}),
                                      ref.contains(TableId{t}, EvIndex{r}))
                                << "op " << op << " key " << t << "/" << r;
                }
                // The stream must exercise every path it is meant to.
                EXPECT_GT(ref.hits, 1000u);
                EXPECT_GT(ref.evictions, 100u);
                if (admission == EvCacheAdmission::TinyLfu) {
                    EXPECT_GT(ref.rejects, 100u);
                }
                if (window > 0.0) {
                    EXPECT_GT(ref.windowHits, 20u);
                }
            }
        }
    }
}

} // namespace
} // namespace rmssd::engine
