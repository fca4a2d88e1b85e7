/**
 * @file
 * Unit tests for the host substrate: LRU page cache (including a
 * differential check against a std::list + std::map reference LRU),
 * CPU cost model, and the lseek+read file reader of the naive SSD
 * deployment.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "flash/flash_array.h"
#include "ftl/extent.h"
#include "ftl/ftl.h"
#include "host/cpu_model.h"
#include "host/host_system.h"
#include "host/page_cache.h"
#include "nvme/nvme.h"

namespace rmssd::host {
namespace {

TEST(PageCache, HitAfterInsert)
{
    PageCache cache(4);
    EXPECT_FALSE(cache.access({0, 1}));
    EXPECT_TRUE(cache.access({0, 1}));
    EXPECT_EQ(cache.hits().value(), 1u);
    EXPECT_EQ(cache.misses().value(), 1u);
    EXPECT_DOUBLE_EQ(cache.hitRatio(), 0.5);
}

TEST(PageCache, EvictsLeastRecentlyUsed)
{
    PageCache cache(2);
    cache.access({0, 1});
    cache.access({0, 2});
    cache.access({0, 1}); // refresh 1; LRU is now 2
    cache.access({0, 3}); // evicts 2
    EXPECT_TRUE(cache.contains({0, 1}));
    EXPECT_FALSE(cache.contains({0, 2}));
    EXPECT_TRUE(cache.contains({0, 3}));
    EXPECT_EQ(cache.evictions().value(), 1u);
}

TEST(PageCache, ZeroCapacityMeansUnbounded)
{
    PageCache cache(0);
    for (std::uint64_t i = 0; i < 10000; ++i)
        cache.access({0, i});
    EXPECT_EQ(cache.residentPages(), 10000u);
    EXPECT_EQ(cache.evictions().value(), 0u);
}

TEST(PageCache, DistinguishesFiles)
{
    PageCache cache(8);
    cache.access({0, 5});
    EXPECT_FALSE(cache.access({1, 5}));
}

/** Reference LRU: std::list recency order + std::map index. */
class ReferenceLru
{
  public:
    explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity) {}

    bool
    access(const PageKey &key)
    {
        const auto it = index_.find(ordered(key));
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return true;
        }
        if (capacity_ != 0 && index_.size() >= capacity_) {
            index_.erase(ordered(lru_.back()));
            lru_.pop_back();
            ++evictions_;
        }
        lru_.push_front(key);
        index_[ordered(key)] = lru_.begin();
        return false;
    }

    bool contains(const PageKey &key) const
    {
        return index_.contains(ordered(key));
    }
    std::size_t size() const { return index_.size(); }
    const std::list<PageKey> &resident() const { return lru_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    using OrderedKey = std::pair<std::uint32_t, std::uint64_t>;

    static OrderedKey
    ordered(const PageKey &key)
    {
        return {key.fileId, key.pageIndex};
    }

    std::uint64_t capacity_;
    std::list<PageKey> lru_; //!< front = most recent
    std::map<OrderedKey, std::list<PageKey>::iterator> index_;
    std::uint64_t evictions_ = 0;
};

/**
 * Key universe for the differential tests. It pairs keys that a lossy
 * (fileId, pageIndex) packing would merge: the all-ones file id next
 * to its truncations, and page indices at and above 2^40 and 2^63.
 */
std::vector<PageKey>
keyUniverse()
{
    std::vector<PageKey> keys;
    for (const std::uint32_t file :
         {0u, 1u, 0x00FFFFFFu, 0xFFFFFFFFu})
        for (const std::uint64_t base :
             {std::uint64_t{0}, std::uint64_t{1} << 40,
              std::uint64_t{1} << 63})
            for (std::uint64_t i = 0; i < 800; ++i)
                keys.push_back({file, base + i});
    // Fixed shuffle so hot keys are spread over files and bases.
    std::mt19937_64 rng(7);
    for (std::size_t i = keys.size() - 1; i > 0; --i)
        std::swap(keys[i], keys[rng() % (i + 1)]);
    return keys;
}

/** Seeded skewed stream: rank ~ U * u^3 puts most hits on few keys. */
std::vector<PageKey>
skewedStream(const std::vector<PageKey> &keys, std::uint64_t seed,
             std::size_t length)
{
    std::mt19937_64 rng(seed);
    std::vector<PageKey> stream;
    stream.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
        const double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53;
        stream.push_back(keys[static_cast<std::size_t>(
            u * u * u * static_cast<double>(keys.size()))]);
    }
    return stream;
}

/** Cyclic scans over windows just below, at and above each capacity. */
std::vector<PageKey>
cyclicStream(const std::vector<PageKey> &keys)
{
    std::vector<PageKey> stream;
    for (const std::size_t window :
         {1u, 2u, 3u, 4u, 63u, 64u, 65u, 4095u, 4096u, 4097u, 9600u})
        for (std::size_t i = 0; i < 3 * window; ++i)
            stream.push_back(keys[i % window]);
    return stream;
}

/**
 * Drive PageCache and the reference LRU in lockstep. Small caches
 * re-probe every resident key after every access, so a key lost from
 * the index shows up at once (an index that drops keys can otherwise
 * fill up with unreachable slots before the next checkpoint).
 */
void
expectMatchesReference(std::uint64_t capacity,
                       const std::vector<PageKey> &keys,
                       const std::vector<PageKey> &stream)
{
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    PageCache cache(capacity);
    ReferenceLru ref(capacity);
    const bool small = capacity != 0 && capacity <= 64;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const PageKey &key = stream[i];
        ASSERT_EQ(cache.access(key), ref.access(key)) << "access " << i;
        ASSERT_EQ(cache.evictions().value(), ref.evictions())
            << "access " << i;
        ASSERT_EQ(cache.residentPages(), ref.size()) << "access " << i;
        if (small) {
            for (const PageKey &resident : ref.resident())
                ASSERT_TRUE(cache.contains(resident)) << "access " << i;
        }
        if (i % 1024 != 0 && i + 1 != stream.size())
            continue;
        for (const PageKey &probe : keys) {
            ASSERT_EQ(cache.contains(probe), ref.contains(probe))
                << "access " << i << " probe file " << probe.fileId
                << " page " << probe.pageIndex;
        }
    }
}

constexpr std::uint64_t kDiffCapacities[] = {1, 2, 3, 64, 4096, 0};

TEST(PageCache, MatchesReferenceLruOnSkewedStreams)
{
    const std::vector<PageKey> keys = keyUniverse();
    for (const std::uint64_t capacity : kDiffCapacities)
        for (const std::uint64_t seed : {1u, 2u})
            expectMatchesReference(capacity, keys,
                                   skewedStream(keys, seed, 40000));
}

TEST(PageCache, MatchesReferenceLruOnCyclicStreams)
{
    const std::vector<PageKey> keys = keyUniverse();
    const std::vector<PageKey> stream = cyclicStream(keys);
    for (const std::uint64_t capacity : kDiffCapacities)
        expectMatchesReference(capacity, keys, stream);
}

TEST(CpuModel, MlpCostScalesWithFlopsAndBatch)
{
    CpuModel cpu;
    const std::vector<FcShape> layers{{128, 64}, {64, 32}};
    // 2 * (128*64 + 64*32) flops at the configured base GFLOP/s.
    const Nanos one = cpu.mlpNanos(layers, 1);
    const double flops = 2.0 * (128 * 64 + 64 * 32);
    EXPECT_NEAR(static_cast<double>(one.raw()),
                flops / cpu.costs().gemmGflops, 1.0);
    // Small batches are throughput-free: the effective GEMM rate
    // grows linearly with batch until the batched ceiling.
    const Nanos four = cpu.mlpNanos(layers, 4);
    EXPECT_EQ(four, one);
    // Past the ceiling the cost grows linearly again.
    const std::uint32_t knee = static_cast<std::uint32_t>(
        cpu.costs().maxGemmGflops / cpu.costs().gemmGflops);
    const Nanos atKnee = cpu.mlpNanos(layers, knee);
    const Nanos doubleKnee = cpu.mlpNanos(layers, 2 * knee);
    EXPECT_NEAR(static_cast<double>(doubleKnee.raw()),
                2.0 * static_cast<double>(atKnee.raw()), 2.0);
}

TEST(CpuModel, SlsCostPerLookup)
{
    CpuModel cpu;
    const Nanos n = cpu.slsNanos(100, Bytes{128});
    const double perLookup =
        static_cast<double>(cpu.costs().slsFixedNanos.raw()) +
        cpu.costs().dramNanosPerByte * 128.0;
    EXPECT_NEAR(static_cast<double>(n.raw()), 100.0 * perLookup, 1.0);
}

class ReaderFixture : public ::testing::Test
{
  protected:
    ReaderFixture()
        : array_(flash::tableIIGeometry(), flash::tableIITiming()),
          ftl_(ftl::Ftl::makeLinear(array_)), nvme_(ftl_)
    {
        extents_.append(ftl::Extent{Lba{}, Sectors{1024}}); // 128 p
    }

    flash::FlashArray array_;
    ftl::Ftl ftl_;
    nvme::NvmeController nvme_;
    ftl::ExtentList extents_;
};

TEST_F(ReaderFixture, MissPaysDeviceAndKernelCosts)
{
    HostFileReader reader(nvme_, 16);
    const IoCost cost = reader.readVector(0, extents_, Bytes{},
                                          Bytes{128}, Nanos{}, {});
    EXPECT_GT(cost.ssdNanos, Nanos{});
    EXPECT_GE(cost.fsNanos,
              Nanos{reader.cache().capacityPages() ? 1u : 0u});
    EXPECT_EQ(reader.deviceBytes().value(), 4096u);
    EXPECT_EQ(reader.requestedBytes().value(), 128u);
}

TEST_F(ReaderFixture, HitIsCheapAndTrafficFree)
{
    HostFileReader reader(nvme_, 16);
    reader.readVector(0, extents_, Bytes{}, Bytes{128}, Nanos{}, {});
    const IoCost hit = reader.readVector(0, extents_, Bytes{},
                                         Bytes{128}, Nanos{}, {});
    EXPECT_EQ(hit.ssdNanos, Nanos{});
    EXPECT_EQ(reader.deviceBytes().value(), 4096u); // unchanged
    // A different vector on the same page also hits.
    const IoCost samePage = reader.readVector(
        0, extents_, Bytes{256}, Bytes{128}, Nanos{}, {});
    EXPECT_EQ(samePage.ssdNanos, Nanos{});
}

TEST_F(ReaderFixture, ReadAmplificationIsPageOverVector)
{
    HostFileReader reader(nvme_, 1); // tiny cache: all misses
    // Touch 32 distinct pages.
    for (std::uint64_t i = 0; i < 32; ++i)
        reader.readVector(0, extents_, Bytes{i * 4096}, Bytes{128},
                          Nanos{}, {});
    const double amp =
        static_cast<double>(reader.deviceBytes().value()) /
        static_cast<double>(reader.requestedBytes().value());
    EXPECT_DOUBLE_EQ(amp, 32.0); // 4096 / 128
}

TEST_F(ReaderFixture, FunctionalReadMatchesDeviceBytes)
{
    std::vector<std::uint8_t> page(4096);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i * 3);
    nvme_.writeBlocksFunctional(Lba{}, page);

    HostFileReader reader(nvme_, 16);
    std::vector<std::uint8_t> out(128);
    reader.readVector(0, extents_, Bytes{256}, Bytes{128}, Nanos{},
                      out); // miss path
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(out[i], page[256 + i]);

    // A host page-cache hit is served from DRAM: no device state
    // (die/bus occupancy, EV-path requests) may move.
    const std::uint64_t pageReads = array_.totalPageReads();
    const std::uint64_t vectorReads = array_.totalVectorReads();
    const std::uint64_t busBytes = array_.totalBusBytes();
    const std::uint64_t evRequests = ftl_.evRequests().value();
    std::vector<std::uint8_t> out2(128);
    reader.readVector(0, extents_, Bytes{256}, Bytes{128}, Nanos{},
                      out2); // hit path
    EXPECT_EQ(out2, out);
    EXPECT_EQ(reader.cache().hits().value(), 1u);
    EXPECT_EQ(array_.totalPageReads(), pageReads);
    EXPECT_EQ(array_.totalVectorReads(), vectorReads);
    EXPECT_EQ(array_.totalBusBytes(), busBytes);
    EXPECT_EQ(ftl_.evRequests().value(), evRequests);
}

} // namespace
} // namespace rmssd::host
