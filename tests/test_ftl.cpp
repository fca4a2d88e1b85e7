/**
 * @file
 * Unit + property tests for the FTL: mappings, extents, the extent
 * allocator, and the byte-granular EV read path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flash/flash_array.h"
#include "ftl/extent.h"
#include "ftl/ftl.h"
#include "ftl/mapping.h"
#include "sim/rng.h"

namespace rmssd::ftl {
namespace {

TEST(LinearMapping, IsIdentityWithinRange)
{
    LinearMapping m(1000);
    EXPECT_EQ(m.translate(PageId{}), PageId{});
    EXPECT_EQ(m.translate(PageId{999}), PageId{999});
    EXPECT_EQ(m.assignForWrite(PageId{17}), PageId{17});
    EXPECT_DEATH(m.translate(PageId{1000}),
                 "beyond device capacity");
}

TEST(PageTableMapping, AllocatesInWriteOrder)
{
    PageTableMapping m(100);
    EXPECT_EQ(m.assignForWrite(PageId{50}), PageId{});
    EXPECT_EQ(m.assignForWrite(PageId{7}), PageId{1});
    EXPECT_EQ(m.assignForWrite(PageId{50}), PageId{}); // idempotent
    EXPECT_EQ(m.translate(PageId{50}), PageId{});
    EXPECT_EQ(m.translate(PageId{7}), PageId{1});
    EXPECT_EQ(m.allocatedPages(), 2u);
}

TEST(ExtentList, LocatesBytesAcrossExtents)
{
    ExtentList list;
    list.append(Extent{Lba{100}, Sectors{8}});  // sectors 100..107
    list.append(Extent{Lba{500}, Sectors{16}}); // sectors 500..515
    EXPECT_EQ(list.totalSectors(), Sectors{24});

    auto loc = list.locateByte(Bytes{}, Bytes{512});
    EXPECT_EQ(loc.lba, Lba{100});
    EXPECT_EQ(loc.byteInSector, Bytes{});

    // Last byte of the first extent.
    loc = list.locateByte(Bytes{8 * 512 - 1}, Bytes{512});
    EXPECT_EQ(loc.lba, Lba{107});
    EXPECT_EQ(loc.byteInSector, Bytes{511});

    // First byte of the second extent.
    loc = list.locateByte(Bytes{8 * 512}, Bytes{512});
    EXPECT_EQ(loc.extentIndex, 1u);
    EXPECT_EQ(loc.lba, Lba{500});

    // Beyond end of file is fatal.
    EXPECT_EXIT(list.locateByte(Bytes{24 * 512}, Bytes{512}),
                ::testing::ExitedWithCode(1), "beyond end");
}

TEST(ExtentList, LocationPropertyAgainstFlatOffset)
{
    // Property: walking any byte offset through multi-extent files
    // matches the flat computation extent-by-extent.
    Rng rng(11);
    for (int trial = 0; trial < 10; ++trial) {
        ExtentList list;
        std::vector<Extent> raw;
        std::uint64_t next = rng.nextBounded(1000);
        for (int e = 0; e < 5; ++e) {
            const std::uint64_t len = 1 + rng.nextBounded(64);
            raw.push_back(Extent{Lba{next}, Sectors{len}});
            list.append(raw.back());
            next += len + 1 + rng.nextBounded(100);
        }
        for (int probe = 0; probe < 50; ++probe) {
            const std::uint64_t byte =
                rng.nextBounded(list.totalSectors().raw() * 512);
            const auto loc = list.locateByte(Bytes{byte}, Bytes{512});
            // Recompute manually.
            std::uint64_t sector = byte / 512;
            std::uint32_t idx = 0;
            while (sector >= raw[idx].sectorCount.raw()) {
                sector -= raw[idx].sectorCount.raw();
                ++idx;
            }
            EXPECT_EQ(loc.extentIndex, idx);
            EXPECT_EQ(loc.lba, raw[idx].startLba + Sectors{sector});
            EXPECT_EQ(loc.byteInSector, Bytes{byte % 512});
        }
    }
}

TEST(ExtentAllocator, RoundsUpToPages)
{
    ExtentAllocator alloc(Sectors{1 << 20});
    // 3 sectors -> 1 page
    const ExtentList a = alloc.allocate(Sectors{3}, 8);
    EXPECT_EQ(a.totalSectors(), Sectors{8});
    // 9 sectors -> 2 pages
    const ExtentList b = alloc.allocate(Sectors{9}, 8);
    EXPECT_EQ(b.totalSectors(), Sectors{16});
    // Allocations are disjoint and sequential.
    EXPECT_EQ(b.extents()[0].startLba, Lba{8});
}

TEST(ExtentAllocator, FragmentsWhenLimited)
{
    ExtentAllocator alloc(Sectors{1 << 20},
                          /*maxFragmentSectors=*/Sectors{16});
    const ExtentList list = alloc.allocate(Sectors{64}, 8);
    EXPECT_EQ(list.totalSectors(), Sectors{64});
    EXPECT_EQ(list.extents().size(), 4u);
    for (const Extent &e : list.extents()) {
        EXPECT_EQ(e.sectorCount, Sectors{16});
        EXPECT_EQ(e.startLba % 8, Lba{}) << "fragment not page aligned";
    }
}

TEST(ExtentAllocator, ExhaustionIsFatal)
{
    ExtentAllocator alloc(Sectors{16});
    alloc.allocate(Sectors{8}, 8);
    EXPECT_EXIT(alloc.allocate(Sectors{16}, 8),
                ::testing::ExitedWithCode(1), "exhausted");
}

class FtlFixture : public ::testing::Test
{
  protected:
    FtlFixture()
        : array_(flash::tableIIGeometry(), flash::tableIITiming()),
          ftl_(Ftl::makeLinear(array_))
    {
    }

    flash::FlashArray array_;
    Ftl ftl_;
};

TEST_F(FtlFixture, TranslateSplitsPageAndOffset)
{
    // 8 sectors per page: LBA 13 = page 1, sector 5.
    const auto loc = ftl_.translate(Lba{13}, Bytes{100});
    EXPECT_EQ(loc.ppn, PageId{1});
    EXPECT_EQ(loc.pageByteOffset, Bytes{5 * 512 + 100});
}

TEST_F(FtlFixture, WriteThenReadBytesRoundTrips)
{
    std::vector<std::uint8_t> data(300);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    ftl_.writeBytesFunctional(Lba{3}, Bytes{17}, data);

    std::vector<std::uint8_t> out(300);
    ftl_.readBytes(Cycle{}, Lba{3}, Bytes{17}, Bytes{300}, out);
    EXPECT_EQ(out, data);
}

TEST_F(FtlFixture, WriteSpanningPagesRoundTrips)
{
    // 5000 bytes starting near a page end crosses a page boundary.
    std::vector<std::uint8_t> data(5000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    ftl_.writeBytesFunctional(Lba{7}, Bytes{}, data); // addr 3584

    std::vector<std::uint8_t> out(4096);
    ftl_.readSectors(Cycle{}, Lba{}, Sectors{8}, out);
    // First 512 bytes of the written data appear at sector 7's slot.
    for (int i = 0; i < 512; ++i)
        EXPECT_EQ(out[3584 + i], data[i]);
}

TEST_F(FtlFixture, ReadSectorsChargesWholePagesAndCounts)
{
    const Cycle done = ftl_.readSectors(Cycle{}, Lba{}, Sectors{16}, {});
    // Two pages on two different channels: flush + transfer each,
    // no shared resource -> both complete by one page-read time plus
    // the translate latency.
    EXPECT_EQ(done, Ftl::kTranslateCycles +
                        array_.timing().pageReadTotalCycles());
    EXPECT_EQ(array_.totalPageReads(), 2u);
    EXPECT_EQ(ftl_.blockRequests().value(), 1u);
}

TEST_F(FtlFixture, UnalignedMultiPageReadMatchesFunctionalBytes)
{
    // Sectors 5..25: a partial head page, two whole pages and a
    // partial tail page; pages 0-1 written, pages 2-3 unwritten filler.
    std::vector<std::uint8_t> data(2 * 4096);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(splitmix64(i));
    ftl_.writeBytesFunctional(Lba{}, Bytes{}, data);

    const Lba lba{5};
    const Sectors sectors{21};
    std::vector<std::uint8_t> out(sectors.raw() * 512);
    const Cycle done = ftl_.readSectors(Cycle{}, lba, sectors, out);

    // The same range, one page-bounded piece at a time.
    std::vector<std::uint8_t> want(out.size());
    for (std::size_t pos = 0; pos < want.size();) {
        const std::uint64_t sector = lba.raw() + pos / 512;
        const std::size_t chunk = std::min<std::size_t>(
            want.size() - pos, (8 - sector % 8) * 512);
        ftl_.readBytesFunctional(
            Lba{sector}, Bytes{},
            std::span(want).subspan(pos, chunk));
        pos += chunk;
    }
    EXPECT_EQ(out, want);

    // Timing and counters are those of a timing-only read.
    flash::FlashArray timingArray(flash::tableIIGeometry(),
                                  flash::tableIITiming());
    Ftl timingFtl = Ftl::makeLinear(timingArray);
    EXPECT_EQ(done, timingFtl.readSectors(Cycle{}, lba, sectors, {}));
    EXPECT_EQ(array_.totalPageReads(), 4u);
    EXPECT_EQ(timingArray.totalPageReads(), 4u);
    EXPECT_EQ(ftl_.blockRequests().value(), 1u);
    EXPECT_EQ(timingFtl.blockRequests().value(), 1u);
}

TEST_F(FtlFixture, EvReadUsesVectorPathAndCounts)
{
    const Cycle done =
        ftl_.readBytes(Cycle{}, Lba{}, Bytes{}, Bytes{128}, {});
    EXPECT_EQ(done,
              Ftl::kTranslateCycles +
                  array_.timing().vectorReadTotalCycles(Bytes{128}));
    EXPECT_EQ(array_.totalVectorReads(), 1u);
    EXPECT_EQ(ftl_.evRequests().value(), 1u);
}

TEST_F(FtlFixture, EvReadAcrossPageBoundaryDies)
{
    EXPECT_DEATH(
        ftl_.readBytes(Cycle{}, Lba{7}, Bytes{500}, Bytes{128}, {}),
        "crosses flash page boundary");
}

} // namespace
} // namespace rmssd::ftl
