#include "ftl/ftl.h"

#include <algorithm>

#include "sim/log.h"

namespace rmssd::ftl {

Ftl::Ftl(flash::FlashArray &array, std::unique_ptr<Mapping> mapping)
    : array_(array), mapping_(std::move(mapping))
{
    RMSSD_ASSERT(mapping_ != nullptr, "FTL without a mapping");
}

Ftl
Ftl::makeLinear(flash::FlashArray &array)
{
    return Ftl(array, std::make_unique<LinearMapping>(
                          array.geometry().totalPages()));
}

std::uint32_t
Ftl::sectorsPerPage() const
{
    return array_.geometry().sectorsPerPage();
}

std::uint32_t
Ftl::sectorSize() const
{
    return static_cast<std::uint32_t>(
        array_.geometry().sectorSizeBytes.raw());
}

std::uint32_t
Ftl::pageSize() const
{
    return static_cast<std::uint32_t>(
        array_.geometry().pageSizeBytes.raw());
}

Ftl::PhysLoc
Ftl::translate(Lba lba, Bytes byteInSector) const
{
    const std::uint32_t spp = sectorsPerPage();
    const PageId lpn{lba.raw() / spp};
    const std::uint64_t sectorInPage = lba.raw() % spp;
    return PhysLoc{mapping_->translate(lpn),
                   Bytes{sectorInPage * sectorSize()} + byteInSector};
}

Cycle
Ftl::readSectors(Cycle issue, Lba lba, Sectors sectors,
                 std::span<std::uint8_t> out)
{
    RMSSD_ASSERT(sectors > Sectors{}, "zero-sector read");
    recordPath(RequestPath::BlockIo);

    const std::uint32_t spp = sectorsPerPage();
    const std::uint32_t secSize = sectorSize();
    if (!out.empty()) {
        RMSSD_ASSERT(out.size() ==
                         static_cast<std::size_t>(sectors.raw()) *
                             secSize,
                     "block read buffer size mismatch");
    }

    // Page-granular device: every touched page is read in full.
    Cycle done = issue;
    Lba sector = lba;
    std::uint64_t remaining = sectors.raw();
    std::size_t outPos = 0;
    while (remaining > 0) {
        const PageId lpn{sector.raw() / spp};
        const std::uint32_t first =
            static_cast<std::uint32_t>(sector.raw() % spp);
        const std::uint32_t inPage = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining, spp - first));

        const PageId ppn = mapping_->translate(lpn);
        const Cycle reqIssue = issue + kTranslateCycles;
        done = std::max(done, array_.readPage(reqIssue, ppn, {}).done);
        // The die senses the whole page; only the requested sectors
        // are copied, straight from the backing store into out.
        const std::size_t chunk =
            static_cast<std::size_t>(inPage) * secSize;
        if (!out.empty())
            array_.store().read(ppn, Bytes{first * secSize},
                                out.subspan(outPos, chunk));
        outPos += chunk;
        sector = sector + Sectors{inPage};
        remaining -= inPage;
    }
    return done;
}

Cycle
Ftl::readBytes(Cycle issue, Lba lba, Bytes byteInSector, Bytes bytes,
               std::span<std::uint8_t> out)
{
    recordPath(RequestPath::Embedding);
    // Feed frequency-aware mappings their online heat signal. Keyed
    // by the logical page: heat follows the data through relocations.
    mapping_->noteRead(PageId{lba.raw() / sectorsPerPage()});
    const PhysLoc loc = translate(lba, byteInSector);
    RMSSD_ASSERT((loc.pageByteOffset + bytes).raw() <= pageSize(),
                 "EV read crosses flash page boundary");
    return array_
        .readVector(issue + kTranslateCycles, loc.ppn,
                    loc.pageByteOffset, bytes, out)
        .done;
}

void
Ftl::readBytesFunctional(Lba lba, Bytes byteInSector,
                         std::span<std::uint8_t> out) const
{
    const PhysLoc loc = translate(lba, byteInSector);
    RMSSD_ASSERT((loc.pageByteOffset + Bytes{out.size()}).raw() <=
                     pageSize(),
                 "functional read crosses flash page boundary");
    array_.store().read(loc.ppn, loc.pageByteOffset, out);
}

void
Ftl::writeBytesFunctional(Lba lba, Bytes byteInSector,
                          std::span<const std::uint8_t> data)
{
    Bytes byteAddr = Bytes{lba.raw() * sectorSize()} + byteInSector;
    std::size_t pos = 0;
    while (pos < data.size()) {
        const PageId lpn{byteAddr.raw() / pageSize()};
        const Bytes inPageOff = byteAddr % pageSize();
        const std::size_t chunk = std::min<std::size_t>(
            data.size() - pos, pageSize() - inPageOff.raw());
        const PageId ppn = mapping_->assignForWrite(lpn);
        array_.writePartialFunctional(
            ppn, inPageOff, data.subspan(pos, chunk));
        byteAddr += Bytes{chunk};
        pos += chunk;
    }
}

void
Ftl::recordPath(RequestPath path)
{
    if (path == RequestPath::BlockIo)
        blockRequests_.inc();
    else
        evRequests_.inc();
}

} // namespace rmssd::ftl
