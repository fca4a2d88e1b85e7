#include "host/host_system.h"

#include <algorithm>

#include "sim/log.h"

namespace rmssd::host {

HostFileReader::HostFileReader(nvme::NvmeController &nvme,
                               std::uint64_t cachePages,
                               const IoStackCosts &costs)
    : nvme_(nvme), cache_(cachePages), costs_(costs)
{
}

IoCost
HostFileReader::readVector(std::uint32_t fileId,
                           const ftl::ExtentList &extents,
                           Bytes byteOffset, Bytes bytes, Nanos now,
                           std::span<std::uint8_t> out)
{
    const std::uint32_t pageSize = nvme_.ftl().pageSize();
    const Bytes sectorSize{nvme_.ftl().sectorSize()};
    const std::uint32_t sectorsPerPage =
        pageSize / nvme_.ftl().sectorSize();
    RMSSD_ASSERT(byteOffset.raw() % pageSize + bytes.raw() <= pageSize,
                 "host vector read straddles a cache page");
    RMSSD_ASSERT(out.empty() || out.size() == bytes.raw(),
                 "host vector read buffer size mismatch");

    requestedBytes_.inc(bytes.raw());

    IoCost cost;
    cost.fsNanos += costs_.syscallNanos;

    const PageKey key{fileId, byteOffset.raw() / pageSize};
    if (cache_.access(key)) {
        cost.fsNanos += costs_.hitCopyNanos;
        if (!out.empty()) {
            // A hit is served from host DRAM: read the same bytes the
            // device holds without touching any device state.
            const auto loc = extents.locateByte(byteOffset, sectorSize);
            nvme_.ftl().readBytesFunctional(loc.lba, loc.byteInSector,
                                            out);
        }
        return cost;
    }

    // Miss: fill the whole 4 KB page through the block path.
    const Bytes pageStartByte{byteOffset.raw() / pageSize * pageSize};
    const auto loc = extents.locateByte(pageStartByte, sectorSize);
    const Cycle issue = nanosToCycles(now + costs_.syscallNanos);

    std::span<std::uint8_t> pageSpan;
    if (!out.empty()) {
        pageBuf_.resize(pageSize);
        pageSpan = pageBuf_;
    }
    const Cycle done = nvme_.readBlocks(issue, loc.lba,
                                        Sectors{sectorsPerPage},
                                        pageSpan);
    deviceBytes_.inc(pageSize);

    const Nanos deviceNanos = cyclesToNanos(done - issue);
    cost.ssdNanos += deviceNanos;
    cost.fsNanos += costs_.missKernelNanos;

    if (!out.empty()) {
        const std::uint32_t inPage = static_cast<std::uint32_t>(
            (byteOffset - pageStartByte).raw());
        std::copy_n(pageBuf_.begin() + inPage, bytes.raw(),
                    out.begin());
    }
    return cost;
}

void
HostFileReader::resetStats()
{
    cache_.resetStats();
    deviceBytes_.reset();
    requestedBytes_.reset();
}

} // namespace rmssd::host
