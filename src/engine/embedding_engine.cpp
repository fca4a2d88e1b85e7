#include "engine/embedding_engine.h"

#include <algorithm>
#include <bit>

#include "engine/ev_sum.h"
#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::engine {

namespace {

/** Coalescing key: (table, index) packed like EvCache's line tags. */
std::uint64_t
lookupKey(TableId tableId, EvIndex index)
{
    return (static_cast<std::uint64_t>(tableId.raw()) << 48) |
           index.raw();
}

} // namespace

EmbeddingEngine::EmbeddingEngine(EvTranslator &translator, ftl::Ftl &ftl,
                                 EvCache *cache, bool coalesce)
    : translator_(translator), ftl_(ftl), cache_(cache),
      coalesce_(coalesce)
{
}

void
EmbeddingEngine::resetCoalescing(std::size_t indices)
{
    for (const CoalesceEntry &entry : coalesceEntries_)
        coalesceSlots_[entry.slot] = 0;
    coalesceEntries_.clear();
    coalesceBytes_.clear();
    const std::size_t want =
        std::bit_ceil(std::max<std::size_t>(16, 2 * indices));
    if (coalesceSlots_.size() < want)
        coalesceSlots_.assign(want, 0);
}

std::uint32_t
EmbeddingEngine::coalesceSlot(std::uint64_t key) const
{
    const std::size_t mask = coalesceSlots_.size() - 1;
    std::size_t pos = static_cast<std::size_t>(splitmix64(key)) & mask;
    while (coalesceSlots_[pos] != 0 &&
           coalesceEntries_[coalesceSlots_[pos] - 1].key != key)
        pos = (pos + 1) & mask;
    return static_cast<std::uint32_t>(pos);
}

EmbeddingResult
EmbeddingEngine::run(Cycle start, std::span<const model::Sample> samples,
                     bool functional)
{
    EmbeddingResult result;
    result.startCycle = start;

    // Step 1 of Fig. 6: scan table metadata once per batch, then the
    // translation pipeline issues one read per cycle.
    Cycle issue = start + translator_.metadataScanCycles() +
                  EvTranslator::kPipelineFillCycles;

    // Coalescing state: completion cycle (and bytes, when functional)
    // of every unique (table, index) already served this micro-batch.
    if (coalesce_) {
        std::size_t indices = 0;
        for (const model::Sample &sample : samples)
            for (const auto &tableIndices : sample.indices)
                indices += tableIndices.size();
        resetCoalescing(indices);
    }
    if (functional)
        result.pooled.reserve(samples.size());

    Cycle lastDone = issue;
    for (std::size_t s = 0; s < samples.size(); ++s) {
        const model::Sample &sample = samples[s];
        model::Vector pooledSample;
        for (std::size_t t = 0; t < sample.indices.size(); ++t) {
            const TableId tableId{static_cast<std::uint32_t>(t)};
            const Bytes evBytes = translator_.vectorBytes(tableId);
            const std::uint32_t dim = static_cast<std::uint32_t>(
                evBytes.raw() / sizeof(float));
            if (functional)
                acc_.assign(dim, 0.0f);

            Cycle tableDone = issue;
            for (const std::uint64_t rawIndex : sample.indices[t]) {
                const EvIndex index{rawIndex};
                std::span<const std::uint8_t> bytes;
                Cycle done;

                const std::uint64_t key = lookupKey(tableId, index);
                const std::uint32_t slot = coalesce_ ? coalesceSlot(key) : 0;
                if (coalesce_ && coalesceSlots_[slot] != 0) {
                    // Duplicate within the batch: the vector was read
                    // once already; fanning it into this sample's EV
                    // Sum costs no flash or cache access.
                    const CoalesceEntry &entry =
                        coalesceEntries_[coalesceSlots_[slot] - 1];
                    done = std::max(issue, entry.done);
                    if (entry.dataLen != 0)
                        bytes = {coalesceBytes_.data() + entry.dataOffset,
                                 entry.dataLen};
                    coalesced_.inc();
                } else {
                    if (cache_ &&
                        cache_->lookup(tableId, index,
                                       functional ? &buf_ : nullptr)) {
                        done = issue + cache_->hitCycles();
                    } else {
                        const EvReadRequest req =
                            translator_.translate(tableId, index);
                        std::span<std::uint8_t> out;
                        if (functional) {
                            buf_.resize(req.bytes.raw());
                            out = buf_;
                        }
                        done = ftl_.readBytes(issue, req.lba,
                                              req.byteInSector,
                                              req.bytes, out);
                        flashReads_.inc();
                        lookupBytes_.inc(req.bytes.raw());
                        if (cache_)
                            cache_->fill(tableId, index, out);
                    }
                    if (functional)
                        bytes = buf_;
                    if (coalesce_) {
                        CoalesceEntry entry;
                        entry.key = key;
                        entry.done = done;
                        entry.dataOffset = coalesceBytes_.size();
                        entry.dataLen =
                            static_cast<std::uint32_t>(bytes.size());
                        entry.slot = slot;
                        coalesceBytes_.insert(coalesceBytes_.end(),
                                              bytes.begin(), bytes.end());
                        coalesceEntries_.push_back(entry);
                        coalesceSlots_[slot] = static_cast<std::uint32_t>(
                            coalesceEntries_.size());
                    }
                }

                tableDone = std::max(tableDone, done);
                if (functional)
                    EvSum::accumulateBytes(bytes, acc_);
                lookups_.inc();
                issue += EvTranslator::kCyclesPerIndex;
            }
            // fadd pipeline drains after the table's last vector.
            lastDone = std::max(lastDone, tableDone + EvSum::kDrainCycles);
            if (functional) {
                pooledSample.insert(pooledSample.end(), acc_.begin(),
                                    acc_.end());
            }
        }
        if (functional)
            result.pooled.push_back(std::move(pooledSample));
    }
    result.issueEndCycle = issue;
    result.doneCycle = lastDone;
    return result;
}

double
EmbeddingEngine::steadyStateCyclesPerRead(
    const flash::Geometry &geometry, const flash::NandTiming &timing,
    Bytes evBytes)
{
    // Per channel, a vector read occupies its die for the flush and
    // the shared bus for the transfer; with D dies the flushes
    // overlap, so the channel sustains one read per
    // max(flush/D, transfer) cycles. Channels run in parallel.
    const double flushShare =
        static_cast<double>(timing.flushCycles().raw()) /
        static_cast<double>(geometry.diesPerChannel);
    const double busShare =
        static_cast<double>(timing.transferCycles(evBytes).raw());
    return std::max(flushShare, busShare) /
           static_cast<double>(geometry.numChannels);
}

double
EmbeddingEngine::effectiveCyclesPerRead(
    const flash::Geometry &geometry, const flash::NandTiming &timing,
    Bytes evBytes, double hitRatio)
{
    const double base =
        steadyStateCyclesPerRead(geometry, timing, evBytes);
    const double missFraction =
        std::clamp(1.0 - hitRatio, 0.0, 1.0);
    // Hits stream out of the cache at the translator's issue rate, so
    // the device never sustains more than one read per index cycle.
    return std::max(
        static_cast<double>(EvTranslator::kCyclesPerIndex.raw()),
        missFraction * base);
}

} // namespace rmssd::engine
