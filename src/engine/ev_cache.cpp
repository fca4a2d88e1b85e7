#include "engine/ev_cache.h"

#include <algorithm>
#include <numeric>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::engine {

std::vector<EvCachePartition>
planTablePartitions(std::uint32_t numSets, std::span<const double> shares)
{
    RMSSD_ASSERT(!shares.empty(), "empty table shares");
    RMSSD_ASSERT(numSets >= shares.size(),
                 "fewer cache sets than tables to partition");
    const double total =
        std::accumulate(shares.begin(), shares.end(), 0.0);
    RMSSD_ASSERT(total > 0.0, "table shares sum to zero");

    // Largest-remainder apportionment with a one-set floor per table:
    // reserve shares.size() sets for the floors, apportion the rest.
    const auto tables = static_cast<std::uint32_t>(shares.size());
    const std::uint32_t spare = numSets - tables;
    std::vector<std::uint32_t> quota(tables, 1);
    std::vector<std::pair<double, std::uint32_t>> remainders;
    remainders.reserve(tables);
    std::uint32_t assigned = 0;
    for (std::uint32_t t = 0; t < tables; ++t) {
        RMSSD_ASSERT(shares[t] > 0.0, "non-positive table share");
        const double exact = spare * shares[t] / total;
        const auto whole = static_cast<std::uint32_t>(exact);
        quota[t] += whole;
        assigned += whole;
        remainders.emplace_back(exact - whole, t);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto &a, const auto &b) {
                  // Ties broken by table id for determinism.
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    for (std::uint32_t i = 0; assigned < spare; ++i, ++assigned)
        ++quota[remainders[i].second];

    std::vector<EvCachePartition> partitions(tables);
    std::uint32_t next = 0;
    for (std::uint32_t t = 0; t < tables; ++t) {
        partitions[t] = EvCachePartition{next, quota[t]};
        next += quota[t];
    }
    RMSSD_ASSERT(next == numSets, "partition plan does not cover sets");
    return partitions;
}

EvCache::EvCache(const EvCacheConfig &config, Bytes lineBytes)
    : lineBytes_(lineBytes), ways_(config.ways),
      hitCycles_(config.hitCycles)
{
    RMSSD_ASSERT(lineBytes_ > Bytes{}, "zero EV cache line size");
    RMSSD_ASSERT(ways_ > 0, "zero EV cache associativity");
    RMSSD_ASSERT(config.windowFraction >= 0.0 &&
                     config.windowFraction < 1.0,
                 "window fraction outside [0, 1)");
    const std::uint64_t lines = std::max<std::uint64_t>(
        1, config.capacityBytes / lineBytes_);
    // The W-TinyLFU window is carved out of the same line budget so
    // enabling it never grows the SRAM footprint; at least one line
    // must remain on each side of the split.
    std::uint64_t windowLines = static_cast<std::uint64_t>(
        config.windowFraction * static_cast<double>(lines));
    if (config.windowFraction > 0.0 && windowLines == 0 && lines > 1)
        windowLines = 1;
    windowLines = std::min(windowLines, lines - 1);
    const std::uint64_t mainLines = lines - windowLines;
    ways_ = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ways_, mainLines));
    numSets_ = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, mainLines / ways_));
    windowBegin_ = static_cast<std::size_t>(numSets_) * ways_;
    windowLines_ = static_cast<std::uint32_t>(windowLines);
    const std::size_t totalLines = windowBegin_ + windowLines_;
    keys_.assign(totalLines, 0);
    lastUse_.assign(totalLines, 0);
    dataLen_.assign(totalLines, 0);

    if (!config.tableShares.empty())
        partitions_ = planTablePartitions(numSets_, config.tableShares);

    if (config.admission == EvCacheAdmission::TinyLfu) {
        sketch_ = std::make_unique<FrequencySketch>(
            lines * config.sketchCountersPerLine,
            lines * config.sketchSamplePerLine);
    }
}

std::uint64_t
EvCache::makeKey(TableId tableId, EvIndex index)
{
    RMSSD_ASSERT(index.raw() < (1ULL << 48),
                 "embedding index exceeds key space");
    return (static_cast<std::uint64_t>(tableId.raw()) << 48) |
           index.raw();
}

std::size_t
EvCache::setBase(TableId tableId, std::uint64_t key) const
{
    std::size_t set;
    if (partitions_.empty()) {
        set = static_cast<std::size_t>(splitmix64(key) % numSets_);
    } else {
        RMSSD_ASSERT(tableId.raw() < partitions_.size(),
                     "table id outside partition plan");
        const EvCachePartition &p = partitions_[tableId.raw()];
        set = p.firstSet +
              static_cast<std::size_t>(splitmix64(key) % p.numSets);
    }
    return set * ways_;
}

std::size_t
EvCache::findLine(std::size_t begin, std::size_t end,
                  std::uint64_t key) const
{
    for (std::size_t i = begin; i < end; ++i) {
        if (keys_[i] == key && lastUse_[i] != 0)
            return i;
    }
    return end;
}

std::size_t
EvCache::lruLine(std::size_t begin, std::size_t end) const
{
    std::size_t victim = begin;
    for (std::size_t i = begin + 1; i < end; ++i) {
        if (lastUse_[i] < lastUse_[victim])
            victim = i;
    }
    return victim;
}

void
EvCache::install(std::size_t line, std::uint64_t key,
                 std::span<const std::uint8_t> data)
{
    keys_[line] = key;
    lastUse_[line] = ++tick_;
    dataLen_[line] = static_cast<std::uint32_t>(data.size());
    if (!data.empty()) {
        RMSSD_ASSERT(data.size() <= lineBytes_.raw(),
                     "EV cache fill larger than a line");
        if (arena_.empty())
            arena_.resize(lastUse_.size() * lineBytes_.raw());
        std::copy(data.begin(), data.end(),
                  arena_.begin() + static_cast<std::ptrdiff_t>(
                                       line * lineBytes_.raw()));
    }
    fills_.inc();
}

std::span<const std::uint8_t>
EvCache::lineData(std::size_t line) const
{
    if (dataLen_[line] == 0)
        return {};
    return {arena_.data() + line * lineBytes_.raw(), dataLen_[line]};
}

void
EvCache::hit(std::size_t line, std::vector<std::uint8_t> *out)
{
    lastUse_[line] = ++tick_;
    hits_.inc();
    if (out) {
        const std::span<const std::uint8_t> data = lineData(line);
        out->assign(data.begin(), data.end());
    }
}

bool
EvCache::lookup(TableId tableId, EvIndex index,
                std::vector<std::uint8_t> *out)
{
    const std::uint64_t key = makeKey(tableId, index);
    if (sketch_)
        sketch_->record(key);
    // A functional caller needs the bytes; a line installed by a
    // timing-only run has none, so it cannot serve the hit. A dataless
    // window line falls through to the main-set probe.
    const std::size_t windowEnd = windowBegin_ + windowLines_;
    const std::size_t w = findLine(windowBegin_, windowEnd, key);
    if (w != windowEnd && !(out && dataLen_[w] == 0)) {
        hit(w, out);
        admissionWindowHits_.inc();
        return true;
    }
    const std::size_t base = setBase(tableId, key);
    const std::size_t m = findLine(base, base + ways_, key);
    if (m != base + ways_ && !(out && dataLen_[m] == 0)) {
        hit(m, out);
        return true;
    }
    misses_.inc();
    return false;
}

void
EvCache::fill(TableId tableId, EvIndex index,
              std::span<const std::uint8_t> data)
{
    const std::uint64_t key = makeKey(tableId, index);
    if (windowLines_ == 0) {
        fillMain(tableId, key, data);
        return;
    }

    // Refresh wherever the key already lives (window or main);
    // otherwise new keys serve their probation in the window and only
    // its LRU spill may contend for main admission.
    const std::size_t windowEnd = windowBegin_ + windowLines_;
    std::size_t slot = findLine(windowBegin_, windowEnd, key);
    if (slot == windowEnd) {
        const std::size_t base = setBase(tableId, key);
        if (findLine(base, base + ways_, key) != base + ways_) {
            fillMain(tableId, key, data);
            return;
        }
        slot = lruLine(windowBegin_, windowEnd);
        if (lastUse_[slot] != 0) {
            // Graduate the window victim toward the main cache; the
            // TinyLFU filter inside fillMain decides admission.
            const TableId victimTable{
                static_cast<std::uint32_t>(keys_[slot] >> 48)};
            fillMain(victimTable, keys_[slot], lineData(slot));
        }
    }
    install(slot, key, data);
}

void
EvCache::fillMain(TableId tableId, std::uint64_t key,
                  std::span<const std::uint8_t> data)
{
    const std::size_t base = setBase(tableId, key);
    std::size_t victim = findLine(base, base + ways_, key);
    if (victim == base + ways_) {
        victim = lruLine(base, base + ways_);
        if (lastUse_[victim] != 0) {
            // TinyLFU admission: displacing a valid line must be
            // earned — the candidate's estimated frequency has to beat
            // the victim's, otherwise the one-hit cold tail would keep
            // flushing hot lines exactly as under plain LRU.
            if (sketch_ && sketch_->estimate(key) <=
                               sketch_->estimate(keys_[victim])) {
                admissionRejects_.inc();
                return;
            }
            evictions_.inc();
        }
    }
    install(victim, key, data);
}

bool
EvCache::contains(TableId tableId, EvIndex index) const
{
    const std::uint64_t key = makeKey(tableId, index);
    const std::size_t windowEnd = windowBegin_ + windowLines_;
    if (findLine(windowBegin_, windowEnd, key) != windowEnd)
        return true;
    const std::size_t base = setBase(tableId, key);
    return findLine(base, base + ways_, key) != base + ways_;
}

void
EvCache::invalidate()
{
    std::fill(lastUse_.begin(), lastUse_.end(), std::uint64_t{0});
    std::fill(dataLen_.begin(), dataLen_.end(), std::uint32_t{0});
}

double
EvCache::hitRatio() const
{
    const std::uint64_t probes = hits_.value() + misses_.value();
    return probes ? static_cast<double>(hits_.value()) /
                        static_cast<double>(probes)
                  : 0.0;
}

} // namespace rmssd::engine
