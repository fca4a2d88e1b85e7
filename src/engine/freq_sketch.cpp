#include "engine/freq_sketch.h"

#include <algorithm>
#include <bit>

#include "sim/log.h"

namespace rmssd::engine {

namespace {

/** splitmix64 finalizer; one seed per sketch row. */
std::uint64_t
mixRow(std::uint64_t x, std::uint32_t row)
{
    x += 0x9e3779b97f4a7c15ULL * (row + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

FrequencySketch::FrequencySketch(std::uint64_t counters,
                                 std::uint64_t sampleSize)
    : sampleSize_(std::max<std::uint64_t>(1, sampleSize))
{
    const std::uint64_t width =
        std::bit_ceil(std::max<std::uint64_t>(64, counters));
    mask_ = width - 1;
    table_.assign(width, 0);
}

static_assert(FrequencySketch::kDepth == 4,
              "slotsOf, record and estimate unroll four rows");

FrequencySketch::Slots
FrequencySketch::slotsOf(std::uint64_t key) const
{
    return {mixRow(key, 0) & mask_, mixRow(key, 1) & mask_,
            mixRow(key, 2) & mask_, mixRow(key, 3) & mask_};
}

std::uint32_t
FrequencySketch::record(std::uint64_t key)
{
    const Slots s = slotsOf(key);
    std::uint8_t *const t = table_.data();
    const std::uint8_t c0 = t[s[0]], c1 = t[s[1]], c2 = t[s[2]],
                       c3 = t[s[3]];
    // Conservative update: only the row counters equal to the current
    // minimum grow, which tightens the count-min overestimate. Rows
    // that alias one slot read the same value and write the same one.
    const std::uint8_t minCount = std::min(std::min(c0, c1), std::min(c2, c3));
    const auto next =
        static_cast<std::uint8_t>(minCount + (minCount < kMaxCount));
    RMSSD_ASSERT(next <= kMaxCount, "sketch counter overflow");
    t[s[0]] = c0 == minCount ? next : c0;
    t[s[1]] = c1 == minCount ? next : c1;
    t[s[2]] = c2 == minCount ? next : c2;
    t[s[3]] = c3 == minCount ? next : c3;
    // Every row now holds >= next, and the minimal rows hold next;
    // halving is monotone, so the halved minimum is next / 2.
    if (++additions_ >= sampleSize_) {
        halve();
        return next >> 1;
    }
    return next;
}

std::uint32_t
FrequencySketch::estimate(std::uint64_t key) const
{
    const Slots s = slotsOf(key);
    const std::uint8_t *const t = table_.data();
    return std::min(std::min(t[s[0]], t[s[1]]), std::min(t[s[2]], t[s[3]]));
}

void
FrequencySketch::halve()
{
    for (std::uint8_t &counter : table_)
        counter >>= 1;
    additions_ /= 2;
    halvings_.inc();
}

void
FrequencySketch::clear()
{
    std::fill(table_.begin(), table_.end(), std::uint8_t{0});
    additions_ = 0;
}

} // namespace rmssd::engine
