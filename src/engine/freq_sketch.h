/**
 * @file
 * TinyLFU frequency sketch: a 4-bit count-min sketch with periodic
 * halving, the popularity estimator behind the EV cache's admission
 * filter (cache v2, DESIGN.md §8).
 *
 * Production embedding traces are heavily Zipfian with a long
 * once-accessed tail (Fig. 4: most unique indices are touched exactly
 * once). A plain LRU cache admits every miss, so the tail continually
 * evicts hot lines. TinyLFU-style admission keeps an approximate
 * access-frequency count per key and only lets a fill displace the
 * LRU victim when the incoming key is estimated to be *more* popular
 * than the line it would evict.
 *
 * The sketch is a flat array of 4-bit saturating counters; each key
 * selects kDepth counters through independent splitmix64-seeded
 * hashes, is estimated as their minimum, and is recorded with a
 * conservative-update increment (only the minimal counters grow).
 * After sampleSize recorded accesses every counter is halved, aging
 * out stale popularity so the filter tracks workload drift — the
 * "periodic reset" of the TinyLFU paper. The modelled device holds
 * 4-bit counters, a few hundred KB of SRAM in its budget; in the
 * timing model the sketch probe runs in parallel with the cache tag
 * lookup and adds no cycles. The simulator stores one counter per
 * byte, so record and estimate are plain byte loads and selects with
 * no sub-byte shifts or branches; the counts are the 4-bit ones.
 */

#ifndef RMSSD_ENGINE_FREQ_SKETCH_H
#define RMSSD_ENGINE_FREQ_SKETCH_H

#include <array>
#include <cstdint>
#include <vector>

#include "sim/stats.h"

namespace rmssd::engine {

/** 4-bit count-min sketch with periodic halving (TinyLFU aging). */
class FrequencySketch
{
  public:
    /** Counters saturate at 15 (4-bit). */
    static constexpr std::uint32_t kMaxCount = 15;
    /** Independent hash rows probed per key. */
    static constexpr std::uint32_t kDepth = 4;

    /**
     * @param counters requested number of 4-bit counters (rounded up
     *        to a power of two, minimum 64)
     * @param sampleSize recorded accesses between halvings
     */
    FrequencySketch(std::uint64_t counters, std::uint64_t sampleSize);

    /**
     * Count one access to @p key; may trigger the periodic halving.
     * @return estimate(key) after the record (and any halving)
     */
    std::uint32_t record(std::uint64_t key);

    /** Estimated access frequency of @p key in [0, kMaxCount]. */
    std::uint32_t estimate(std::uint64_t key) const;

    /** Actual counter count after power-of-two rounding. */
    std::uint64_t numCounters() const { return mask_ + 1; }
    std::uint64_t sampleSize() const { return sampleSize_; }
    /** Accesses recorded since the last halving. */
    std::uint64_t additions() const { return additions_; }
    /** Periodic halvings performed so far. */
    const Counter &halvings() const { return halvings_; }

    /** Forget everything (tests / cache invalidation). */
    void clear();

  private:
    using Slots = std::array<std::uint64_t, kDepth>;
    /** The key's counter index in each row. */
    Slots slotsOf(std::uint64_t key) const;
    void halve();

    std::vector<std::uint8_t> table_; //!< one 4-bit counter per byte
    std::uint64_t mask_;              //!< numCounters - 1 (pow2 size)
    std::uint64_t sampleSize_;
    std::uint64_t additions_ = 0;
    Counter halvings_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_FREQ_SKETCH_H
