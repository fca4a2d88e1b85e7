/**
 * @file
 * Host page cache: an LRU over 4 KB file pages.
 *
 * SSD-S and SSD-M in the paper limit DRAM to 1/4 and 1/2 of the total
 * embedding bytes; the page cache capacity is what turns that limit
 * into the hit ratios behind Fig. 2 and the read amplification of
 * Fig. 3.
 *
 * Layout (flat, exact LRU; no per-page heap nodes):
 * - entries_: one vector of {key, prev, next}; the uint32 prev/next
 *   indices form the recency list (head_ = most recent, tail_ = LRU).
 *   A miss at capacity reuses the victim's entry in place, so steady
 *   state never allocates.
 * - slots_: open-addressing table, linear probing over a power-of-two
 *   array kept at load <= 1/2. Each slot holds the full key plus the
 *   entry index, so a probe never touches an entry. Erase uses
 *   backward-shift deletion, so there are no tombstones.
 * - hash: a fixed 64-bit finaliser (splitmix64), not std::hash, so
 *   the slot layout is the same on every platform.
 *
 * Determinism: recency lives only in the entry links. The slot table
 * is never iterated for output, and a resize re-inserts entries in
 * index order, which moves slot positions but never recency — so the
 * eviction sequence is a pure function of the access sequence.
 */

#ifndef RMSSD_HOST_PAGE_CACHE_H
#define RMSSD_HOST_PAGE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/stats.h"

namespace rmssd::host {

/** Identifies one cached page: (file id, page index within file). */
struct PageKey
{
    std::uint32_t fileId = 0;
    std::uint64_t pageIndex = 0;

    bool operator==(const PageKey &) const = default;
};

/** LRU page cache (metadata only; page content lives in the device). */
class PageCache
{
  public:
    /** @param capacityPages 0 means unbounded (DRAM-only config). */
    explicit PageCache(std::uint64_t capacityPages);

    /**
     * Look up a page; a hit refreshes recency, a miss inserts the page
     * (evicting the LRU page when full).
     * @return true on hit.
     */
    bool access(const PageKey &key);

    /** Non-mutating membership probe. */
    bool contains(const PageKey &key) const;

    std::uint64_t capacityPages() const { return capacity_; }
    std::size_t residentPages() const { return entries_.size(); }

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }
    const Counter &evictions() const { return evictions_; }

    double hitRatio() const;

    /** Reset the hit/miss/eviction counters only. */
    void resetStats();

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Entry
    {
        PageKey key;
        std::uint32_t prev = kNil; //!< towards head_ (more recent)
        std::uint32_t next = kNil; //!< towards tail_ (less recent)
    };

    /** Key fields unpacked so a slot packs into 16 bytes. */
    struct Slot
    {
        std::uint64_t pageIndex = 0;
        std::uint32_t fileId = 0;
        std::uint32_t entry = kNil; //!< kNil = empty slot

        bool
        holds(const PageKey &key) const
        {
            return pageIndex == key.pageIndex && fileId == key.fileId;
        }
    };

    std::size_t home(std::uint32_t fileId, std::uint64_t pageIndex) const;
    /** Slot holding @p key, or the empty slot ending its probe run. */
    std::size_t find(const PageKey &key) const;
    /** Remove the slot at @p pos, backward-shifting its probe run. */
    void eraseSlot(std::size_t pos);
    /** Double the slot array and re-insert every entry. */
    void grow();

    void unlink(std::uint32_t e);
    void pushFront(std::uint32_t e);

    std::uint64_t capacity_;
    std::vector<Entry> entries_;
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;

    Counter hits_;
    Counter misses_;
    Counter evictions_;
};

} // namespace rmssd::host

#endif // RMSSD_HOST_PAGE_CACHE_H
