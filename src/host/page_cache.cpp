#include "host/page_cache.h"

#include "sim/log.h"

namespace rmssd::host {

namespace {

/** Slot array size of a fresh cache (grown by doubling). */
constexpr std::size_t kInitialSlots = 16;

/** splitmix64 finaliser over the packed key. */
std::uint64_t
mixKey(std::uint32_t fileId, std::uint64_t pageIndex)
{
    std::uint64_t x =
        pageIndex ^ (static_cast<std::uint64_t>(fileId) *
                     0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace

PageCache::PageCache(std::uint64_t capacityPages)
    : capacity_(capacityPages), slots_(kInitialSlots),
      mask_(kInitialSlots - 1)
{
}

std::size_t
PageCache::home(std::uint32_t fileId, std::uint64_t pageIndex) const
{
    return static_cast<std::size_t>(mixKey(fileId, pageIndex)) & mask_;
}

std::size_t
PageCache::find(const PageKey &key) const
{
    std::size_t pos = home(key.fileId, key.pageIndex);
    while (slots_[pos].entry != kNil && !slots_[pos].holds(key))
        pos = (pos + 1) & mask_;
    return pos;
}

bool
PageCache::access(const PageKey &key)
{
    std::size_t pos = find(key);
    if (slots_[pos].entry != kNil) {
        const std::uint32_t e = slots_[pos].entry;
        if (e != head_) {
            unlink(e);
            pushFront(e);
        }
        hits_.inc();
        return true;
    }
    misses_.inc();

    std::uint32_t e;
    if (capacity_ != 0 && entries_.size() >= capacity_) {
        // Reuse the LRU victim's entry in place.
        e = tail_;
        eraseSlot(find(entries_[e].key));
        evictions_.inc();
        unlink(e);
        entries_[e].key = key;
        // The backward shift may have opened a hole earlier in this
        // key's probe run; insert there, not at the old run end.
        pos = find(key);
    } else {
        RMSSD_ASSERT(entries_.size() < kNil,
                     "page cache exceeds 2^32-1 resident pages");
        if ((entries_.size() + 1) * 2 > slots_.size()) {
            grow();
            pos = find(key);
        }
        e = static_cast<std::uint32_t>(entries_.size());
        entries_.push_back(Entry{key});
    }
    slots_[pos] = Slot{key.pageIndex, key.fileId, e};
    pushFront(e);
    return false;
}

bool
PageCache::contains(const PageKey &key) const
{
    return slots_[find(key)].entry != kNil;
}

void
PageCache::eraseSlot(std::size_t pos)
{
    std::size_t hole = pos;
    for (std::size_t j = (pos + 1) & mask_; slots_[j].entry != kNil;
         j = (j + 1) & mask_) {
        // Slot j may fill the hole unless its home lies cyclically
        // in (hole, j] — moving it then would put it before its home.
        const std::size_t h = home(slots_[j].fileId, slots_[j].pageIndex);
        if (((j - h) & mask_) >= ((j - hole) & mask_)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole].entry = kNil;
}

void
PageCache::grow()
{
    slots_.assign(slots_.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (std::uint32_t e = 0; e < entries_.size(); ++e) {
        const PageKey &k = entries_[e].key;
        slots_[find(k)] = Slot{k.pageIndex, k.fileId, e};
    }
}

void
PageCache::unlink(std::uint32_t e)
{
    Entry &n = entries_[e];
    if (n.prev != kNil)
        entries_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != kNil)
        entries_[n.next].prev = n.prev;
    else
        tail_ = n.prev;
}

void
PageCache::pushFront(std::uint32_t e)
{
    Entry &n = entries_[e];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil)
        entries_[head_].prev = e;
    else
        tail_ = e;
    head_ = e;
}

double
PageCache::hitRatio() const
{
    const std::uint64_t total = hits_.value() + misses_.value();
    return total == 0 ? 0.0
                      : static_cast<double>(hits_.value()) /
                            static_cast<double>(total);
}

void
PageCache::resetStats()
{
    hits_.reset();
    misses_.reset();
    evictions_.reset();
}

} // namespace rmssd::host
