#include "ftl/freq_mapping.h"

#include <algorithm>
#include <unordered_set>

#include "sim/log.h"

namespace rmssd::ftl {

FrequencyMapping::FrequencyMapping(std::uint64_t totalPages)
    : FrequencyMapping(totalPages, Options{})
{
}

FrequencyMapping::FrequencyMapping(std::uint64_t totalPages,
                                   const Options &options)
    : totalPages_(totalPages), options_(options),
      sketch_(options.sketchCounters, options.sketchSampleSize)
{
    RMSSD_ASSERT(totalPages_ > 0, "mapping over an empty device");
}

PageId
FrequencyMapping::translate(PageId lpn) const
{
    RMSSD_ASSERT(lpn.raw() < totalPages_,
                 "logical page out of device range");
    const auto it = l2p_.find(lpn);
    return it == l2p_.end() ? lpn : it->second;
}

PageId
FrequencyMapping::assignForWrite(PageId lpn)
{
    // In-place overwrite: writes land wherever the page currently
    // lives, so a placed hot tier survives table refreshes.
    return translate(lpn);
}

void
FrequencyMapping::noteRead(PageId lpn)
{
    ++observedReads_;
    if (sketch_.record(lpn.raw()) >= options_.candidateEstimate)
        ++candidates_[lpn];
}

PageId
FrequencyMapping::inverse(PageId ppn) const
{
    RMSSD_ASSERT(ppn.raw() < totalPages_,
                 "physical page out of device range");
    const auto it = p2l_.find(ppn);
    return it == p2l_.end() ? ppn : it->second;
}

std::vector<FrequencyMapping::Swap>
FrequencyMapping::planHotSet(
    std::span<const PageId> hotLpnsByHeat) const
{
    // Dedup while keeping heat order; the hot tier is one slot per
    // distinct page.
    std::vector<PageId> hot;
    hot.reserve(hotLpnsByHeat.size());
    std::unordered_set<PageId> seen;
    for (const PageId lpn : hotLpnsByHeat) {
        RMSSD_ASSERT(lpn.raw() < totalPages_,
                     "hot page out of device range");
        if (seen.insert(lpn).second)
            hot.push_back(lpn);
    }
    const std::uint64_t tier =
        std::min<std::uint64_t>(hot.size(), totalPages_);
    hot.resize(tier);

    // Hot pages already inside [0, tier) keep their slot; their slots
    // are not free for incoming pages.
    std::vector<bool> slotTaken(tier, false);
    for (const PageId lpn : hot) {
        const PageId ppn = translate(lpn);
        if (ppn.raw() < tier)
            slotTaken[ppn.raw()] = true;
    }

    std::vector<Swap> swaps;
    std::uint64_t slot = 0;
    for (const PageId lpn : hot) {
        const PageId from = translate(lpn);
        if (from.raw() < tier)
            continue; // already striped
        while (slot < tier && slotTaken[slot])
            ++slot;
        RMSSD_ASSERT(slot < tier, "hot tier ran out of slots");
        const PageId target{slot};
        slotTaken[slot] = true;
        swaps.push_back(
            Swap{lpn, from, target, inverse(target)});
    }
    return swaps;
}

void
FrequencyMapping::commitSwap(const Swap &swap)
{
    RMSSD_ASSERT(translate(swap.hotLpn) == swap.fromPpn,
                 "stale swap: hot page moved since planning");
    RMSSD_ASSERT(translate(swap.displacedLpn) == swap.toPpn,
                 "stale swap: displaced page moved since planning");
    setMapping(swap.hotLpn, swap.toPpn);
    setMapping(swap.displacedLpn, swap.fromPpn);
}

void
FrequencyMapping::setMapping(PageId lpn, PageId ppn)
{
    if (lpn == ppn) {
        l2p_.erase(lpn);
        p2l_.erase(ppn);
    } else {
        l2p_[lpn] = ppn;
        p2l_[ppn] = lpn;
    }
}

std::vector<PageId>
FrequencyMapping::observedHot(std::size_t k) const
{
    std::vector<std::pair<std::uint64_t, PageId>> byCount;
    byCount.reserve(candidates_.size());
    // det-safe: extraction order is erased by the total-order sort
    // below (count desc, PageId asc).
    for (const auto &[lpn, count] : candidates_)
        byCount.emplace_back(count, lpn);
    std::sort(byCount.begin(), byCount.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    if (byCount.size() > k)
        byCount.resize(k);
    std::vector<PageId> hot;
    hot.reserve(byCount.size());
    for (const auto &[count, lpn] : byCount)
        hot.push_back(lpn);
    return hot;
}

void
FrequencyMapping::resetObservation()
{
    candidates_.clear();
    observedReads_ = 0;
    sketch_.clear();
}

} // namespace rmssd::ftl
