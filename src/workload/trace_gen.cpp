#include "workload/trace_gen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "sim/log.h"

namespace rmssd::workload {

TraceGenerator::TraceGenerator(const model::ModelConfig &config,
                               const TraceConfig &trace)
    : config_(config), trace_(trace), rng_(trace.seed)
{
    RMSSD_ASSERT(trace_.hotRowsPerTable > 0, "empty hot set");
    // Scatter the hot set across the table deterministically so hot
    // rows land on distinct flash/cache pages: rank r of table t is
    // hashCombine(hashCombine(seed, t), r), the inner hash fixed here.
    tableSeeds_.resize(config_.numTables);
    for (std::uint32_t t = 0; t < config_.numTables; ++t)
        tableSeeds_[t] = hashCombine(trace_.seed, t);
}

std::uint64_t
TraceGenerator::hotRow(std::uint32_t table, std::uint64_t rank) const
{
    RMSSD_ASSERT(table < tableSeeds_.size(), "table out of range");
    return hashCombine(tableSeeds_[table], rank) % config_.rowsPerTable;
}

bool
TraceGenerator::isHotRow(std::uint32_t table, std::uint64_t row) const
{
    RMSSD_ASSERT(table < config_.numTables, "table out of range");
    const std::uint64_t n = trace_.hotRowsPerTable;
    if (hotRowsSorted_.empty()) {
        // Built on first use: only profiling asks, so a generator that
        // just streams samples never pays for the rows or the sort.
        hotRowsSorted_.resize(static_cast<std::size_t>(config_.numTables * n));
        for (std::uint32_t t = 0; t < config_.numTables; ++t) {
            const auto first = hotRowsSorted_.begin() +
                               static_cast<std::ptrdiff_t>(t * n);
            for (std::uint64_t r = 0; r < n; ++r)
                first[static_cast<std::ptrdiff_t>(r)] = hotRow(t, r);
            std::sort(first, first + static_cast<std::ptrdiff_t>(n));
        }
    }
    const auto first =
        hotRowsSorted_.begin() + static_cast<std::ptrdiff_t>(table * n);
    return std::binary_search(first, first + static_cast<std::ptrdiff_t>(n),
                              row);
}

std::uint64_t
TraceGenerator::drawIndexWith(Rng &rng, std::uint32_t table,
                              bool *hotDraw) const
{
    const bool hot = rng.nextDouble() < trace_.tableHotFraction(table);
    if (hotDraw)
        *hotDraw = hot;
    if (hot) {
        // Zipf-skewed rank inside the hot set.
        const double u = rng.nextDouble();
        const std::uint64_t rank = static_cast<std::uint64_t>(
            std::pow(u, trace_.hotSkew) *
            static_cast<double>(trace_.hotRowsPerTable));
        return hotRow(table,
                      std::min(rank, trace_.hotRowsPerTable - 1));
    }
    return rng.nextBounded(config_.rowsPerTable);
}

std::uint64_t
TraceGenerator::drawIndex(std::uint32_t table)
{
    return drawIndexWith(rng_, table);
}

model::Sample
TraceGenerator::next()
{
    model::Sample s;
    s.dense.resize(config_.denseInputDim());
    for (auto &v : s.dense)
        v = static_cast<float>(rng_.nextDouble());
    s.indices.resize(config_.numTables);
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        s.indices[t].resize(config_.lookupsPerTable);
        for (auto &idx : s.indices[t])
            idx = drawIndex(t);
    }
    return s;
}

std::vector<model::Sample>
TraceGenerator::nextBatch(std::uint32_t n)
{
    std::vector<model::Sample> batch;
    batch.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        batch.push_back(next());
    return batch;
}

void
TraceGenerator::reset()
{
    rng_ = Rng(trace_.seed);
}

TraceGenerator::HistogramSummary
TraceGenerator::histogram(std::uint64_t lookups, std::uint32_t topN)
{
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    counts.reserve(lookups / 2);
    for (std::uint64_t i = 0; i < lookups; ++i)
        ++counts[drawIndex(0)];

    HistogramSummary summary;
    summary.totalLookups = lookups;
    summary.uniqueIndices = counts.size();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> byCount;
    byCount.reserve(counts.size());
    // det-safe: onceAccessed is a commutative sum; byCount is given a
    // total order by the sort below before any rank is extracted.
    for (const auto &[idx, n] : counts) {
        if (n == 1)
            ++summary.onceAccessed;
        byCount.emplace_back(n, idx);
    }
    // Total order: count desc, then index asc. Without the index
    // tie-breaker, equally-hot rows at the top-N boundary would be
    // ranked by hash-bucket order — a platform artifact, not a result.
    std::sort(byCount.begin(), byCount.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    std::uint64_t topLookups = 0;
    for (std::uint32_t i = 0; i < topN && i < byCount.size(); ++i) {
        summary.top.push_back(byCount[i]);
        topLookups += byCount[i].first;
    }
    summary.topShare = lookups == 0
                           ? 0.0
                           : static_cast<double>(topLookups) /
                                 static_cast<double>(lookups);
    return summary;
}

std::vector<TraceGenerator::TableHistogram>
TraceGenerator::tableHistograms(std::uint64_t lookupsPerTable) const
{
    // A private stream keeps this a pure profiling pass: the main
    // sample stream (rng_) is untouched, so adding a planning step in
    // front of a run cannot change the trace the run sees.
    Rng rng(hashCombine(trace_.seed, 0x7ab1e815ULL));

    // Distinct indices are counted in a flat linear-probing set at
    // load <= 1/2, reused across tables. Row indices are below
    // rowsPerTable, so ~0 marks an empty slot.
    constexpr std::uint64_t kEmpty = ~0ULL;
    std::vector<TableHistogram> hist(config_.numTables);
    std::vector<std::uint64_t> seen(
        std::bit_ceil(std::max<std::uint64_t>(16, 2 * lookupsPerTable)));
    const std::uint64_t mask = seen.size() - 1;
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        std::fill(seen.begin(), seen.end(), kEmpty);
        TableHistogram &h = hist[t];
        h.totalLookups = lookupsPerTable;
        for (std::uint64_t i = 0; i < lookupsPerTable; ++i) {
            bool hotDraw = false;
            const std::uint64_t idx = drawIndexWith(rng, t, &hotDraw);
            std::uint64_t slot = splitmix64(idx) & mask;
            while (seen[slot] != kEmpty && seen[slot] != idx)
                slot = (slot + 1) & mask;
            const bool first = seen[slot] == kEmpty;
            seen[slot] = idx;
            h.uniqueIndices += first;
            // A hot draw lands in the hot set by construction; only a
            // uniform draw needs the membership search.
            if (hotDraw || isHotRow(t, idx)) {
                ++h.hotLookups;
                h.uniqueHotIndices += first;
            }
        }
    }
    return hist;
}

std::vector<engine::RowHeat>
TraceGenerator::hotRowHeats() const
{
    std::vector<engine::RowHeat> heats;
    heats.reserve(static_cast<std::size_t>(config_.numTables) *
                  trace_.hotRowsPerTable);
    const double n = static_cast<double>(trace_.hotRowsPerTable);
    const double invSkew = 1.0 / trace_.hotSkew;
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        for (std::uint64_t r = 0; r < trace_.hotRowsPerTable; ++r) {
            const double weight =
                trace_.tableHotFraction(t) *
                (std::pow((static_cast<double>(r) + 1.0) / n, invSkew) -
                 std::pow(static_cast<double>(r) / n, invSkew));
            heats.push_back(engine::RowHeat{TableId{t},
                                            EvIndex{hotRow(t, r)},
                                            weight});
        }
    }
    return heats;
}

std::vector<double>
planTableShares(const std::vector<TraceGenerator::TableHistogram> &hist)
{
    RMSSD_ASSERT(!hist.empty(), "empty table histogram");
    std::vector<double> shares;
    shares.reserve(hist.size());
    for (const TraceGenerator::TableHistogram &h : hist)
        shares.push_back(static_cast<double>(
            std::max<std::uint64_t>(1, h.uniqueHotIndices)));
    return shares;
}

std::vector<double>
planTierShares(const std::vector<TraceGenerator::TableHistogram> &hist)
{
    RMSSD_ASSERT(!hist.empty(), "empty table histogram");
    std::vector<double> shares;
    shares.reserve(hist.size());
    for (const TraceGenerator::TableHistogram &h : hist)
        shares.push_back(static_cast<double>(
            std::max<std::uint64_t>(1, h.hotLookups)));
    return shares;
}

} // namespace rmssd::workload
