/**
 * @file
 * Synthetic trace generator: deterministic streams of inference
 * samples following a TraceConfig locality profile, plus the access
 * histogram used to reproduce Fig. 4.
 */

#ifndef RMSSD_WORKLOAD_TRACE_GEN_H
#define RMSSD_WORKLOAD_TRACE_GEN_H

#include <cstdint>
#include <vector>

#include "engine/placement.h"
#include "model/dlrm.h"
#include "sim/rng.h"
#include "workload/trace.h"

namespace rmssd::workload {

/** Deterministic sample stream for one model + locality profile. */
class TraceGenerator
{
  public:
    TraceGenerator(const model::ModelConfig &config,
                   const TraceConfig &trace);

    /** Next sample in the stream. */
    model::Sample next();

    /** Next @p n samples as a request batch. */
    std::vector<model::Sample> nextBatch(std::uint32_t n);

    /** Restart the stream from its seed. */
    void reset();

    /** The hot-set row for hot rank @p rank of table @p table. */
    std::uint64_t hotRow(std::uint32_t table, std::uint64_t rank) const;

    /** Whether a row belongs to the hot set (RecSSD cache oracle). */
    bool isHotRow(std::uint32_t table, std::uint64_t row) const;

    const TraceConfig &traceConfig() const { return trace_; }
    const model::ModelConfig &modelConfig() const { return config_; }

    /** Fig. 4 style summary of a generated index stream. */
    struct HistogramSummary
    {
        std::uint64_t totalLookups = 0;
        std::uint64_t uniqueIndices = 0;
        std::uint64_t onceAccessed = 0; //!< indices touched exactly once
        /** (occurrence count, index) of the top-N hottest indices. */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> top;
        double topShare = 0.0; //!< lookup share of the top-N indices
    };

    /** Generate @p lookups lookups into table 0 and summarize. */
    HistogramSummary histogram(std::uint64_t lookups,
                               std::uint32_t topN = 10);

    /**
     * Per-table traffic profile for offline cache partition planning
     * (engine::planTablePartitions consumes the shares derived from
     * it, see planTableShares).
     */
    struct TableHistogram
    {
        std::uint64_t totalLookups = 0;
        std::uint64_t uniqueIndices = 0;
        std::uint64_t hotLookups = 0; //!< lookups into the hot set
        /** Distinct hot-set rows seen — the cacheable working set. */
        std::uint64_t uniqueHotIndices = 0;
    };

    /**
     * Profile @p lookupsPerTable lookups into every table. Uses a
     * private RNG stream, so the main sample stream (next/nextBatch)
     * is not perturbed — traces generated before and after a call are
     * identical.
     */
    std::vector<TableHistogram>
    tableHistograms(std::uint64_t lookupsPerTable) const;

    /**
     * Analytic per-row access weights of the hot set, for offline
     * placement planning (engine::planHotPages). The rank draw is
     * rank = floor(u^hotSkew * N), so hot rank r carries probability
     * hotAccessFraction * (((r+1)/N)^(1/hotSkew) - (r/N)^(1/hotSkew))
     * — exact, no sampling noise, and independent of the RNG stream.
     */
    std::vector<engine::RowHeat> hotRowHeats() const;

  private:
    std::uint64_t drawIndex(std::uint32_t table);
    /** One index draw; @p hotDraw (optional) reports a hot-set draw. */
    std::uint64_t drawIndexWith(Rng &rng, std::uint32_t table,
                                bool *hotDraw = nullptr) const;

    model::ModelConfig config_;
    TraceConfig trace_;
    Rng rng_;
    /** Per-table hash seed of the hot-row scatter (see hotRow). */
    std::vector<std::uint64_t> tableSeeds_;
    /**
     * Every table's hot rows, each table's run sorted ascending; built
     * by the first isHotRow call, which binary-searches it.
     */
    mutable std::vector<std::uint64_t> hotRowsSorted_;
};

/**
 * Turn a per-table histogram into relative cache shares for
 * engine::EvCacheConfig::tableShares: each table's share is its hot
 * working-set size (unique hot indices) — the rows worth caching —
 * with a floor of one so a cold table still gets a minimal partition.
 */
std::vector<double>
planTableShares(const std::vector<TraceGenerator::TableHistogram> &hist);

/**
 * Turn a per-table histogram into relative host-tier budget shares
 * for engine::planHostTier: each table's share is its hot *traffic*
 * (hot lookups), not its working-set size — the tier pays off per
 * lookup it absorbs, so budget should follow where the lookups go.
 * Floor of one so a cold table can still be whole-table pinned when
 * the budget allows.
 */
std::vector<double>
planTierShares(const std::vector<TraceGenerator::TableHistogram> &hist);

} // namespace rmssd::workload

#endif // RMSSD_WORKLOAD_TRACE_GEN_H
