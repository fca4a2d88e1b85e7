/**
 * @file
 * Device-side embedding-vector cache: a set-associative, LRU-evicting
 * SRAM/BRAM cache of whole embedding vectors keyed by (table, index),
 * sitting between the EV Translator and the EV-FMC read path.
 *
 * The paper's RM-SSD is locality-insensitive (Fig. 14) because every
 * lookup pays the full CEV flash read; production traces are heavily
 * Zipfian, so a small on-device cache turns that flat curve into one
 * that rises with locality. A hit costs a short SRAM access instead of
 * the CEV vector read and, crucially, does not occupy a flash die or
 * channel bus; a miss fills the line, evicting the set's LRU entry.
 *
 * Cache v2 adds two frequency-aware knobs on top of the PR-1 LRU:
 *
 *  - **TinyLFU admission** (EvCacheAdmission::TinyLfu): a 4-bit
 *    count-min sketch with periodic halving (FrequencySketch) tracks
 *    approximate access frequency per key; a fill that would evict a
 *    valid line is admitted only when the incoming key's estimated
 *    frequency *exceeds* the victim's, so the one-hit-wonder cold
 *    tail can no longer flush hot lines.
 *  - **Static per-table partitioning** (EvCacheConfig::tableShares):
 *    the set array is split into contiguous per-table regions sized
 *    offline from the trace's per-table frequency histogram
 *    (workload::TraceGenerator::tableHistograms →
 *    planTableShares); traffic on one table then cannot evict
 *    another table's partition.
 *
 * Both knobs default off, so the default configuration reproduces the
 * PR-1 shared LRU cache bit-for-bit. The cache is off entirely by
 * default so the paper-faithful baselines are unchanged; RM-SSD+cache
 * enables it (plus intra-batch coalescing in the EmbeddingEngine,
 * which sits in front of the cache and folds duplicate indices of one
 * micro-batch into a single probe).
 */

#ifndef RMSSD_ENGINE_EV_CACHE_H
#define RMSSD_ENGINE_EV_CACHE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/freq_sketch.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::engine {

/** Fill-admission policy on a conflict miss. */
enum class EvCacheAdmission : std::uint8_t
{
    /** PR-1 behaviour: every fill displaces the set's LRU line. */
    AlwaysAdmit,
    /**
     * TinyLFU: displace the LRU victim only when the incoming key's
     * sketch-estimated frequency beats the victim's.
     */
    TinyLfu,
};

/** EV cache knobs (RmSsdOptions::evCache). */
struct EvCacheConfig
{
    /** Master switch; off reproduces the paper-faithful device. */
    bool enabled = false;
    /** Total data capacity (device SRAM/BRAM budget). */
    Bytes capacityBytes{4ull << 20};
    /** Set associativity. */
    std::uint32_t ways = 8;
    /** Latency of a hit (SRAM read + mux back into the EV Sum path). */
    Cycle hitCycles{4};
    /**
     * Hit ratio assumed by the kernel search when sizing the MLP
     * kernels against the cache-accelerated T_emb (see
     * EmbeddingEngine::effectiveCyclesPerRead). The measured ratio is
     * workload-dependent; workload::expectedHitRatio() estimates it
     * from a TraceConfig. RmSsd::replanIfDrifted re-runs the search
     * when the measured ratio drifts from this estimate.
     */
    double expectedHitRatio = 0.5;
    /** Fill-admission policy (AlwaysAdmit reproduces PR-1 exactly). */
    EvCacheAdmission admission = EvCacheAdmission::AlwaysAdmit;
    /**
     * TinyLFU sketch sizing, in units of cache lines: the sketch gets
     * lines*sketchCountersPerLine 4-bit counters and halves after
     * lines*sketchSamplePerLine recorded accesses. 8 counters/line ≈
     * 4x over-provisioning against the working set at kDepth=4, and a
     * sample window of 16x the line count keeps roughly one cache
     * generation of history.
     */
    std::uint32_t sketchCountersPerLine = 8;
    std::uint32_t sketchSamplePerLine = 16;
    /**
     * Optional static per-table partitioning: entry t is table t's
     * relative share of the set array (any positive scale; normalised
     * internally — per-table lookup counts from a trace histogram
     * work directly, see workload::planTableShares). Empty means one
     * shared array (PR-1 behaviour). When set, size() must equal the
     * model's table count and every share must be > 0.
     */
    std::vector<double> tableShares;
    /**
     * W-TinyLFU admission window: this fraction of the line budget is
     * carved out as a small fully-associative LRU window in front of
     * the main set array. New keys land in the window first and only
     * graduate into the main cache when the window evicts them AND
     * their sketch frequency beats the main victim's — recency gets a
     * probation period without letting the cold tail touch the main
     * arrays. 0 (the default) disables the window and reproduces the
     * plain cache bit-for-bit. Meaningful values are small (~0.01).
     */
    double windowFraction = 0.0;
};

/** Contiguous run of sets owned by one table (partitioned mode). */
struct EvCachePartition
{
    std::uint32_t firstSet = 0;
    std::uint32_t numSets = 0;
};

/**
 * Split @p numSets sets across tables proportionally to @p shares by
 * largest-remainder apportionment; every table gets at least one set.
 * Requires numSets >= shares.size() and all shares > 0.
 */
std::vector<EvCachePartition>
planTablePartitions(std::uint32_t numSets, std::span<const double> shares);

/** Set-associative LRU cache of embedding vectors. */
class EvCache
{
  public:
    /**
     * @param lineBytes size of one cached vector (EVsize); capacity
     *        and associativity come from @p config
     */
    EvCache(const EvCacheConfig &config, Bytes lineBytes);

    /**
     * Probe for (table, index). On a hit the line becomes
     * most-recently-used and the bytes are copied into @p out when it
     * is non-null. A non-null @p out demands data: a line installed by
     * a timing-only run carries none and reports a miss (the caller
     * re-reads flash and the fill refreshes the line with real bytes).
     * Under TinyLFU admission the probe also records the key in the
     * frequency sketch (the sketch read runs in parallel with the tag
     * lookup, so it adds no cycles).
     * @return true on hit
     */
    bool lookup(TableId tableId, EvIndex index,
                std::vector<std::uint8_t> *out);

    /**
     * Install (table, index) after a miss was served from flash.
     * @p data may be empty for timing-only runs. Evicts the set's LRU
     * line when the set is full — unless TinyLFU admission rejects
     * the fill (victim estimated at least as popular as the
     * candidate), in which case the set is left untouched.
     */
    void fill(TableId tableId, EvIndex index,
              std::span<const std::uint8_t> data);

    /** Probe without touching LRU state (tests/debug). */
    bool contains(TableId tableId, EvIndex index) const;

    /** Drop all lines; counters and the sketch are kept. */
    void invalidate();

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t ways() const { return ways_; }
    Bytes lineBytes() const { return lineBytes_; }
    Cycle hitCycles() const { return hitCycles_; }
    /** Per-table set regions; empty when the cache is shared. */
    const std::vector<EvCachePartition> &partitions() const
    {
        return partitions_;
    }
    /** Frequency sketch; null unless admission is TinyLfu. */
    const FrequencySketch *sketch() const { return sketch_.get(); }

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }
    const Counter &fills() const { return fills_; }
    const Counter &evictions() const { return evictions_; }
    /** Fills rejected by the TinyLFU admission filter. */
    const Counter &admissionRejects() const { return admissionRejects_; }
    /** Hits served by the W-TinyLFU admission window. */
    const Counter &admissionWindowHits() const
    {
        return admissionWindowHits_;
    }

    /** Lines in the admission window (0 = no window). */
    std::uint32_t windowLines() const { return windowLines_; }

    /** Measured hit ratio so far (0 when never probed). */
    double hitRatio() const;

  private:
    static std::uint64_t makeKey(TableId tableId, EvIndex index);
    /** First line index of the main set holding @p key. */
    std::size_t setBase(TableId tableId, std::uint64_t key) const;
    /** Valid line holding @p key in [begin, end), or end. */
    std::size_t findLine(std::size_t begin, std::size_t end,
                         std::uint64_t key) const;
    /** First least-recently-used line of [begin, end); invalid wins. */
    std::size_t lruLine(std::size_t begin, std::size_t end) const;
    /** Make @p line the MRU holder of @p key with payload @p data. */
    void install(std::size_t line, std::uint64_t key,
                 std::span<const std::uint8_t> data);
    /** Payload of @p line (empty when installed timing-only). */
    std::span<const std::uint8_t> lineData(std::size_t line) const;
    /** Hit bookkeeping; copies the payload into @p out if non-null. */
    void hit(std::size_t line, std::vector<std::uint8_t> *out);

    /** Fill the main set array (shared by fill() and window spill). */
    void fillMain(TableId tableId, std::uint64_t key,
                  std::span<const std::uint8_t> data);

    Bytes lineBytes_;
    std::uint32_t ways_;
    Cycle hitCycles_;
    std::uint64_t tick_ = 0; //!< monotonic LRU clock
    std::uint32_t numSets_ = 0;
    /**
     * Line storage as parallel arrays indexed by line: main set s owns
     * lines [s*ways, (s+1)*ways); the W-TinyLFU window (windowLines_
     * lines, 0 = off) follows at windowBegin_ = numSets*ways.
     */
    std::size_t windowBegin_ = 0;
    std::uint32_t windowLines_ = 0;
    std::vector<std::uint64_t> keys_;
    /** LRU stamp; 0 marks an invalid line (tick_ is pre-incremented). */
    std::vector<std::uint64_t> lastUse_;
    /** Payload bytes held (0 = timing-only line). */
    std::vector<std::uint32_t> dataLen_;
    /**
     * lineBytes per line, allocated by the first fill that carries
     * data, so timing-only runs never pay for it.
     */
    std::vector<std::uint8_t> arena_;
    std::vector<EvCachePartition> partitions_; //!< empty = shared
    std::unique_ptr<FrequencySketch> sketch_;  //!< TinyLfu only

    Counter hits_;
    Counter misses_;
    Counter fills_;
    Counter evictions_;
    Counter admissionRejects_;
    Counter admissionWindowHits_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_EV_CACHE_H
