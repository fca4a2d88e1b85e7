/**
 * @file
 * Embedding Lookup Engine (Section IV-B): the two-stage vector-grained
 * read pipeline. Stage one (device): EV Translator resolves indices
 * and EV Sum pools returned vectors; stage two (flash channel):
 * EV-FMCs fetch exactly EVsize bytes per lookup, striped across all
 * channels and dies.
 *
 * Two optional reuse mechanisms sit between the stages (both off by
 * default, keeping the paper-faithful locality-insensitive device):
 *  - intra-batch coalescing: duplicate (table, index) pairs of one
 *    micro-batch are folded so each unique vector is read once and
 *    fanned out to the EV Sum of every sample referencing it;
 *  - a device-side EV cache (EvCache): unique lookups probe a small
 *    set-associative SRAM cache before the EV-FMC, paying a short hit
 *    latency instead of the full CEV flash read.
 */

#ifndef RMSSD_ENGINE_EMBEDDING_ENGINE_H
#define RMSSD_ENGINE_EMBEDDING_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/ev_cache.h"
#include "engine/ev_translator.h"
#include "ftl/ftl.h"
#include "model/dlrm.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::engine {

/** Outcome of one micro-batch of embedding lookups. */
struct EmbeddingResult
{
    Cycle startCycle;
    Cycle doneCycle;
    /** Cycle the translator finished issuing this batch's reads. */
    Cycle issueEndCycle;
    /** Per-sample pooled vectors (numTables*dim); empty if timing-only. */
    std::vector<model::Vector> pooled;

    Cycle elapsed() const { return doneCycle - startCycle; }
};

/** The in-storage embedding lookup engine. */
class EmbeddingEngine
{
  public:
    /**
     * @param cache optional device-side EV cache probed by unique
     *        lookups (nullptr = no cache, the paper's device)
     * @param coalesce fold duplicate (table, index) pairs of a
     *        micro-batch into one flash/cache access
     */
    EmbeddingEngine(EvTranslator &translator, ftl::Ftl &ftl,
                    EvCache *cache = nullptr, bool coalesce = false);

    /**
     * Look up and pool all indices of @p samples.
     * @param start cycle the batch's indices are available on-device
     * @param functional when true, vectors are actually read and
     *        pooled; when false only timing is computed
     */
    EmbeddingResult run(Cycle start,
                        std::span<const model::Sample> samples,
                        bool functional);

    /**
     * Analytic steady-state device-wide cycles per vector read: the
     * bEV of Eq. 1a, used by the kernel search to estimate Temb.
     */
    static double steadyStateCyclesPerRead(
        const flash::Geometry &geometry,
        const flash::NandTiming &timing, Bytes evBytes);

    /**
     * Cache-aware variant: with a fraction @p hitRatio of lookups
     * served by the EV cache, only the misses occupy flash, so the
     * sustained device-wide cycles per read shrink to
     * (1 - hitRatio) * bEV, floored at the translator's one-index-per-
     * cycle issue rate. Feeds the kernel search so the MLP kernels are
     * sized against the cache-accelerated T_emb.
     */
    static double effectiveCyclesPerRead(
        const flash::Geometry &geometry,
        const flash::NandTiming &timing, Bytes evBytes,
        double hitRatio);

    const Counter &lookups() const { return lookups_; }
    const Counter &lookupBytes() const { return lookupBytes_; }
    /** Lookups that went all the way to flash (misses). */
    const Counter &flashReads() const { return flashReads_; }
    /** Lookups folded by intra-batch coalescing. */
    const Counter &coalescedLookups() const { return coalesced_; }

    EvTranslator &translator() { return translator_; }
    /** The device-side EV cache; nullptr when disabled. */
    EvCache *cache() { return cache_; }
    const EvCache *cache() const { return cache_; }
    bool coalesces() const { return coalesce_; }

  private:
    /** One unique (table, index) already served this micro-batch. */
    struct CoalesceEntry
    {
        std::uint64_t key = 0;
        Cycle done;
        std::size_t dataOffset = 0; //!< into coalesceBytes_
        std::uint32_t dataLen = 0;  //!< 0 when timing-only
        std::uint32_t slot = 0;     //!< its position in coalesceSlots_
    };

    /**
     * Empty the coalescing table left by the previous batch and size
     * it for @p indices lookups at load <= 1/2.
     */
    void resetCoalescing(std::size_t indices);
    /** Slot position holding @p key, or the empty one it belongs in. */
    std::uint32_t coalesceSlot(std::uint64_t key) const;

    EvTranslator &translator_;
    ftl::Ftl &ftl_;
    EvCache *cache_;
    bool coalesce_;

    /**
     * Coalescing scratch reused across run() calls: a linear-probing
     * table of entry numbers (0 = empty, else entry + 1; power-of-two
     * size, grown on demand), the batch's unique entries in first-seen
     * order (they double as the touched-slot list: only their slots
     * are cleared before the next batch) and one arena holding every
     * functional vector of the batch.
     */
    std::vector<std::uint32_t> coalesceSlots_;
    std::vector<CoalesceEntry> coalesceEntries_;
    std::vector<std::uint8_t> coalesceBytes_;
    /** Vector read buffer and per-table EV Sum accumulator. */
    std::vector<std::uint8_t> buf_;
    std::vector<float> acc_;

    Counter lookups_;
    Counter lookupBytes_;
    Counter flashReads_;
    Counter coalesced_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_EMBEDDING_ENGINE_H
