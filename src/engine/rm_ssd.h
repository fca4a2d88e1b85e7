/**
 * @file
 * RM-SSD: the complete in-storage recommendation inference device
 * (Fig. 5) — flash array + FTL + NVMe/MMIO/DMA front-ends + Embedding
 * Lookup Engine + MLP Acceleration Engine + system-level micro-batch
 * pipelining (Section IV-D).
 *
 * The device is simultaneously timed (micro-batches stream through the
 * engines with real flash contention) and functional (with loaded
 * tables, outputs equal the reference DLRM inference).
 */

#ifndef RMSSD_ENGINE_RM_SSD_H
#define RMSSD_ENGINE_RM_SSD_H

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "engine/embedding_engine.h"
#include "engine/ev_translator.h"
#include "engine/inference_device.h"
#include "engine/kernel_search.h"
#include "engine/mlp_engine.h"
#include "engine/placement.h"
#include "flash/flash_array.h"
#include "ftl/freq_mapping.h"
#include "ftl/ftl.h"
#include "host/embedding_tier.h"
#include "model/dlrm.h"
#include "nvme/dma.h"
#include "nvme/mmio.h"
#include "nvme/nvme.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::engine {

/** How the MLP engine is configured. */
enum class EngineVariant : std::uint8_t
{
    /** Full RM-SSD: decomposition + composition + kernel search. */
    Searched,
    /** Default kernels (16x16), decomposition + composition kept. */
    DefaultKernels,
    /** MLP-naive: 16x16 kernels, no decomposition, no composition. */
    Naive,
    /** Embedding Lookup Engine only; MLP stays on the host. */
    EmbeddingOnly,
};

/**
 * Frequency-aware flash data mapping (off by default: the linear
 * layout keeps every existing configuration bit-identical). When
 * enabled the device swaps ftl::LinearMapping for
 * ftl::FrequencyMapping: hot pages stripe round-robin across
 * channels x dies, cold pages stay packed, and a background
 * migration pass re-stripes when the online heat estimate drifts.
 */
struct PlacementOptions
{
    bool enabled = false;
    /**
     * Hot-tier size in flash pages. Physical pages 0..hotPageCount-1
     * stripe perfectly over (channel, die) pairs, so the tier should
     * cover the workload's hot set but stay small enough to keep the
     * mapping tables sparse.
     */
    std::uint64_t hotPageCount = 4096;
    /**
     * Fraction of the observed hot set that must live outside the
     * hot tier before a migration pass fires. 0 migrates on any
     * drift.
     */
    double migrationDriftThreshold = 0.0;
    /** EV reads a drift check needs before it may trust the sketch. */
    std::uint64_t minObservedReads = 2048;
    /**
     * Relocation budget per migration pass. Each swap costs two page
     * reads plus two page programs of timed background traffic, so
     * the bound caps interference with foreground reads.
     */
    std::uint32_t maxSwapsPerPass = 32;
    /** Online heat estimator shape (see FrequencyMapping::Options). */
    std::uint64_t sketchCounters = 1ull << 16;
    std::uint64_t sketchSampleSize = 1ull << 18;
    std::uint32_t sketchCandidateEstimate = 2;
    /**
     * Migration pacing: spread a drifted pass's swaps evenly across
     * this many subsequent requests instead of bursting the whole
     * maxSwapsPerPass batch at once — a burst piles four flash ops
     * per swap onto the dies right when foreground reads need them,
     * which is exactly the p99 spike pacing removes. 0 keeps the
     * legacy burst behavior (bit-identical).
     */
    std::uint32_t migrationPaceRequests = 0;
};

/** Device construction options. */
struct RmSsdOptions
{
    flash::Geometry geometry = flash::tableIIGeometry();
    flash::NandTiming timing = flash::tableIITiming();
    SearchConfig search = {};
    EngineVariant variant = EngineVariant::Searched;
    /**
     * System-level pipeline (Section IV-D): the host pre-sends the
     * next request's inputs during the current request's compute, so
     * back-to-back infer() calls overlap one-deep. Disable for
     * synchronous hosts that block on results (e.g. EMB-VectorSum's
     * host-side MLP).
     */
    bool presend = true;
    /** Load real table bytes into flash (small tables only). */
    bool functional = false;
    /** Split table allocations to exercise multi-extent translation. */
    Sectors maxExtentSectors;
    /**
     * Device-side EV cache in front of the EV-FMC read path. Off by
     * default: the paper-faithful RM-SSD has no reuse path and is
     * locality-insensitive (Fig. 14). When enabled, the kernel search
     * sizes the MLP against the cache-accelerated T_emb using
     * evCache.expectedHitRatio.
     */
    EvCacheConfig evCache = {};
    /** Fold duplicate (table, index) pairs within a micro-batch. */
    bool coalesceIndices = false;
    /**
     * Re-plan hysteresis: minimum number of infer() calls between two
     * adaptive re-plans, so an adversarial trace that flips locality
     * every drift window cannot thrash the kernel search. Drift seen
     * during the cooldown is skipped (counted in replanSkips()). 0
     * disables the cooldown (every drifted window may re-plan).
     */
    std::uint32_t replanCooldownRequests = 0;
    /** Frequency-aware flash data mapping (default: linear layout). */
    PlacementOptions placement = {};
};

/** The RM-SSD device. */
class RmSsd : public InferenceDevice
{
  public:
    RmSsd(const model::ModelConfig &config, const RmSsdOptions &options);

    /** Allocate, register and (optionally) load all embedding tables. */
    void loadTables();

    /**
     * Like loadTables(), but the table bytes are programmed through
     * the timed flash write path (RM_create_table's block-I/O flow).
     * @return the cycle the last program completes — the table
     *         provisioning time
     */
    Cycle loadTablesTimed();

    /**
     * Register one table at an externally chosen layout (the runtime
     * API's RM_open_table path). Data is written when the device is
     * functional. Inference unlocks once all tables are registered.
     */
    void registerTable(TableId tableId,
                       const ftl::ExtentList &extents);

    /**
     * Issue one request asynchronously (cross-request pipelining).
     * The issue stage runs immediately: inputs DMA in and the
     * micro-batches are scheduled onto the engine occupancy tracks
     * (embedding issue port, bottom/top MLP units), overlapping with
     * up to maxInflight()-1 older requests still draining through the
     * MLP. The retire stage (result readback + host presend
     * bookkeeping) is deferred until the request leaves the queue.
     * When the queue is full the oldest request retires first
     * (backpressure).
     */
    RequestId submit(std::span<const model::Sample> samples) override;

    /** Retire the oldest outstanding request; false when idle. */
    bool retireNext() override;

    /**
     * Eager completion scan: retire every in-flight request whose
     * last micro-batch is through the engines by @p when, regardless
     * of queue position — a mid-queue finisher behind a straggler
     * retires too. As with retireNext, only the result-readout tail
     * may run slightly past @p when.
     */
    std::uint32_t harvestDoneBy(Cycle when) override;

    /** Earliest lastDone among in-flight requests (kNeverCycle if none). */
    Cycle nextDoneCycle() const override;

    /** In flight: the cycle its last micro-batch is through the engines. */
    Cycle doneCycle(RequestId id) const override;

    /**
     * Take request @p id's completion: retire it first if it is still
     * in flight (regardless of queue position; other in-flight
     * requests stay in flight), then pop its completion. std::nullopt
     * for an unknown or already consumed id. The cluster gather pairs
     * shard completions by sub-request ticket this way.
     */
    std::optional<AsyncCompletion> take(RequestId id);

    /** Requests issued but not yet retired. */
    std::uint32_t inflight() const override
    {
        return static_cast<std::uint32_t>(inflight_.size());
    }

    const MlpPlan &plan() const { return searchResult_.plan; }
    const SearchResult &searchResult() const { return searchResult_; }

    /**
     * Hit ratio the current plan was sized against (starts at
     * evCache.expectedHitRatio; updated by replanIfDrifted). 0 when
     * the cache is off.
     */
    double plannedHitRatio() const;

    /** Cumulative measured cache hit ratio; 0 when the cache is off. */
    double measuredHitRatio() const;

    /**
     * Adaptive re-planning (feedback loop): compare the hit ratio
     * measured since the previous call — a fresh window, so old
     * history cannot mask drift — against the ratio the current plan
     * assumed. When the drift exceeds @p threshold, re-run the kernel
     * search with the observed ratio so the MLP kernels re-balance
     * against the real T_emb' (Eq. 2 with the measured bEV).
     * Re-plans are rate-limited by
     * RmSsdOptions::replanCooldownRequests (hysteresis).
     * @return true when the device re-planned
     */
    bool replanIfDrifted(double threshold) override;

    /**
     * Offline placement planning: aggregate @p rows to page heat and
     * re-stripe the hot tier now, through functional (untimed) page
     * copies — the operator's provisioning-time layout pass. Only
     * meaningful with placement.enabled; call after loadTables().
     */
    void planPlacement(std::span<const RowHeat> rows);

    /**
     * Background migration (see PlacementOptions): when enough reads
     * were observed and the online hot set drifted off the hot tier,
     * relocate up to maxSwapsPerPass pages through the timed flash
     * path and reset the observation window.
     * @return pages migrated by this pass
     */
    std::uint64_t migrateIfDrifted() override;

    std::uint64_t migratedPageCount() const override
    {
        return migratedPages_.value();
    }

    /** Migration passes that actually moved pages. */
    const Counter &migrationPasses() const { return migrationPasses_; }
    /** Pages relocated (hot page + displaced partner count as 2). */
    const Counter &migratedPages() const { return migratedPages_; }
    /** Planned swaps queued but not yet executed (pacing only). */
    std::size_t pendingMigrationSwaps() const
    {
        return pendingSwaps_.size();
    }

    // ---- Host-DRAM embedding tier (off by default) ----------------

    /**
     * Attach a host tier: submit() intercepts each request on the
     * host, serves fully tier-resident (sample, table) slices from
     * DRAM at TierTiming cost and forwards only the residual indices;
     * served pooled partials merge back into the device results
     * byte-exactly. Attaching also switches input-DMA accounting to
     * the actual residual index count. Detach with nullptr.
     */
    void attachHostTier(std::shared_ptr<host::EmbeddingTier> tier)
        override;
    const host::EmbeddingTier *hostTier() const override
    {
        return hostTier_.get();
    }
    std::uint64_t tierSliceHits() const override
    {
        return hostTier_ ? hostTier_->sliceHits().value() : 0;
    }
    std::uint64_t tierSliceMisses() const override
    {
        return hostTier_ ? hostTier_->sliceMisses().value() : 0;
    }

    /**
     * Charge input DMA by the actual per-sample index counts instead
     * of the config formula (batch * lookupsPerSample). The cluster
     * layer sets this on its shards when a tier runs above the router,
     * so residual requests pay for the indices they carry — off by
     * default to keep legacy accounting bit-identical.
     */
    void setChargeActualIndexBytes(bool on) override
    {
        chargeActualIndexBytes_ = on;
    }

    /** Frequency mapping; nullptr when placement is off. */
    ftl::FrequencyMapping *frequencyMapping() { return freqMapping_; }
    const ftl::FrequencyMapping *frequencyMapping() const
    {
        return freqMapping_;
    }

    /** Number of adaptive re-plans performed. */
    const Counter &replans() const { return replans_; }
    /** Drifted windows skipped because the cooldown had not elapsed. */
    const Counter &replanSkips() const { return replanSkips_; }
    const model::DlrmModel &model() const override { return model_; }
    flash::FlashArray &flash() { return *flash_; }
    const flash::FlashArray &flash() const { return *flash_; }
    ftl::Ftl &ftl() { return *ftl_; }
    nvme::NvmeController &nvme() { return *nvme_; }
    EmbeddingEngine &embeddingEngine() { return *embeddingEngine_; }
    /** Device-side EV cache; nullptr when the option is off. */
    EvCache *evCache() { return evCache_.get(); }
    const EvCache *evCache() const { return evCache_.get(); }

    /** Host bytes read from the device per inference accounting. */
    const Counter &hostBytesRead() const override
    {
        return hostBytesRead_;
    }
    /** Host bytes written to the device (indices + dense inputs). */
    const Counter &hostBytesWritten() const override
    {
        return hostBytesWritten_;
    }
    const Counter &inferences() const { return inferences_; }

    /** Current device clock (advances across infer calls). */
    Cycle deviceNow() const override { return deviceNow_; }

    /** Completion cycle of the most recent request. */
    Cycle lastCompletion() const override { return lastCompletion_; }

    /** Samples per micro-batch of the planned pipeline. */
    std::uint32_t pipelineMicroBatch() const override
    {
        return searchResult_.plan.microBatch;
    }

    bool hasEvCache() const override { return evCache_ != nullptr; }
    std::uint64_t cacheHits() const override
    {
        return evCache_ ? evCache_->hits().value() : 0;
    }
    std::uint64_t cacheMisses() const override
    {
        return evCache_ ? evCache_->misses().value() : 0;
    }
    std::uint64_t replanCount() const override
    {
        return replans_.value();
    }

    /**
     * Account host-side work between requests (e.g. the host MLP of
     * the EMB-VectorSum configuration): the next request cannot be
     * issued before the host finishes.
     */
    void advanceHostClock(Nanos hostNanos) override;

    /**
     * Pull the device clock forward to absolute cycle @p cycle (never
     * backward). The cluster layer uses this to synchronize shard
     * clocks to a request's scatter time.
     */
    void advanceClockTo(Cycle cycle);

    /** Idle the device: clears all timing state (not the counters). */
    void resetTiming() override;

    /**
     * Register every device counter under @p prefix (gem5-style
     * stats dump support).
     */
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix = "rmssd")
        const override;

  private:
    /** Timing of one micro-batch's MLP stages given its read time. */
    struct MicroBatchDone
    {
        Cycle done;
        Cycle issueEnd;
    };
    MicroBatchDone runMicroBatch(
        Cycle inputsReady, std::span<const model::Sample> samples,
        std::vector<float> *outputs,
        std::span<const std::vector<host::EmbeddingTier::ServedSlice>>
            served = {});

    /** One issued-but-not-retired request (async pipeline). */
    struct InflightRequest
    {
        RequestId id = 0;
        Cycle t0;          //!< host issue time (request arrival)
        Cycle inputsReady; //!< indices + dense inputs DMA'd in
        Cycle lastDone;    //!< last micro-batch through the engines
        Bytes resultBytes; //!< result payload awaiting readback
        std::size_t numSamples = 0;
        std::vector<float> outputs;
    };

    /**
     * Retire stage for the in-flight request at queue position
     * @p pos: result readback + presend clock bookkeeping.
     */
    void retireAt(std::size_t pos);

    /**
     * Issue stage shared by the tiered and legacy paths. @p icpt is
     * the host-tier intercept whose residual IS @p samples (nullptr
     * without a tier); its served partials merge into the micro-batch
     * results and its byte counts shape the DMA accounting.
     */
    RequestId
    submitWith(std::span<const model::Sample> samples,
               const host::EmbeddingTier::Intercept *icpt);

    /**
     * Execute planned swaps now: functional page copies plus (when
     * @p timed) background flash traffic from the current device
     * time, then the mapping commits. @return pages moved (2/swap)
     */
    std::uint64_t
    executeSwaps(std::span<const ftl::FrequencyMapping::Swap> swaps,
                 bool timed);

    /** Run one pacing chunk of queued migration swaps (if any). */
    void runPendingMigration();

    /** (Re)build searchResult_ for the variant at the given bEV. */
    void buildPlan(double readCyclesPerVector);

    /** Mapping matching options.placement (linear or frequency). */
    static std::unique_ptr<ftl::Mapping>
    makeMapping(const RmSsdOptions &options);

    /**
     * Execute a hot-set plan: data copies (functional, plus timed
     * flash traffic when @p timed) followed by mapping commits, up to
     * @p maxSwaps relocations. @return pages moved (2 per swap)
     */
    std::uint64_t applyHotSet(std::span<const PageId> hot, bool timed,
                              std::uint64_t maxSwaps);

    model::ModelConfig config_;
    RmSsdOptions options_;
    model::DlrmModel model_;

    std::unique_ptr<flash::FlashArray> flash_;
    std::unique_ptr<ftl::Ftl> ftl_;
    std::unique_ptr<nvme::NvmeController> nvme_;
    nvme::MmioManager mmio_;
    nvme::DmaEngine dma_;
    std::unique_ptr<EvTranslator> translator_;
    std::unique_ptr<EvCache> evCache_;
    std::unique_ptr<EmbeddingEngine> embeddingEngine_;
    /** Borrowed from ftl_; nullptr when placement is off. */
    ftl::FrequencyMapping *freqMapping_ = nullptr;
    /** Host-DRAM embedding tier; nullptr without one. */
    std::shared_ptr<host::EmbeddingTier> hostTier_;
    bool chargeActualIndexBytes_ = false;
    /** Migration swaps awaiting paced execution (pacing only). */
    std::deque<ftl::FrequencyMapping::Swap> pendingSwaps_;
    /** Swaps executed per request while the queue drains. */
    std::size_t paceChunk_ = 0;

    SearchResult searchResult_;
    bool tablesLoaded_ = false;
    double plannedHitRatio_ = 0.0;
    /** Cache-counter snapshots delimiting the current drift window. */
    std::uint64_t windowHitsBase_ = 0;
    std::uint64_t windowMissesBase_ = 0;
    /** infer() calls served so far / at the last re-plan (cooldown). */
    std::uint64_t inferCalls_ = 0;
    std::uint64_t inferCallsAtLastReplan_ = 0;

    Cycle deviceNow_;
    Cycle lastCompletion_;
    Cycle secondLastCompletion_;
    Cycle bottomUnitFree_;
    Cycle topUnitFree_;
    /**
     * Embedding-engine issue port occupancy across requests. Only
     * enforced at maxInflight() > 1: the depth-1 pipeline already
     * serializes requests through the host, and the blocking path
     * never applied this bound (bit-for-bit compatibility).
     */
    Cycle embIssueFree_;

    std::deque<InflightRequest> inflight_;

    Counter hostBytesRead_;
    Counter hostBytesWritten_;
    Counter inferences_;
    Counter replans_;
    Counter replanSkips_;
    Counter migrationPasses_;
    Counter migratedPages_;
    /** Per-engine occupancy (utilization = busy / wall cycles). */
    Counter embIssueBusy_;
    Counter mlpBottomBusy_;
    Counter mlpTopBusy_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_RM_SSD_H
