#include "engine/rm_ssd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ftl/extent.h"
#include "sim/log.h"

namespace rmssd::engine {

RmSsd::RmSsd(const model::ModelConfig &config, const RmSsdOptions &options)
    : config_(config), options_(options), model_(config),
      flash_(std::make_unique<flash::FlashArray>(options.geometry,
                                                 options.timing)),
      ftl_(std::make_unique<ftl::Ftl>(*flash_, makeMapping(options))),
      nvme_(std::make_unique<nvme::NvmeController>(*ftl_)),
      translator_(std::make_unique<EvTranslator>(
          options.geometry.sectorSizeBytes)),
      evCache_(options.evCache.enabled
                   ? std::make_unique<EvCache>(
                         options.evCache, Bytes{config.vectorBytes()})
                   : nullptr),
      embeddingEngine_(std::make_unique<EmbeddingEngine>(
          *translator_, *ftl_, evCache_.get(),
          options.coalesceIndices))
{
    if (config_.embeddingBytes() > options_.geometry.capacityBytes())
        fatal("embedding tables (%.1f GB) exceed device capacity",
              static_cast<double>(config_.embeddingBytes()) / 1e9);

    if (options_.placement.enabled)
        freqMapping_ =
            static_cast<ftl::FrequencyMapping *>(&ftl_->mapping());

    // The kernel search balances the MLP against T_emb; with the EV
    // cache on, the expected hit ratio shrinks the effective per-read
    // cost, so the search picks faster (larger) MLP kernels to match.
    plannedHitRatio_ =
        options_.evCache.enabled ? options_.evCache.expectedHitRatio
                                 : 0.0;
    const double rcpv =
        options_.evCache.enabled
            ? EmbeddingEngine::effectiveCyclesPerRead(
                  options_.geometry, options_.timing,
                  Bytes{config_.vectorBytes()},
                  options_.evCache.expectedHitRatio)
            : EmbeddingEngine::steadyStateCyclesPerRead(
                  options_.geometry, options_.timing,
                  Bytes{config_.vectorBytes()});
    buildPlan(rcpv);
}

std::unique_ptr<ftl::Mapping>
RmSsd::makeMapping(const RmSsdOptions &options)
{
    const std::uint64_t totalPages = options.geometry.totalPages();
    if (!options.placement.enabled)
        return std::make_unique<ftl::LinearMapping>(totalPages);

    ftl::FrequencyMapping::Options fm;
    fm.sketchCounters = options.placement.sketchCounters;
    fm.sketchSampleSize = options.placement.sketchSampleSize;
    fm.candidateEstimate = options.placement.sketchCandidateEstimate;
    return std::make_unique<ftl::FrequencyMapping>(totalPages, fm);
}

std::uint64_t
RmSsd::applyHotSet(std::span<const PageId> hot, bool timed,
                   std::uint64_t maxSwaps)
{
    RMSSD_ASSERT(freqMapping_ != nullptr,
                 "placement pass without a frequency mapping");
    std::vector<ftl::FrequencyMapping::Swap> swaps =
        freqMapping_->planHotSet(hot);
    if (swaps.size() > maxSwaps)
        swaps.resize(maxSwaps);
    return executeSwaps(swaps, timed);
}

std::uint64_t
RmSsd::executeSwaps(std::span<const ftl::FrequencyMapping::Swap> swaps,
                    bool timed)
{
    const std::size_t pageSize =
        static_cast<std::size_t>(options_.geometry.pageSizeBytes.raw());
    std::vector<std::uint8_t> bufA(pageSize);
    std::vector<std::uint8_t> bufB(pageSize);
    flash::BackingStore &store = flash_->store();
    for (const ftl::FrequencyMapping::Swap &swap : swaps) {
        // Functional copy first: materialize both pages (unwritten
        // pages read as PPN-keyed filler, so the bytes must move with
        // the logical page for reads to stay byte-stable), then swap.
        store.read(swap.fromPpn, Bytes{}, bufA);
        store.read(swap.toPpn, Bytes{}, bufB);
        store.writePage(swap.toPpn, bufA);
        store.writePage(swap.fromPpn, bufB);

        if (timed) {
            // Background traffic: the copies occupy dies and channel
            // buses from the current device time, contending with
            // foreground reads, but never stall the host clock.
            const flash::ReadTiming ra =
                flash_->readPage(deviceNow_, swap.fromPpn, {});
            const flash::ReadTiming rb =
                flash_->readPage(deviceNow_, swap.toPpn, {});
            flash_->programPage(ra.done, swap.toPpn, {});
            flash_->programPage(rb.done, swap.fromPpn, {});
        }
        freqMapping_->commitSwap(swap);
    }
    return 2 * swaps.size();
}

void
RmSsd::planPlacement(std::span<const RowHeat> rows)
{
    if (!freqMapping_)
        return;
    const std::vector<PageId> hot = planHotPages(
        *translator_, options_.geometry.sectorsPerPage(), rows,
        options_.placement.hotPageCount);
    applyHotSet(hot, /*timed=*/false,
                std::numeric_limits<std::uint64_t>::max());
    freqMapping_->resetObservation();
}

void
RmSsd::runPendingMigration()
{
    if (pendingSwaps_.empty())
        return;
    const std::size_t n =
        std::min(paceChunk_, pendingSwaps_.size());
    std::vector<ftl::FrequencyMapping::Swap> chunk(
        pendingSwaps_.begin(),
        pendingSwaps_.begin() +
            static_cast<std::ptrdiff_t>(n));
    pendingSwaps_.erase(pendingSwaps_.begin(),
                        pendingSwaps_.begin() +
                            static_cast<std::ptrdiff_t>(n));
    migratedPages_.inc(executeSwaps(chunk, /*timed=*/true));
}

std::uint64_t
RmSsd::migrateIfDrifted()
{
    if (!freqMapping_)
        return 0;
    // A paced pass is still draining; let it finish before judging
    // drift again (queued swaps were planned against the current
    // mapping and must commit before a new plan).
    if (!pendingSwaps_.empty())
        return 0;
    if (freqMapping_->observedReads() <
        options_.placement.minObservedReads)
        return 0;

    const std::vector<PageId> hot =
        freqMapping_->observedHot(options_.placement.hotPageCount);
    if (hot.empty())
        return 0;

    // Drift = fraction of the observed hot set living outside the
    // striped hot tier. Membership is what balances dies, so pages
    // already inside the tier (any slot) are not drift.
    std::uint64_t missing = 0;
    for (const PageId lpn : hot) {
        if (freqMapping_->translate(lpn).raw() >=
            options_.placement.hotPageCount)
            ++missing;
    }
    const double drift = static_cast<double>(missing) /
                         static_cast<double>(hot.size());
    if (missing == 0 ||
        drift <= options_.placement.migrationDriftThreshold) {
        freqMapping_->resetObservation();
        return 0;
    }

    if (options_.placement.migrationPaceRequests > 0) {
        // Paced: plan now, execute in even chunks across the next
        // migrationPaceRequests submissions. Pages count as migrated
        // when they actually move, so counter deltas stay honest.
        std::vector<ftl::FrequencyMapping::Swap> swaps =
            freqMapping_->planHotSet(hot);
        if (swaps.size() > options_.placement.maxSwapsPerPass)
            swaps.resize(options_.placement.maxSwapsPerPass);
        freqMapping_->resetObservation();
        if (swaps.empty())
            return 0;
        migrationPasses_.inc();
        paceChunk_ =
            (swaps.size() + options_.placement.migrationPaceRequests -
             1) /
            options_.placement.migrationPaceRequests;
        pendingSwaps_.insert(pendingSwaps_.end(), swaps.begin(),
                             swaps.end());
        return 0;
    }

    const std::uint64_t moved = applyHotSet(
        hot, /*timed=*/true, options_.placement.maxSwapsPerPass);
    if (moved > 0) {
        migrationPasses_.inc();
        migratedPages_.inc(moved);
    }
    freqMapping_->resetObservation();
    return moved;
}

void
RmSsd::buildPlan(double readCyclesPerVector)
{
    const double rcpv = readCyclesPerVector;
    const KernelSearch search(options_.search);
    searchResult_ = {};

    switch (options_.variant) {
      case EngineVariant::Searched:
        searchResult_ = search.search(config_, rcpv);
        break;
      case EngineVariant::DefaultKernels:
      case EngineVariant::EmbeddingOnly: {
        MlpPlan plan = makePlan(
            config_,
            KernelConfig{options_.search.maxKernelDim,
                         options_.search.maxKernelDim},
            /*decompose=*/true, /*compose=*/true);
        plan.ii = options_.search.ii;
        search.placeWeights(plan, searchResult_.notes);
        search.chooseMicroBatch(plan, config_, rcpv,
                                searchResult_.notes);
        searchResult_.plan = plan;
        searchResult_.embReadCycles =
            search.embReadCycles(config_, rcpv, plan.microBatch);
        searchResult_.timing =
            planTiming(plan, searchResult_.embReadCycles);
        searchResult_.resources =
            ResourceModel(options_.search.costs)
                .engineResources(plan.allLayers(), plan.ii);
        searchResult_.feasible = true;
        break;
      }
      case EngineVariant::Naive: {
        MlpPlan plan = makePlan(
            config_,
            KernelConfig{options_.search.maxKernelDim,
                         options_.search.maxKernelDim},
            /*decompose=*/false, /*compose=*/false);
        plan.ii = options_.search.ii;
        search.placeWeights(plan, searchResult_.notes);
        search.chooseMicroBatch(plan, config_, rcpv,
                                searchResult_.notes);
        searchResult_.plan = plan;
        searchResult_.embReadCycles =
            search.embReadCycles(config_, rcpv, plan.microBatch);
        searchResult_.timing =
            planTiming(plan, searchResult_.embReadCycles);
        searchResult_.resources =
            ResourceModel(options_.search.costs)
                .engineResources(plan.allLayers(), plan.ii);
        searchResult_.feasible = true;
        break;
      }
    }
    searchResult_.readCyclesPerVector = rcpv;
}

double
RmSsd::plannedHitRatio() const
{
    return evCache_ ? plannedHitRatio_ : 0.0;
}

double
RmSsd::measuredHitRatio() const
{
    return evCache_ ? evCache_->hitRatio() : 0.0;
}

bool
RmSsd::replanIfDrifted(double threshold)
{
    RMSSD_ASSERT(threshold >= 0.0, "negative drift threshold");
    if (!evCache_)
        return false;

    // Drift is judged over the window since the previous call so a
    // long warm history cannot average away a recent locality shift.
    const std::uint64_t hits = evCache_->hits().value();
    const std::uint64_t misses = evCache_->misses().value();
    const std::uint64_t windowHits = hits - windowHitsBase_;
    const std::uint64_t windowMisses = misses - windowMissesBase_;
    windowHitsBase_ = hits;
    windowMissesBase_ = misses;
    if (windowHits + windowMisses == 0)
        return false;

    const double measured =
        static_cast<double>(windowHits) /
        static_cast<double>(windowHits + windowMisses);
    if (std::abs(measured - plannedHitRatio_) <= threshold)
        return false;

    // Hysteresis: a re-plan rebuilds the MLP kernels, so drift seen
    // before the cooldown elapses is skipped (the drift window above
    // still advanced; a persistent shift re-triggers next check).
    if (options_.replanCooldownRequests > 0 && replans_.value() > 0 &&
        inferCalls_ - inferCallsAtLastReplan_ <
            options_.replanCooldownRequests) {
        replanSkips_.inc();
        return false;
    }

    plannedHitRatio_ = measured;
    inferCallsAtLastReplan_ = inferCalls_;
    buildPlan(EmbeddingEngine::effectiveCyclesPerRead(
        options_.geometry, options_.timing, Bytes{config_.vectorBytes()},
        measured));
    replans_.inc();
    return true;
}

void
RmSsd::registerTable(TableId tableId,
                     const ftl::ExtentList &extents)
{
    RMSSD_ASSERT(tableId.raw() < config_.numTables,
                 "table id out of range");
    const auto &spec = model_.embedding().tables()[tableId.raw()];
    translator_->registerTable(tableId, extents,
                               Bytes{spec.vectorBytes()}, spec.numRows);

    if (options_.functional) {
        const Bytes sectorSize = options_.geometry.sectorSizeBytes;
        std::vector<std::uint8_t> row(spec.vectorBytes());
        for (std::uint64_t r = 0; r < spec.numRows; ++r) {
            spec.rowBytes(r, row);
            const auto loc = extents.locateByte(
                Bytes{r * spec.vectorBytes()}, sectorSize);
            ftl_->writeBytesFunctional(loc.lba, loc.byteInSector, row);
        }
    }
    tablesLoaded_ = translator_->numTables() == config_.numTables;
}

void
RmSsd::loadTables()
{
    const std::uint64_t sectorSize =
        options_.geometry.sectorSizeBytes.raw();
    ftl::ExtentAllocator allocator(
        Sectors{options_.geometry.capacityBytes() / sectorSize},
        options_.maxExtentSectors);

    // Tables are keyed by their local position: a sharded sub-model
    // keeps the parent's global ids in spec.tableId (they seed the
    // synthetic content), but the device address space is local.
    const auto &tables = model_.embedding().tables();
    for (std::uint32_t t = 0; t < tables.size(); ++t) {
        const Sectors sectors{(tables[t].totalBytes() + sectorSize - 1) /
                              sectorSize};
        registerTable(TableId{t},
                      allocator.allocate(
                          sectors, options_.geometry.sectorsPerPage()));
    }
}

Cycle
RmSsd::loadTablesTimed()
{
    const std::uint64_t sectorSize =
        options_.geometry.sectorSizeBytes.raw();
    const std::uint64_t pageSize =
        options_.geometry.pageSizeBytes.raw();
    ftl::ExtentAllocator allocator(
        Sectors{options_.geometry.capacityBytes() / sectorSize},
        options_.maxExtentSectors);

    Cycle done = deviceNow_;
    std::vector<std::uint8_t> pageBuf(pageSize);
    const auto &tables = model_.embedding().tables();
    for (std::uint32_t t = 0; t < tables.size(); ++t) {
        const auto &spec = tables[t];
        const Sectors sectors{(spec.totalBytes() + sectorSize - 1) /
                              sectorSize};
        const ftl::ExtentList extents = allocator.allocate(
            sectors, options_.geometry.sectorsPerPage());
        translator_->registerTable(TableId{t}, extents,
                                   Bytes{spec.vectorBytes()},
                                   spec.numRows);

        // Program every page of the table through the timed write
        // path; pages stripe over channels/dies via the FTL layout.
        const std::uint32_t vecsPerPage =
            static_cast<std::uint32_t>(pageSize / spec.vectorBytes());
        std::uint64_t row = 0;
        for (const ftl::Extent &e : extents.extents()) {
            const std::uint64_t pages =
                e.sectorCount.raw() /
                options_.geometry.sectorsPerPage();
            for (std::uint64_t p = 0; p < pages && row < spec.numRows;
                 ++p) {
                if (options_.functional) {
                    for (std::uint32_t v = 0;
                         v < vecsPerPage && row + v < spec.numRows; ++v)
                        spec.rowBytes(
                            row + v,
                            std::span(pageBuf)
                                .subspan(v * spec.vectorBytes(),
                                         spec.vectorBytes()));
                }
                const Lba lba =
                    e.startLba +
                    Sectors{p * options_.geometry.sectorsPerPage()};
                const auto loc = ftl_->translate(lba);
                done = std::max(
                    done,
                    flash_->programPage(
                        deviceNow_, loc.ppn,
                        options_.functional
                            ? std::span<const std::uint8_t>(pageBuf)
                            : std::span<const std::uint8_t>()));
                row += vecsPerPage;
            }
        }
    }
    tablesLoaded_ = translator_->numTables() == config_.numTables;
    deviceNow_ = done;
    lastCompletion_ = done;
    return done;
}

RmSsd::MicroBatchDone
RmSsd::runMicroBatch(
    Cycle inputsReady, std::span<const model::Sample> samples,
    std::vector<float> *outputs,
    std::span<const std::vector<host::EmbeddingTier::ServedSlice>>
        served)
{
    RMSSD_ASSERT(tablesLoaded_, "tables must be loaded before inference");
    const MlpPlan &plan = searchResult_.plan;
    const bool functional = options_.functional;

    // Pipelined plans overlap lookups with the previous micro-batch's
    // MLP; the naive engine serializes behind its GEMM unit.
    const bool pipelined = plan.decomposed && plan.composed;
    const Cycle embStart =
        (pipelined || options_.variant == EngineVariant::EmbeddingOnly)
            ? inputsReady
            : std::max(inputsReady, topUnitFree_);
    EmbeddingResult emb =
        embeddingEngine_->run(embStart, samples, functional);
    embIssueBusy_.inc((emb.issueEndCycle - embStart).raw());

    // Host-tier merge: a served slice's lookup list arrived empty, so
    // the engine pooled it to exact zeros; the tier's pooled partial
    // overwrites that slice in place (a placement copy, never a float
    // add — the fold stayed whole on one side, so results are
    // byte-identical to the un-tiered device).
    if (functional && !served.empty()) {
        const std::uint32_t dim = config_.embDim;
        for (std::size_t s = 0; s < samples.size(); ++s) {
            for (const host::EmbeddingTier::ServedSlice &slice :
                 served[s]) {
                std::copy(slice.pooled.begin(), slice.pooled.end(),
                          emb.pooled[s].begin() +
                              static_cast<std::ptrdiff_t>(
                                  slice.table) *
                                  dim);
            }
        }
    }

    MicroBatchDone out;
    if (options_.variant == EngineVariant::EmbeddingOnly) {
        out.done = emb.doneCycle;
        out.issueEnd = emb.issueEndCycle;
        if (functional && outputs) {
            for (const model::Vector &pooled : emb.pooled)
                outputs->insert(outputs->end(), pooled.begin(),
                                pooled.end());
        }
        return out;
    }

    const Cycle botPrime =
        plan.composed ? composedCycles(plan.bottom, plan.ii)
                      : sequentialCycles(plan.bottom, plan.ii);
    const Cycle topPrime =
        plan.composed ? composedCycles(plan.top, plan.ii)
                      : sequentialCycles(plan.top, plan.ii);
    mlpBottomBusy_.inc(botPrime.raw());
    mlpTopBusy_.inc(topPrime.raw());

    if (plan.decomposed && plan.composed) {
        // Bottom MLP runs concurrently with the lookups; the unit
        // accepts a new micro-batch every botPrime cycles.
        const Cycle bottomStart = std::max(inputsReady, bottomUnitFree_);
        const Cycle bottomDone = bottomStart + botPrime;
        bottomUnitFree_ = bottomDone;

        // Le consumes pooled vectors as tables complete (Eq. 1a).
        const Cycle embPrimeDone = std::max(
            emb.doneCycle,
            inputsReady + fcLayerCycles(plan.embeddingSplit, plan.ii));

        const Cycle ready = std::max(embPrimeDone, bottomDone);
        const Cycle topStart = std::max(ready, topUnitFree_);
        const Cycle topDone = topStart + topPrime;
        topUnitFree_ = topDone;

        out.done = topDone;
        out.issueEnd = emb.issueEndCycle;
    } else {
        // Naive (Centaur-style GEMM unit): embedding, bottom MLP and
        // top MLP run back-to-back with the concat barrier in
        // between; no stage pipelining across micro-batches.
        const Cycle topDone = emb.doneCycle + botPrime + topPrime;
        bottomUnitFree_ = topDone;
        topUnitFree_ = topDone;
        out.done = topDone;
        out.issueEnd = topDone;
    }

    if (functional && outputs) {
        for (std::size_t s = 0; s < samples.size(); ++s) {
            const float ctr =
                plan.decomposed
                    ? decomposedForward(model_, samples[s].dense,
                                        emb.pooled[s])
                    : model_.inferenceWithPooled(samples[s].dense,
                                                 emb.pooled[s]);
            outputs->push_back(ctr);
        }
    }
    return out;
}

RequestId
RmSsd::submit(std::span<const model::Sample> samples)
{
    RMSSD_ASSERT(!samples.empty(), "empty inference request");
    if (!hostTier_ || !hostTier_->active())
        return submitWith(samples, nullptr);

    // Host tier in front of the device: serve fully-resident slices
    // from DRAM, charge that host time before the doorbell (the next
    // issue cannot start earlier), and forward only the residual.
    const host::EmbeddingTier::Intercept icpt =
        hostTier_->intercept(samples, options_.functional);
    advanceHostClock(icpt.hostNanos);
    return submitWith(icpt.residual, &icpt);
}

RequestId
RmSsd::submitWith(std::span<const model::Sample> samples,
                  const host::EmbeddingTier::Intercept *icpt)
{
    RMSSD_ASSERT(!samples.empty(), "empty inference request");

    // Paced migration: drain one chunk of a planned pass per request,
    // so relocation traffic trickles into the foreground stream
    // instead of bursting all at once.
    runPendingMigration();

    // Bounded queue depth: when full, the oldest request retires
    // before the new one issues (host backpressure). At depth 1 this
    // reproduces the blocking infer() loop op-for-op: retire r, then
    // issue r+1, with the same DMA/MMIO call order.
    while (inflight_.size() >= maxInflight())
        retireAt(0);

    const MlpPlan &plan = searchResult_.plan;
    InflightRequest request;
    request.id = allocateRequestId();
    request.t0 = deviceNow_;
    request.numSamples = samples.size();

    // Host sends control parameters over MMIO (posted writes) and the
    // indices + dense inputs via DMA (RM_send_inputs). With a tier in
    // front, the index payload is the actual residual count, and the
    // non-embedding-only variants also ship the tier's pooled partials
    // down so the on-device top MLP can consume the full concat.
    const Cycle paramsDone = mmio_.write(
        request.t0, static_cast<std::uint32_t>(nvme::RmReg::NumLookups),
        config_.lookupsPerTable);
    mmio_.poke(static_cast<std::uint32_t>(nvme::RmReg::BatchSize),
               samples.size());
    std::uint64_t indexBytes =
        samples.size() * config_.lookupsPerSample() *
        sizeof(std::uint32_t);
    if (chargeActualIndexBytes_ || icpt) {
        std::uint64_t indices = 0;
        if (icpt) {
            indices = icpt->residualIndices;
        } else {
            for (const model::Sample &sample : samples)
                for (const std::vector<std::uint64_t> &slice :
                     sample.indices)
                    indices += slice.size();
        }
        indexBytes = indices * sizeof(std::uint32_t);
    }
    const std::uint64_t partialBytes =
        (icpt && options_.variant != EngineVariant::EmbeddingOnly)
            ? icpt->servedSlices * config_.embDim * sizeof(float)
            : 0;
    const std::uint64_t denseBytes =
        samples.size() * config_.denseInputDim() * sizeof(float);
    request.inputsReady = dma_.transfer(
        paramsDone, Bytes{indexBytes + denseBytes + partialBytes});
    hostBytesWritten_.inc(indexBytes + denseBytes + partialBytes);

    std::vector<float> *outPtr =
        options_.functional ? &request.outputs : nullptr;
    if (outPtr)
        outPtr->reserve(
            options_.variant == EngineVariant::EmbeddingOnly
                ? samples.size() * config_.numTables * config_.embDim
                : samples.size());

    // Partition into micro-batches streaming through the engines. At
    // depth > 1 the embedding engine's issue port is an occupancy
    // track shared across requests: request r+1's lookups queue
    // behind r's issue tail while r's MLP micro-batches keep
    // draining. The depth-1 path leaves the bound off — the blocking
    // pipeline never applied it, and the host serializes anyway.
    const std::size_t mbSize =
        std::min<std::size_t>(plan.microBatch, samples.size());
    Cycle issueChain = request.inputsReady;
    if (maxInflight() > 1)
        issueChain = std::max(issueChain, embIssueFree_);
    Cycle lastDone = request.inputsReady;
    for (std::size_t pos = 0; pos < samples.size(); pos += mbSize) {
        const std::size_t n = std::min(mbSize, samples.size() - pos);
        const MicroBatchDone mb = runMicroBatch(
            issueChain, samples.subspan(pos, n), outPtr,
            icpt ? std::span(icpt->served).subspan(pos, n)
                 : std::span<const std::vector<
                       host::EmbeddingTier::ServedSlice>>{});
        issueChain = std::max(issueChain, mb.issueEnd);
        lastDone = std::max(lastDone, mb.done);
    }
    embIssueFree_ = std::max(embIssueFree_, issueChain);
    request.lastDone = lastDone;

    // Embedding-only results shrink by what the tier already holds:
    // served slices never left the host, so only residual pooled
    // slices ride the readback DMA.
    const std::uint64_t totalSlices =
        static_cast<std::uint64_t>(config_.numTables) * samples.size();
    const std::uint64_t servedSlices = icpt ? icpt->servedSlices : 0;
    RMSSD_ASSERT(servedSlices <= totalSlices,
                 "tier served more slices than the request has");
    request.resultBytes =
        options_.variant == EngineVariant::EmbeddingOnly
            ? Bytes{(totalSlices - servedSlices) * config_.embDim *
                    sizeof(float)}
            : Bytes{samples.size() * sizeof(float)};

    // Request-level accounting happens at issue so the replan
    // cooldown sees the same call counts as the blocking path.
    inferences_.inc(samples.size());
    ++inferCalls_;
    submitted_.inc();

    // The host is busy until its inputs are sent; completions of
    // older requests fold in at their retire (max-accumulation, so
    // issue/retire interleavings cannot move the clock backward).
    deviceNow_ = std::max(deviceNow_, request.inputsReady);

    const RequestId id = request.id;
    inflight_.push_back(std::move(request));
    queueDepthOnSubmit_.sample(static_cast<double>(inflight_.size()));
    return id;
}

void
RmSsd::retireAt(std::size_t pos)
{
    RMSSD_ASSERT(pos < inflight_.size(), "no request in flight");
    InflightRequest request = std::move(inflight_[pos]);
    inflight_.erase(inflight_.begin() +
                    static_cast<std::ptrdiff_t>(pos));

    // Results: the host polls the status register; small results ride
    // the 64-byte MMIO read, larger ones take a DMA transfer.
    mmio_.poke(static_cast<std::uint32_t>(nvme::RmReg::ResultStatus), 1);
    Cycle end = mmio_.read(request.lastDone,
                           static_cast<std::uint32_t>(
                               nvme::RmReg::ResultStatus))
                    .done;
    if (request.resultBytes > nvme::MmioManager::kDataWidthBytes) {
        end = dma_.transfer(end, request.resultBytes);
        hostBytesRead_.inc(request.resultBytes.raw());
    } else {
        hostBytesRead_.inc(nvme::MmioManager::kDataWidthBytes.raw());
    }

    // System-level pipeline (Section IV-D): the host double-buffers —
    // it pre-sends the next request's inputs during the current
    // request's compute and only blocks when two requests are still
    // in flight, so the host clock advances to the later of this
    // request's input transfer and the completion of the request two
    // back. Synchronous hosts (presend off) block on this request's
    // own completion.
    if (options_.presend)
        deviceNow_ = std::max(
            deviceNow_,
            std::max(request.inputsReady, secondLastCompletion_));
    else
        deviceNow_ = std::max(deviceNow_, end);
    secondLastCompletion_ = lastCompletion_;
    lastCompletion_ = end;

    AsyncCompletion completion;
    completion.id = request.id;
    completion.outcome.latency = cyclesToNanos(end - request.t0);
    completion.outcome.completionCycle = end;
    completion.outcome.outputs = std::move(request.outputs);
    retired_.inc();
    pushCompletion(std::move(completion));
}

bool
RmSsd::retireNext()
{
    if (inflight_.empty())
        return false;
    retireAt(0);
    return true;
}

std::uint32_t
RmSsd::harvestDoneBy(Cycle when)
{
    std::uint32_t retired = 0;
    // Scan in queue order; retire every finished request, including
    // mid-queue finishers parked behind an unfinished straggler.
    std::size_t pos = 0;
    while (pos < inflight_.size()) {
        if (inflight_[pos].lastDone <= when) {
            retireAt(pos);
            ++retired;
        } else {
            ++pos;
        }
    }
    return retired;
}

Cycle
RmSsd::nextDoneCycle() const
{
    Cycle earliest = kNeverCycle;
    for (const InflightRequest &request : inflight_)
        earliest = std::min(earliest, request.lastDone);
    return earliest;
}

Cycle
RmSsd::doneCycle(RequestId id) const
{
    // A status poll reads done once the last micro-batch is through
    // the engines; the result readout (MMIO/DMA) still runs at retire
    // time, so the retire clock may trail slightly past this cycle.
    for (const InflightRequest &request : inflight_) {
        if (request.id == id)
            return request.lastDone;
    }
    return InferenceDevice::doneCycle(id);
}

std::optional<AsyncCompletion>
RmSsd::take(RequestId id)
{
    for (std::size_t pos = 0; pos < inflight_.size(); ++pos) {
        if (inflight_[pos].id == id) {
            retireAt(pos);
            break;
        }
    }
    return popCompletion(id);
}

void
RmSsd::attachHostTier(std::shared_ptr<host::EmbeddingTier> tier)
{
    if (tier)
        RMSSD_ASSERT(&tier->model().config() == &config_ ||
                         tier->model().config().numTables ==
                             config_.numTables,
                     "tier model shape does not match the device");
    hostTier_ = std::move(tier);
}

void
RmSsd::registerStats(StatsRegistry &registry,
                     const std::string &prefix) const
{
    const ScopedStats stats = registry.scoped(prefix);
    stats.addCounter("inferences", &inferences_);
    const ScopedStats host = stats.scoped("host");
    host.addCounter("bytesRead", &hostBytesRead_);
    host.addCounter("bytesWritten", &hostBytesWritten_);
    const ScopedStats emb = stats.scoped("emb");
    emb.addCounter("lookups", &embeddingEngine_->lookups());
    emb.addCounter("lookupBytes", &embeddingEngine_->lookupBytes());
    emb.addCounter("flashReads", &embeddingEngine_->flashReads());
    emb.addCounter("coalesced", &embeddingEngine_->coalescedLookups());
    if (evCache_) {
        const ScopedStats cache = emb.scoped("cache");
        cache.addCounter("hits", &evCache_->hits());
        cache.addCounter("misses", &evCache_->misses());
        cache.addCounter("fills", &evCache_->fills());
        cache.addCounter("evictions", &evCache_->evictions());
        cache.addCounter("admissionRejects",
                         &evCache_->admissionRejects());
        cache.addCounter("admissionWindowHits",
                         &evCache_->admissionWindowHits());
        cache.addCounter("replans", &replans_);
        cache.addCounter("replanSkips", &replanSkips_);
        cache.addRatio("hitRatio", &evCache_->hits(),
                       &evCache_->misses());
    }
    if (hostTier_) {
        const ScopedStats tier = host.scoped("tier");
        hostTier_->registerStats(tier.registry(), tier.prefix());
    }
    const ScopedStats ftl = stats.scoped("ftl");
    ftl.addCounter("blockRequests", &ftl_->blockRequests());
    ftl.addCounter("evRequests", &ftl_->evRequests());
    const ScopedStats queue = stats.scoped("queue");
    queue.addCounter("submitted", &submitted_);
    queue.addCounter("retired", &retired_);
    queue.addDistribution("depth", &queueDepthOnSubmit_);
    emb.addCounter("issueBusyCycles", &embIssueBusy_);
    const ScopedStats mlp = stats.scoped("mlp");
    mlp.addCounter("bottomBusyCycles", &mlpBottomBusy_);
    mlp.addCounter("topBusyCycles", &mlpTopBusy_);
    const ScopedStats dma = stats.scoped("dma");
    dma.addCounter("transfers", &dma_.transfers());
    dma.addCounter("bytes", &dma_.bytesMoved());
    dma.addCounter("busyCycles", &dma_.busyCycles());
    const ScopedStats mmio = stats.scoped("mmio");
    mmio.addCounter("reads", &mmio_.hostReads());
    mmio.addCounter("writes", &mmio_.hostWrites());
    if (freqMapping_) {
        const ScopedStats placement = stats.scoped("placement");
        placement.addCounter("migrationPasses", &migrationPasses_);
        placement.addCounter("migratedPages", &migratedPages_);
    }
    const ScopedStats flashStats = stats.scoped("flash");
    for (std::uint32_t c = 0; c < options_.geometry.numChannels; ++c) {
        const ScopedStats ch =
            flashStats.scoped("ch" + std::to_string(c));
        const flash::Fmc *fmc = &flash_->fmc(c);
        ch.addCounter("pageReads", &fmc->pageReads());
        ch.addCounter("vectorReads", &fmc->vectorReads());
        ch.addCounter("busBytes", &fmc->busBytes());
        ch.addCounter("pagePrograms", &fmc->pagePrograms());
        ch.addCounter("blockErases", &fmc->blockErases());
        ch.addCounter("dieConflicts", &fmc->dieConflicts());
        // Busy cycles live inside occupancy trackers that reset with
        // timing state, so they export as gauges, sampled at dump.
        ch.addGauge("busyCycles", [fmc]() {
            return fmc->busBusyCycles().raw();
        });
        for (std::uint32_t d = 0; d < fmc->numDies(); ++d) {
            ch.addGauge("die" + std::to_string(d) + ".busyCycles",
                        [fmc, d]() { return fmc->dieBusyCycles(d).raw(); });
        }
    }
}

void
RmSsd::advanceHostClock(Nanos hostNanos)
{
    deviceNow_ += nanosToCycles(hostNanos);
}

void
RmSsd::advanceClockTo(Cycle cycle)
{
    deviceNow_ = std::max(deviceNow_, cycle);
}

void
RmSsd::resetTiming()
{
    flash_->resetTiming();
    dma_.resetTiming();
    deviceNow_ = {};
    lastCompletion_ = {};
    secondLastCompletion_ = {};
    bottomUnitFree_ = {};
    topUnitFree_ = {};
    embIssueFree_ = {};
    inflight_.clear();
    clearCompletions();
}

} // namespace rmssd::engine
