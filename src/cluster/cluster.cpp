#include "cluster/cluster.h"

#include <algorithm>
#include <cstring>

#include "engine/embedding_engine.h"
#include "engine/fc_kernel.h"
#include "engine/mlp_engine.h"
#include "sim/log.h"

namespace rmssd::cluster {

RmSsdCluster::RmSsdCluster(const model::ModelConfig &config,
                           const ClusterOptions &options)
    : config_(config), options_(options),
      plan_(planTableSharding(config, options.sharding,
                              options.histograms)),
      fullModel_(config)
{
    // Each shard is an RM-SSD hosting its table subset. The sub-model
    // keeps the parent's global table ids (withTableSubset), so shard
    // flash holds exactly the bytes the unsharded device would.
    engine::RmSsdOptions shardOptions = options_.device;
    shardOptions.variant = engine::EngineVariant::EmbeddingOnly;
    // A full-model EV-cache share vector (e.g. the multi-tenant
    // carve's per-table budgets) slices per shard: shard slot s takes
    // the share of the global table it hosts, so one table's
    // partition budget follows the table to its owner.
    const auto &fullShares = options_.device.evCache.tableShares;
    if (!fullShares.empty() && fullShares.size() != config_.numTables)
        fatal("evCache.tableShares has %zu entries for %u tables",
              fullShares.size(),
              static_cast<unsigned>(config_.numTables));
    for (std::uint32_t d = 0; d < plan_.numDevices(); ++d) {
        if (!fullShares.empty()) {
            shardOptions.evCache.tableShares.clear();
            for (const std::uint32_t g : plan_.tablesPerDevice[d])
                shardOptions.evCache.tableShares.push_back(
                    fullShares[g]);
        }
        shards_.push_back(std::make_unique<engine::RmSsd>(
            config_.withTableSubset(plan_.tablesPerDevice[d]),
            shardOptions));
        shards_.back()->loadTables();
    }

    // Fleet MLP plan: the home device runs the same searched kernels a
    // single RM-SSD would, balanced against the full model's T_emb.
    if (!options_.embeddingOnly) {
        const double rcpv =
            options_.device.evCache.enabled
                ? engine::EmbeddingEngine::effectiveCyclesPerRead(
                      options_.device.geometry, options_.device.timing,
                      Bytes{config_.vectorBytes()},
                      options_.device.evCache.expectedHitRatio)
                : engine::EmbeddingEngine::steadyStateCyclesPerRead(
                      options_.device.geometry, options_.device.timing,
                      Bytes{config_.vectorBytes()});
        searchResult_ =
            engine::KernelSearch(options_.device.search)
                .search(config_, rcpv);
        const engine::MlpPlan &plan = searchResult_.plan;
        botPrime_ = engine::composedCycles(plan.bottom, plan.ii);
        topPrime_ = engine::composedCycles(plan.top, plan.ii);
        lePrime_ = engine::fcLayerCycles(plan.embeddingSplit, plan.ii);
    }

    bottomFree_.resize(plan_.numDevices());
    topFree_.resize(plan_.numDevices());
    rrReplica_.resize(config_.numTables, 0);
}

std::uint32_t
RmSsdCluster::chooseReplica(std::uint32_t g)
{
    const auto &owners = plan_.ownersPerTable[g];
    if (owners.size() == 1)
        return owners[0];
    switch (options_.policy) {
      case RouterPolicy::RoundRobin:
        return owners[rrReplica_[g]++ % owners.size()];
      case RouterPolicy::LeastOutstanding: {
        std::uint32_t best = owners[0];
        for (const std::uint32_t d : owners) {
            if (shards_[d]->deviceNow() < shards_[best]->deviceNow())
                best = d;
        }
        return best;
      }
      case RouterPolicy::TableAffinity:
        // Pin each table to one fixed replica; different tables hash
        // to different replicas so fleet load still spreads.
        return owners[g % owners.size()];
    }
    return owners[0];
}

std::uint32_t
RmSsdCluster::chooseHome(const std::vector<std::uint64_t> &assignedLookups)
{
    const std::uint32_t numDevices = plan_.numDevices();
    switch (options_.policy) {
      case RouterPolicy::RoundRobin:
        return static_cast<std::uint32_t>(rrHome_++ % numDevices);
      case RouterPolicy::LeastOutstanding: {
        std::uint32_t best = 0;
        for (std::uint32_t d = 1; d < numDevices; ++d) {
            const Cycle dBusy =
                std::max(topFree_[d], shards_[d]->deviceNow());
            const Cycle bestBusy =
                std::max(topFree_[best], shards_[best]->deviceNow());
            if (dBusy < bestBusy)
                best = d;
        }
        return best;
      }
      case RouterPolicy::TableAffinity: {
        // Home the MLP where most of the request's pooled data lands.
        std::uint32_t best = 0;
        for (std::uint32_t d = 1; d < numDevices; ++d) {
            if (assignedLookups[d] > assignedLookups[best])
                best = d;
        }
        return best;
      }
    }
    return 0;
}

engine::RequestId
RmSsdCluster::submit(std::span<const model::Sample> samples)
{
    RMSSD_ASSERT(!samples.empty(), "empty inference request");
    if (!hostTier_ || !hostTier_->active())
        return submitResidual(samples, nullptr);

    // Tier above the router: intercept the full-model request first,
    // charge the DRAM service time, then shard only the residual —
    // tables the tier fully absorbed route nowhere.
    host::EmbeddingTier::Intercept icpt =
        hostTier_->intercept(samples, options_.device.functional);
    advanceHostClock(icpt.hostNanos);
    return submitResidual(icpt.residual, &icpt);
}

engine::RequestId
RmSsdCluster::submitResidual(std::span<const model::Sample> samples,
                             host::EmbeddingTier::Intercept *icpt)
{
    // Bounded queue depth: the oldest request gathers and retires
    // before a new one scatters (host backpressure). At depth 1 this
    // reproduces the blocking infer() loop op-for-op.
    while (inflight_.size() >= maxInflight())
        retireAt(0);

    const std::uint32_t numDevices = plan_.numDevices();
    ClusterInflight request;
    request.id = allocateRequestId();
    request.t0 = clusterNow_;
    request.numSamples = samples.size();

    // Route: pick the serving replica of every table, then tally how
    // many lookups each device is about to absorb.
    request.chosen.resize(config_.numTables);
    request.assignedLookups.assign(numDevices, 0);
    std::vector<std::uint64_t> tableLookups(config_.numTables, 0);
    for (std::uint32_t g = 0; g < config_.numTables; ++g) {
        request.chosen[g] = chooseReplica(g);
        std::uint64_t lookups = 0;
        for (const model::Sample &sample : samples)
            lookups += sample.indices[g].size();
        tableLookups[g] = lookups;
        request.assignedLookups[request.chosen[g]] += lookups;
    }

    // Hedging: a replicated table whose chosen home shard is backed
    // up also issues its lookups to the least-loaded other replica;
    // the gather takes whichever sub-request finishes first. The
    // alternate's lookups ride extraLookups (not assignedLookups), so
    // routing-policy inputs — least-outstanding clocks, affinity home
    // choice — see only the primary assignment.
    std::vector<std::uint64_t> extraLookups(numDevices, 0);
    if (options_.hedge.enabled) {
        for (std::uint32_t g = 0; g < config_.numTables; ++g) {
            const auto &owners = plan_.ownersPerTable[g];
            if (owners.size() < 2 || tableLookups[g] == 0)
                continue;
            const std::uint32_t primary = request.chosen[g];
            if (shards_[primary]->inflight() <
                options_.hedge.queueThreshold)
                continue;
            std::uint32_t alt = numDevices;
            for (const std::uint32_t d : owners) {
                if (d == primary)
                    continue;
                if (alt == numDevices ||
                    shards_[d]->inflight() < shards_[alt]->inflight())
                    alt = d;
            }
            if (alt == numDevices)
                continue;
            request.hedged.emplace_back(g, alt);
            extraLookups[alt] += tableLookups[g];
            hedgesIssued_.inc();
        }
        if (!request.hedged.empty())
            request.tableLookups = std::move(tableLookups);
    }
    const auto hedgedOn = [&request](std::uint32_t g,
                                     std::uint32_t d) {
        for (const auto &[hg, hd] : request.hedged) {
            if (hg == g && hd == d)
                return true;
        }
        return false;
    };

    // Scatter: every device with assigned lookups gets a sub-request
    // holding only its tables' indices (empty lists for hosted tables
    // routed to another replica — they pool to zero and are ignored by
    // the gather). Sub-requests issue through the shards' own async
    // queues, so each shard's clock advances independently between
    // scatters; the gather and home MLP wait for the retire stage.
    request.participants.reserve(numDevices);
    for (std::uint32_t d = 0; d < numDevices; ++d) {
        if (request.assignedLookups[d] == 0 && extraLookups[d] == 0)
            continue;
        const auto &tables = plan_.tablesPerDevice[d];
        std::vector<model::Sample> local(samples.size());
        for (std::size_t s = 0; s < samples.size(); ++s) {
            local[s].dense = samples[s].dense;
            local[s].indices.resize(tables.size());
            for (std::uint32_t slot = 0; slot < tables.size(); ++slot) {
                if (request.chosen[tables[slot]] == d ||
                    hedgedOn(tables[slot], d))
                    local[s].indices[slot] =
                        samples[s].indices[tables[slot]];
            }
        }
        engine::RmSsd &shard = *shards_[d];
        shard.advanceClockTo(request.t0);
        const std::uint64_t writtenBefore =
            shard.hostBytesWritten().value();
        const engine::RequestId subId = shard.submit(local);
        hostBytesWritten_.inc(shard.hostBytesWritten().value() -
                              writtenBefore);
        subRequests_.inc();
        request.participants.emplace_back(d, subId);
    }

    // The scatter holds the host until every shard's inputs are in
    // (max-accumulation: retire folds in the completion-side terms).
    Cycle next = clusterNow_;
    for (const auto &participant : request.participants)
        next = std::max(next, shards_[participant.first]->deviceNow());
    clusterNow_ = next;

    if (options_.device.functional)
        request.samples.assign(samples.begin(), samples.end());
    if (icpt)
        request.tierServed = std::move(icpt->served);

    submitted_.inc();
    const engine::RequestId id = request.id;
    inflight_.push_back(std::move(request));
    queueDepthOnSubmit_.sample(static_cast<double>(inflight_.size()));
    return id;
}

void
RmSsdCluster::retireAt(std::size_t pos)
{
    RMSSD_ASSERT(pos < inflight_.size(), "no request in flight");
    ClusterInflight request = std::move(inflight_[pos]);
    inflight_.erase(inflight_.begin() +
                    static_cast<std::ptrdiff_t>(pos));
    const Cycle t0 = request.t0;

    // Gather: take each participating shard's completion, paired by
    // sub-request id (with in-order retires and mirrored depths the
    // id-matched completion IS the shard's oldest, op-for-op). Id
    // pairing is what lets eager harvests retire out of order and
    // shard queues run at their own decoupled depth.
    std::vector<engine::InferenceOutcome> partial(plan_.numDevices());
    for (const auto &[d, subId] : request.participants) {
        engine::RmSsd &shard = *shards_[d];
        const std::uint64_t readBefore = shard.hostBytesRead().value();
        auto completion = shard.take(subId);
        RMSSD_ASSERT(completion, "shard completion missing");
        hostBytesRead_.inc(shard.hostBytesRead().value() - readBefore);
        partial[d] = std::move(completion->outcome);
    }

    // Gather readiness: without hedges, every participant gates. A
    // hedged table is ready at the EARLIER of its two sub-requests —
    // the loser still runs to completion (hedging adds load; it only
    // hides stragglers), but it no longer holds the gather.
    Cycle gatherReady = t0;
    std::vector<std::uint32_t> source = request.chosen;
    if (request.hedged.empty()) {
        for (const auto &[d, subId] : request.participants) {
            (void)subId;
            gatherReady = std::max(gatherReady,
                                   partial[d].completionCycle);
        }
    } else {
        const auto altFor = [&request](std::uint32_t g) {
            for (const auto &[hg, hd] : request.hedged) {
                if (hg == g)
                    return hd;
            }
            return ~0u;
        };
        for (std::uint32_t g = 0; g < config_.numTables; ++g) {
            if (request.tableLookups[g] == 0)
                continue;
            const std::uint32_t primary = request.chosen[g];
            Cycle ready = partial[primary].completionCycle;
            const std::uint32_t alt = altFor(g);
            if (alt != ~0u) {
                const Cycle altReady = partial[alt].completionCycle;
                if (altReady < ready) {
                    ready = altReady;
                    source[g] = alt;
                    hedgeWins_.inc();
                }
            }
            gatherReady = std::max(gatherReady, ready);
        }
    }

    // The home device's MLP pipeline consumes the gathered pooled
    // vectors micro-batch by micro-batch, exactly like the single
    // device's Section IV-D pipeline but with the fleet-wide gather as
    // its embedding stage. Shards stream their lookups, so micro-batch
    // i's pooled slices are ready a proportional way into the gather
    // span, not at its end — the same emb/MLP overlap the single
    // device gets from per-micro-batch emb.doneCycle.
    Cycle end = gatherReady;
    if (!options_.embeddingOnly) {
        const std::uint32_t home = chooseHome(request.assignedLookups);
        const engine::MlpPlan &plan = searchResult_.plan;
        const std::size_t mbSize =
            std::min<std::size_t>(plan.microBatch, request.numSamples);
        const std::size_t numMb =
            (request.numSamples + mbSize - 1) / mbSize;
        const Cycle gatherSpan = gatherReady - t0;
        for (std::size_t mb = 0; mb < numMb; ++mb) {
            const Cycle sliceReady =
                t0 + Cycle{gatherSpan.raw() * (mb + 1) / numMb};
            const Cycle bottomStart =
                std::max(t0, bottomFree_[home]);
            const Cycle bottomDone = bottomStart + botPrime_;
            bottomFree_[home] = bottomDone;
            const Cycle embPrime =
                std::max(sliceReady, t0 + lePrime_);
            const Cycle topStart = std::max(
                std::max(embPrime, bottomDone), topFree_[home]);
            const Cycle topDone = topStart + topPrime_;
            topFree_[home] = topDone;
            end = std::max(end, topDone);
        }
    }

    // Gather (functional): reassemble each sample's full pooled vector
    // by placing every chosen replica's partial slice at its global
    // offset — a pure placement copy, so the result is byte-identical
    // to the unsharded device's pooled vector.
    engine::AsyncCompletion done;
    done.id = request.id;
    if (options_.device.functional) {
        const std::uint32_t dim = config_.embDim;
        done.outcome.outputs.reserve(
            request.numSamples *
            (options_.embeddingOnly
                 ? static_cast<std::size_t>(config_.numTables) * dim
                 : 1));
        model::Vector pooled;
        std::vector<bool> served(config_.numTables);
        for (std::size_t s = 0; s < request.numSamples; ++s) {
            pooled.assign(
                static_cast<std::size_t>(config_.numTables) * dim,
                0.0f);
            // Tier-served slices first: their pooled partials place at
            // the global offset, and the mask keeps the shard pass off
            // those slices (the shard saw an empty lookup list there —
            // or, with the whole table absorbed, no sub-request).
            served.assign(config_.numTables, false);
            if (s < request.tierServed.size()) {
                for (const host::EmbeddingTier::ServedSlice &slice :
                     request.tierServed[s]) {
                    std::copy(slice.pooled.begin(), slice.pooled.end(),
                              pooled.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      slice.table) *
                                      dim);
                    served[slice.table] = true;
                }
            }
            for (std::uint32_t g = 0; g < config_.numTables; ++g) {
                if (served[g])
                    continue;
                const std::uint32_t d = source[g];
                // A shard that received no lookups at all never got a
                // sub-request; its would-be partials are exact zeros,
                // already in place.
                if (partial[d].outputs.empty())
                    continue;
                const auto slicePtr = [&](std::uint32_t dev) {
                    const auto &owners = plan_.ownersPerTable[g];
                    const std::size_t i = static_cast<std::size_t>(
                        std::find(owners.begin(), owners.end(), dev) -
                        owners.begin());
                    const std::uint32_t slot =
                        plan_.localSlotPerTable[g][i];
                    const std::size_t localTables =
                        plan_.tablesPerDevice[dev].size();
                    return partial[dev].outputs.data() +
                           (s * localTables + slot) * dim;
                };
                const float *slice = slicePtr(d);
                // Hedge honesty: the replicas hold identical rows, so
                // winner and loser must agree byte-for-byte — taking
                // the first completion may change timing, never data.
                if (d != request.chosen[g] &&
                    !partial[request.chosen[g]].outputs.empty())
                    RMSSD_ASSERT(
                        std::memcmp(slice, slicePtr(request.chosen[g]),
                                    dim * sizeof(float)) == 0,
                        "hedge winner and loser disagree");
                std::copy_n(slice, dim,
                            pooled.data() +
                                static_cast<std::size_t>(g) * dim);
            }
            if (options_.embeddingOnly) {
                done.outcome.outputs.insert(done.outcome.outputs.end(),
                                            pooled.begin(),
                                            pooled.end());
            } else {
                done.outcome.outputs.push_back(
                    engine::decomposedForward(
                        fullModel_, request.samples[s].dense, pooled));
            }
        }
    }

    // Pre-send semantics match the single device: the host may ship
    // the next request's inputs while this one computes, so the fleet
    // clock advances to the shards' input-side progress (or to full
    // completion for synchronous hosts).
    Cycle next = clusterNow_;
    for (const auto &participant : request.participants)
        next = std::max(next, shards_[participant.first]->deviceNow());
    if (!options_.device.presend)
        next = std::max(next, end);
    clusterNow_ = next;
    lastCompletion_ = end;
    requests_.inc();

    done.outcome.latency = cyclesToNanos(end - t0);
    done.outcome.completionCycle = end;
    retired_.inc();
    pushCompletion(std::move(done));
}

bool
RmSsdCluster::retireNext()
{
    if (inflight_.empty())
        return false;
    retireAt(0);
    return true;
}

Cycle
RmSsdCluster::requestReadyCycle(const ClusterInflight &request) const
{
    const auto subDoneCycle = [&](std::uint32_t d) {
        for (const auto &[pd, subId] : request.participants) {
            if (pd == d)
                return shards_[d]->doneCycle(subId);
        }
        return engine::kNeverCycle;
    };
    Cycle ready;
    if (request.hedged.empty()) {
        for (const auto &[d, subId] : request.participants)
            ready = std::max(ready, shards_[d]->doneCycle(subId));
        return ready;
    }
    for (std::uint32_t g = 0; g < config_.numTables; ++g) {
        if (request.tableLookups[g] == 0)
            continue;
        Cycle table = subDoneCycle(request.chosen[g]);
        for (const auto &[hg, hd] : request.hedged) {
            if (hg == g)
                table = std::min(table, subDoneCycle(hd));
        }
        ready = std::max(ready, table);
    }
    return ready;
}

std::uint32_t
RmSsdCluster::harvestDoneBy(Cycle when)
{
    std::uint32_t retired = 0;
    std::size_t pos = 0;
    while (pos < inflight_.size()) {
        if (requestReadyCycle(inflight_[pos]) <= when) {
            retireAt(pos);
            ++retired;
        } else {
            ++pos;
        }
    }
    return retired;
}

Cycle
RmSsdCluster::nextDoneCycle() const
{
    Cycle earliest = engine::kNeverCycle;
    for (const ClusterInflight &request : inflight_)
        earliest = std::min(earliest, requestReadyCycle(request));
    return earliest;
}

Cycle
RmSsdCluster::doneCycle(engine::RequestId id) const
{
    for (const ClusterInflight &request : inflight_) {
        if (request.id == id)
            return requestReadyCycle(request);
    }
    return engine::InferenceDevice::doneCycle(id);
}

void
RmSsdCluster::setMaxInflight(std::uint32_t depth)
{
    // Shrink the fleet queue first so shard queues never hold a
    // sub-request whose cluster request has already retired.
    engine::InferenceDevice::setMaxInflight(depth);
    // Decoupled shard caps: a non-zero shardQueueDepth pins the
    // shards' own backpressure bound regardless of the fleet depth
    // (the id-paired gather tolerates shard-side force-retires).
    const std::uint32_t shardDepth =
        options_.shardQueueDepth != 0 ? options_.shardQueueDepth
                                      : depth;
    for (const auto &shard : shards_)
        shard->setMaxInflight(shardDepth);
}

std::uint32_t
RmSsdCluster::pipelineMicroBatch() const
{
    if (options_.embeddingOnly)
        return shards_[0]->pipelineMicroBatch();
    return searchResult_.plan.microBatch;
}

bool
RmSsdCluster::hasEvCache() const
{
    for (const auto &shard : shards_) {
        if (shard->hasEvCache())
            return true;
    }
    return false;
}

std::uint64_t
RmSsdCluster::cacheHits() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->cacheHits();
    return total;
}

std::uint64_t
RmSsdCluster::cacheMisses() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->cacheMisses();
    return total;
}

bool
RmSsdCluster::replanIfDrifted(double threshold)
{
    bool any = false;
    for (const auto &shard : shards_)
        any = shard->replanIfDrifted(threshold) || any;
    return any;
}

std::uint64_t
RmSsdCluster::replanCount() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->replanCount();
    return total;
}

std::uint64_t
RmSsdCluster::migrateIfDrifted()
{
    std::uint64_t moved = 0;
    for (const auto &shard : shards_)
        moved += shard->migrateIfDrifted();
    return moved;
}

void
RmSsdCluster::attachHostTier(std::shared_ptr<host::EmbeddingTier> tier)
{
    if (tier)
        RMSSD_ASSERT(tier->model().config().numTables ==
                         config_.numTables,
                     "tier model shape does not match the cluster");
    hostTier_ = std::move(tier);
    // Residual sub-requests carry variable-length lookup lists, so the
    // shards must charge input DMA by what they actually receive (the
    // config formula would charge full-size payloads for slices the
    // tier absorbed). Restored when the tier detaches — unless a
    // layer above (e.g. a multi-tenant front) asked for actual-count
    // accounting independently.
    for (const auto &shard : shards_)
        shard->setChargeActualIndexBytes(hostTier_ != nullptr ||
                                         chargeActualIndexBytes_);
}

void
RmSsdCluster::setChargeActualIndexBytes(bool on)
{
    chargeActualIndexBytes_ = on;
    for (const auto &shard : shards_)
        shard->setChargeActualIndexBytes(on || hostTier_ != nullptr);
}

std::uint64_t
RmSsdCluster::migratedPageCount() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->migratedPageCount();
    return total;
}

void
RmSsdCluster::advanceHostClock(Nanos hostNanos)
{
    clusterNow_ += nanosToCycles(hostNanos);
}

void
RmSsdCluster::resetTiming()
{
    for (const auto &shard : shards_)
        shard->resetTiming();
    clusterNow_ = {};
    lastCompletion_ = {};
    std::fill(bottomFree_.begin(), bottomFree_.end(), Cycle{});
    std::fill(topFree_.begin(), topFree_.end(), Cycle{});
    rrHome_ = 0;
    std::fill(rrReplica_.begin(), rrReplica_.end(), 0);
    inflight_.clear();
    clearCompletions();
}

void
RmSsdCluster::registerStats(StatsRegistry &registry,
                            const std::string &prefix) const
{
    const ScopedStats stats = registry.scoped(prefix);
    stats.addCounter("requests", &requests_);
    stats.addCounter("subRequests", &subRequests_);
    const ScopedStats queue = stats.scoped("queue");
    queue.addCounter("submitted", &submitted_);
    queue.addCounter("retired", &retired_);
    queue.addDistribution("depth", &queueDepthOnSubmit_);
    if (options_.hedge.enabled) {
        // Registered only when hedging is on, so stats dumps of
        // existing experiments stay byte-identical.
        const ScopedStats hedge = stats.scoped("hedge");
        hedge.addCounter("issued", &hedgesIssued_);
        hedge.addCounter("wins", &hedgeWins_);
    }
    const ScopedStats host = stats.scoped("host");
    host.addCounter("bytesRead", &hostBytesRead_);
    host.addCounter("bytesWritten", &hostBytesWritten_);
    if (hostTier_) {
        const ScopedStats tier = host.scoped("tier");
        hostTier_->registerStats(tier.registry(), tier.prefix());
    }
    for (std::uint32_t d = 0; d < plan_.numDevices(); ++d) {
        const ScopedStats dev =
            stats.scoped("dev" + std::to_string(d));
        shards_[d]->registerStats(dev.registry(), dev.prefix());
    }
}

} // namespace rmssd::cluster
