/**
 * @file
 * Multi-SSD scale-out serving: a fleet of RM-SSD shards behind one
 * InferenceDevice facade. Tables are partitioned over the shards by a
 * ShardPlan; each request's lookups scatter to the owning shards, the
 * partial pooled sums gather back (the same pooled-vector splitting
 * the intra-layer decomposition of Section IV-C2 exploits inside one
 * device), and the MLP runs on a router-chosen home device.
 *
 * The facade implements the full InferenceDevice contract, so the
 * shared serving drivers (workload::runDeviceLoop, simulateServing,
 * steadyStateQps) drive a fleet exactly like a single device.
 */

#ifndef RMSSD_CLUSTER_CLUSTER_H
#define RMSSD_CLUSTER_CLUSTER_H

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/sharding.h"
#include "engine/inference_device.h"
#include "engine/rm_ssd.h"
#include "host/embedding_tier.h"
#include "model/dlrm.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "workload/trace_gen.h"

namespace rmssd::cluster {

/** How the router picks shards and the MLP home device. */
enum class RouterPolicy : std::uint8_t
{
    /** Rotate homes and replica choices request by request. */
    RoundRobin,
    /** Route to the device with the least outstanding work. */
    LeastOutstanding,
    /**
     * Pin each table to one fixed replica and home the MLP on the
     * device serving the most lookups of the request.
     */
    TableAffinity,
};

/** Hedged shard lookups to table replicas (off by default). */
struct HedgeOptions
{
    bool enabled = false;
    /**
     * Home-shard queue length (in-flight sub-requests) at or above
     * which a replicated table's lookups are also issued to the
     * least-loaded other replica. The gather takes the first
     * completion per table; winner and loser must agree byte-for-byte
     * (asserted on functional devices) — hedging may only change
     * timing, never results.
     */
    std::uint32_t queueThreshold = 2;
};

/** Fleet construction options. */
struct ClusterOptions
{
    ShardingOptions sharding;
    RouterPolicy policy = RouterPolicy::RoundRobin;
    /** Per-shard device options (variant is forced to EmbeddingOnly). */
    engine::RmSsdOptions device;
    /**
     * Per-shard in-flight cap decoupled from the cluster-wide depth:
     * when non-zero, setMaxInflight leaves every shard's queue at
     * this bound instead of mirroring the fleet depth. Safe because
     * the gather pairs shard completions by sub-request id, not FIFO
     * position — a shard force-retiring an early sub-request under
     * its own backpressure parks the completion until its cluster
     * request gathers. 0 (the default) mirrors the fleet depth.
     */
    std::uint32_t shardQueueDepth = 0;
    /** Hedged requests to replicas of hot tables (see HedgeOptions). */
    HedgeOptions hedge;
    /**
     * Serve pooled embeddings only (no fleet MLP): outputs are the
     * gathered pooled vectors, matching a single EmbeddingOnly device
     * byte-for-byte.
     */
    bool embeddingOnly = false;
    /**
     * Optional per-table traffic profile
     * (TraceGenerator::tableHistograms) steering the sharding planner.
     */
    std::vector<workload::TraceGenerator::TableHistogram> histograms;
};

/** A fleet of RM-SSD shards serving one model. */
class RmSsdCluster : public engine::InferenceDevice
{
  public:
    RmSsdCluster(const model::ModelConfig &config,
                 const ClusterOptions &options);

    /**
     * Issue one request asynchronously: route and scatter now (each
     * shard's sub-request issues through its own async queue, so
     * shard clocks stay independent between scatters and
     * least-outstanding routing observes real per-device depths);
     * defer the gather, the home MLP, and the completion bookkeeping
     * until the request retires.
     */
    engine::RequestId
    submit(std::span<const model::Sample> samples) override;

    /** Retire the oldest outstanding request; false when idle. */
    bool retireNext() override;

    /**
     * Eager completion scan: retire every in-flight fleet request
     * whose gather inputs are ready by @p when — every table's
     * lookups done on at least one serving replica (the home-MLP and
     * readout tail still run at retire). Out-of-order finishers
     * (disjoint shard sets, hedge wins) retire past a straggler.
     */
    std::uint32_t harvestDoneBy(Cycle when) override;

    /** Earliest gather-ready cycle among in-flight fleet requests. */
    Cycle nextDoneCycle() const override;

    /**
     * In flight: the cycle the request can gather (see
     * requestReadyCycle); the gather and home-MLP tail run past it.
     */
    Cycle doneCycle(engine::RequestId id) const override;

    /** Requests issued but not yet retired. */
    std::uint32_t inflight() const override
    {
        return static_cast<std::uint32_t>(inflight_.size());
    }

    /**
     * Propagate the queue depth to every shard (or pin shards at
     * ClusterOptions::shardQueueDepth when set), then resize.
     */
    void setMaxInflight(std::uint32_t depth) override;

    const model::DlrmModel &model() const override { return fullModel_; }
    Cycle deviceNow() const override { return clusterNow_; }
    Cycle lastCompletion() const override { return lastCompletion_; }
    void advanceHostClock(Nanos hostNanos) override;
    void resetTiming() override;
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix = "cluster")
        const override;
    const Counter &hostBytesRead() const override
    {
        return hostBytesRead_;
    }
    const Counter &hostBytesWritten() const override
    {
        return hostBytesWritten_;
    }
    std::uint32_t pipelineMicroBatch() const override;

    bool hasEvCache() const override;
    std::uint64_t cacheHits() const override;
    std::uint64_t cacheMisses() const override;
    /** Propagate the drift check to every shard (true if any re-plans). */
    bool replanIfDrifted(double threshold) override;
    std::uint64_t replanCount() const override;
    /** Propagate the migration check to every shard (pages moved). */
    std::uint64_t migrateIfDrifted() override;
    std::uint64_t migratedPageCount() const override;

    /**
     * Attach a host tier ABOVE the router: requests intercept before
     * sharding, so the residual re-shards — a shard whose tables were
     * fully served receives no sub-request at all — and every shard
     * switches to actual-index-count DMA accounting. The tier's served
     * partials merge in the gather, byte-exactly.
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
     * Forward actual-index-count DMA accounting to every shard (a
     * layer above the cluster submits rewritten requests). Sticky
     * across tier attach/detach.
     */
    void setChargeActualIndexBytes(bool on) override;

    const ShardPlan &shardPlan() const { return plan_; }
    std::uint32_t numDevices() const { return plan_.numDevices(); }
    engine::RmSsd &shard(std::uint32_t d) { return *shards_[d]; }
    const engine::RmSsd &shard(std::uint32_t d) const
    {
        return *shards_[d];
    }
    /** Fleet-level requests served. */
    const Counter &requests() const { return requests_; }
    /** Shard infer() calls issued by the scatter stage. */
    const Counter &subRequests() const { return subRequests_; }
    /** Hedged table lookups issued to an alternate replica. */
    const Counter &hedgesIssued() const { return hedgesIssued_; }
    /** Hedges whose alternate replica finished strictly first. */
    const Counter &hedgeWins() const { return hedgeWins_; }

  private:
    /** Replica of global table @p g serving this request. */
    std::uint32_t chooseReplica(std::uint32_t g);
    /** Home device for the MLP given per-device assigned lookups. */
    std::uint32_t chooseHome(
        const std::vector<std::uint64_t> &assignedLookups);

    /** One scattered-but-not-gathered request (async pipeline). */
    struct ClusterInflight
    {
        engine::RequestId id = 0;
        Cycle t0; //!< fleet clock at scatter time
        std::size_t numSamples = 0;
        /** Serving replica chosen per global table. */
        std::vector<std::uint32_t> chosen;
        std::vector<std::uint64_t> assignedLookups;
        /** (device, shard ticket) per participant, in device order. */
        std::vector<std::pair<std::uint32_t, engine::RequestId>>
            participants;
        /** Request samples, kept for the functional gather. */
        std::vector<model::Sample> samples;
        /** Host-tier served slices per sample (empty without a tier);
         *  slice.table is the GLOBAL table id (full-model samples). */
        std::vector<std::vector<host::EmbeddingTier::ServedSlice>>
            tierServed;
        /** Hedged tables: (global table, alternate device) pairs. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> hedged;
        /** Per-table lookup counts (filled only when hedging). */
        std::vector<std::uint64_t> tableLookups;
    };

    /**
     * Retire stage for the in-flight request at queue position
     * @p pos: shard gather + home MLP + presend bookkeeping.
     */
    void retireAt(std::size_t pos);

    /**
     * First cycle @p request can gather: every table with lookups is
     * done on at least one of its serving replicas (the chosen home,
     * or — for hedged tables — the earlier of home and alternate).
     */
    Cycle requestReadyCycle(const ClusterInflight &request) const;

    /** Route/scatter stage over the (possibly residual) samples. */
    engine::RequestId
    submitResidual(std::span<const model::Sample> samples,
                   host::EmbeddingTier::Intercept *icpt);

    model::ModelConfig config_;
    ClusterOptions options_;
    ShardPlan plan_;
    model::DlrmModel fullModel_;
    std::vector<std::unique_ptr<engine::RmSsd>> shards_;
    /** Host-DRAM embedding tier above the router; nullptr without. */
    std::shared_ptr<host::EmbeddingTier> hostTier_;
    /** Actual-count DMA accounting requested from above the cluster. */
    bool chargeActualIndexBytes_ = false;

    /** Fleet-level MLP plan (kernel search against the full model). */
    engine::SearchResult searchResult_;
    Cycle botPrime_;
    Cycle topPrime_;
    Cycle lePrime_;

    Cycle clusterNow_;
    Cycle lastCompletion_;
    /** Per-device MLP stage availability (home-device pipelining). */
    std::vector<Cycle> bottomFree_;
    std::vector<Cycle> topFree_;
    /** Round-robin rotation state. */
    std::uint64_t rrHome_ = 0;
    std::vector<std::uint64_t> rrReplica_;

    std::deque<ClusterInflight> inflight_;

    Counter requests_;
    Counter subRequests_;
    Counter hostBytesRead_;
    Counter hostBytesWritten_;
    Counter hedgesIssued_;
    Counter hedgeWins_;
};

} // namespace rmssd::cluster

#endif // RMSSD_CLUSTER_CLUSTER_H
