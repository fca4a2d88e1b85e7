/**
 * @file
 * Multi-tenant model fleet: colocate heterogeneous catalog models
 * (RMC1's 32-dim tables beside RMC2's 64-dim ones) on one shared
 * RM-SSD / RmSsdCluster, with per-tenant isolation and stats.
 *
 * A TenantSpec binds a model spec to a tenant id, traffic share and
 * resource policy. TenantFleet is an engine::InferenceDevice front:
 * tenant-tagged requests flow through the existing submit/poll/drain
 * path of one shared backend whose flash holds the union layout of
 * every tenant's tables.
 *
 * **Union layout (global-id offsetting + dim-lane splitting).** The
 * backend serves one ModelConfig whose embDim is the minimum tenant
 * dim; a tenant table of k*embDim splits into k consecutive union
 * tables ("lanes") that receive the same index list, so its pooled
 * vector is the concatenation of the lanes' pooled partials. Pooling
 * folds per column independently and lanes preserve the lookup
 * order, so a tenant's pooled floats are bit-identical to a bare
 * device serving that tenant's slots (the same
 * ModelConfig::withTableSubset idiom the cluster tests rely on).
 * Union slots are globally numbered, so tenants' tables coexist on
 * one flash layout without id collisions.
 *
 * **Isolation.** Per-tenant inflight caps sit on top of the backend's
 * maxInflight: a tenant at its cap has its next issue gated until its
 * own oldest request completes, so a flash-crowd tenant cannot queue
 * unbounded work ahead of its neighbors. Per-tenant EV-cache byte
 * budgets carve the shared device cache via
 * EvCacheConfig::tableShares (engine::planTablePartitions'
 * largest-remainder quotas make the split structural: one tenant's
 * traffic cannot evict another's partition), and per-tenant host-DRAM
 * budgets carve the shared tier pool via engine::planHostTier.
 *
 * **Stats.** Every tenant exports namespaced `tenant.<id>.*` counters
 * (submitted/retired/samples, service-latency percentiles, QPS, tier
 * hit ratio, queue occupancy) beside the backend's device counters.
 */

#ifndef RMSSD_CATALOG_TENANT_H
#define RMSSD_CATALOG_TENANT_H

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "engine/inference_device.h"
#include "engine/rm_ssd.h"
#include "host/cpu_model.h"
#include "host/embedding_tier.h"
#include "model/dlrm.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::catalog {

/** One tenant: a catalog model bound to an id and resource policy. */
struct TenantSpec
{
    /** Stats namespace (tenant.<id>.*) and report label. */
    std::string id;
    /** The tenant's model (a catalog model or a scaled variant). */
    model::ModelConfig config;
    /** Locality profile; drives the budget planners' traffic profiling. */
    workload::TraceConfig trace;
    /** Fraction of fleet traffic this tenant is expected to carry. */
    double trafficShare = 1.0;
    /**
     * Fair-share inflight cap on top of the backend's maxInflight:
     * with this many of the tenant's requests outstanding, the next
     * issue waits for the tenant's own oldest completion. 0 = no cap
     * (the tenant may fill the whole queue).
     */
    std::uint32_t maxInflightCap = 0;
    /** Relative weight of the shared EV-cache capacity carve. */
    double cacheShare = 1.0;
    /** Relative weight of the shared host-DRAM pool carve. */
    double tierShare = 1.0;
};

/** Fleet construction options. */
struct FleetOptions
{
    /** Backend width: 1 = single RmSsd, >1 = RmSsdCluster shards. */
    std::uint32_t numDevices = 1;
    /** Router policy of the cluster backend (numDevices > 1). */
    cluster::RouterPolicy policy = cluster::RouterPolicy::LeastOutstanding;
    /**
     * Shared backend knobs (geometry, EV-cache pool, placement...).
     * The variant is forced to EmbeddingOnly whenever the union layout
     * spans several tenants or hostMlp is on; a single-tenant fleet
     * keeps the requested variant (bit-exact passthrough).
     */
    engine::RmSsdOptions device;
    /**
     * Run each tenant's own MLP on the host above the embedding-only
     * backend (EMB-VectorSum style): outputs become per-sample CTRs
     * and completions extend by the tenant's serialized host MLP time.
     * Off: outputs are the tenant's pooled vectors.
     */
    bool hostMlp = false;
    /** Host CPU cost model for hostMlp. */
    host::CpuCosts hostCpu;
    /** Shared host-DRAM embedding pool; 0 = no tier. */
    Bytes hostTierBytes;
    host::TierTiming tierTiming;
    /** Lookups per table profiled per tenant for the budget planners. */
    std::uint64_t profileLookups = 4096;
    /**
     * Content seed of a multi-tenant union layout (colocated table
     * content is defined by the union model — the honest reading for
     * synthetic tables). Single-tenant fleets keep the tenant's seed.
     */
    std::uint64_t unionSeed = 42;
};

/**
 * The union flash layout of a tenant set: the backend's ModelConfig
 * plus each tenant's lane-expanded slot map.
 */
struct UnionLayout
{
    model::ModelConfig config;
    /**
     * slots[i][t * lanes[i] + l] = union table id of tenant i's table
     * t, lane l. Slots of one tenant are consecutive, table-major.
     */
    std::vector<std::vector<std::uint32_t>> slots;
    /** Lanes per tenant: tenant embDim / union embDim. */
    std::vector<std::uint32_t> lanes;
    /** Single tenant: the union IS the tenant config, verbatim. */
    bool passthrough = false;
};

/**
 * Build the union layout: single tenant passes through verbatim;
 * several tenants combine at embDim = min tenant dim (every tenant
 * dim must be a multiple), rowsPerTable/lookupsPerTable = max, and
 * numTables = sum of lane-expanded table counts.
 */
UnionLayout buildUnionLayout(std::span<const TenantSpec> tenants,
                             std::uint64_t unionSeed);

/** N tenants multiplexed onto one shared RM-SSD backend. */
class TenantFleet : public engine::InferenceDevice
{
  public:
    TenantFleet(std::vector<TenantSpec> tenants,
                const FleetOptions &options);
    ~TenantFleet() override;

    std::size_t numTenants() const { return tenants_.size(); }
    const TenantSpec &tenant(std::size_t i) const;
    const model::ModelConfig &unionConfig() const
    {
        return layout_.config;
    }
    const UnionLayout &unionLayout() const { return layout_; }
    /** Union slots (lane-expanded) of tenant @p i. */
    const std::vector<std::uint32_t> &tenantSlots(std::size_t i) const
    {
        return layout_.slots[i];
    }

    /**
     * Issue one request for tenant @p i. Samples are in the TENANT's
     * shape (its numTables / embDim); the fleet remaps them onto the
     * union layout. Applies the tenant's inflight cap, then the
     * backend's own maxInflight backpressure.
     */
    engine::RequestId submitTenant(std::size_t i,
                                   std::span<const model::Sample> samples);

    /** Synchronous submitTenant + drain for tenant @p i. */
    engine::InferenceOutcome
    inferTenant(std::size_t i, std::span<const model::Sample> samples);

    /** Outstanding requests of tenant @p i. */
    std::uint32_t tenantInflight(std::size_t i) const;
    /** Carved host-DRAM budget of tenant @p i (0 without a tier). */
    Bytes tenantTierBudget(std::size_t i) const;
    /** Bytes the tier actually planned for tenant @p i. */
    Bytes tenantTierPlannedBytes(std::size_t i) const;
    /** Service latencies (submit to completion) of tenant @p i. */
    const workload::LatencyRecorder &
    tenantLatencies(std::size_t i) const;
    /** Requests retired for tenant @p i. */
    std::uint64_t tenantRetired(std::size_t i) const;
    /** Tier slice hits attributed to tenant @p i (tenant-table slices). */
    std::uint64_t tenantTierSliceHits(std::size_t i) const;
    std::uint64_t tenantTierSliceMisses(std::size_t i) const;
    /** Completion cycle of tenant @p i's most recent request. */
    Cycle tenantLastCompletion(std::size_t i) const;

    /** The shared backend (for attach/inspection in tests/benches). */
    engine::InferenceDevice &backend() { return *device_; }
    const engine::InferenceDevice &backend() const { return *device_; }
    /** The shared host tier; nullptr without one. */
    const host::EmbeddingTier *sharedTier() const
    {
        return tier_.get();
    }

    // ---- InferenceDevice contract (tenant 0 = default route) ------

    engine::RequestId
    submit(std::span<const model::Sample> samples) override;
    bool retireNext() override;
    /**
     * In flight: the backend's done cycle for the request (a device
     * status poll; a host-MLP tail may run past it).
     */
    Cycle doneCycle(engine::RequestId id) const override;
    /**
     * Reap on the oldest request: once it reads done by @p when, the
     * host collects the whole queue on that wakeup, blocking on any
     * younger request still running. Fleet completions finalize in
     * backend submission order, so a finished request behind an
     * unfinished older one waits for it.
     */
    std::uint32_t harvestDoneBy(Cycle when) override;
    /** Backend's next completion cycle (fleet retires stay FIFO). */
    Cycle nextDoneCycle() const override
    {
        return device_->nextDoneCycle();
    }
    std::uint32_t inflight() const override
    {
        return static_cast<std::uint32_t>(inflight_.size());
    }
    void setMaxInflight(std::uint32_t depth) override;
    const model::DlrmModel &model() const override;
    Cycle deviceNow() const override { return device_->deviceNow(); }
    Cycle lastCompletion() const override { return lastCompletion_; }
    void advanceHostClock(Nanos hostNanos) override
    {
        device_->advanceHostClock(hostNanos);
    }
    void resetTiming() override;
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix = "fleet")
        const override;
    const Counter &hostBytesRead() const override
    {
        return device_->hostBytesRead();
    }
    const Counter &hostBytesWritten() const override
    {
        return device_->hostBytesWritten();
    }
    std::uint32_t pipelineMicroBatch() const override
    {
        return device_->pipelineMicroBatch();
    }
    bool hasEvCache() const override { return device_->hasEvCache(); }
    std::uint64_t cacheHits() const override
    {
        return device_->cacheHits();
    }
    std::uint64_t cacheMisses() const override
    {
        return device_->cacheMisses();
    }
    bool replanIfDrifted(double threshold) override
    {
        return device_->replanIfDrifted(threshold);
    }
    std::uint64_t replanCount() const override
    {
        return device_->replanCount();
    }
    std::uint64_t migrateIfDrifted() override
    {
        return device_->migrateIfDrifted();
    }
    std::uint64_t migratedPageCount() const override
    {
        return device_->migratedPageCount();
    }
    const host::EmbeddingTier *hostTier() const override
    {
        return device_->hostTier();
    }
    std::uint64_t tierSliceHits() const override
    {
        return device_->tierSliceHits();
    }
    std::uint64_t tierSliceMisses() const override
    {
        return device_->tierSliceMisses();
    }
    void setChargeActualIndexBytes(bool on) override
    {
        device_->setChargeActualIndexBytes(on);
    }

  private:
    /** Per-tenant runtime state (stable addresses for stat gauges). */
    struct TenantState
    {
        TenantSpec spec;
        /** Tenant functional model (host MLP + reference shapes). */
        std::unique_ptr<model::DlrmModel> model;
        std::uint32_t inflightCount = 0;
        /** Host MLP serialization track (hostMlp mode). */
        Cycle mlpFree;
        Cycle lastCompletion;
        Bytes tierBudget;
        Bytes tierPlanned;
        Counter submitted;
        Counter retired;
        Counter samples;
        Counter tierSliceHits;
        Counter tierSliceMisses;
        Distribution inflightOnSubmit;
        workload::LatencyRecorder latencies;
    };

    /** One issued-but-not-retired fleet request. */
    struct FleetInflight
    {
        engine::RequestId fleetId = 0;
        engine::RequestId deviceId = 0;
        std::size_t tenant = 0;
        Cycle submitCycle;
        std::size_t numSamples = 0;
        /** Original dense inputs (hostMlp + functional backends). */
        std::vector<model::Vector> dense;
    };

    /** Remap tenant samples onto the union layout (lane duplication). */
    std::vector<model::Sample>
    remapSamples(std::size_t i,
                 std::span<const model::Sample> samples) const;

    /** Probe the shared tier for per-tenant slice-hit attribution. */
    void attributeTierSlices(std::size_t i,
                             std::span<const model::Sample> samples);

    /** Finalize the oldest fleet request from @p completion. */
    void finalize(engine::AsyncCompletion completion);

    /** Harvest every backend completion already retired. */
    void harvest();

    /**
     * Inflight-cap gate: retire forward (FIFO) until one of tenant
     * @p i's requests completes, then hold the host clock to that
     * completion so the tenant's next issue cannot start earlier.
     */
    void gateOnTenantCompletion(std::size_t i);

    /** Carve the EV-cache pool into per-tenant tableShares. */
    void carveEvCacheShares(
        engine::RmSsdOptions &deviceOptions,
        const std::vector<
            std::vector<workload::TraceGenerator::TableHistogram>>
            &histograms) const;

    /** Plan + provision the shared host tier from per-tenant budgets. */
    void provisionSharedTier(
        const FleetOptions &options,
        const std::vector<
            std::vector<workload::TraceGenerator::TableHistogram>>
            &histograms);

    UnionLayout layout_;
    FleetOptions options_;
    std::vector<std::unique_ptr<TenantState>> tenants_;
    std::unique_ptr<engine::InferenceDevice> device_;
    /** Shared host tier (references device_->model(); declared after
     *  device_ so it destructs first). */
    std::shared_ptr<host::EmbeddingTier> tier_;
    host::CpuModel hostCpu_;
    bool functionalBackend_ = false;

    std::deque<FleetInflight> inflight_;
    Cycle lastCompletion_;
};

/**
 * Convenience: build a TenantFleet whose tenants are catalog models
 * looked up by name (each spec's config replaced by the catalog's).
 */
TenantFleet buildFleetFromCatalog(const class ModelCatalog &catalog,
                                  std::vector<TenantSpec> tenants,
                                  const FleetOptions &options);

} // namespace rmssd::catalog

#endif // RMSSD_CATALOG_TENANT_H
