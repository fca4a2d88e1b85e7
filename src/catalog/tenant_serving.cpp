#include "catalog/tenant_serving.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "sim/log.h"
#include "sim/rng.h"
#include "workload/serving.h"

namespace rmssd::catalog {

namespace {

/** One request arrival in the merged stream. */
struct Arrival
{
    std::uint64_t nanos = 0;
    std::uint32_t tenant = 0;
};

} // namespace

FleetServingResult
simulateFleetServing(TenantFleet &fleet,
                     const FleetServingConfig &config)
{
    RMSSD_ASSERT(config.loads.size() == fleet.numTenants(),
                 "one TenantLoad per tenant required");
    fleet.resetTiming();
    fleet.setMaxInflight(std::max<std::uint32_t>(config.queueDepth, 1));

    const std::size_t n = fleet.numTenants();

    // Pre-compute every tenant's Poisson arrival times. Each tenant
    // derives its own RNG stream from the base seed, so adding a
    // tenant (or changing one's load) never perturbs the others'
    // arrival processes.
    std::vector<Arrival> arrivals;
    for (std::size_t i = 0; i < n; ++i) {
        const TenantLoad &load = config.loads[i];
        RMSSD_ASSERT(load.arrivalQps > 0.0,
                     "non-positive arrival rate");
        Rng rng(config.seed ^
                (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(i) + 1)));
        double arrivalNanos = 0.0;
        for (std::uint32_t r = 0; r < load.numRequests; ++r) {
            const bool spiking = load.spikeMultiplier != 1.0 &&
                                 r >= load.spikeStartRequest &&
                                 r < load.spikeEndRequest;
            const double qps =
                spiking ? load.arrivalQps * load.spikeMultiplier
                        : load.arrivalQps;
            const double u = std::max(rng.nextDouble(), 1e-12);
            arrivalNanos += -(1e9 / qps) * std::log(u);
            arrivals.push_back(
                {static_cast<std::uint64_t>(arrivalNanos),
                 static_cast<std::uint32_t>(i)});
        }
    }
    // Merge by timestamp; a timestamp tie resolves by tenant order
    // and, within one tenant, stable_sort keeps generation order —
    // fully deterministic interleaving.
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.nanos != b.nanos
                                    ? a.nanos < b.nanos
                                    : a.tenant < b.tenant;
                     });

    std::vector<workload::TraceGenerator> gens;
    gens.reserve(n);
    std::vector<std::uint64_t> tierHitsBefore(n), tierMissesBefore(n);
    for (std::size_t i = 0; i < n; ++i) {
        gens.emplace_back(fleet.tenant(i).config, fleet.tenant(i).trace);
        tierHitsBefore[i] = fleet.tenantTierSliceHits(i);
        tierMissesBefore[i] = fleet.tenantTierSliceMisses(i);
    }

    std::vector<workload::LatencyRecorder> latencies(n);
    std::vector<Cycle> lastCompletion(n);
    std::vector<double> depthSum(n, 0.0);
    Cycle fleetLast;

    // Arrival cycles of submitted-but-not-completed requests, global
    // FIFO — fleet completions pop in submission order even when a
    // per-tenant host MLP reorders completion *times* across tenants.
    std::deque<std::pair<Cycle, std::uint32_t>> pending;
    const auto recordCompletion =
        [&](const engine::AsyncCompletion &completion) {
            const auto [reqArrival, tenant] = pending.front();
            pending.pop_front();
            latencies[tenant].add(cyclesToNanos(
                completion.outcome.completionCycle - reqArrival));
            lastCompletion[tenant] =
                std::max(lastCompletion[tenant],
                         completion.outcome.completionCycle);
            fleetLast = std::max(
                fleetLast, completion.outcome.completionCycle);
        };

    // Per-tenant dispatch queues: a tenant at its inflight cap parks
    // its arrivals here instead of gating the shared submission clock
    // — the whole point of the caps is that one tenant's backlog must
    // not head-of-line block its neighbors' dispatch. Parked requests
    // issue as the tenant's own completions free cap slots.
    struct Parked
    {
        Cycle arrival;
        std::vector<model::Sample> batch;
    };
    std::vector<std::deque<Parked>> parked(n);

    const auto submitNow = [&](std::uint32_t tenant, Cycle arrival,
                               std::span<const model::Sample> batch) {
        fleet.submitTenant(tenant, batch);
        pending.emplace_back(arrival, tenant);
        depthSum[tenant] +=
            static_cast<double>(fleet.tenantInflight(tenant));
        while (const auto completion = fleet.poll())
            recordCompletion(*completion);
    };
    // Reap once the oldest request reads done at `now`
    // (TenantFleet::harvestDoneBy): frees cap slots without waiting
    // on an unfinished oldest request.
    const auto harvest = [&](Cycle now) {
        fleet.harvestDoneBy(now);
        while (const auto completion = fleet.poll())
            recordCompletion(*completion);
    };
    const auto underCap = [&](std::uint32_t tenant) {
        const std::uint32_t cap = fleet.tenant(tenant).maxInflightCap;
        return cap == 0 || fleet.tenantInflight(tenant) < cap;
    };
    const auto flushParked = [&] {
        for (std::uint32_t j = 0; j < n; ++j) {
            while (!parked[j].empty() && underCap(j)) {
                const Parked head = std::move(parked[j].front());
                parked[j].pop_front();
                submitNow(j, head.arrival, head.batch);
            }
        }
    };

    // Start-time fair queueing (SFQ) state for wfq mode: per-tenant
    // virtual finish times against one global virtual clock. A
    // dispatch starts at max(V, F_i) and finishes 1/weight_i later in
    // virtual time, so over any contended interval tenant i's
    // dispatch count tracks trafficShare_i / sum(trafficShare).
    std::vector<double> vfinish(n, 0.0);
    double vtime = 0.0;
    std::vector<std::uint64_t> contendedDispatches(n, 0);
    std::uint64_t contendedTotal = 0;
    const auto backendRoom = [&] {
        return fleet.inflight() < fleet.maxInflight();
    };
    const auto parkedTenantCount = [&] {
        std::size_t count = 0;
        for (std::uint32_t j = 0; j < n; ++j)
            count += parked[j].empty() ? 0u : 1u;
        return count;
    };
    // Issue parked requests in SFQ order while the backend has room
    // (never force-blocking the shared clock — isolation comes first,
    // fairness decides who uses the free slots).
    const auto flushParkedWfq = [&] {
        while (backendRoom()) {
            std::size_t best = n;
            double bestStart = 0.0;
            for (std::uint32_t j = 0; j < n; ++j) {
                if (parked[j].empty() || !underCap(j))
                    continue;
                const double start = std::max(vtime, vfinish[j]);
                if (best == n || start < bestStart) {
                    best = j;
                    bestStart = start;
                }
            }
            if (best == n)
                return;
            const bool contended = parkedTenantCount() >= 2;
            const Parked head = std::move(parked[best].front());
            parked[best].pop_front();
            const double weight =
                std::max(fleet.tenant(best).trafficShare, 1e-9);
            vtime = bestStart;
            vfinish[best] = bestStart + 1.0 / weight;
            if (contended) {
                ++contendedDispatches[best];
                ++contendedTotal;
            }
            submitNow(static_cast<std::uint32_t>(best), head.arrival,
                      head.batch);
        }
    };

    for (const Arrival &arrival : arrivals) {
        const Cycle when = nanosToCycles(Nanos{arrival.nanos});
        if (fleet.deviceNow() < when)
            fleet.advanceHostClock(
                cyclesToNanos(when - fleet.deviceNow()));
        harvest(when);
        if (config.wfq)
            flushParkedWfq();
        else
            flushParked();
        auto batch = gens[arrival.tenant].nextBatch(
            config.loads[arrival.tenant].batchSize);
        if (config.wfq) {
            // WFQ: every arrival goes through its tenant's queue so
            // the SFQ scheduler owns all dispatch ordering.
            parked[arrival.tenant].push_back({when, std::move(batch)});
            flushParkedWfq();
        } else if (underCap(arrival.tenant) &&
                   parked[arrival.tenant].empty()) {
            submitNow(arrival.tenant, when, batch);
        } else {
            parked[arrival.tenant].push_back(
                {when, std::move(batch)});
        }
    }
    // Tail: the capped backlogs issue at their owners' completion pace
    // (submitTenant's own gate advances the clock tenant-locally now
    // that no further victim arrivals can be delayed by it). In WFQ
    // mode the scheduler keeps picking; when the backend (or every
    // backlogged tenant's cap) is full, retiring the oldest request
    // forces progress.
    if (config.wfq) {
        while (parkedTenantCount() > 0) {
            harvest(fleet.deviceNow());
            flushParkedWfq();
            if (parkedTenantCount() == 0)
                break;
            fleet.retireNext();
            while (const auto completion = fleet.poll())
                recordCompletion(*completion);
        }
    } else {
        for (bool again = true; again;) {
            again = false;
            harvest(fleet.deviceNow());
            for (std::uint32_t j = 0; j < n; ++j) {
                if (parked[j].empty())
                    continue;
                const Parked head = std::move(parked[j].front());
                parked[j].pop_front();
                submitNow(j, head.arrival, head.batch);
                again = true;
            }
        }
    }
    for (const engine::AsyncCompletion &completion : fleet.drain())
        recordCompletion(completion);
    RMSSD_ASSERT(pending.empty(), "drain left requests unaccounted");

    FleetServingResult result;
    std::uint64_t totalRequests = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const TenantLoad &load = config.loads[i];
        TenantServingResult tr;
        tr.offeredQps = load.arrivalQps;
        tr.requests = load.numRequests;
        totalRequests += load.numRequests;
        const double seconds =
            nanosToSeconds(cyclesToNanos(lastCompletion[i]));
        tr.achievedQps =
            seconds > 0.0 ? load.numRequests / seconds : 0.0;
        tr.meanLatency = latencies[i].mean();
        tr.p50 = latencies[i].percentile(50.0);
        tr.p95 = latencies[i].percentile(95.0);
        tr.p99 = latencies[i].percentile(99.0);
        tr.maxLatency = latencies[i].max();
        tr.meanInflight =
            load.numRequests > 0
                ? depthSum[i] / static_cast<double>(load.numRequests)
                : 0.0;
        const std::uint64_t hits =
            fleet.tenantTierSliceHits(i) - tierHitsBefore[i];
        const std::uint64_t misses =
            fleet.tenantTierSliceMisses(i) - tierMissesBefore[i];
        if (hits + misses > 0)
            tr.tierHitRatio = static_cast<double>(hits) /
                              static_cast<double>(hits + misses);
        if (contendedTotal > 0)
            tr.contendedDispatchShare =
                static_cast<double>(contendedDispatches[i]) /
                static_cast<double>(contendedTotal);
        result.tenants.push_back(tr);
    }
    result.requests = totalRequests;
    const double seconds = nanosToSeconds(cyclesToNanos(fleetLast));
    result.achievedQps =
        seconds > 0.0 ? static_cast<double>(totalRequests) / seconds
                      : 0.0;
    return result;
}

} // namespace rmssd::catalog
