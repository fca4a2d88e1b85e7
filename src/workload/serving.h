/**
 * @file
 * Online-serving simulation: Poisson request arrivals against any
 * InferenceDevice (a single RM-SSD or a sharded cluster), with
 * tail-latency statistics — the service-level agreement context that
 * motivates the paper ("to meet the strict service level agreement
 * requirements of recommendation systems").
 */

#ifndef RMSSD_WORKLOAD_SERVING_H
#define RMSSD_WORKLOAD_SERVING_H

#include <cstdint>
#include <string>
#include <vector>

#include "engine/inference_device.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "workload/depth_controller.h"
#include "workload/trace_gen.h"

namespace rmssd::workload {

/** Latency sample collector with percentile queries. */
class LatencyRecorder
{
  public:
    void add(Nanos latency);

    /**
     * Fold @p other's samples into this recorder, so per-class or
     * per-tenant recorders compose into a fleet-wide percentile
     * without re-adding samples at the call sites.
     */
    void merge(const LatencyRecorder &other);

    std::size_t count() const { return samples_.size(); }
    /** Mean latency; Nanos{0} on an empty recorder. */
    Nanos mean() const;
    /** Largest latency; Nanos{0} on an empty recorder. */
    Nanos max() const;
    /**
     * Latency percentile; e.g. percentile(99.0) is the p99 latency.
     * @p p is clamped to [0, 100] (NaN clamps to 0); an empty
     * recorder returns Nanos{0}.
     */
    Nanos percentile(double p) const;

  private:
    mutable std::vector<Nanos> samples_;
    mutable bool sorted_ = true;
};

/** One request priority class of the serving loop's dispatch queue. */
struct ServingClass
{
    std::string name = "default";
    /** Relative share of requests assigned to this class. */
    double share = 1.0;
    /** Dispatch priority: higher dispatches first (EDF within). */
    std::uint32_t priority = 0;
    /** Completion deadline budget from arrival; Nanos{0} = best-effort. */
    Nanos deadline{};
};

/**
 * SLO control-plane knobs. The defaults (one best-effort class, a
 * static depth) make the dispatch queue plain FIFO.
 */
struct SloServingOptions
{
    /**
     * Ignored: simulateServing has one loop, which always parks
     * arrivals in the priority/EDF dispatch queue and harvests
     * finished requests eagerly. Kept only so existing callers that
     * still set it build.
     */
    bool enabled = false;
    /**
     * Adaptive queue depth: a workload::DepthController walks the
     * device's maxInflight within [controller.minDepth,
     * controller.maxDepth] against targetP99. Mutually exclusive with
     * an explicit ServingConfig::queueDepth sweep (> 1) —
     * simulateServing asserts rather than silently ignoring one of
     * the two knobs.
     */
    bool adaptiveDepth = false;
    /** Latency SLO the controller's tail guard sheds against. */
    Nanos targetP99{};
    DepthControllerConfig controller;
    /**
     * Priority classes; each arrival is assigned a class
     * deterministically (by share, drawn from the arrival RNG
     * stream). Empty = one best-effort class.
     */
    std::vector<ServingClass> classes;
};

/** Configuration of one serving experiment. */
struct ServingConfig
{
    double arrivalQps = 1000.0;  //!< offered load (requests/s)
    std::uint32_t batchSize = 1; //!< samples per request
    std::uint32_t numRequests = 200;
    std::uint64_t seed = 0x5e12e5ULL;
    /**
     * Static queue depth: requests kept in flight on the device
     * (submit/poll pipelining). 1 (the default) reproduces the
     * blocking infer() loop bit-for-bit; deeper queues overlap
     * request r+1's embedding lookups with request r's MLP tail.
     * With slo.adaptiveDepth the DepthController drives the depth at
     * run time instead; the two are mutually exclusive (asserted).
     */
    std::uint32_t queueDepth = 1;
    /** SLO control plane: classes, deadlines, adaptive depth. */
    SloServingOptions slo;
    /**
     * Adaptive re-planning: every @p replanCheckEvery requests, call
     * InferenceDevice::replanIfDrifted with this threshold so the MLP
     * kernels re-balance when the measured hit ratio drifts from the
     * expectation the plan was sized against. 0 disables the check
     * (the default keeps existing experiments bit-identical).
     */
    double replanThreshold = 0.0;
    std::uint32_t replanCheckEvery = 32;
    /**
     * Background placement migration: every @p migrateCheckEvery
     * requests, call InferenceDevice::migrateIfDrifted so a
     * frequency-aware device can re-stripe a drifted hot set while
     * serving (the relocation traffic contends with foreground
     * reads). 0 (the default) disables the check.
     */
    std::uint32_t migrateCheckEvery = 0;
};

/** Per-class slice of a serving run. */
struct ClassServingResult
{
    std::string name;
    std::uint64_t requests = 0;
    /** Completions past arrival + class deadline (0 if best-effort). */
    std::uint64_t deadlineMisses = 0;
    Nanos p99;
    Nanos meanLatency;
    Nanos meanQueueWait;
};

/** Outcome of a serving experiment. */
struct ServingResult
{
    double offeredQps = 0.0;  //!< requested arrival rate (requests/s)
    double achievedQps = 0.0; //!< completed requests/s of sim time
    Nanos meanLatency;
    Nanos p50;
    Nanos p95;
    Nanos p99;
    Nanos maxLatency;
    std::uint64_t requests = 0;
    /**
     * EV-cache hit ratio per request (cache state carries across
     * requests, so the mean climbs as the cache warms; min is the
     * cold start). Empty when the device has no cache.
     */
    Distribution requestHitRatio;
    /**
     * Hit ratio over the second half of the run only — the
     * steady-state figure once the cache is warm. 0 without a cache.
     */
    double steadyHitRatio = 0.0;
    /** Adaptive re-plans triggered during the run. */
    std::uint64_t replans = 0;
    /**
     * Pages relocated by background migration during the run
     * (counter delta, so paced passes executing after the triggering
     * check still count).
     */
    std::uint64_t migratedPages = 0;
    /**
     * Host-tier slice hit ratio over the run: served slices /
     * intercepted slices. 0 when the device has no tier attached.
     */
    double tierHitRatio = 0.0;
    /**
     * Mean device queue occupancy, time-weighted over the span from
     * the first dispatch to the last completion (each request counts
     * from its dispatch cycle to its completion cycle). Under the
     * §IV-D presend it can exceed the host queue depth: the next
     * command send overlaps the previous readout.
     */
    double meanQueueDepth = 0.0;
    /**
     * Host dispatch-queue wait per request, arrival to dispatch
     * (the `queue.waitNanos` breakdown).
     */
    Distribution queueWaitNanos;
    /** Device service time per request, dispatch to completion. */
    Distribution serviceNanos;
    /** Deadline misses across all classes (0 without deadlines). */
    std::uint64_t deadlineMisses = 0;
    /** Per-class breakdown (one entry per class). */
    std::vector<ClassServingResult> classes;
    /** Depth-controller adjustments (with slo.adaptiveDepth). */
    std::uint64_t depthAdjustments = 0;
    /** Device queue depth when the run ended (controller's endpoint). */
    std::uint32_t finalDepth = 0;
};

/**
 * Drive @p device with Poisson arrivals from @p gen through one event
 * loop: arrivals park in a priority/EDF dispatch queue (FIFO with one
 * class), finished requests harvest eagerly
 * (InferenceDevice::harvestDoneBy) at every dispatch, a full device
 * queue blocks the host on the oldest retire, and (optionally) a
 * DepthController walks the queue depth against the latency SLO. At
 * depth 1 with one class this is op-for-op the blocking infer() loop.
 * Each request's latency spans its arrival to its results being
 * readable on the host. Works against any InferenceDevice — a single
 * RM-SSD or a multi-SSD cluster.
 */
ServingResult simulateServing(engine::InferenceDevice &device,
                              TraceGenerator &gen,
                              const ServingConfig &config);

} // namespace rmssd::workload

#endif // RMSSD_WORKLOAD_SERVING_H
