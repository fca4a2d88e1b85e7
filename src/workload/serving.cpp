#include "workload/serving.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::workload {

void
LatencyRecorder::add(Nanos latency)
{
    samples_.push_back(latency);
    sorted_ = false;
}

void
LatencyRecorder::merge(const LatencyRecorder &other)
{
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
}

Nanos
LatencyRecorder::mean() const
{
    if (samples_.empty())
        return Nanos{};
    unsigned long long sum = 0;
    for (const Nanos s : samples_)
        sum += s.raw();
    return Nanos{sum / samples_.size()};
}

Nanos
LatencyRecorder::max() const
{
    if (samples_.empty())
        return Nanos{};
    return *std::max_element(samples_.begin(), samples_.end());
}

Nanos
LatencyRecorder::percentile(double p) const
{
    // Clamp rather than assert: out-of-range (or NaN) percentiles
    // from config arithmetic degrade to the min/max sample instead of
    // aborting a long experiment. Written so NaN fails into the first
    // branch (std::clamp on NaN is undefined).
    if (!(p >= 0.0))
        p = 0.0;
    else if (p > 100.0)
        p = 100.0;
    if (samples_.empty())
        return Nanos{};
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank =
        p / 100.0 * static_cast<double>(samples_.size() - 1);
    const std::size_t idx = static_cast<std::size_t>(std::llround(rank));
    return samples_[std::min(idx, samples_.size() - 1)];
}

namespace {

/**
 * Time-weighted mean queue depth over dispatch..completion spans:
 * depth(t) integrated from the first dispatch to the last completion,
 * divided by that span. Immune to the submit-sampling bias (sampling
 * only at submit instants over-weights bursts).
 */
double
timeWeightedDepth(const std::vector<std::pair<Cycle, Cycle>> &spans)
{
    if (spans.empty())
        return 0.0;
    std::vector<std::pair<Cycle, int>> events;
    events.reserve(spans.size() * 2);
    for (const auto &[from, to] : spans) {
        events.emplace_back(from, +1);
        events.emplace_back(to, -1);
    }
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : a.second < b.second;
              });
    double integral = 0.0;
    long long depth = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i > 0) {
            const Cycle gap = events[i].first - events[i - 1].first;
            integral += static_cast<double>(depth) *
                        static_cast<double>(gap.raw());
        }
        depth += events[i].second;
    }
    const Cycle span = events.back().first - events.front().first;
    return span.raw() > 0 ? integral / static_cast<double>(span.raw())
                          : static_cast<double>(spans.size());
}

} // namespace

ServingResult
simulateServing(engine::InferenceDevice &device, TraceGenerator &gen,
                const ServingConfig &config)
{
    RMSSD_ASSERT(config.arrivalQps > 0.0, "non-positive arrival rate");
    // The two pipelining knobs are mutually exclusive: an explicit
    // queueDepth sweep (> 1) contradicts the controller owning the
    // depth. Fail loudly instead of silently ignoring one.
    RMSSD_ASSERT(!(config.slo.adaptiveDepth && config.queueDepth > 1),
                 "adaptiveDepth and an explicit queueDepth sweep are "
                 "mutually exclusive");
    const SloServingOptions &slo = config.slo;

    std::vector<ServingClass> classes = slo.classes;
    if (classes.empty())
        classes.push_back(ServingClass{});
    double shareSum = 0.0;
    for (const ServingClass &cls : classes) {
        RMSSD_ASSERT(cls.share > 0.0, "non-positive class share");
        shareSum += cls.share;
    }

    device.resetTiming();
    std::uint32_t depth = std::max<std::uint32_t>(config.queueDepth, 1);
    std::optional<DepthController> controller;
    if (slo.adaptiveDepth) {
        controller.emplace(slo.controller, slo.targetP99,
                           slo.controller.minDepth);
        controller->prime(cyclesToNanos(device.deviceNow()));
        depth = controller->depth();
    }
    device.setMaxInflight(depth);

    Rng rng(config.seed);
    const double meanGapNanos = 1e9 / config.arrivalQps;

    /** One parked arrival awaiting dispatch. */
    struct Queued
    {
        Cycle arrival;
        Cycle deadlineAt; //!< kNeverCycle = best-effort
        std::uint32_t cls = 0;
        std::uint64_t seq = 0;
        std::vector<model::Sample> batch;
    };
    /** One dispatched-but-uncompleted request, keyed by ticket. */
    struct Pending
    {
        Cycle arrival;
        Cycle dispatched;
        Cycle deadlineAt;
        std::uint32_t cls = 0;
    };

    std::vector<Queued> dispatchQ;
    std::map<engine::RequestId, Pending> pending;
    std::vector<LatencyRecorder> classLatency(classes.size());
    std::vector<LatencyRecorder> classWait(classes.size());
    std::vector<std::uint64_t> classRequests(classes.size(), 0);
    std::vector<std::uint64_t> classMisses(classes.size(), 0);
    std::vector<std::pair<Cycle, Cycle>> spans;
    spans.reserve(config.numRequests);

    ServingResult result;
    const bool cached = device.hasEvCache();
    const std::uint64_t replansBefore = device.replanCount();
    const std::uint64_t migratedBefore = device.migratedPageCount();
    const std::uint64_t tierHitsBefore = device.tierSliceHits();
    const std::uint64_t tierMissesBefore = device.tierSliceMisses();
    std::uint64_t hitsBase = cached ? device.cacheHits() : 0;
    std::uint64_t missesBase = cached ? device.cacheMisses() : 0;
    std::uint64_t steadyHits = 0;
    std::uint64_t steadyMisses = 0;

    double arrivalNanos = 0.0;
    std::uint32_t generated = 0;
    std::uint32_t dispatched = 0;
    std::uint64_t completed = 0;
    Cycle lastCompletion;
    bool depthDirty = false;

    // The next not-yet-enqueued arrival (time + class), drawn from
    // one RNG stream so a class split perturbs nothing else.
    Cycle nextArrivalCycle;
    std::uint32_t nextClass = 0;
    const auto drawNextArrival = [&] {
        const double u = std::max(rng.nextDouble(), 1e-12);
        arrivalNanos += -meanGapNanos * std::log(u);
        nextArrivalCycle = nanosToCycles(
            Nanos{static_cast<std::uint64_t>(arrivalNanos)});
        nextClass = 0;
        if (classes.size() > 1) {
            const double pick = rng.nextDouble() * shareSum;
            double acc = 0.0;
            nextClass = static_cast<std::uint32_t>(classes.size() - 1);
            for (std::size_t i = 0; i < classes.size(); ++i) {
                acc += classes[i].share;
                if (pick < acc) {
                    nextClass = static_cast<std::uint32_t>(i);
                    break;
                }
            }
        }
    };
    drawNextArrival();

    const auto enqueueNextArrival = [&] {
        Queued q;
        q.arrival = nextArrivalCycle;
        q.cls = nextClass;
        q.seq = generated;
        const Nanos deadline = classes[nextClass].deadline;
        q.deadlineAt = deadline > Nanos{0}
                           ? q.arrival + nanosToCycles(deadline)
                           : engine::kNeverCycle;
        q.batch = gen.nextBatch(config.batchSize);
        dispatchQ.push_back(std::move(q));
        ++generated;
        if (generated < config.numRequests)
            drawNextArrival();
    };

    // Priority first, earliest deadline within a priority, arrival
    // order among deadline ties (so one best-effort class is FIFO).
    const auto pickEdf = [&]() -> Queued {
        std::size_t best = 0;
        for (std::size_t i = 1; i < dispatchQ.size(); ++i) {
            const Queued &a = dispatchQ[i];
            const Queued &b = dispatchQ[best];
            const std::uint32_t pa = classes[a.cls].priority;
            const std::uint32_t pb = classes[b.cls].priority;
            if (pa != pb ? pa > pb
                         : (a.deadlineAt != b.deadlineAt
                                ? a.deadlineAt < b.deadlineAt
                                : a.seq < b.seq))
                best = i;
        }
        Queued q = std::move(dispatchQ[best]);
        dispatchQ.erase(dispatchQ.begin() +
                        static_cast<std::ptrdiff_t>(best));
        return q;
    };

    const auto recordCompletion =
        [&](const engine::AsyncCompletion &completion) {
            const auto it = pending.find(completion.id);
            RMSSD_ASSERT(it != pending.end(),
                         "completion for unknown request");
            const Pending req = it->second;
            pending.erase(it);
            const Cycle end = completion.outcome.completionCycle;
            const Nanos latency = cyclesToNanos(end - req.arrival);
            const Nanos wait = cyclesToNanos(req.dispatched - req.arrival);
            classLatency[req.cls].add(latency);
            classWait[req.cls].add(wait);
            result.queueWaitNanos.sample(
                static_cast<double>(wait.raw()));
            result.serviceNanos.sample(static_cast<double>(
                cyclesToNanos(end - req.dispatched).raw()));
            if (req.deadlineAt != engine::kNeverCycle &&
                end > req.deadlineAt) {
                ++classMisses[req.cls];
                ++result.deadlineMisses;
            }
            spans.emplace_back(req.dispatched, end);
            lastCompletion = std::max(lastCompletion, end);
            ++completed;
            if (controller) {
                // The request's queue wait is the congestion signal:
                // with presend, the blocking cost of a too-shallow
                // queue lands inside submit's input transfer, so the
                // force-retire itself barely moves the clock and the
                // wait is the only place the cost is visible.
                controller->onWait(wait);
                if (controller->onCompletion(
                        latency, cyclesToNanos(device.deviceNow())))
                    depthDirty = true;
            }
        };
    // Depth changes apply OUTSIDE recordCompletion: a shrink can
    // force-retire (queueing more completions), so loop until the
    // completion queue and the pending depth change both settle.
    const auto drainCompletions = [&] {
        for (;;) {
            while (const auto completion = device.poll())
                recordCompletion(*completion);
            if (!depthDirty)
                break;
            depthDirty = false;
            device.setMaxInflight(controller->depth());
        }
    };

    // One event loop per dispatch: harvest what is done, pull in the
    // arrivals, pick by priority/EDF, make room with retireNext, then
    // submit.
    while (dispatched < config.numRequests) {
        if (dispatchQ.empty()) {
            // Idle host: advance to the next arrival.
            if (device.deviceNow() < nextArrivalCycle)
                device.advanceHostClock(cyclesToNanos(
                    nextArrivalCycle - device.deviceNow()));
            enqueueNextArrival();
        }
        // Eager completion: everything finished by now retires —
        // including mid-queue finishers — freeing device slots
        // without blocking the clock on a straggler.
        device.harvestDoneBy(device.deviceNow());
        drainCompletions();
        // Pull in every request that has arrived by now; they compete
        // in the EDF queue.
        while (generated < config.numRequests &&
               nextArrivalCycle <= device.deviceNow())
            enqueueNextArrival();

        if (controller)
            controller->onBacklog(dispatchQ.size() - 1);
        Queued q = pickEdf();
        // Full queue: the host blocks on the oldest retire, exactly
        // like the backpressure inside submit.
        while (device.inflight() >= device.maxInflight()) {
            device.retireNext();
            drainCompletions();
        }
        const engine::RequestId id = device.submit(q.batch);
        // Accept instant = submit return: any backpressure block has
        // resolved, so the span and the wait/service split start when
        // the device owns the request.
        pending.emplace(id, Pending{q.arrival, device.deviceNow(),
                                    q.deadlineAt, q.cls});
        ++classRequests[q.cls];
        drainCompletions();
        ++dispatched;

        if (cached) {
            const std::uint64_t hits = device.cacheHits();
            const std::uint64_t misses = device.cacheMisses();
            const std::uint64_t reqHits = hits - hitsBase;
            const std::uint64_t reqMisses = misses - missesBase;
            hitsBase = hits;
            missesBase = misses;
            if (reqHits + reqMisses > 0)
                result.requestHitRatio.sample(
                    static_cast<double>(reqHits) /
                    static_cast<double>(reqHits + reqMisses));
            if (dispatched > config.numRequests / 2) {
                steadyHits += reqHits;
                steadyMisses += reqMisses;
            }
            if (config.replanThreshold > 0.0 &&
                config.replanCheckEvery > 0 &&
                dispatched % config.replanCheckEvery == 0)
                device.replanIfDrifted(config.replanThreshold);
        }
        if (config.migrateCheckEvery > 0 &&
            dispatched % config.migrateCheckEvery == 0)
            device.migrateIfDrifted();
    }
    drainCompletions();
    for (const engine::AsyncCompletion &completion : device.drain())
        recordCompletion(completion);
    RMSSD_ASSERT(pending.empty() && dispatchQ.empty() &&
                     completed == config.numRequests,
                 "serving loop left requests unaccounted");

    result.offeredQps = config.arrivalQps;
    result.requests = config.numRequests;
    result.meanQueueDepth = timeWeightedDepth(spans);
    const double seconds =
        nanosToSeconds(cyclesToNanos(lastCompletion));
    result.achievedQps =
        seconds > 0.0 ? config.numRequests / seconds : 0.0;

    // Fleet-wide percentiles compose from the per-class recorders —
    // the merge path, not a parallel re-recording.
    LatencyRecorder all;
    for (const LatencyRecorder &recorder : classLatency)
        all.merge(recorder);
    result.meanLatency = all.mean();
    result.p50 = all.percentile(50.0);
    result.p95 = all.percentile(95.0);
    result.p99 = all.percentile(99.0);
    result.maxLatency = all.max();
    for (std::size_t i = 0; i < classes.size(); ++i) {
        ClassServingResult cls;
        cls.name = classes[i].name;
        cls.requests = classRequests[i];
        cls.deadlineMisses = classMisses[i];
        cls.p99 = classLatency[i].percentile(99.0);
        cls.meanLatency = classLatency[i].mean();
        cls.meanQueueWait = classWait[i].mean();
        result.classes.push_back(std::move(cls));
    }
    result.depthAdjustments =
        controller ? controller->adjustments() : 0;
    result.finalDepth = device.maxInflight();

    if (steadyHits + steadyMisses > 0)
        result.steadyHitRatio =
            static_cast<double>(steadyHits) /
            static_cast<double>(steadyHits + steadyMisses);
    result.replans = device.replanCount() - replansBefore;
    result.migratedPages =
        device.migratedPageCount() - migratedBefore;
    const std::uint64_t tierHits =
        device.tierSliceHits() - tierHitsBefore;
    const std::uint64_t tierMisses =
        device.tierSliceMisses() - tierMissesBefore;
    if (tierHits + tierMisses > 0)
        result.tierHitRatio =
            static_cast<double>(tierHits) /
            static_cast<double>(tierHits + tierMisses);
    return result;
}

} // namespace rmssd::workload
