#include "engine/inference_device.h"

#include <algorithm>

#include "sim/log.h"

namespace rmssd::engine {

InferenceOutcome
InferenceDevice::infer(std::span<const model::Sample> samples)
{
    return drainFor(submit(samples));
}

InferenceOutcome
InferenceDevice::drainFor(RequestId id)
{
    for (AsyncCompletion &completion : drain()) {
        if (completion.id == id)
            return std::move(completion.outcome);
    }
    fatal("request %llu lost in drain",
          static_cast<unsigned long long>(id));
}

std::optional<AsyncCompletion>
InferenceDevice::poll()
{
    if (completed_.empty())
        return std::nullopt;
    AsyncCompletion completion = std::move(completed_.front());
    completed_.pop_front();
    return completion;
}

Cycle
InferenceDevice::doneCycle(RequestId id) const
{
    for (const AsyncCompletion &completion : completed_) {
        if (completion.id == id)
            return Cycle{0};
    }
    return kNeverCycle;
}

std::vector<AsyncCompletion>
InferenceDevice::drain()
{
    while (retireNext()) {
    }
    std::vector<AsyncCompletion> out;
    out.reserve(completed_.size());
    for (AsyncCompletion &completion : completed_)
        out.push_back(std::move(completion));
    completed_.clear();
    return out;
}

void
InferenceDevice::setMaxInflight(std::uint32_t depth)
{
    RMSSD_ASSERT(depth >= 1, "queue depth must be at least 1");
    maxInflight_ = depth;
    while (inflight() > maxInflight_) {
        if (!retireNext())
            break;
    }
}

void
InferenceDevice::pushCompletion(AsyncCompletion completion)
{
    completed_.push_back(std::move(completion));
}

std::optional<AsyncCompletion>
InferenceDevice::popCompletion(RequestId id)
{
    for (auto it = completed_.begin(); it != completed_.end(); ++it) {
        if (it->id != id)
            continue;
        AsyncCompletion completion = std::move(*it);
        completed_.erase(it);
        return completion;
    }
    return std::nullopt;
}

void
InferenceDevice::clearCompletions()
{
    completed_.clear();
}

double
InferenceDevice::steadyStateQps(std::uint32_t batchSize,
                                std::uint32_t measureBatches,
                                std::uint32_t queueDepth)
{
    RMSSD_ASSERT(batchSize > 0, "zero batch size");
    resetTiming();
    setMaxInflight(std::max<std::uint32_t>(queueDepth, 1));

    // Build a deterministic request stream.
    const std::uint32_t mbSize =
        std::min<std::uint32_t>(batchSize, pipelineMicroBatch());
    const std::uint32_t requests = std::max<std::uint32_t>(
        1, (measureBatches * mbSize + batchSize - 1) / batchSize);

    std::vector<model::Sample> batch(batchSize);
    const Cycle start = deviceNow();
    Cycle completed = start;
    std::uint64_t totalSamples = 0;
    for (std::uint32_t r = 0; r < requests; ++r) {
        for (std::uint32_t s = 0; s < batchSize; ++s)
            batch[s] = model().makeSample(r * 131071ULL + s);
        submit(batch);
        totalSamples += batchSize;
        while (const auto completion = poll()) {
            completed = std::max(completed,
                                 completion->outcome.completionCycle);
        }
    }
    for (const AsyncCompletion &completion : drain())
        completed =
            std::max(completed, completion.outcome.completionCycle);
    const double seconds =
        nanosToSeconds(cyclesToNanos(completed - start));
    return static_cast<double>(totalSamples) / seconds;
}

} // namespace rmssd::engine
