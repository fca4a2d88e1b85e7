/**
 * @file
 * Adaptive queue-depth controller for the SLO serving control plane.
 *
 * The queue depth a backend needs depends on the load: a too-shallow
 * queue caps saturated-fleet QPS (Fig. 17) and inflates the queue
 * wait below saturation (Fig. 21). The controller picks the depth at
 * run time on two congestion signals:
 *
 *  - the host dispatch backlog sampled at each dispatch decision — a
 *    sustained backlog means arrivals outrun the device and depth
 *    buys overlap. An eager dispatcher keeps this queue near-empty
 *    below saturation, so the backlog alone only detects overload;
 *  - the WAIT SHARE — completed requests' queue wait (arrival to
 *    dispatch) summed over the elapsed device time. This is exactly
 *    the latency an under-provisioned depth inflicts, visible long
 *    before a standing backlog forms.
 *
 * Either signal past its high-water mark doubles the depth; the depth
 * steps down by one only after both have stayed below their low-water
 * marks for shedPatience consecutive decisions. The observed latency
 * tail over a sliding completion window guards the SLO: a blown p99
 * without congestion evidence sheds depth too.
 *
 * Everything is driven by the simulated clock and the request stream
 * — the window slides per completion, never by wall-clock time — so
 * controller runs replay bit-for-bit.
 */

#ifndef RMSSD_WORKLOAD_DEPTH_CONTROLLER_H
#define RMSSD_WORKLOAD_DEPTH_CONTROLLER_H

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace rmssd::workload {

/** Tuning of one DepthController (defaults match bench/fig21_slo). */
struct DepthControllerConfig
{
    std::uint32_t minDepth = 1;
    std::uint32_t maxDepth = 8;
    /** Sliding completion window sizing the tail estimate. */
    std::uint32_t windowRequests = 64;
    /** Completions between depth decisions (decision cooldown). */
    std::uint32_t adjustEvery = 2;
    /**
     * Mean dispatch backlog (since the last decision) above which the
     * device is throughput-bound and the depth DOUBLES (multiplicative
     * increase: an under-provisioned depth hurts the tail immediately,
     * so the controller must reach a saturated fleet's working depth
     * within a handful of requests).
     */
    double backlogHigh = 0.5;
    /**
     * Mean dispatch backlog below which the backlog votes to shed.
     * The band [backlogLow, backlogHigh] holds the depth — the
     * hysteresis that keeps the controller from oscillating on load
     * noise.
     */
    double backlogLow = 0.05;
    /**
     * Wait share (completed requests' queue wait summed over elapsed
     * device time since the last decision) above which the depth
     * DOUBLES. Below saturation the dispatch queue stays near-empty
     * (the host dispatches eagerly and blocks in the submit path
     * instead), so the wait share is the signal that catches an
     * under-provisioned depth.
     */
    double waitHigh = 0.05;
    /** Wait share below which the wait signal votes to shed. */
    double waitLow = 0.01;
    /**
     * Consecutive shed-voting decisions required before the depth
     * steps down by ONE (additive decrease: growth reacts instantly,
     * shedding waits out burst lulls so a quiet window does not throw
     * away a hard-won working depth).
     */
    std::uint32_t shedPatience = 3;
};

/**
 * Walks a device's maxInflight between minDepth and maxDepth with
 * hysteresis. The owner samples the dispatch backlog via onBacklog()
 * at every dispatch, reports each completed request's queue wait via
 * onWait(), and feeds its latency (plus the current device clock) to
 * onCompletion(); when the latter returns true the depth changed and
 * the owner pushes depth() to the device.
 */
class DepthController
{
  public:
    /**
     * @param sloP99 the latency target the tail guard sheds against;
     *        Nanos{0} disables the guard (backlog-only control law)
     */
    DepthController(const DepthControllerConfig &config, Nanos sloP99,
                    std::uint32_t initialDepth);

    /**
     * Record the host dispatch-queue length (requests arrived but not
     * yet dispatched, excluding the one being dispatched now) at a
     * dispatch decision.
     */
    void onBacklog(std::size_t backlog);

    /**
     * Record a completed request's queue wait — the device time
     * between its arrival and the instant its dispatch returned.
     */
    void onWait(Nanos waited);

    /**
     * Pin the wait-share denominator's origin to the device clock at
     * the start of the run. Without this the first decision lazily
     * anchors at the first completion (slightly overestimating the
     * early wait share — a bias toward growth, the safe direction).
     */
    void prime(Nanos now);

    /**
     * Record one completed request. @p now is the current device
     * clock (must be non-decreasing across calls); it sizes the
     * elapsed-time denominator of the wait share. Every adjustEvery
     * completions the control law re-evaluates the depth.
     * @return true when the depth changed (push depth() to the device)
     */
    bool onCompletion(Nanos latency, Nanos now);

    /** Current depth target. */
    std::uint32_t depth() const { return depth_; }
    /** Depth changes performed so far. */
    std::uint64_t adjustments() const { return adjustments_; }
    /** Latency p99 over the sliding window (Nanos{0} while empty). */
    Nanos windowP99() const;

  private:
    DepthControllerConfig config_;
    Nanos slo_;
    std::uint32_t depth_;

    /** Completion-latency ring buffer (the sliding window). */
    std::vector<Nanos> window_;
    std::size_t windowNext_ = 0;
    bool windowFull_ = false;

    /** Backlog samples accumulated since the last decision. */
    double backlogSum_ = 0.0;
    std::uint64_t backlogSamples_ = 0;

    /** Completed requests' queue wait since the last decision. */
    Nanos waitSum_{};
    /** Device clock at the last decision (wait-share denominator). */
    Nanos lastDecisionAt_{};
    bool primed_ = false;

    /** Consecutive shed-voting decisions (reset by growth or hold). */
    std::uint32_t shedStreak_ = 0;

    std::uint64_t completions_ = 0;
    std::uint64_t adjustments_ = 0;
};

} // namespace rmssd::workload

#endif // RMSSD_WORKLOAD_DEPTH_CONTROLLER_H
