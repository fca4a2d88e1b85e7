/**
 * @file
 * The repository benchmark program. One process runs one workload from
 * one seed, single-threaded:
 *
 *   perfbench --workload <cached_device|host_ssd|tenant_cluster>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--digest-dir <dir>] [--spans-out <file>]
 *   perfbench --selftest
 *
 * It calls only the simulator's public entry points and times them from
 * outside. Every number is either simulated (deterministic per seed) or
 * host time (CPU time of the benchmark's one thread). run.py builds this binary and wraps its output; see
 * README.md for the metric definitions.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "baseline/system.h"
#include "catalog/catalog.h"
#include "catalog/tenant.h"
#include "catalog/tenant_serving.h"
#include "engine/ev_cache.h"
#include "engine/freq_sketch.h"
#include "engine/rm_ssd.h"
#include "flash/geometry.h"
#include "harness.h"
#include "host/page_cache.h"
#include "model/dlrm.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace perfbench {
namespace {

using namespace rmssd;

/** Output tolerance of the functional twin (as in the tier-1 tests). */
constexpr float kTwinTolerance = 1e-4f;

/** Seed of rep @p rep (each sim rep draws its own trace and arrivals). */
std::uint64_t
repSeed(std::uint64_t seed, std::uint32_t rep)
{
    return hashCombine(seed, 0x5eedULL + rep);
}

double
us(Nanos n)
{
    return static_cast<double>(n.raw()) / 1e3;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

StatMap
snapshot(const engine::InferenceDevice &dev, const std::string &prefix)
{
    StatsRegistry reg;
    dev.registerStats(reg, prefix);
    std::ostringstream os;
    reg.dump(os);
    return parseStatsDump(os.str());
}

/** Failure bookkeeping: every check is one attempted operation. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    void
    expect(bool ok, const std::string &what, std::uint64_t weight = 1)
    {
        attempted += weight;
        if (!ok) {
            failed += weight;
            if (messages.size() < 20)
                messages.push_back(what);
        }
    }
};

/** One offered-rate rung of one rep. */
struct RungSample
{
    double offered = 0.0; //!< samples/s
    double p50 = 0.0;     //!< us
    Tail tail;            //!< us
    bool backlog = false;
};

/** Everything one rep produced. */
struct RepResult
{
    double setupBuild = 0.0;
    double setupPlan = 0.0;
    double setupWarm = 0.0;
    double measured = 0.0;     //!< host seconds of the measured part
    double servingHost = 0.0;  //!< host seconds inside serving calls
    std::uint64_t requests = 0; //!< requests (host_ssd: batches) served
    double satQps = 0.0;       //!< samples per simulated second
    std::vector<RungSample> rungs;
    /**
     * Closed loop, us per request, split in two groups (tenant_cluster:
     * heavy and light tenant) whose worse percentile is reported.
     */
    std::vector<double> batchLatency;
    std::vector<double> batchLatency2;
    std::vector<double> serviceNs;    //!< host_ssd: per-batch service
    StatMap layer;                    //!< per-layer sim metrics
    std::string digest;               //!< every sim value, printed exactly
};

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
sealDigest(RepResult &r)
{
    std::ostringstream os;
    os << "sat " << exact(r.satQps) << "\n";
    for (const RungSample &s : r.rungs)
        os << "rung " << exact(s.offered) << " " << exact(s.p50) << " "
           << exact(s.tail.value) << " " << s.tail.samples << " "
           << s.backlog << "\n";
    for (const double v : r.batchLatency)
        os << exact(v) << " ";
    for (const double v : r.batchLatency2)
        os << exact(v) << " ";
    for (const double v : r.serviceNs)
        os << exact(v) << " ";
    os << "\n";
    for (const auto &[k, v] : r.layer)
        os << k << " " << exact(v) << "\n";
    r.digest = os.str();
}

/**
 * Per-layer sim metrics common to every RM-SSD backend, from the stats
 * delta @p d of one serving call that ran @p elapsedNs of simulated time
 * from a timing reset. Checks that no busy time is negative or longer
 * than the call.
 */
void
deviceLayerMetrics(const StatMap &d, double requests, double elapsedNs,
                   StatMap &out, Checks &checks)
{
    const double elapsedCycles =
        elapsedNs / static_cast<double>(kNanosPerCycle);
    for (const auto &[k, v] : d)
        if (endsWith(k, "busyCycles") || endsWith(k, "BusyCycles"))
            checks.expect(v >= 0.0 && v <= elapsedCycles,
                          k + " outside [0, elapsed cycles]");

    const double hits = sumEndingWith(d, ".emb.cache.hits");
    const double misses = sumEndingWith(d, ".emb.cache.misses");
    const double lookups = sumEndingWith(d, ".emb.lookups");
    const double busyToFrac =
        elapsedNs > 0.0 ? static_cast<double>(kNanosPerCycle) / elapsedNs
                        : 0.0;
    out["engine.ev_cache.hit_ratio"] = ratio(hits, hits + misses);
    out["engine.ev_cache.evictions_per_req"] =
        ratio(sumEndingWith(d, ".emb.cache.evictions"), requests);
    out["engine.ev_cache.admission_rejects_per_req"] =
        ratio(sumEndingWith(d, ".emb.cache.admissionRejects"), requests);
    out["engine.emb.coalesced_frac"] =
        ratio(sumEndingWith(d, ".emb.coalesced"), lookups);
    out["engine.emb.flash_reads_per_req"] =
        ratio(sumEndingWith(d, ".emb.flashReads"), requests);

    const std::vector<double> issue =
        statsEndingWith(d, ".emb.issueBusyCycles");
    const double issueMax =
        issue.empty() ? 0.0 : *std::max_element(issue.begin(), issue.end());
    double issueSum = 0.0;
    for (const double v : issue)
        issueSum += v;
    out["engine.emb.issue_busy_frac"] = issueMax * busyToFrac;
    const std::vector<double> bot =
        statsEndingWith(d, ".mlp.bottomBusyCycles");
    const std::vector<double> top = statsEndingWith(d, ".mlp.topBusyCycles");
    const double botMax =
        bot.empty() ? 0.0 : *std::max_element(bot.begin(), bot.end());
    const double topMax =
        top.empty() ? 0.0 : *std::max_element(top.begin(), top.end());
    out["engine.mlp.bottom_busy_frac"] = botMax * busyToFrac;
    out["engine.mlp.top_busy_frac"] = topMax * busyToFrac;

    const std::vector<double> dma = statsEndingWith(d, ".dma.busyCycles");
    const double dmaMax =
        dma.empty() ? 0.0 : *std::max_element(dma.begin(), dma.end());
    out["nvme.dma.busy_frac"] = dmaMax * busyToFrac;
    out["nvme.dma.bytes_per_req"] =
        ratio(sumEndingWith(d, ".dma.bytes"), requests);
    out["nvme.mmio.ops_per_req"] =
        ratio(sumEndingWith(d, ".mmio.reads") +
                  sumEndingWith(d, ".mmio.writes"),
              requests);

    double dieMax = 0.0;
    double dieSum = 0.0;
    double dieN = 0.0;
    double busMax = 0.0;
    for (const auto &[k, v] : d) {
        if (!endsWith(k, ".busyCycles") ||
            k.find(".flash.ch") == std::string::npos)
            continue;
        if (k.find(".die") != std::string::npos) {
            dieMax = std::max(dieMax, v);
            dieSum += v;
            dieN += 1.0;
        } else {
            busMax = std::max(busMax, v);
        }
    }
    out["flash.die_busy_frac.max"] = dieMax * busyToFrac;
    // Eq. 1 balance: the embedding stage is as busy as its busier
    // resource, the issue port or the busiest flash die.
    const double embBusy = std::max(issueMax, dieMax);
    out["engine.eq1.bot_over_emb"] = ratio(botMax, embBusy);
    out["engine.eq1.top_over_emb"] = ratio(topMax, embBusy);
    out["flash.die_busy_frac.mean"] = ratio(dieSum, dieN) * busyToFrac;
    out["flash.bus_busy_frac.max"] = busMax * busyToFrac;
    out["flash.die_conflicts_per_req"] =
        ratio(sumEndingWith(d, ".dieConflicts"), requests);
    out["ftl.ev_requests_per_req"] =
        ratio(sumEndingWith(d, ".ftl.evRequests"), requests);
    if (issue.size() > 1)
        out["cluster.shard_busy_frac.max_over_mean"] = ratio(
            issueMax, issueSum / static_cast<double>(issue.size()));
}

/**
 * Conservation over a stats delta: the EV cache's hits + misses equal
 * its probes (lookups not folded by coalescing), and every miss is one
 * flash read.
 */
void
checkCacheConservation(const StatMap &d, Checks &checks,
                       const std::string &where)
{
    const double hits = sumEndingWith(d, ".emb.cache.hits");
    const double misses = sumEndingWith(d, ".emb.cache.misses");
    const double probes = sumEndingWith(d, ".emb.lookups") -
                          sumEndingWith(d, ".emb.coalesced");
    checks.expect(hits + misses == probes,
                  where + ": cache hits + misses != probes");
    checks.expect(sumEndingWith(d, ".emb.flashReads") == misses,
                  where + ": flash reads != cache misses");
}

/**
 * Closed loop, one client, over the asynchronous device surface:
 * submit, wait for the earliest completion, harvest, repeat; drain at
 * the end. Returns each ticket's simulated latency (us) and checks that
 * every submitted ticket completes exactly once.
 */
template <typename SubmitFn>
std::map<engine::RequestId, double>
closedLoop(engine::InferenceDevice &dev, std::uint32_t requests,
           SubmitFn submit, Tracer &tracer, Checks &checks,
           const std::string &where)
{
    dev.resetTiming();
    dev.setMaxInflight(1);
    std::set<engine::RequestId> issued;
    for (std::uint32_t r = 0; r < requests; ++r) {
        issued.insert(submit(r));
        Cycle done;
        {
            Scope s(tracer, "device.next_done", r + 1);
            done = dev.nextDoneCycle();
        }
        if (done != engine::kNeverCycle) {
            Scope s(tracer, "device.harvest", r + 1);
            dev.harvestDoneBy(done);
        }
    }
    std::vector<engine::AsyncCompletion> completions;
    {
        Scope s(tracer, "device.drain");
        completions = dev.drain();
    }
    std::map<engine::RequestId, double> lat;
    std::uint64_t strays = 0;
    for (const engine::AsyncCompletion &c : completions) {
        if (!issued.count(c.id) || lat.count(c.id))
            ++strays;
        lat[c.id] = us(c.outcome.latency);
    }
    checks.expect(issued.size() == requests,
                  where + ": duplicate submission tickets", requests);
    checks.expect(lat.size() == issued.size() && strays == 0,
                  where + ": lost or duplicated completions");
    return lat;
}

/** Rates of a ladder: fixed fractions of a frozen saturation rate. */
std::vector<double>
ladderRates(double satRef, const std::vector<double> &fractions)
{
    std::vector<double> out;
    for (const double f : fractions)
        out.push_back(f * satRef);
    return out;
}

// ========================================================================
// Workload definitions
// ========================================================================

/** Common shape of a workload. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /**
     * One rep: set up (timed apart), then the measured part, which is
     * skipped when @p setUpOnly (extra samples of the set-up time).
     */
    virtual RepResult runRep(std::uint64_t seed, Tracer &tracer,
                             Checks &checks, bool setUpOnly) = 0;
    /** Functional twin: output check against the reference model. */
    virtual void twin(std::uint64_t seed, Checks &checks) = 0;
    /** Standalone replays of the hot layers (traced run only). */
    virtual void replays(std::uint64_t seed, Tracer &tracer,
                         StatMap &out) = 0;
    /** Offered rates of the lo, mid and hi rungs (samples/s). */
    virtual std::vector<double> ladder() const = 0;
    /** Latency limit (us) on the tail behind sim_qps_at_slo. */
    virtual double latencyLimitUs() const = 0;
    /**
     * Reps, each from its own seed, whose simulated results make up
     * the sim metrics (medians over reps; seed-to-seed variation of
     * the hot set and arrivals is what the median damps).
     */
    virtual std::uint32_t simReps() const = 0;
};

// ---- cached_device ------------------------------------------------------

/**
 * RMC1 on one RM-SSD with the EV cache at a quarter of the profiled hot
 * set, TinyLFU admission, per-table partitions from the trace
 * histogram, index coalescing; locality K = 0.3; open-loop Poisson
 * arrivals through the SLO loop with adaptive depth and a premium and
 * a bulk class sharing one deadline.
 */
class CachedDevice : public Workload
{
  public:
    /** Saturation (samples/s) at the seed commit, frozen. */
    static constexpr double kSatRef = 2170.0;
    static constexpr double kLimitUs = 3100.0;
    static constexpr std::uint32_t kHistLookups = 20000;
    static constexpr std::uint32_t kWarmRequests = 400;
    static constexpr std::uint32_t kSatRequests = 800;
    /** Per rung; the hi rung gets the most, its tail spreads most. */
    static constexpr std::uint32_t kRungRequests[3] = {2500, 3000, 4500};
    static constexpr std::uint32_t kClosedRequests = 300;
    static constexpr std::uint32_t kTwinRequests = 48;
    static constexpr std::uint64_t kTwinRows = 16384;

    std::vector<double> ladder() const override
    {
        return ladderRates(kSatRef, {0.3, 0.5, 0.65});
    }
    double latencyLimitUs() const override { return kLimitUs; }
    std::uint32_t simReps() const override { return 5; }

    static workload::TraceConfig
    trace(std::uint64_t seed)
    {
        workload::TraceConfig tr = workload::localityK(0.3);
        tr.seed = hashCombine(seed, 1);
        return tr;
    }

    static engine::RmSsdOptions
    options(const model::ModelConfig &cfg, const workload::TraceConfig &tr,
            const std::vector<workload::TraceGenerator::TableHistogram>
                &hist)
    {
        std::uint64_t hotUnique = 0;
        for (const auto &h : hist)
            hotUnique += h.uniqueHotIndices;
        engine::RmSsdOptions o;
        o.evCache.enabled = true;
        o.evCache.admission = engine::EvCacheAdmission::TinyLfu;
        o.evCache.tableShares = workload::planTableShares(hist);
        o.evCache.capacityBytes = Bytes{hotUnique / 4 * cfg.vectorBytes()};
        o.evCache.expectedHitRatio =
            workload::expectedHitRatio(tr, tr.hotRowsPerTable / 4);
        o.coalesceIndices = true;
        return o;
    }

    workload::ServingConfig
    serving(double samplesPerSec, std::uint32_t requests,
            std::uint64_t seed) const
    {
        workload::ServingConfig sc;
        sc.arrivalQps = samplesPerSec; // batch 1: requests == samples
        sc.batchSize = 1;
        sc.numRequests = requests;
        sc.seed = seed;
        sc.slo.enabled = true;
        sc.slo.adaptiveDepth = true;
        sc.slo.targetP99 = Nanos{static_cast<std::uint64_t>(kLimitUs * 1e3)};
        workload::ServingClass premium;
        premium.name = "premium";
        premium.share = 1.0;
        premium.priority = 1;
        premium.deadline = sc.slo.targetP99;
        workload::ServingClass bulk;
        bulk.name = "bulk";
        bulk.share = 3.0;
        bulk.priority = 0;
        bulk.deadline = sc.slo.targetP99;
        sc.slo.classes = {premium, bulk};
        return sc;
    }

    /** One serving call with its conservation checks. */
    workload::ServingResult
    serve(engine::RmSsd &dev, workload::TraceGenerator &gen,
          const workload::ServingConfig &sc, Tracer &tracer, Checks &checks,
          RepResult &rep, StatMap *delta)
    {
        // simulateServing resets timing state first, and with it the
        // flash busy gauges; resetting before the snapshot makes those
        // read 0 in `before`, so the delta is this call's busy time.
        dev.resetTiming();
        const StatMap before = snapshot(dev, "dev");
        const double t0 = hostNow();
        workload::ServingResult r;
        {
            Scope s(tracer, "workload.serving");
            r = workload::simulateServing(dev, gen, sc);
        }
        rep.servingHost += hostNow() - t0;
        rep.requests += sc.numRequests;
        const StatMap d = statDelta(before, snapshot(dev, "dev"));
        const std::string where = "serving@" + exact(sc.arrivalQps);
        checks.expect(r.requests == sc.numRequests,
                      where + ": completed != offered", sc.numRequests);
        std::uint64_t perClass = 0;
        for (const auto &c : r.classes)
            perClass += c.requests;
        checks.expect(perClass == r.requests,
                      where + ": per-class requests do not add up");
        checks.expect(d.at("dev.queue.submitted") == sc.numRequests &&
                          d.at("dev.queue.retired") == sc.numRequests,
                      where + ": submitted/retired != requests");
        checkCacheConservation(d, checks, where);
        if (delta)
            *delta = d;
        return r;
    }

    RepResult
    runRep(std::uint64_t seed, Tracer &tracer, Checks &checks,
           bool setUpOnly) override
    {
        RepResult rep;
        const model::ModelConfig cfg = model::rmc1();
        const workload::TraceConfig tr = trace(seed);

        double t = hostNow();
        std::unique_ptr<workload::TraceGenerator> gen;
        engine::RmSsdOptions o;
        {
            Scope s(tracer, "setup.plan");
            gen = std::make_unique<workload::TraceGenerator>(cfg, tr);
            o = options(cfg, tr, gen->tableHistograms(kHistLookups));
        }
        rep.setupPlan = hostNow() - t;
        t = hostNow();
        std::unique_ptr<engine::RmSsd> dev;
        {
            Scope s(tracer, "setup.build");
            dev = std::make_unique<engine::RmSsd>(cfg, o);
            dev->loadTables();
        }
        rep.setupBuild = hostNow() - t;
        t = hostNow();
        {
            Scope s(tracer, "setup.warmup");
            for (std::uint32_t i = 0; i < kWarmRequests; ++i)
                dev->submit(gen->nextBatch(1));
            dev->drain();
        }
        rep.setupWarm = hostNow() - t;
        if (setUpOnly)
            return rep;

        const double m0 = hostNow();
        {
            Scope s(tracer, "measured");
            const workload::ServingConfig sat =
                serving(1e9, kSatRequests, hashCombine(seed, 2));
            const workload::ServingResult rs =
                serve(*dev, *gen, sat, tracer, checks, rep, nullptr);
            rep.satQps = rs.achievedQps;

            const std::vector<double> rates = ladder();
            for (std::size_t k = 0; k < rates.size(); ++k) {
                const workload::ServingConfig sc =
                    serving(rates[k], kRungRequests[k],
                            hashCombine(seed, 10 + k));
                StatMap delta;
                const workload::ServingResult r =
                    serve(*dev, *gen, sc, tracer, checks, rep, &delta);
                RungSample rs2;
                rs2.offered = rates[k];
                rs2.p50 = us(r.p50);
                rs2.tail.samples = r.requests;
                rs2.tail.percentile = 99.0;
                rs2.tail.value = us(r.p99);
                checks.expect(samplesBeyond(r.requests, 99.0) >= 10,
                              "cached_device: p99 unsupported by samples");
                // Served rate behind the offered rate by more than
                // Poisson noise: the queue grew over the rung.
                rs2.backlog = r.achievedQps < 0.9 * r.offeredQps;
                rep.rungs.push_back(rs2);
                if (k == 2) {
                    const double elapsedNs =
                        static_cast<double>(r.requests) / r.achievedQps * 1e9;
                    deviceLayerMetrics(delta, static_cast<double>(r.requests),
                                       elapsedNs, rep.layer, checks);
                    rep.layer["workload.serving.queue_wait_us.mean"] =
                        r.queueWaitNanos.mean() / 1e3;
                    rep.layer["workload.serving.service_us.mean"] =
                        r.serviceNanos.mean() / 1e3;
                    rep.layer["workload.serving.mean_queue_depth"] =
                        r.meanQueueDepth;
                    rep.layer["workload.serving.depth_adjustments"] =
                        static_cast<double>(r.depthAdjustments);
                    rep.layer["workload.serving.deadline_miss_frac.hi"] =
                        ratio(static_cast<double>(r.deadlineMisses),
                              static_cast<double>(r.requests));
                }
            }

            const StatMap before = snapshot(*dev, "dev");
            const auto lat = closedLoop(
                *dev, kClosedRequests,
                [&](std::uint32_t r) {
                    std::vector<model::Sample> batch;
                    {
                        Scope s(tracer, "workload.trace_gen", r + 1);
                        batch = gen->nextBatch(1);
                    }
                    Scope s(tracer, "device.submit", r + 1);
                    return dev->submit(batch);
                },
                tracer, checks, "cached_device closed loop");
            for (const auto &[id, l] : lat)
                rep.batchLatency.push_back(l);
            rep.requests += kClosedRequests;
            const StatMap d = statDelta(before, snapshot(*dev, "dev"));
            checks.expect(d.at("dev.queue.submitted") == kClosedRequests &&
                              d.at("dev.queue.retired") == kClosedRequests,
                          "closed loop: submitted/retired != requests");
            checkCacheConservation(d, checks, "closed loop");
        }
        rep.measured = hostNow() - m0;
        return rep;
    }

    void
    twin(std::uint64_t seed, Checks &checks) override
    {
        model::ModelConfig cfg = model::rmc1();
        cfg.withRowsPerTable(kTwinRows);
        const workload::TraceConfig tr = trace(repSeed(seed, 0));
        workload::TraceGenerator gen(cfg, tr);
        engine::RmSsdOptions o =
            options(model::rmc1(), tr, gen.tableHistograms(kHistLookups));
        o.functional = true;
        engine::RmSsd dev(cfg, o);
        dev.loadTables();
        std::vector<model::Sample> sent;
        Tracer off;
        closedLoop(
            dev, kTwinRequests,
            [&](std::uint32_t) {
                std::vector<model::Sample> batch = gen.nextBatch(1);
                sent.insert(sent.end(), batch.begin(), batch.end());
                return dev.submit(batch);
            },
            off, checks, "cached_device twin");
        // closedLoop consumed the completions; replay the same stream
        // synchronously for the outputs.
        gen.reset();
        dev.resetTiming();
        for (std::uint32_t r = 0; r < kTwinRequests; ++r) {
            const std::vector<model::Sample> batch = gen.nextBatch(1);
            dev.submit(batch);
            const std::vector<engine::AsyncCompletion> done = dev.drain();
            const bool one = done.size() == 1 &&
                             done[0].outcome.outputs.size() == 1;
            checks.expect(one, "twin: expected one output");
            if (!one)
                continue;
            const float ref = dev.model().referenceInference(batch[0]);
            checks.expect(std::fabs(done[0].outcome.outputs[0] - ref) <=
                              kTwinTolerance,
                          "twin: output differs from reference");
        }
    }

    void
    replays(std::uint64_t seed, Tracer &tracer, StatMap &out) override
    {
        const model::ModelConfig cfg = model::rmc1();
        const workload::TraceConfig tr = trace(repSeed(seed, 0));
        workload::TraceGenerator gen(cfg, tr);
        const engine::RmSsdOptions o =
            options(cfg, tr, gen.tableHistograms(kHistLookups));
        replayCacheAndSketch(cfg, tr, o.evCache, 400, tracer, out);
    }

    /**
     * Replay the workload's own (table, index) stream against a
     * standalone EvCache (probe, fill on miss) and FrequencySketch
     * (record + estimate) with the device's configuration, and time
     * trace generation of the same requests.
     */
    static void
    replayCacheAndSketch(const model::ModelConfig &cfg,
                         const workload::TraceConfig &tr,
                         const engine::EvCacheConfig &cacheCfg,
                         std::uint32_t requests, Tracer &tracer,
                         StatMap &out)
    {
        workload::TraceGenerator gen(cfg, tr);
        std::vector<std::vector<model::Sample>> stream;
        const double g0 = hostNow();
        {
            Scope s(tracer, "workload.trace_gen.replay");
            for (std::uint32_t r = 0; r < requests; ++r)
                stream.push_back(gen.nextBatch(1));
        }
        out["workload.trace_gen.host_ns_per_req"] =
            (hostNow() - g0) * 1e9 / requests;

        engine::EvCache cache(cacheCfg, Bytes{cfg.vectorBytes()});
        std::uint64_t probes = 0;
        const double c0 = hostNow();
        {
            Scope s(tracer, "engine.ev_cache.replay");
            for (const auto &batch : stream)
                for (const model::Sample &smp : batch)
                    for (std::uint32_t t = 0; t < smp.indices.size(); ++t)
                        for (const std::uint64_t idx : smp.indices[t]) {
                            ++probes;
                            if (!cache.lookup(TableId{t}, EvIndex{idx},
                                              nullptr))
                                cache.fill(TableId{t}, EvIndex{idx}, {});
                        }
        }
        out["engine.ev_cache.host_ns_per_lookup"] =
            (hostNow() - c0) * 1e9 / static_cast<double>(probes);

        const std::uint64_t lines =
            cacheCfg.capacityBytes.raw() / cfg.vectorBytes();
        engine::FrequencySketch sketch(lines * cacheCfg.sketchCountersPerLine,
                                       lines * cacheCfg.sketchSamplePerLine);
        std::uint64_t ops = 0;
        std::uint64_t sink = 0;
        const double f0 = hostNow();
        {
            Scope s(tracer, "engine.freq_sketch.replay");
            for (const auto &batch : stream)
                for (const model::Sample &smp : batch)
                    for (std::uint32_t t = 0; t < smp.indices.size(); ++t)
                        for (const std::uint64_t idx : smp.indices[t]) {
                            const std::uint64_t key =
                                (static_cast<std::uint64_t>(t) << 40) ^ idx;
                            sketch.record(key);
                            sink += sketch.estimate(key);
                            ops += 2;
                        }
        }
        out["engine.freq_sketch.host_ns_per_op"] =
            (hostNow() - f0) * 1e9 / static_cast<double>(ops);
        // Keeps the estimates observable so the loop is not elided.
        out["replay.sketch_estimate_sum"] = static_cast<double>(sink);
        out["replay.lookups_per_req"] =
            static_cast<double>(probes) / requests;
    }
};

// ---- host_ssd -----------------------------------------------------------

/**
 * RMC2 on the SSD-S baseline (host page cache at 1/4 of the embedding
 * bytes + I/O stack + CPU model), K = 0.3, batch 32, one closed-loop
 * client; each batch is its own InferenceSystem::run call. Open-loop
 * latencies come from a FIFO single-server replay of the simulated
 * per-batch service times (the host serves one batch at a time and a
 * batch's service time does not depend on when it arrives).
 */
class HostSsd : public Workload
{
  public:
    static constexpr std::uint32_t kBatch = 32;
    static constexpr std::uint32_t kWarmBatches = 8;
    static constexpr std::uint32_t kBatches = 40;
    /**
     * Arrivals per replay stream: p99 is the highest percentile this
     * supports. Each rung replays kReplayStreams independent arrival
     * streams and reports the median stream.
     */
    static constexpr std::uint32_t kReplayArrivals = 9000;
    static constexpr std::uint32_t kReplayStreams = 11;
    /** Closed-loop rate (samples/s) at the seed commit, frozen. */
    static constexpr double kSatRef = 21.3;
    static constexpr double kLimitUs = 6.0e6;
    static constexpr double kDramFraction = 0.25;

    std::vector<double> ladder() const override
    {
        return ladderRates(kSatRef, {0.3, 0.5, 0.65});
    }
    double latencyLimitUs() const override { return kLimitUs; }
    std::uint32_t simReps() const override { return 3; }

    static workload::TraceConfig
    trace(std::uint64_t seed)
    {
        workload::TraceConfig tr = workload::localityK(0.3);
        tr.seed = hashCombine(seed, 1);
        return tr;
    }

    RepResult
    runRep(std::uint64_t seed, Tracer &tracer, Checks &checks,
           bool setUpOnly) override
    {
        RepResult rep;
        const model::ModelConfig cfg = model::rmc2();
        double t = hostNow();
        std::unique_ptr<baseline::InferenceSystem> sys;
        {
            Scope s(tracer, "setup.build");
            sys = catalog::makeSystem("SSD-S", cfg);
        }
        rep.setupBuild = hostNow() - t;
        t = hostNow();
        std::unique_ptr<workload::TraceGenerator> gen;
        {
            Scope s(tracer, "setup.plan");
            gen = std::make_unique<workload::TraceGenerator>(cfg, trace(seed));
        }
        rep.setupPlan = hostNow() - t;
        t = hostNow();
        {
            Scope s(tracer, "setup.warmup");
            sys->run(*gen, kBatch, 1, kWarmBatches - 1);
        }
        rep.setupWarm = hostNow() - t;
        if (setUpOnly)
            return rep;

        workload::Breakdown sum;
        double traffic = 0.0;
        double ideal = 0.0;
        const double m0 = hostNow();
        {
            Scope s(tracer, "measured");
            for (std::uint32_t b = 0; b < kBatches; ++b) {
                workload::RunResult r;
                {
                    Scope s2(tracer, "baseline.run", b + 1);
                    r = sys->run(*gen, kBatch, 1, 0);
                }
                checks.expect(r.batches == 1 && r.samples == kBatch,
                              "host_ssd: batch/sample count mismatch");
                checks.expect(r.breakdown.total() == r.totalNanos,
                              "host_ssd: breakdown does not sum to latency");
                rep.serviceNs.push_back(
                    static_cast<double>(r.totalNanos.raw()));
                rep.batchLatency.push_back(us(r.totalNanos));
                sum += r.breakdown;
                traffic += static_cast<double>(r.hostTrafficBytes.raw());
                ideal += static_cast<double>(r.idealTrafficBytes.raw());
            }
        }
        rep.measured = hostNow() - m0;
        rep.requests = kBatches;
        double total = 0.0;
        for (const double v : rep.serviceNs)
            total += v;
        rep.satQps = kBatch * kBatches / (total / 1e9);

        const double tot = static_cast<double>(sum.total().raw());
        const double pageBytes = static_cast<double>(
            flash::tableIIGeometry().pageSizeBytes.raw());
        const double accesses = ideal / cfg.vectorBytes();
        rep.layer["host.page_cache.hit_ratio"] =
            1.0 - ratio(traffic / pageBytes, accesses);
        rep.layer["host.read_amplification"] = ratio(traffic, ideal);
        rep.layer["baseline.breakdown.emb_fs_frac"] =
            ratio(static_cast<double>(sum.embFs.raw()), tot);
        rep.layer["baseline.breakdown.emb_ssd_frac"] =
            ratio(static_cast<double>(sum.embSsd.raw()), tot);
        rep.layer["baseline.breakdown.emb_op_frac"] =
            ratio(static_cast<double>(sum.embOp.raw()), tot);
        rep.layer["baseline.breakdown.mlp_frac"] = ratio(
            static_cast<double>((sum.topMlp + sum.botMlp + sum.concat).raw()),
            tot);
        rep.layer["baseline.breakdown.other_frac"] =
            ratio(static_cast<double>(sum.other.raw()), tot);
        return rep;
    }

    /**
     * FIFO single-server replay (Lindley recursion) of @p serviceNs at
     * Poisson arrival rate @p samplesPerSec: per-arrival latency (us)
     * and queue wait (ns), in arrival order. Service times are taken
     * cyclically in their simulated order.
     */
    static void
    fifoReplay(const std::vector<double> &serviceNs, double samplesPerSec,
               std::uint64_t seed, std::vector<double> &latencyUs,
               std::vector<double> &waitNs)
    {
        Rng rng(seed);
        const double meanGapNs = 1e9 * kBatch / samplesPerSec;
        double wait = 0.0;
        for (std::uint32_t j = 0; j < kReplayArrivals; ++j) {
            const double service = serviceNs[j % serviceNs.size()];
            latencyUs.push_back((wait + service) / 1e3);
            waitNs.push_back(wait);
            const double gap = -meanGapNs * std::log(1.0 - rng.nextDouble());
            wait = std::max(0.0, wait + service - gap);
        }
    }

    void
    twin(std::uint64_t, Checks &) override
    {
        // SSD-S is a timing-only host model: run() returns no outputs,
        // so there is nothing to compare with the reference. Its
        // checks are the per-batch count and breakdown identities.
    }

    void
    replays(std::uint64_t seed, Tracer &tracer, StatMap &out) override
    {
        const model::ModelConfig cfg = model::rmc2();
        workload::TraceGenerator gen(cfg, trace(repSeed(seed, 0)));
        const std::uint32_t requests = 4;
        std::vector<std::vector<model::Sample>> stream;
        const double g0 = hostNow();
        {
            Scope s(tracer, "workload.trace_gen.replay");
            for (std::uint32_t r = 0; r < requests; ++r)
                stream.push_back(gen.nextBatch(kBatch));
        }
        out["workload.trace_gen.host_ns_per_req"] =
            (hostNow() - g0) * 1e9 / requests;

        const std::uint64_t pageBytes =
            flash::tableIIGeometry().pageSizeBytes.raw();
        host::PageCache cache(static_cast<std::uint64_t>(
            kDramFraction * static_cast<double>(cfg.embeddingBytes()) /
            static_cast<double>(pageBytes)));
        std::uint64_t accesses = 0;
        const double c0 = hostNow();
        {
            Scope s(tracer, "host.page_cache.replay");
            for (const auto &batch : stream)
                for (const model::Sample &smp : batch)
                    for (std::uint32_t t = 0; t < smp.indices.size(); ++t)
                        for (const std::uint64_t row : smp.indices[t]) {
                            ++accesses;
                            cache.access(host::PageKey{
                                t, row * cfg.vectorBytes() / pageBytes});
                        }
        }
        out["host.page_cache.host_ns_per_access"] =
            (hostNow() - c0) * 1e9 / static_cast<double>(accesses);
        out["replay.lookups_per_req"] =
            static_cast<double>(accesses) / requests;
    }
};

// ---- tenant_cluster -----------------------------------------------------

/**
 * Two catalog tenants (RMC1 heavy, RMC2 light; rows scaled to 2^16 per
 * table) on a TenantFleet backed by a x4 RmSsdCluster sharing an
 * EV-cache pool and a host-DRAM tier (1/16 of the embedding bytes),
 * WFQ dispatch, cold locality K = 2; open-loop Poisson arrivals
 * through simulateFleetServing.
 */
class TenantCluster : public Workload
{
  public:
    /** Saturation (samples/s) at the seed commit, frozen. */
    static constexpr double kSatRef = 1540.0;
    static constexpr double kLimitUs = 7500.0;
    /** Heavy tenant's share of arrivals (the light tenant gets 1/3). */
    static constexpr double kHeavyShare = 2.0 / 3.0;
    static constexpr std::uint32_t kSatRequests = 300;
    static constexpr std::uint32_t kRungRequests[3] = {600, 900, 1500};
    static constexpr std::uint32_t kWarmRequests = 200;
    static constexpr std::uint32_t kClosedRequests = 90;
    static constexpr std::uint32_t kDepth = 8;
    static constexpr std::uint64_t kRows = 1ull << 16;
    static constexpr std::uint64_t kTwinRows = 4096;
    static constexpr std::uint32_t kTwinRequests = 16;

    std::vector<double> ladder() const override
    {
        return ladderRates(kSatRef, {0.3, 0.5, 0.65});
    }
    double latencyLimitUs() const override { return kLimitUs; }
    std::uint32_t simReps() const override { return 5; }

    static std::vector<catalog::TenantSpec>
    specs(std::uint64_t seed, std::uint64_t rows)
    {
        std::vector<catalog::TenantSpec> s(2);
        s[0].id = "heavy";
        s[0].config = catalog::ModelCatalog::builtin().model("RMC1");
        s[0].trafficShare = kHeavyShare;
        s[1].id = "light";
        s[1].config = catalog::ModelCatalog::builtin().model("RMC2");
        s[1].trafficShare = 1.0 - kHeavyShare;
        for (std::size_t i = 0; i < 2; ++i) {
            s[i].config.withRowsPerTable(rows);
            s[i].trace = workload::localityK(2.0);
            s[i].trace.seed = hashCombine(seed, 1 + i);
            s[i].cacheShare = s[i].trafficShare;
            s[i].tierShare = s[i].trafficShare;
        }
        return s;
    }

    static catalog::FleetOptions
    options(const std::vector<catalog::TenantSpec> &s)
    {
        catalog::FleetOptions fo;
        fo.numDevices = 4;
        fo.device.evCache.enabled = true;
        fo.device.evCache.admission = engine::EvCacheAdmission::TinyLfu;
        fo.device.evCache.capacityBytes = Bytes{1ull << 20};
        fo.device.coalesceIndices = true;
        fo.hostTierBytes = Bytes{(s[0].config.embeddingBytes() +
                                  s[1].config.embeddingBytes()) /
                                 16};
        return fo;
    }

    catalog::FleetServingConfig
    serving(double samplesPerSec, std::uint32_t requests,
            std::uint64_t seed) const
    {
        catalog::FleetServingConfig sc;
        sc.loads.resize(2);
        sc.loads[0].arrivalQps = samplesPerSec * kHeavyShare;
        sc.loads[1].arrivalQps = samplesPerSec * (1.0 - kHeavyShare);
        sc.loads[1].numRequests = requests / 3;
        sc.loads[0].numRequests = requests - sc.loads[1].numRequests;
        sc.queueDepth = kDepth;
        sc.seed = seed;
        sc.wfq = true;
        return sc;
    }

    catalog::FleetServingResult
    serve(catalog::TenantFleet &fleet, const catalog::FleetServingConfig &sc,
          Tracer &tracer, Checks &checks, RepResult &rep, StatMap *delta)
    {
        // As in CachedDevice::serve: the serving call resets timing
        // (flash busy gauges included), so reset before the snapshot.
        fleet.resetTiming();
        const StatMap before = snapshot(fleet, "fleet");
        const double t0 = hostNow();
        catalog::FleetServingResult r;
        {
            Scope s(tracer, "catalog.fleet_serving");
            r = catalog::simulateFleetServing(fleet, sc);
        }
        rep.servingHost += hostNow() - t0;
        const StatMap d = statDelta(before, snapshot(fleet, "fleet"));
        const std::string where =
            "fleet@" + exact(sc.loads[0].arrivalQps + sc.loads[1].arrivalQps);
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < 2; ++i) {
            const std::uint32_t n = sc.loads[i].numRequests;
            total += n;
            const std::string id = fleet.tenant(i).id;
            checks.expect(r.tenants[i].requests == n,
                          where + ": tenant " + id + " completed != offered",
                          n);
            checks.expect(d.at("fleet.tenant." + id + ".submitted") == n &&
                              d.at("fleet.tenant." + id + ".retired") == n,
                          where + ": tenant " + id +
                              " submitted/retired != requests");
        }
        rep.requests += total;
        checks.expect(r.requests == total, where + ": fleet total mismatch");
        checks.expect(d.at("fleet.device.queue.submitted") == total &&
                          d.at("fleet.device.queue.retired") == total,
                      where + ": backend submitted/retired != requests");
        checks.expect(d.at("fleet.device.host.tier.hits") +
                              d.at("fleet.device.host.tier.misses") ==
                          d.at("fleet.device.host.tier.requests") *
                              fleet.unionConfig().numTables,
                      where + ": tier hits + misses != offered slices");
        checkCacheConservation(d, checks, where);
        if (delta)
            *delta = d;
        return r;
    }

    RepResult
    runRep(std::uint64_t seed, Tracer &tracer, Checks &checks,
           bool setUpOnly) override
    {
        RepResult rep;
        const std::vector<catalog::TenantSpec> sp = specs(seed, kRows);
        double t = hostNow();
        std::unique_ptr<catalog::TenantFleet> fleet;
        {
            Scope s(tracer, "setup.build");
            fleet = std::make_unique<catalog::TenantFleet>(sp, options(sp));
        }
        rep.setupBuild = hostNow() - t;
        t = hostNow();
        std::vector<workload::TraceGenerator> gens;
        {
            Scope s(tracer, "setup.plan");
            for (const catalog::TenantSpec &spec : sp) {
                workload::TraceConfig tr = spec.trace;
                tr.seed = hashCombine(tr.seed, 7);
                gens.emplace_back(spec.config, tr);
            }
        }
        rep.setupPlan = hostNow() - t;
        t = hostNow();
        {
            Scope s(tracer, "setup.warmup");
            fleet->setMaxInflight(kDepth);
            for (std::uint32_t r = 0; r < kWarmRequests; ++r) {
                const std::size_t i = r % 3 == 2 ? 1 : 0;
                fleet->submitTenant(i, gens[i].nextBatch(1));
            }
            fleet->drain();
        }
        rep.setupWarm = hostNow() - t;
        if (setUpOnly)
            return rep;

        const double m0 = hostNow();
        {
            Scope s(tracer, "measured");
            const catalog::FleetServingConfig sat =
                serving(1e9, kSatRequests, hashCombine(seed, 2));
            rep.satQps = serve(*fleet, sat, tracer, checks, rep, nullptr)
                             .achievedQps;

            const std::vector<double> rates = ladder();
            for (std::size_t k = 0; k < rates.size(); ++k) {
                StatMap delta;
                const catalog::FleetServingResult r =
                    serve(*fleet,
                          serving(rates[k], kRungRequests[k],
                                  hashCombine(seed, 10 + k)),
                          tracer, checks, rep, &delta);
                RungSample rs;
                rs.offered = rates[k];
                std::size_t minN = r.tenants[0].requests;
                for (const catalog::TenantServingResult &tr : r.tenants) {
                    rs.p50 = std::max(rs.p50, us(tr.p50));
                    minN = std::min<std::size_t>(minN, tr.requests);
                    if (tr.achievedQps < 0.9 * tr.offeredQps)
                        rs.backlog = true;
                }
                // Tail of the worse tenant at the percentile the
                // smaller tenant's sample supports.
                rs.tail.samples = minN;
                rs.tail.percentile = supportedPercentile(minN) >= 99.0
                                         ? 99.0
                                         : 95.0;
                checks.expect(samplesBeyond(minN, rs.tail.percentile) >= 10,
                              "tenant_cluster: tail unsupported by samples");
                for (const catalog::TenantServingResult &tr : r.tenants)
                    rs.tail.value =
                        std::max(rs.tail.value,
                                 us(rs.tail.percentile >= 99.0 ? tr.p99
                                                               : tr.p95));
                rep.rungs.push_back(rs);
                if (k == 2) {
                    double elapsedNs = 0.0;
                    for (const catalog::TenantServingResult &tr : r.tenants)
                        elapsedNs = std::max(
                            elapsedNs, static_cast<double>(tr.requests) /
                                           tr.achievedQps * 1e9);
                    const double n = static_cast<double>(r.requests);
                    deviceLayerMetrics(delta, n, elapsedNs, rep.layer,
                                       checks);
                    rep.layer["cluster.sub_requests_per_req"] =
                        ratio(delta.at("fleet.device.subRequests"), n);
                    const double th = delta.at("fleet.device.host.tier.hits");
                    rep.layer["host.tier.hit_ratio"] = ratio(
                        th, th + delta.at("fleet.device.host.tier.misses"));
                    for (std::size_t i = 0; i < 2; ++i) {
                        const std::string base =
                            "catalog.tenant." + fleet->tenant(i).id;
                        rep.layer[base + ".tail_us.hi"] =
                            us(rs.tail.percentile >= 99.0 ? r.tenants[i].p99
                                                          : r.tenants[i].p95);
                        rep.layer[base + ".contended_dispatch_share"] =
                            r.tenants[i].contendedDispatchShare;
                    }
                }
            }

            const StatMap before = snapshot(*fleet, "fleet");
            std::set<engine::RequestId> light;
            const auto lat = closedLoop(
                *fleet, kClosedRequests,
                [&](std::uint32_t r) {
                    const std::size_t i = r % 3 == 2 ? 1 : 0;
                    std::vector<model::Sample> batch;
                    {
                        Scope s(tracer, "workload.trace_gen", r + 1);
                        batch = gens[i].nextBatch(1);
                    }
                    Scope s(tracer, "device.submit", r + 1);
                    const engine::RequestId id =
                        fleet->submitTenant(i, batch);
                    if (i == 1)
                        light.insert(id);
                    return id;
                },
                tracer, checks, "tenant_cluster closed loop");
            for (const auto &[id, l] : lat)
                (light.count(id) ? rep.batchLatency2 : rep.batchLatency)
                    .push_back(l);
            rep.requests += kClosedRequests;
            const StatMap d = statDelta(before, snapshot(*fleet, "fleet"));
            checks.expect(d.at("fleet.device.queue.submitted") ==
                                  kClosedRequests &&
                              d.at("fleet.device.queue.retired") ==
                                  kClosedRequests,
                          "closed loop: submitted/retired != requests");
            checkCacheConservation(d, checks, "fleet closed loop");
        }
        rep.measured = hostNow() - m0;
        return rep;
    }

    void
    twin(std::uint64_t seed, Checks &checks) override
    {
        const std::vector<catalog::TenantSpec> sp =
            specs(repSeed(seed, 0), kTwinRows);
        catalog::FleetOptions fo = options(specs(repSeed(seed, 0), kRows));
        fo.device.functional = true;
        catalog::TenantFleet fleet(sp, fo);
        for (std::size_t i = 0; i < fleet.numTenants(); ++i) {
            const model::ModelConfig &tcfg = fleet.tenant(i).config;
            const model::ModelConfig sub =
                fleet.unionConfig().withTableSubset(fleet.tenantSlots(i));
            const model::DlrmModel ref(sub);
            const std::uint32_t lanes = fleet.unionLayout().lanes[i];
            workload::TraceGenerator gen(tcfg, fleet.tenant(i).trace);
            for (std::uint32_t r = 0; r < kTwinRequests; ++r) {
                const std::vector<model::Sample> batch = gen.nextBatch(2);
                const engine::RequestId id = fleet.submitTenant(i, batch);
                const std::vector<engine::AsyncCompletion> done =
                    fleet.drain();
                const std::size_t width =
                    static_cast<std::size_t>(sub.numTables) * sub.embDim;
                const bool shape =
                    done.size() == 1 && done[0].id == id &&
                    done[0].outcome.outputs.size() == width * batch.size();
                checks.expect(shape, "fleet twin: lost, duplicated or "
                                     "misshapen completion");
                if (!shape)
                    continue;
                for (std::size_t s = 0; s < batch.size(); ++s) {
                    std::vector<std::vector<std::uint64_t>> expanded(
                        sub.numTables);
                    for (std::uint32_t t = 0; t < tcfg.numTables; ++t)
                        for (std::uint32_t l = 0; l < lanes; ++l)
                            expanded[t * lanes + l] = batch[s].indices[t];
                    const model::Vector pooled =
                        ref.embedding().pooledReference(expanded);
                    std::size_t bad = 0;
                    for (std::size_t v = 0; v < width; ++v)
                        if (std::fabs(done[0].outcome.outputs[s * width + v] -
                                      pooled[v]) > kTwinTolerance)
                            ++bad;
                    checks.expect(bad == 0,
                                  "fleet twin: pooled output differs from "
                                  "reference");
                }
            }
        }
    }

    void
    replays(std::uint64_t seed, Tracer &tracer, StatMap &out) override
    {
        // The heavy tenant's cold stream against a cache the size of
        // one shard's pool slice.
        const std::vector<catalog::TenantSpec> sp =
            specs(repSeed(seed, 0), kRows);
        const catalog::FleetOptions fo = options(sp);
        CachedDevice::replayCacheAndSketch(sp[0].config, sp[0].trace,
                                           fo.device.evCache, 200, tracer,
                                           out);
    }
};

// ========================================================================
// Running a workload and reporting
// ========================================================================

/** The per-layer metric names and units, in report order. */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"engine.ev_cache.hit_ratio", "frac"},
        {"engine.ev_cache.evictions_per_req", "count"},
        {"engine.ev_cache.admission_rejects_per_req", "count"},
        {"engine.emb.coalesced_frac", "frac"},
        {"engine.emb.flash_reads_per_req", "count"},
        {"engine.emb.issue_busy_frac", "frac"},
        {"engine.mlp.bottom_busy_frac", "frac"},
        {"engine.mlp.top_busy_frac", "frac"},
        {"engine.eq1.bot_over_emb", "ratio"},
        {"engine.eq1.top_over_emb", "ratio"},
        {"nvme.dma.busy_frac", "frac"},
        {"nvme.dma.bytes_per_req", "B"},
        {"nvme.mmio.ops_per_req", "count"},
        {"flash.die_busy_frac.max", "frac"},
        {"flash.die_busy_frac.mean", "frac"},
        {"flash.bus_busy_frac.max", "frac"},
        {"flash.die_conflicts_per_req", "count"},
        {"ftl.ev_requests_per_req", "count"},
        {"cluster.sub_requests_per_req", "count"},
        {"cluster.shard_busy_frac.max_over_mean", "ratio"},
        {"catalog.tenant.heavy.tail_us.hi", "us"},
        {"catalog.tenant.light.tail_us.hi", "us"},
        {"catalog.tenant.heavy.contended_dispatch_share", "frac"},
        {"catalog.tenant.light.contended_dispatch_share", "frac"},
        {"host.tier.hit_ratio", "frac"},
        {"workload.serving.queue_wait_us.mean", "us"},
        {"workload.serving.service_us.mean", "us"},
        {"workload.serving.mean_queue_depth", "count"},
        {"workload.serving.depth_adjustments", "count"},
        {"workload.serving.deadline_miss_frac.hi", "frac"},
        {"host.page_cache.hit_ratio", "frac"},
        {"host.read_amplification", "ratio"},
        {"baseline.breakdown.emb_fs_frac", "frac"},
        {"baseline.breakdown.emb_ssd_frac", "frac"},
        {"baseline.breakdown.emb_op_frac", "frac"},
        {"baseline.breakdown.mlp_frac", "frac"},
        {"baseline.breakdown.other_frac", "frac"},
        {"workload.trace_gen.host_ns_per_req", "ns"},
        {"engine.ev_cache.host_ns_per_lookup", "ns"},
        {"engine.freq_sketch.host_ns_per_op", "ns"},
        {"host.page_cache.host_ns_per_access", "ns"},
        {"device.submit.host_ns_per_req", "ns"},
        {"device.harvest.host_ns_per_req", "ns"},
        {"workload.serving.host_s", "s"},
        {"setup.build.host_s", "s"},
        {"setup.plan.host_s", "s"},
        {"setup.warmup.host_s", "s"},
        {"tracing_overhead_frac", "frac"},
        {"engine.ev_cache.host_share_est", "frac"},
        {"workload.trace_gen.host_share_est", "frac"},
        {"host.page_cache.host_share_est", "frac"},
        {"span.serving.self_share", "frac"},
        {"span.device.self_share", "frac"},
        {"span.baseline.self_share", "frac"},
        {"span.setup.self_share", "frac"},
    };
    return k;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool selftest = false;
    std::string digestDir;
    std::string spansOut;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <cached_device|host_ssd|"
                 "tenant_cluster> --seed <n> --seconds <s> --trace <0|1> "
                 "[--digest-dir <dir>] [--spans-out <file>]\n"
                 "       perfbench --selftest\n");
    return 2;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "cached_device")
        return std::make_unique<CachedDevice>();
    if (name == "host_ssd")
        return std::make_unique<HostSsd>();
    if (name == "tenant_cluster")
        return std::make_unique<TenantCluster>();
    return nullptr;
}

std::string
jsonMetric(const std::string &name, double value, const std::string &unit)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    return "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
}

/**
 * Compare the sim digest with the one an earlier run of the same
 * workload and seed left in @p dir (writing it when absent).
 * @return false on a mismatch
 */
bool
crossRunDigest(const std::string &dir, const std::string &workload,
               std::uint64_t seed, const std::string &digest)
{
    if (dir.empty())
        return true;
    const std::string path =
        dir + "/" + workload + "-" + std::to_string(seed) + ".digest";
    std::ifstream in(path);
    if (in) {
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str() == digest;
    }
    // Write-then-rename, so a concurrent run never reads half a digest.
    const std::string tmp = path + ".tmp" + std::to_string(getpid());
    {
        std::ofstream out(tmp);
        out << digest;
    }
    std::rename(tmp.c_str(), path.c_str());
    return true;
}

/** Peak resident set size of this process (MiB). */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Write every span as one tab-separated line (seconds from the first). */
void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
        return;
    }
    const double t0 = spans.empty() ? 0.0 : spans.front().start;
    out << "id\tname\tstart_s\tend_s\tparent\trequest\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << i << '\t' << s.name << '\t' << exact(s.start - t0) << '\t'
            << exact(s.end - t0) << '\t' << s.parent << '\t' << s.request
            << '\n';
    }
}

/**
 * Set-up-only reps after each full rep. One set-up is short enough to
 * land wholly in a fast or a slow spell of a shared machine, so setup_s
 * takes the median of three set-ups per rep, spread over the run.
 */
constexpr std::uint32_t kSetUpOnlyPerRep = 2;

/** The three fixed-rate rungs, from the bottom. */
const char *const kRungNames[] = {"lo", "mid", "hi"};

int
runBenchmark(const Args &args)
{
    std::unique_ptr<Workload> w = makeWorkload(args.workload);
    if (!w)
        return usage();
    const std::uint32_t simReps = w->simReps();
    Tracer tracer(false);
    Checks checks;

    // Reps 0..simReps-1 make up the sim metrics, each from its own
    // seed. Every later rep k replays rep k % simReps (the in-process
    // determinism check); at least one replay runs, and reps go on
    // until the measured host time reaches --seconds. In the traced
    // run even reps are traced and odd reps are not: simReps is odd,
    // so the first replay is an untraced copy of traced rep 0, and the
    // two halves give the tracing overhead.
    std::vector<RepResult> reps;
    std::vector<double> setupOnly;
    std::vector<double> tracedNsPerReq;
    std::vector<double> untracedNsPerReq;
    double measured = 0.0;
    for (std::uint32_t k = 0; k < simReps + 1 || measured < args.seconds;
         ++k) {
        const bool traced = args.trace && k % 2 == 0;
        tracer.setEnabled(traced);
        RepResult r = w->runRep(repSeed(args.seed, k % simReps), tracer,
                                checks, false);
        sealDigest(r);
        measured += r.measured;
        (traced ? tracedNsPerReq : untracedNsPerReq)
            .push_back(r.measured * 1e9 / static_cast<double>(r.requests));
        if (k >= simReps && r.digest != reps[k % simReps].digest) {
            std::fprintf(stderr,
                         "DETERMINISM FAILURE: rep %u replays rep %u (%s) but "
                         "its simulated results differ\n",
                         k, k % simReps,
                         args.trace ? "traced vs untraced" : "untraced");
            return 3;
        }
        reps.push_back(std::move(r));
        tracer.setEnabled(false);
        for (std::uint32_t i = 0; i < kSetUpOnlyPerRep; ++i) {
            const RepResult s = w->runRep(repSeed(args.seed, k % simReps),
                                          tracer, checks, true);
            setupOnly.push_back(s.setupBuild + s.setupPlan + s.setupWarm);
        }
        if (k >= 200)
            break;
    }
    tracer.setEnabled(false);

    // ---- sim metrics: medians over the sim reps ----
    std::vector<double> sat;
    std::vector<double> batchLat;
    std::vector<double> batchLat2;
    std::vector<double> serviceNs;
    for (std::uint32_t k = 0; k < simReps; ++k) {
        sat.push_back(reps[k].satQps);
        batchLat.insert(batchLat.end(), reps[k].batchLatency.begin(),
                        reps[k].batchLatency.end());
        batchLat2.insert(batchLat2.end(), reps[k].batchLatency2.begin(),
                         reps[k].batchLatency2.end());
        serviceNs.insert(serviceNs.end(), reps[k].serviceNs.begin(),
                         reps[k].serviceNs.end());
    }
    const std::vector<double> rates = w->ladder();
    std::vector<Rung> ladder;
    std::vector<double> p50s;
    std::vector<Tail> tails;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        std::vector<double> p50;
        std::vector<double> tail;
        Tail t;
        std::uint32_t backlog = 0;
        if (!serviceNs.empty()) {
            // host_ssd: open-loop latency from FIFO replays; the median
            // stream stands in for the median rep.
            for (std::uint32_t k = 0; k < HostSsd::kReplayStreams; ++k) {
                std::vector<double> lat;
                std::vector<double> waits;
                HostSsd::fifoReplay(serviceNs, rates[i],
                                    hashCombine(args.seed, 500 + 16 * i + k),
                                    lat, waits);
                t = tailOf(lat);
                p50.push_back(percentile(lat, 50.0));
                tail.push_back(t.value);
                backlog += backlogGrowing(waits);
            }
        } else {
            for (std::uint32_t k = 0; k < simReps; ++k) {
                const RungSample &s = reps[k].rungs[i];
                p50.push_back(s.p50);
                tail.push_back(s.tail.value);
                backlog += s.backlog;
                t = s.tail;
            }
        }
        Rung r;
        r.offered = rates[i];
        r.tail = median(tail);
        r.backlog = 2 * backlog > p50.size();
        // Checks are not kept per rung: any failure so far fails all.
        r.failures = checks.failed;
        ladder.push_back(r);
        p50s.push_back(median(p50));
        t.value = r.tail;
        tails.push_back(t);
    }
    const LadderResult lr = ladderSearch(ladder, w->latencyLimitUs());

    // Closed loop: the worse group's median and tail, at the percentile
    // the smaller group supports.
    Tail batchTail = tailOf(batchLat);
    if (!batchLat2.empty()) {
        batchTail = tailOf(batchLat2.size() < batchLat.size() ? batchLat2
                                                              : batchLat);
        batchTail.value =
            std::max(percentile(batchLat, batchTail.percentile),
                     percentile(batchLat2, batchTail.percentile));
    }
    const double batchP50 = std::max(percentile(batchLat, 50.0),
                                     percentile(batchLat2, 50.0));
    checks.expect(batchTail.percentile > 0.0,
                  "closed loop: no tail percentile supported by samples");

    // ---- host metrics: medians over every rep ----
    std::vector<double> setup = setupOnly;
    std::vector<double> rate, build, plan, warm, servingS;
    for (const RepResult &r : reps) {
        setup.push_back(r.setupBuild + r.setupPlan + r.setupWarm);
        build.push_back(r.setupBuild);
        plan.push_back(r.setupPlan);
        warm.push_back(r.setupWarm);
        servingS.push_back(r.servingHost);
        rate.push_back(static_cast<double>(r.requests) / r.measured);
    }

    // ---- cross-run determinism (traced and untraced runs alike) ----
    std::string digest;
    for (std::uint32_t k = 0; k < simReps; ++k)
        digest += reps[k].digest;
    if (!crossRunDigest(args.digestDir, args.workload, args.seed, digest)) {
        std::fprintf(stderr,
                     "DETERMINISM FAILURE: simulated results differ from an "
                     "earlier run of %s at seed %llu\n",
                     args.workload.c_str(),
                     static_cast<unsigned long long>(args.seed));
        return 3;
    }

    // Peak memory of the measured simulator, before the twin's
    // functional tables add to it.
    const double peakRss = peakRssMb();
    w->twin(args.seed, checks);

    // ---- human-readable report (stdout, before the result line) ----
    std::printf("workload %s seed %llu: %zu reps (%u sim), %.2f s measured, "
                "%llu/%llu checks failed (failed_frac %.6f)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), reps.size(),
                simReps, measured,
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted),
                ratio(static_cast<double>(checks.failed),
                      static_cast<double>(checks.attempted)));
    for (const std::string &m : checks.messages)
        std::printf("  FAILED: %s\n", m.c_str());
    for (std::size_t i = 0; i < rates.size(); ++i)
        std::printf("  rung %-3s offered %9.2f samples/s  p50 %10.1f us  "
                    "p%g %10.1f us (n=%zu per set, median set)%s\n",
                    kRungNames[i], rates[i], p50s[i], tails[i].percentile,
                    tails[i].value, tails[i].samples,
                    ladder[i].backlog ? "  backlog" : "");
    std::printf("  latency limit %.1f us; highest passing rung %d; "
                "sim_qps_at_slo %.2f samples/s\n",
                w->latencyLimitUs(), lr.highestRung, lr.qpsAtSlo);
    std::printf("  closed loop: p50 %.1f us p%g %.1f us (n=%zu)\n", batchP50,
                batchTail.percentile, batchTail.value, batchTail.samples);
    std::printf("  setup: median %.4f s over %zu set-ups (min %.4f, max "
                "%.4f)\n",
                median(setup), setup.size(),
                *std::min_element(setup.begin(), setup.end()),
                *std::max_element(setup.begin(), setup.end()));

    std::vector<std::string> metrics;
    if (!args.trace) {
        metrics.push_back(jsonMetric("sim_qps_sat", median(sat), "1/s"));
        metrics.push_back(jsonMetric("sim_qps_at_slo", lr.qpsAtSlo, "1/s"));
        for (std::size_t i = 0; i < rates.size(); ++i) {
            const std::string n = kRungNames[i];
            metrics.push_back(jsonMetric("sim_p50_us." + n, p50s[i], "us"));
            metrics.push_back(
                jsonMetric("sim_tail_us." + n, tails[i].value, "us"));
        }
        metrics.push_back(jsonMetric("sim_p50_us.batch", batchP50, "us"));
        metrics.push_back(
            jsonMetric("sim_tail_us.batch", batchTail.value, "us"));
        metrics.push_back(jsonMetric("host_req_per_s", median(rate), "1/s"));
        metrics.push_back(jsonMetric("setup_s", median(setup), "s"));
        metrics.push_back(jsonMetric("peak_rss_mb", peakRss, "MiB"));
    } else {
        StatMap layer = reps[0].layer;
        w->replays(args.seed, tracer, layer);
        tracer.setEnabled(false);
        const auto totals = spanTotals(tracer.spans());
        auto calls = [&](const std::string &n) {
            const auto it = totals.find(n);
            return it == totals.end() ? SpanTotals{} : it->second;
        };
        const double medianNsPerReq = median(untracedNsPerReq);
        const SpanTotals submit = calls("device.submit");
        const SpanTotals harvest = calls("device.harvest");
        layer["device.submit.host_ns_per_req"] =
            ratio(submit.total * 1e9, static_cast<double>(submit.calls));
        layer["device.harvest.host_ns_per_req"] =
            ratio(harvest.total * 1e9, static_cast<double>(harvest.calls));
        layer["workload.serving.host_s"] = median(servingS);
        layer["setup.build.host_s"] = median(build);
        layer["setup.plan.host_s"] = median(plan);
        layer["setup.warmup.host_s"] = median(warm);
        layer["tracing_overhead_frac"] =
            ratio(median(tracedNsPerReq), medianNsPerReq) - 1.0;
        // Estimated share of host time per request spent in a layer:
        // the standalone replay's cost per operation times the
        // workload's operations per request.
        const double lookupsPerReq = layer["replay.lookups_per_req"];
        if (args.workload != "host_ssd")
            layer["engine.ev_cache.host_share_est"] = ratio(
                lookupsPerReq * layer["engine.ev_cache.host_ns_per_lookup"],
                medianNsPerReq);
        else
            layer["host.page_cache.host_share_est"] = ratio(
                lookupsPerReq * layer["host.page_cache.host_ns_per_access"],
                medianNsPerReq);
        layer["workload.trace_gen.host_share_est"] =
            ratio(layer["workload.trace_gen.host_ns_per_req"], medianNsPerReq);

        // Self-time shares of the traced reps' and replays' spans.
        double all = 0.0;
        for (const auto &[n, t] : totals)
            all += t.self;
        auto share = [&](std::initializer_list<const char *> ns) {
            double s = 0.0;
            for (const char *n : ns)
                s += calls(n).self;
            return ratio(s, all);
        };
        layer["span.serving.self_share"] =
            share({"workload.serving", "catalog.fleet_serving"});
        layer["span.device.self_share"] =
            share({"device.submit", "device.harvest", "device.next_done",
                   "device.drain"});
        layer["span.baseline.self_share"] = share({"baseline.run"});
        layer["span.setup.self_share"] =
            share({"setup.build", "setup.plan", "setup.warmup"});

        std::printf("  span self time (traced reps + replays):\n");
        std::vector<std::pair<double, std::string>> bySelf;
        for (const auto &[n, t] : totals)
            bySelf.emplace_back(t.self, n);
        std::sort(bySelf.rbegin(), bySelf.rend());
        for (const auto &[self, n] : bySelf)
            std::printf("    %-30s self %8.3f s (%5.1f %%)  calls %llu\n",
                        n.c_str(), self, 100.0 * ratio(self, all),
                        static_cast<unsigned long long>(calls(n).calls));
        if (!args.spansOut.empty())
            writeSpans(args.spansOut, tracer.spans());
        for (const auto &[n, unit] : perLayerMetrics()) {
            const auto it = layer.find(n);
            metrics.push_back(
                jsonMetric(n, it == layer.end() ? 0.0 : it->second, unit));
        }
    }

    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", " : "") + metrics[i];
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

// ========================================================================
// Self-tests of the benchmark's own math
// ========================================================================

int
selftest()
{
    int failures = 0;
    auto check = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "selftest FAILED: %s\n", what);
            ++failures;
        }
    };

    // Percentile rule: highest candidate with >= 10 samples beyond.
    check(supportedPercentile(2000) == 99.0, "2000 samples support p99");
    check(supportedPercentile(10000) == 99.9, "10000 samples support p99.9");
    check(supportedPercentile(900) == 95.0, "900 samples stop at p95");
    check(supportedPercentile(200) == 95.0, "200 samples support p95");
    check(supportedPercentile(120) == 90.0, "120 samples support p90");
    check(supportedPercentile(30) == 0.0, "30 samples support nothing");
    check(samplesBeyond(1000, 99.0) == 10, "p99 of 1000 has 10 beyond");
    std::vector<double> ramp;
    for (int i = 1; i <= 1000; ++i)
        ramp.push_back(i);
    const Tail t = tailOf(ramp);
    check(t.percentile == 99.0 && t.value == 990.0 && t.samples == 1000,
          "tail of 1..1000 is p99 = 990 with n = 1000");
    check(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of even count");

    // Backlog: flat waits do not grow; a ramp does.
    std::vector<double> flat(100, 5.0);
    check(!backlogGrowing(flat), "flat waits are no backlog");
    std::vector<double> growing;
    for (int i = 0; i < 100; ++i)
        growing.push_back(i * 10.0);
    check(backlogGrowing(growing), "ramping waits are a backlog");
    check(!backlogGrowing({1.0, 50.0, 1.0}), "too few requests: no verdict");

    // Ladder: stop at the first failure, interpolate on tail only.
    std::vector<Rung> rungs = {{100, 10, false, 0},
                               {200, 20, false, 0},
                               {300, 40, false, 0},
                               {400, 10, false, 0}};
    LadderResult lr = ladderSearch(rungs, 30.0);
    check(lr.highestRung == 1, "ladder stops at the first failing rung");
    check(std::fabs(lr.qpsAtSlo - 250.0) < 1e-9,
          "ladder interpolates the tail crossing");
    rungs[2].backlog = true;
    lr = ladderSearch(rungs, 30.0);
    check(lr.qpsAtSlo == 200.0, "backlogged next rung: no interpolation");
    rungs[0].failures = 1;
    lr = ladderSearch(rungs, 30.0);
    check(lr.highestRung == -1 && lr.qpsAtSlo == 0.0,
          "failures fail a rung");
    lr = ladderSearch({{100, 10, false, 0}, {200, 20, false, 0}}, 30.0);
    check(lr.qpsAtSlo == 200.0, "all rungs pass: the top rung");

    // Span self time: children subtract once, overlaps are not double
    // counted, and out-of-range parts are clipped.
    Tracer tr(true);
    tr.add({"root", 0.0, 10.0, -1, 0});
    tr.add({"a", 1.0, 4.0, 0, 1});
    tr.add({"b", 3.0, 6.0, 0, 1});  // overlaps a by 1
    tr.add({"c", 9.0, 12.0, 0, 2}); // 2 s outside root
    tr.add({"a", 2.0, 3.0, 1, 1});  // grandchild inside a
    const auto totals = spanTotals(tr.spans());
    check(std::fabs(totals.at("root").self - 4.0) < 1e-12,
          "root self = 10 - union(1..6, 9..10)");
    check(std::fabs(totals.at("a").self - 3.0) < 1e-12 &&
              totals.at("a").calls == 2,
          "a self = (3 - 1) + 1 over two calls");
    check(std::fabs(totals.at("b").self - 3.0) < 1e-12, "leaf self = total");

    // Stats dump parsing and deltas.
    const StatMap before = parseStatsDump("x.hits 3\nx.misses 1\n");
    const StatMap after =
        parseStatsDump("x.hits 5\nx.misses 4\ny.dev0.x.hits 2\n");
    const StatMap d = statDelta(before, after);
    check(d.at("x.hits") == 2 && d.at("x.misses") == 3 &&
              d.at("y.dev0.x.hits") == 2,
          "stat deltas");
    check(sumEndingWith(d, ".hits") == 4 && sumEndingWith(d, ".misses") == 3,
          "suffix sums cover nested prefixes");

    std::printf("selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            args.workload = value();
        else if (a == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            args.trace = value() == "1";
        else if (a == "--digest-dir")
            args.digestDir = value();
        else if (a == "--spans-out")
            args.spansOut = value();
        else if (a == "--selftest")
            args.selftest = true;
        else
            return perfbench::usage();
    }
    if (args.selftest)
        return perfbench::selftest();
    if (args.workload.empty())
        return perfbench::usage();
    return perfbench::runBenchmark(args);
}
