/**
 * @file
 * The benchmark's own measurement machinery: host clock, span tracer
 * with self-time accounting, the percentile rule, the rate-ladder and
 * backlog rules, and a reader for StatsRegistry dumps. Kept free of
 * simulator types (except the StatsRegistry dump text) so the
 * self-tests in main.cpp can exercise it on synthetic inputs.
 */

#ifndef RMSSD_PERFBENCH_HARNESS_H
#define RMSSD_PERFBENCH_HARNESS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * Host time in seconds: CPU time of the calling thread. The benchmark is
 * single-threaded, so this is its wall time minus the time other
 * processes on a shared machine take the CPU away, which wall time
 * would count as noise.
 */
inline double
hostNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Median of @p v (mean of the two middle values); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Percentile rule ---------------------------------------------------

/**
 * Index of percentile @p p in @p n sorted samples: the same
 * nearest-rank rule as workload::LatencyRecorder::percentile, so
 * tails computed here and tails the library reports agree.
 */
inline std::size_t
percentileIndex(std::size_t n, double p)
{
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    return std::min(static_cast<std::size_t>(std::llround(rank)), n - 1);
}

/** Samples strictly beyond percentile @p p of @p n samples. */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - 1 - percentileIndex(n, p);
}

/** Candidate tail percentiles, highest first. */
inline const std::vector<double> &
tailCandidates()
{
    static const std::vector<double> kCandidates = {99.9, 99.0, 95.0,
                                                     90.0, 75.0};
    return kCandidates;
}

/**
 * The percentile rule: the highest candidate percentile with at least
 * ten samples beyond it; 0 when even the lowest candidate is
 * unsupported (fewer than ~40 samples).
 */
inline double
supportedPercentile(std::size_t n)
{
    for (const double p : tailCandidates())
        if (samplesBeyond(n, p) >= 10)
            return p;
    return 0.0;
}

/** A reported tail: which percentile, its value, and the sample count. */
struct Tail
{
    double percentile = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
};

/** Percentile @p p of @p v (nearest rank); 0 when empty. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[percentileIndex(v.size(), p)];
}

/** The percentile rule applied to raw samples. */
inline Tail
tailOf(const std::vector<double> &v)
{
    Tail t;
    t.samples = v.size();
    t.percentile = supportedPercentile(v.size());
    t.value = t.percentile > 0.0 ? percentile(v, t.percentile) : 0.0;
    return t;
}

// ---- Backlog and ladder rules ------------------------------------------

/**
 * A rung's backlog is growing when the mean queue wait of its last
 * tenth of requests (arrival order) exceeds twice that of its first
 * tenth. Needs at least 20 requests.
 */
inline bool
backlogGrowing(const std::vector<double> &waits)
{
    const std::size_t tenth = waits.size() / 10;
    if (tenth < 2)
        return false;
    double first = 0.0;
    double last = 0.0;
    for (std::size_t i = 0; i < tenth; ++i) {
        first += waits[i];
        last += waits[waits.size() - tenth + i];
    }
    first /= static_cast<double>(tenth);
    last /= static_cast<double>(tenth);
    return last > 2.0 * first;
}

/** One rung of a fixed offered-rate ladder. */
struct Rung
{
    double offered = 0.0; //!< offered rate (samples/s)
    double tail = 0.0;    //!< tail latency (us)
    bool backlog = false;
    std::uint64_t failures = 0;
};

/** Whether @p r meets latency limit @p limit. */
inline bool
rungPasses(const Rung &r, double limit)
{
    return r.tail <= limit && !r.backlog && r.failures == 0;
}

/** Outcome of a ladder search. */
struct LadderResult
{
    /** Highest passing rung counted from the bottom; -1 when none. */
    int highestRung = -1;
    /**
     * Rate at which the tail crosses the limit: the highest passing
     * rung's rate, linearly interpolated toward the next rung when
     * that rung fails on its tail alone (no backlog, no failures).
     * 0 when no rung passes.
     */
    double qpsAtSlo = 0.0;
};

/**
 * The ladder rule. Rungs must be in ascending offered rate; the search
 * stops at the first failing rung, so a pass above a failure (tail
 * noise) does not count.
 */
inline LadderResult
ladderSearch(const std::vector<Rung> &rungs, double limit)
{
    LadderResult out;
    std::size_t i = 0;
    while (i < rungs.size() && rungPasses(rungs[i], limit))
        ++i;
    if (i == 0)
        return out;
    out.highestRung = static_cast<int>(i - 1);
    const Rung &pass = rungs[i - 1];
    out.qpsAtSlo = pass.offered;
    if (i < rungs.size()) {
        const Rung &fail = rungs[i];
        if (!fail.backlog && fail.failures == 0 && fail.tail > pass.tail) {
            const double frac = (limit - pass.tail) / (fail.tail - pass.tail);
            out.qpsAtSlo += (fail.offered - pass.offered) * frac;
        }
    }
    return out;
}

// ---- Span tracer -------------------------------------------------------

/** One recorded span (host seconds). */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;          //!< index of the enclosing span; -1 = root
    std::uint64_t request = 0; //!< request id (0 = not per-request)
};

/**
 * In-memory span recorder. Spans nest by call stack (single-threaded);
 * when disabled every call is a no-op branch, so untraced runs pay
 * nothing but the check.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    int
    open(const char *name, std::uint64_t request = 0)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.request = request;
        spans_.push_back(std::move(s));
        const int id = static_cast<int>(spans_.size() - 1);
        stack_.push_back(id);
        spans_[static_cast<std::size_t>(id)].start = hostNow();
        return id;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = hostNow();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }
    void add(Span s) { spans_.push_back(std::move(s)); }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t request = 0)
        : tracer_(t), id_(t.open(name, request))
    {
    }
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/** Total and self time (seconds) and call count of one span name. */
struct SpanTotals
{
    double total = 0.0;
    double self = 0.0;
    std::uint64_t calls = 0;
};

/**
 * Per-name totals. A span's self time is its duration minus the part
 * of its interval covered by its direct children (union of the child
 * intervals clipped to the parent, so overlapping or out-of-range
 * children are not double counted).
 */
inline std::map<std::string, SpanTotals>
spanTotals(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : kids) {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, s.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        SpanTotals &t = out[s.name];
        t.total += s.end - s.start;
        t.self += (s.end - s.start) - covered;
        ++t.calls;
    }
    return out;
}

// ---- StatsRegistry dump reader -----------------------------------------

/** name -> value of every line of a StatsRegistry::dump. */
using StatMap = std::map<std::string, double>;

inline StatMap
parseStatsDump(const std::string &text)
{
    StatMap out;
    std::istringstream in(text);
    std::string name;
    double value = 0.0;
    while (in >> name >> value)
        out[name] = value;
    return out;
}

/** after - before for every name in @p after (absent before = 0). */
inline StatMap
statDelta(const StatMap &before, const StatMap &after)
{
    StatMap out;
    for (const auto &[k, v] : after) {
        const auto it = before.find(k);
        out[k] = v - (it == before.end() ? 0.0 : it->second);
    }
    return out;
}

/** Whether @p name ends with @p suffix. */
inline bool
endsWith(const std::string &name, const std::string &suffix)
{
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Values of every stat whose name ends with @p suffix. */
inline std::vector<double>
statsEndingWith(const StatMap &m, const std::string &suffix)
{
    std::vector<double> out;
    for (const auto &[k, v] : m)
        if (endsWith(k, suffix))
            out.push_back(v);
    return out;
}

/** Sum of every stat whose name ends with @p suffix. */
inline double
sumEndingWith(const StatMap &m, const std::string &suffix)
{
    double s = 0.0;
    for (const double v : statsEndingWith(m, suffix))
        s += v;
    return s;
}

} // namespace perfbench

#endif // RMSSD_PERFBENCH_HARNESS_H
