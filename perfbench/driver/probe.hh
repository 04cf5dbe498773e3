/**
 * @file
 * Measurement primitives of the benchmark driver: host clocks, process
 * resource usage, a content hash for modelled outputs, and the span
 * log of the traced run.
 *
 * Spans are recorded from outside the library, around its public
 * calls. Each span carries a name, start and end (steady-clock ns
 * since the log was created), the id of the span that caused it (-1
 * for a root) and a run id shared by every span of one timed unit.
 * With the log disabled every recording call is a branch and nothing
 * else, so the untraced and traced phases execute the same code.
 */
#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using SteadyClock = std::chrono::steady_clock;

/** Seconds elapsed since @p since on the steady clock. */
double secondsSince(SteadyClock::time_point since);

/** Process-wide (all threads) resource usage from getrusage(). */
struct Usage
{
    double userS = 0.0;
    double sysS = 0.0;
    std::int64_t minorFaults = 0;
    std::int64_t maxRssKb = 0;

    static Usage now();
    double cpuS() const { return userS + sysS; }
};

/** 64-bit FNV-1a of @p text: the identity of a modelled output. */
std::uint64_t fnv1a(const std::string &text);

/** Fixed-width lowercase hex of @p v. */
std::string hex64(std::uint64_t v);

/**
 * Runs successive timed units on successive CPUs of the ones this
 * process may use, starting with the CPU it was placed on, so that no
 * one vCPU's neighbours set a run's figures and the set-up units of
 * successive processes spread over the CPUs too (see README.md,
 * "Noise").
 */
class CpuRotation
{
  public:
    /** Reads the CPUs this thread may use; fatal when it cannot. */
    CpuRotation();

    /**
     * Confine this thread, and every thread it creates later, to the
     * next CPU; fatal when the affinity cannot be set.
     */
    void next();

  private:
    std::vector<unsigned> cpus_;
    std::size_t turn_ = 0;
};

/** Build-time and host facts every output starts with. */
struct HostInfo
{
    unsigned nproc = 1;
    std::string cpuModel;
    std::string compiler;
    std::string buildType;

    static HostInfo probe();
};

/** One recorded span. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    int run = -1;
};

/** Thread-safe in-memory span log; written out once, at the end. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return enabled_; }

    /** Open a span now; returns its id (-1 when disabled). */
    int begin(const char *name, int parent, int run);
    /** Close span @p id now (no-op for -1). */
    void end(int id);
    /** Record a finished span that ended now and lasted @p ms. */
    int record(const std::string &name, double ms, int parent, int run);

    std::vector<Span> spans() const;

  private:
    std::int64_t nowNs() const;

    const bool enabled_;
    const SteadyClock::time_point origin_ = SteadyClock::now();
    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

/** RAII span: opened on construction, closed on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, int parent, int run)
        : log_(log), id_(log.begin(name, parent, run))
    {
    }
    ~Scope() { log_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    const int id_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
