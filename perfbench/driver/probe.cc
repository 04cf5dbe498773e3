#include "probe.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/logging.hh"

namespace perfbench
{

double
secondsSince(SteadyClock::time_point since)
{
    return std::chrono::duration<double>(SteadyClock::now() - since)
        .count();
}

Usage
Usage::now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.userS = static_cast<double>(ru.ru_utime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sysS = static_cast<double>(ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minorFaults = ru.ru_minflt;
    u.maxRssKb = ru.ru_maxrss;
    return u;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

CpuRotation::CpuRotation()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        clumsy::fatal("cannot read the CPUs this process may use");
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed))
            cpus_.push_back(static_cast<unsigned>(cpu));
    }
    const auto here = std::find(cpus_.begin(), cpus_.end(),
                                static_cast<unsigned>(sched_getcpu()));
    if (here != cpus_.end())
        turn_ = static_cast<std::size_t>(here - cpus_.begin());
}

void
CpuRotation::next()
{
    const unsigned cpu = cpus_[turn_++ % cpus_.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0)
        clumsy::fatal("cannot confine the benchmark to CPU %u", cpu);
}

HostInfo
HostInfo::probe()
{
    HostInfo info;
    info.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                info.cpuModel = line.substr(colon + 2);
            break;
        }
    }
    if (info.cpuModel.empty())
        info.cpuModel = "unknown";
    info.compiler = PERFBENCH_COMPILER;
    info.buildType = PERFBENCH_BUILD_TYPE;
    return info;
}

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - origin_)
        .count();
}

int
SpanLog::begin(const char *name, int parent, int run)
{
    if (!enabled_)
        return -1;
    const std::int64_t t = nowNs();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, t, -1, parent, run});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::end(int id)
{
    if (id < 0)
        return;
    const std::int64_t t = nowNs();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endNs = t;
}

int
SpanLog::record(const std::string &name, double ms, int parent, int run)
{
    if (!enabled_)
        return -1;
    const std::int64_t t = nowNs();
    const auto len = static_cast<std::int64_t>(std::llround(ms * 1e6));
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, t - len, t, parent, run});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
SpanLog::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

} // namespace perfbench
