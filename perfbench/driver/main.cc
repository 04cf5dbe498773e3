/**
 * @file
 * perfbench: one benchmark run of one workload.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans PATH] [--commit ID] [--setup-only]
 *
 * Set-up is config expansion plus one untimed warm-up unit, timed from
 * the start of main(). With --setup-only the process stops there;
 * run.py starts several such processes to sample set-up time. Then:
 *
 *   --trace 0  timed units, tracing off, for at least S seconds and at
 *              least kMinCells cells (so a p90 has ten samples beyond
 *              it).
 *   --trace 1  S seconds of units alternating tracing off and on (the
 *              wall-time ratio of the two halves is the tracing
 *              overhead), then the workload's layer probes. Spans are
 *              written to --spans when the run ends.
 *
 * Prints one JSON object of raw measurements; perfbench/run.py checks
 * it and derives the metrics. Exits 2 on bad arguments.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "probe.hh"
#include "sweep/json.hh"
#include "workloads.hh"

using namespace perfbench;
using clumsy::sweep::JsonWriter;

namespace
{

/** Cells an untraced run collects at least. */
constexpr std::size_t kMinCells = 100;
/** Hard cap on one timed phase, seconds (the run must end in 180 s). */
constexpr double kPhaseCapS = 100.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
    std::string commit = "unknown";
    bool setupOnly = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans PATH] [--commit ID] "
                 "[--setup-only]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty() || value[0] == '-')
                usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 60.0)
                usage("--seconds takes a number in (0, 60]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--spans") {
            a.spans = value;
        } else if (flag == "--commit") {
            a.commit = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.trace && a.spans.empty())
        usage("--trace 1 needs --spans PATH");
    return a;
}

/** What one timed phase measured: per-unit samples and their sums. */
struct Phase
{
    std::vector<double> unitWallS, unitCpuS, unitPackets, unitCells,
        cellsMs;
    std::vector<std::string> outputs;
    double wallS = 0.0, userS = 0.0, sysS = 0.0;
    std::int64_t minorFaults = 0;

    std::size_t units() const { return unitWallS.size(); }

    /** Run one unit of @p wl into this phase. */
    void runUnit(Workload &wl, SpanLog &log)
    {
        const Usage before = Usage::now();
        const auto t0 = SteadyClock::now();
        UnitResult r = wl.runUnit(log, static_cast<int>(units()));
        const double wall = secondsSince(t0);
        const Usage after = Usage::now();
        unitWallS.push_back(wall);
        unitCpuS.push_back(after.cpuS() - before.cpuS());
        unitPackets.push_back(r.packets);
        unitCells.push_back(static_cast<double>(r.cellsMs.size()));
        cellsMs.insert(cellsMs.end(), r.cellsMs.begin(), r.cellsMs.end());
        outputs.push_back(std::move(r.outputs));
        wallS += wall;
        userS += after.userS - before.userS;
        sysS += after.sysS - before.sysS;
        minorFaults += after.minorFaults - before.minorFaults;
    }
};

/** Untraced units until @p seconds have passed and kMinCells cells. */
Phase
runTimed(Workload &wl, double seconds)
{
    SpanLog off(false);
    Phase p;
    const auto start = SteadyClock::now();
    while ((secondsSince(start) < seconds || p.cellsMs.size() < kMinCells) &&
           secondsSince(start) < kPhaseCapS)
        p.runUnit(wl, off);
    return p;
}

/**
 * Untraced and traced units, alternating, for @p seconds (at least one
 * of each), so both see the same host conditions.
 */
std::pair<Phase, Phase>
runAlternating(Workload &wl, SpanLog &traced, double seconds)
{
    SpanLog off(false);
    Phase plain, withSpans;
    const auto start = SteadyClock::now();
    do {
        plain.runUnit(wl, off);
        withSpans.runUnit(wl, traced);
    } while (secondsSince(start) < seconds);
    return {std::move(plain), std::move(withSpans)};
}

void
writeList(JsonWriter &j, const char *key, const std::vector<double> &values)
{
    j.key(key).beginArray();
    for (const double v : values)
        j.value(v);
    j.endArray();
}

void
writePhase(JsonWriter &j, const char *key, const Phase &p)
{
    j.key(key).beginObject();
    writeList(j, "unit_wall_s", p.unitWallS);
    writeList(j, "unit_cpu_s", p.unitCpuS);
    writeList(j, "unit_packets", p.unitPackets);
    writeList(j, "unit_cells", p.unitCells);
    writeList(j, "cells_ms", p.cellsMs);
    j.key("output_hashes").beginArray();
    for (const std::string &o : p.outputs)
        j.value(hex64(fnv1a(o)));
    j.endArray();
    j.key("wall_s").value(p.wallS)
        .key("user_s").value(p.userS)
        .key("sys_s").value(p.sysS)
        .key("minflt").value(static_cast<std::uint64_t>(p.minorFaults))
        .endObject();
}

void
writeHost(JsonWriter &j, const HostInfo &host, const Args &args)
{
    j.key("host")
        .beginObject()
        .key("nproc").value(static_cast<std::uint64_t>(host.nproc))
        .key("cpu").value(host.cpuModel)
        .key("compiler").value(host.compiler)
        .key("build_type").value(host.buildType)
        .key("commit").value(args.commit)
        .key("workload").value(args.workload)
        .key("seed").value(args.seed)
        .endObject();
}

bool
writeSpans(const std::string &path, const HostInfo &host, const Args &args,
           const SpanLog &log)
{
    JsonWriter j;
    j.beginObject();
    writeHost(j, host, args);
    j.key("spans").beginArray();
    for (const Span &s : log.spans()) {
        j.beginObject()
            .key("name").value(s.name)
            .key("start_ns").value(static_cast<std::uint64_t>(s.startNs))
            .key("end_ns").value(static_cast<std::uint64_t>(s.endNs))
            .key("parent").value(static_cast<double>(s.parent))
            .key("run").value(static_cast<double>(s.run))
            .endObject();
    }
    j.endArray();
    j.endObject();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << j.str() << '\n';
    return static_cast<bool>(out.flush());
}

/**
 * The timed phases after set-up, into @p j. False when the span file
 * cannot be written.
 */
bool
measure(JsonWriter &j, Workload &wl, const Args &args, const HostInfo &host)
{
    if (!args.trace) {
        writePhase(j, "timed", runTimed(wl, args.seconds));
        return true;
    }
    SpanLog traced(true);
    const auto [plain, withSpans] = runAlternating(wl, traced, args.seconds);
    writePhase(j, "untraced", plain);
    writePhase(j, "traced", withSpans);
    JsonWriter counters, checks, outputs;
    counters.beginObject();
    checks.beginObject();
    outputs.beginObject();
    wl.probeLayers(traced, counters, checks, outputs);
    j.key("counters").raw(counters.endObject().str());
    j.key("checks").raw(checks.endObject().str());
    j.key("probe_outputs").raw(outputs.endObject().str());
    if (!writeSpans(args.spans, host, args, traced)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spans.c_str());
        return false;
    }
    j.key("spans_file").value(args.spans);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto processStart = SteadyClock::now();
    const Args args = parseArgs(argc, argv);
    const std::unique_ptr<Workload> wl = makeWorkload(args.workload);
    if (!wl)
        usage(("unknown workload " + args.workload).c_str());
    clumsy::setQuiet(true);
    const HostInfo host = HostInfo::probe();

    SpanLog untraced(false);
    wl->configure(args.seed);
    const std::string setupOutputs = wl->runUnit(untraced, -1).outputs;
    const double setupS = secondsSince(processStart);

    JsonWriter j;
    j.beginObject();
    writeHost(j, host, args);
    j.key("trace").value(args.trace);
    j.key("setup_s").value(setupS);
    j.key("outputs").raw(setupOutputs);
    j.key("setup_output_hash").value(hex64(fnv1a(setupOutputs)));

    if (!args.setupOnly && !measure(j, *wl, args, host))
        return 1;
    j.key("peak_rss_kb")
        .value(static_cast<std::uint64_t>(Usage::now().maxRssKb));
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}
