/**
 * @file
 * Shared option handling for the figure/table reproduction binaries.
 *
 * Every bench accepts:
 *   --packets N   packets per run (default per bench)
 *   --trials N    faulty replays averaged per configuration
 *   --jobs N      sweep worker threads (default: all hardware threads)
 *   --csv         print CSV instead of aligned tables
 *   --quick       1/4 of the default packets and trials (CI mode)
 *
 * The perf benches that keep a JSON record (card_scale, chip_perf,
 * traffic_scale) also accept --out FILE and write the record only
 * there, never over the committed BENCH_*.json by default.
 *
 * Bare arguments (workload names, "all") are collected into
 * positionals for benches that take them.
 */

#ifndef CLUMSY_BENCH_COMMON_HH
#define CLUMSY_BENCH_COMMON_HH

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/pool.hh"
#include "common/table.hh"

namespace clumsy::bench
{

/** Parsed command-line options. */
struct Options
{
    std::uint64_t packets;
    unsigned trials;
    unsigned jobs = 0; ///< 0 = all hardware threads
    bool csv = false;
    std::string out; ///< --out FILE (JSON-record benches); empty = none
    std::vector<std::string> positionals;

    /** @param jsonOut register --out (the bench keeps a JSON record). */
    Options(int argc, char **argv, std::uint64_t defPackets,
            unsigned defTrials, bool jsonOut = false)
        : packets(defPackets), trials(defTrials)
    {
        cli::ArgParser parser(argv && argv[0] ? argv[0] : "bench",
                              "Paper figure/table reproduction.");
        parser.optU64("--packets", "N", "packets per run", &packets);
        parser.optUnsigned("--trials", "N",
                           "faulty replays per configuration",
                           &trials);
        parser.optUnsigned(
            "--jobs", "N",
            "sweep worker threads (default: all hardware threads)",
            &jobs);
        parser.flag("--csv", "print CSV instead of aligned tables",
                    &csv);
        if (jsonOut)
            parser.optString("--out", "FILE",
                             "write the JSON record to this path "
                             "(default: not written)",
                             &out);
        parser.flag("--quick",
                    "1/4 of the default packets and trials (CI mode)",
                    [this, defPackets, defTrials]() {
                        packets = defPackets / 4 ? defPackets / 4 : 1;
                        trials = defTrials / 4 ? defTrials / 4 : 1;
                    });
        parser.positional("app", "workload names (or \"all\")",
                          [this](const std::string &v) {
                              positionals.push_back(v);
                          });
        parser.parse(argc, argv);
        setQuiet(true);
    }

    /**
     * Write a JSON record to the --out path, if one was given.
     * @return false when the file cannot be written.
     */
    bool writeRecord(const std::string &json) const
    {
        if (out.empty())
            return true;
        std::FILE *f = std::fopen(out.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", out.c_str());
            return false;
        }
        std::fputs(json.c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("wrote %s\n", out.c_str());
        return true;
    }

    /** Print a rendered table per the --csv flag. */
    void print(const TextTable &table) const
    {
        std::fputs((csv ? table.csv() : table.render()).c_str(), stdout);
        std::fputc('\n', stdout);
    }
};

/**
 * CPUs this process may run on (its affinity mask), at least 1. The
 * perf benches record it as host_threads, so a run pinned with taskset
 * reads as the 1-CPU run it is.
 */
inline unsigned
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return WorkStealingPool::hardwareWorkers();
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

} // namespace clumsy::bench

#endif // CLUMSY_BENCH_COMMON_HH
