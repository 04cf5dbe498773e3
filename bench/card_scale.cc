/**
 * @file
 * Line-card wall-clock baseline: --card-jobs speedup on a chips x
 * jobs grid, written machine-readable to --out FILE (the committed
 * record is BENCH_card.json).
 *
 * Times runCardExperiment (golden + trials, all advancing the chips
 * of one card together) at the shared-DRAM configuration the
 * inter-chip parallelism work targets (8 banks behind every chip's
 * L2, mshrs=2, l2=shared, flow dispatch within a chip, rr across
 * chips, two-strike at Cr=0.5) and records, per cell: wall
 * milliseconds, host-side packet throughput, the measured speedup
 * over the card-jobs=1 run of the same card, and the model bound
 * min(chips, jobs) — unlike --chip-jobs, the golden run itself fans
 * out across chips, so the bound is structural, not trial-limited.
 * Every cell is byte-compared against its serial twin (the
 * determinism contract), and the number of CPUs the process may run
 * on is recorded as host_threads, so a reader can tell a 1-CPU run —
 * a 1-CPU container or a run pinned with taskset (measured speedup
 * at ~1x, model bound is the tracked number) — from a real
 * multi-core run.
 *
 * A second table holds the packet count fixed (10x the grid's, so the
 * kernel's share of CPU is resolved above the accounting tick) and
 * sweeps the chips {1, 2, 4, 8} at card-jobs 1: wall time plus the
 * process's user and kernel CPU (getrusage) and the wall time over
 * the one-chip card's. At fixed packets the simulated work barely
 * grows with the chips, so the growth is the host's per-chip fixed
 * cost; the ROADMAP target is 8 chips within 2x of 1 chip with kernel
 * time under 10% of CPU.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "common/pool.hh"
#include "core/experiment.hh"
#include "linecard/card.hh"
#include "npu/config.hh"
#include "sweep/json.hh"
#include "sweep/sink.hh"

using namespace clumsy;

namespace
{

struct Cell
{
    unsigned chips;
    unsigned jobs;    ///< requested --card-jobs (0 = hardware)
    double wallMs;
    double pps;       ///< host-side packets per second, all runs
    double measured;  ///< wall(jobs=1) / wall(jobs), same chips
    double model;     ///< min(chips, resolved jobs)
    bool identical;   ///< byte-equal to the jobs=1 run
};

/** One row of the fixed-packets chips sweep (card-jobs 1). */
struct ChipsRow
{
    unsigned chips;
    double wallMs;
    double userMs; ///< process user CPU over the timed run
    double sysMs;  ///< process kernel CPU over the timed run
};

/** Timed repetitions per cell; the minimum wall clock is reported. */
constexpr unsigned kReps = 2;

double
wallMsOf(const std::chrono::steady_clock::time_point start)
{
    const auto dt = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(dt).count();
}

/** The process's {user, sys} CPU so far, milliseconds. */
std::pair<double, double>
cpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ms = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    return {ms(ru.ru_utime), ms(ru.ru_stime)};
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opt(argc, argv, 800, 2, true);
    const std::string app =
        opt.positionals.empty() ? "route" : opt.positionals[0];

    core::ExperimentConfig cfg;
    cfg.numPackets = opt.packets;
    cfg.trials = opt.trials;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;

    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.mshrs = 2;
    npuCfg.l2 = npu::L2Mode::Shared;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;

    const unsigned hostThreads = WorkStealingPool::hardwareWorkers();

    // Warm-up: one untimed card run so the first timed cell does not
    // pay the cold-start (page faults, lazy allocation) alone.
    {
        linecard::CardConfig warm;
        warm.chips = 1;
        warm.dram.banks = 8;
        (void)linecard::runCard(apps::appFactory(app), cfg, npuCfg,
                                warm, true, 0);
    }

    std::vector<Cell> cells;
    TextTable table(app + " @ Cr=0.50, two-strike, 8-bank shared "
                          "DRAM: card wall clock vs --card-jobs "
                          "(2 PEs/chip, mshrs=2, l2=shared)");
    table.header({"chips", "card-jobs", "wall [ms]", "pkt/s (host)",
                  "speedup", "model bound", "identical"});

    for (const unsigned chips : {1u, 2u, 4u}) {
        std::string serialRepr;
        double serialMs = 0.0;
        for (const unsigned jobs : {1u, 2u, 4u, 0u}) {
            linecard::CardConfig cardCfg;
            cardCfg.chips = chips;
            cardCfg.dram.banks = 8;
            cardCfg.cardJobs = jobs;

            // Min over reps: the least-disturbed run is the honest
            // wall-clock figure, same policy as bench/sim_perf.
            double wallMs = 0.0;
            std::string repr;
            for (unsigned rep = 0; rep < kReps; ++rep) {
                const auto start = std::chrono::steady_clock::now();
                const linecard::CardExperimentResult res =
                    linecard::runCardExperiment(apps::appFactory(app),
                                                cfg, npuCfg, cardCfg);
                const double ms = wallMsOf(start);
                if (rep == 0 || ms < wallMs)
                    wallMs = ms;
                repr = sweep::hexU64(res.golden.valueDigest) +
                       sweep::cardMetricsJson(res.golden.card) +
                       sweep::cardMetricsJson(res.faultyCard) +
                       sweep::formatDouble(res.fatalFraction);
            }
            if (jobs == 1) {
                serialRepr = repr;
                serialMs = wallMs;
            }

            // Every run (golden + trials) advances all chips, so the
            // host-side throughput counts every simulated packet.
            const double totalPackets =
                static_cast<double>(opt.packets) * (1.0 + opt.trials);

            const unsigned resolved =
                std::min(jobs == 0 ? hostThreads : jobs, chips);

            Cell cell;
            cell.chips = chips;
            cell.jobs = jobs;
            cell.wallMs = wallMs;
            cell.pps =
                wallMs > 0.0 ? totalPackets / (wallMs / 1000.0) : 0.0;
            cell.measured = wallMs > 0.0 ? serialMs / wallMs : 0.0;
            cell.model = static_cast<double>(
                resolved < 1 ? 1 : resolved);
            cell.identical = repr == serialRepr;
            cells.push_back(cell);

            table.row({std::to_string(chips),
                       jobs == 0 ? "hw" : std::to_string(jobs),
                       TextTable::num(wallMs, 1),
                       TextTable::num(cell.pps, 0),
                       TextTable::num(cell.measured, 2) + "x",
                       TextTable::num(cell.model, 2) + "x",
                       cell.identical ? "yes" : "NO"});
        }
    }
    opt.print(table);

    // Fixed packets, more chips, card-jobs 1: the host's per-chip
    // fixed cost. Each row keeps the CPU split of its fastest rep.
    core::ExperimentConfig sweepCfg = cfg;
    sweepCfg.numPackets = 10 * opt.packets;
    std::vector<ChipsRow> chipsRows;
    TextTable chipsTable(app + " @ " +
                         std::to_string(sweepCfg.numPackets) +
                         " packets, card-jobs 1: host cost vs chips on "
                         "the card");
    chipsTable.header({"chips", "wall [ms]", "user [ms]", "sys [ms]",
                       "sys share", "wall / 1 chip"});
    for (const unsigned chips : {1u, 2u, 4u, 8u}) {
        linecard::CardConfig cardCfg;
        cardCfg.chips = chips;
        cardCfg.dram.banks = 8;
        ChipsRow row{chips, 0.0, 0.0, 0.0};
        for (unsigned rep = 0; rep < kReps; ++rep) {
            const auto cpu0 = cpuMs();
            const auto start = std::chrono::steady_clock::now();
            (void)linecard::runCardExperiment(apps::appFactory(app),
                                              sweepCfg, npuCfg, cardCfg);
            const double ms = wallMsOf(start);
            const auto cpu1 = cpuMs();
            if (rep == 0 || ms < row.wallMs)
                row = {chips, ms, cpu1.first - cpu0.first,
                       cpu1.second - cpu0.second};
        }
        chipsRows.push_back(row);
        const double cpu = row.userMs + row.sysMs;
        chipsTable.row({std::to_string(chips),
                        TextTable::num(row.wallMs, 1),
                        TextTable::num(row.userMs, 1),
                        TextTable::num(row.sysMs, 1),
                        TextTable::num(cpu > 0.0 ? row.sysMs / cpu : 0.0,
                                       2),
                        TextTable::num(row.wallMs / chipsRows[0].wallMs,
                                       2) +
                            "x"});
    }
    opt.print(chipsTable);

    sweep::JsonWriter w(2);
    w.beginObject();
    w.key("bench").value("card_scale");
    w.key("app").value(app);
    w.key("packets").value(static_cast<std::uint64_t>(opt.packets));
    w.key("trials").value(static_cast<std::uint64_t>(opt.trials));
    w.key("host_threads").value(
        static_cast<std::uint64_t>(bench::cpusAvailable()));
    w.key("reps").value(std::uint64_t{kReps});
    w.key("config").beginObject();
    w.key("pes_per_chip").value(std::uint64_t{2});
    w.key("mshrs").value(std::uint64_t{2});
    w.key("l2").value("shared");
    w.key("dispatch").value("flow");
    w.key("card_dispatch").value("rr");
    w.key("dram_banks").value(std::uint64_t{8});
    w.key("cr").value(0.5);
    w.key("scheme").value("two-strike");
    w.endObject();
    w.key("cells").beginArray();
    for (const Cell &c : cells) {
        w.beginObject();
        w.key("name").value("chips" + std::to_string(c.chips) +
                            "-jobs" + std::to_string(c.jobs));
        w.key("chips").value(static_cast<std::uint64_t>(c.chips));
        w.key("card_jobs").value(static_cast<std::uint64_t>(c.jobs));
        w.key("wall_ms").value(c.wallMs);
        w.key("pps").value(c.pps);
        w.key("speedup_measured").value(c.measured);
        w.key("speedup_model").value(c.model);
        w.key("identical").value(c.identical);
        w.endObject();
    }
    w.endArray();
    w.key("chips_sweep_packets")
        .value(static_cast<std::uint64_t>(sweepCfg.numPackets));
    w.key("chips_sweep").beginArray();
    for (const ChipsRow &r : chipsRows) {
        w.beginObject();
        w.key("chips").value(static_cast<std::uint64_t>(r.chips));
        w.key("card_jobs").value(std::uint64_t{1});
        w.key("wall_ms").value(r.wallMs);
        w.key("user_ms").value(r.userMs);
        w.key("sys_ms").value(r.sysMs);
        w.key("over_one_chip").value(r.wallMs / chipsRows[0].wallMs);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    if (!opt.writeRecord(w.str()))
        return 1;

    bool ok = true;
    for (const Cell &c : cells)
        ok = ok && c.identical;
    return ok ? 0 : 1;
}
