/**
 * @file
 * Chip-run wall-clock baseline: --chip-jobs speedup at a fixed
 * operating point, written machine-readable to --out FILE (the
 * committed record is BENCH_chip.json).
 *
 * Times runChipExperiment on a pes x chip-jobs grid at the contended
 * configuration the parallelism work targets (mshrs=4, l2=shared,
 * flow dispatch, queue DVS, two-strike at Cr=0.5) and records, per
 * cell: wall milliseconds, delivered packet throughput, the measured
 * speedup over the chip-jobs=1 run of the same chip, and the
 * critical-path model bound (1 + trials) / (1 + ceil(trials / jobs))
 * — the golden run is inherently serial, the faulty trials fan out.
 * Every parallel cell is also byte-compared against its serial twin
 * (the determinism contract), and the host's hardware thread count is
 * recorded so a reader can tell a 1-CPU container (measured speedup
 * pinned at ~1x, model bound is the tracked number) from a real
 * multi-core run.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "common/pool.hh"
#include "core/experiment.hh"
#include "npu/chip.hh"
#include "npu/config.hh"
#include "sweep/json.hh"
#include "sweep/sink.hh"

using namespace clumsy;

namespace
{

struct Cell
{
    unsigned pes;
    unsigned jobs;
    double wallMs;
    double pps;
    double measured; ///< wall(jobs=1) / wall(jobs), same pes
    double model;    ///< (1 + trials) / (1 + ceil(trials / jobs))
    bool identical;  ///< byte-equal to the jobs=1 run
};

double
wallMsOf(const std::chrono::steady_clock::time_point start)
{
    const auto dt = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(dt).count();
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opt(argc, argv, 1500, 8, true);
    const std::string app =
        opt.positionals.empty() ? "route" : opt.positionals[0];

    core::ExperimentConfig cfg;
    cfg.numPackets = opt.packets;
    cfg.trials = opt.trials;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;

    std::vector<Cell> cells;
    TextTable table(app + " @ Cr=0.50, two-strike: chip-run wall "
                          "clock vs --chip-jobs (mshrs=4, l2=shared, "
                          "flow dispatch, queue DVS)");
    table.header({"PEs", "chip-jobs", "wall [ms]", "pkt/s",
                  "speedup", "model bound", "identical"});

    for (const unsigned pes : {4u, 8u}) {
        std::string serialJson;
        double serialMs = 0.0;
        for (const unsigned jobs : {1u, 2u, 4u}) {
            npu::NpuConfig npuCfg;
            npuCfg.peCount = pes;
            npuCfg.mshrs = 4;
            npuCfg.l2 = npu::L2Mode::Shared;
            npuCfg.dispatch = npu::DispatchPolicy::FlowHash;
            npuCfg.dvs = npu::DvsMode::Queue;
            npuCfg.chipJobs = jobs;

            const auto start = std::chrono::steady_clock::now();
            const npu::ChipExperimentResult res =
                npu::runChipExperiment(apps::appFactory(app), cfg,
                                       npuCfg);
            const double wallMs = wallMsOf(start);

            const std::string json =
                sweep::experimentResultJson(res.core) +
                sweep::chipMetricsJson(res.faultyChip);
            if (jobs == 1) {
                serialJson = json;
                serialMs = wallMs;
            }

            Cell cell;
            cell.pes = pes;
            cell.jobs = jobs;
            cell.wallMs = wallMs;
            cell.pps = res.faultyChip.throughputPps;
            cell.measured = wallMs > 0.0 ? serialMs / wallMs : 0.0;
            cell.model = (1.0 + opt.trials) /
                         (1.0 + static_cast<double>(
                                    (opt.trials + jobs - 1) / jobs));
            cell.identical = json == serialJson;
            cells.push_back(cell);

            table.row({std::to_string(pes), std::to_string(jobs),
                       TextTable::num(wallMs, 1),
                       TextTable::num(cell.pps, 0),
                       TextTable::num(cell.measured, 2) + "x",
                       TextTable::num(cell.model, 2) + "x",
                       cell.identical ? "yes" : "NO"});
        }
    }
    opt.print(table);

    sweep::JsonWriter w(2);
    w.beginObject();
    w.key("bench").value("chip_perf");
    w.key("app").value(app);
    w.key("packets").value(static_cast<std::uint64_t>(opt.packets));
    w.key("trials").value(static_cast<std::uint64_t>(opt.trials));
    w.key("host_threads").value(static_cast<std::uint64_t>(
        WorkStealingPool::hardwareWorkers()));
    w.key("config").beginObject();
    w.key("mshrs").value(std::uint64_t{4});
    w.key("l2").value("shared");
    w.key("dispatch").value("flow");
    w.key("dvs").value("queue");
    w.key("cr").value(0.5);
    w.key("scheme").value("two-strike");
    w.endObject();
    w.key("grid").beginArray();
    for (const Cell &c : cells) {
        w.beginObject();
        w.key("pes").value(static_cast<std::uint64_t>(c.pes));
        w.key("chip_jobs").value(static_cast<std::uint64_t>(c.jobs));
        w.key("wall_ms").value(c.wallMs);
        w.key("packets_per_sec").value(c.pps);
        w.key("speedup_measured").value(c.measured);
        w.key("speedup_model").value(c.model);
        w.key("identical").value(c.identical);
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
