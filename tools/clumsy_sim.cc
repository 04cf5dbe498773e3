/**
 * @file
 * clumsy_sim: one run of the simulator, on any tier.
 *
 * Runs one workload under one configuration and prints the full
 * result set. The flags are the knob table's (sweep/knobs.hh), and
 * they pick the tier: any chip knob off its default runs the chip
 * model (src/npu/), any card knob the line card (src/linecard/), each
 * adding its own metrics. It also dumps and replays packet traces.
 *
 *   clumsy_sim --app route --cr 0.5 --scheme two-strike
 *   clumsy_sim --app md5 --dynamic --packets 5000 --trials 8
 *   clumsy_sim --app nat --cr 0.5 --json
 *   clumsy_sim --app route --pes 4 --l2 shared --dispatch flow
 *   clumsy_sim --app lpm --chips 4 --pes 2 --dram-banks 4 --json
 *   clumsy_sim --app crc --dump-trace crc.trace --packets 1000
 *   clumsy_sim --app crc --replay crc.trace --cr 0.25
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "apps/app.hh"
#include "apps/session.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "linecard/card.hh"
#include "net/trace_io.hh"
#include "npu/chip.hh"
#include "sweep/json.hh"
#include "sweep/knobs.hh"
#include "sweep/sink.hh"
#include "sweep/spec.hh"
#include "traffic/traffic.hh"

using namespace clumsy;

namespace
{

/** One faulty pass over a saved trace, no golden comparison. */
int
replay(const core::AppFactory &factory, const std::string &path,
       const core::ExperimentConfig &cfg, bool stats)
{
    const auto trace = net::loadTrace(path);
    auto instance = factory();
    core::ProcessorConfig pc = cfg.processor;
    pc.staticCr = cfg.cr;
    pc.dynamicFrequency = cfg.dynamicFrequency;
    pc.hierarchy.scheme = cfg.scheme;
    pc.faultModel.scale = cfg.faultScale;
    pc.faultSeed = cfg.faultSeed;
    core::ClumsyProcessor proc(pc);
    instance->initialize(proc);
    core::ValueRecorder rec;
    std::uint64_t processed = 0;
    for (const auto &pkt : trace) {
        if (proc.fatalOccurred())
            break;
        proc.beginPacket();
        rec.beginPacket();
        instance->processPacket(proc, pkt, rec);
        if (proc.fatalOccurred())
            break; // this packet never completed: don't count it
        proc.endPacket();
        ++processed;
    }
    // A replay whose first packet dies has no completed packets, so
    // per-packet quantities are reported as 0 rather than dividing
    // the totals by a clamped count.
    const double cyclesPerPkt =
        processed ? proc.nowCycles() / static_cast<double>(processed)
                  : 0.0;
    const double energyPerPktUj =
        processed ? proc.totalEnergyPj() * 1e-6 /
                        static_cast<double>(processed)
                  : 0.0;
    std::printf("replayed %llu/%zu packets, cycles/pkt %.1f, "
                "energy/pkt %.3f uJ, faults %llu%s\n",
                static_cast<unsigned long long>(processed),
                trace.size(), cyclesPerPkt, energyPerPktUj,
                static_cast<unsigned long long>(
                    proc.injector().faultCount()),
                proc.fatalOccurred()
                    ? (" — FATAL: " + proc.fatalReason()).c_str()
                    : "");
    // The fault breakdown is the whole point of a replay run: print
    // it always, not only under --stats.
    std::fputs(proc.injector().stats().dump().c_str(), stdout);
    if (stats) {
        std::fputs(proc.hierarchy().stats().dump().c_str(), stdout);
        std::fputs(proc.hierarchy().l1d().stats().dump().c_str(),
                   stdout);
    }
    // An aborted replay is a failed run: scripts driving replays need
    // the exit code to distinguish "survived the trace" from "died".
    return proc.fatalOccurred() ? 1 : 0;
}

/** Stream the app's trace straight to disk and exit. */
int
dumpTrace(const core::AppFactory &factory,
          const core::ExperimentConfig &cfg, const std::string &path)
{
    // Packet counts beyond memory are fine, exactly like the
    // harnesses' own sources.
    const auto probe = factory();
    const auto src =
        traffic::makeSource(core::resolveTraceConfig(cfg, *probe), 0);
    std::ofstream os(path);
    if (!os)
        fatal("cannot write trace file '%s'", path.c_str());
    net::writeTraceHeader(os);
    for (std::uint64_t i = 0; i < cfg.numPackets; ++i)
        net::writePacket(os, src->next());
    if (!os.flush())
        fatal("short write to trace file '%s'", path.c_str());
    std::printf("wrote %llu packets to %s\n",
                static_cast<unsigned long long>(cfg.numPackets),
                path.c_str());
    return 0;
}

/**
 * Golden-vs-faulty rows of a chip or card metrics object, read back
 * from its JSON so every member prints; arrays (per engine, per chip)
 * print space-separated.
 */
TextTable
metricsTable(const std::string &title, const std::string &golden,
             const std::string &faulty)
{
    const auto text = [](const sweep::JsonValue &v) {
        std::string out;
        char buf[32];
        for (const sweep::JsonValue &x :
             v.kind == sweep::JsonValue::Kind::Arr
                 ? v.arr
                 : std::vector<sweep::JsonValue>{v}) {
            std::snprintf(buf, sizeof(buf), "%.6g", x.num);
            out += (out.empty() ? "" : " ") + std::string(buf);
        }
        return out;
    };
    const sweep::JsonValue g = sweep::parseJson(golden);
    const sweep::JsonValue f = sweep::parseJson(faulty);
    TextTable table(title);
    table.header({"metric", "golden", "faulty (avg)"});
    for (std::size_t i = 0; i < g.obj.size(); ++i)
        table.row({g.obj[i].first, text(g.obj[i].second),
                   text(f.obj[i].second)});
    return table;
}

TextTable
coreTable(const std::string &title, const core::ExperimentResult &res)
{
    TextTable table(title);
    table.header({"metric", "golden", "faulty (avg)"});
    table.row({"packets processed",
               std::to_string(res.golden.packetsProcessed),
               std::to_string(res.faulty.packetsProcessed)});
    table.row({"cycles / packet",
               TextTable::num(res.golden.cyclesPerPacket, 1),
               TextTable::num(res.cyclesPerPacket, 1)});
    table.row({"energy / packet [uJ]",
               TextTable::num(res.golden.energyPerPacketPj * 1e-6, 3),
               TextTable::num(res.energyPerPacketPj * 1e-6, 3)});
    table.row({"D-cache miss rate [%]",
               TextTable::num(res.golden.dcacheMissRate * 100, 2), "-"});
    table.row({"fallibility", "1.0000",
               TextTable::num(res.fallibility, 4)});
    table.row({"fatal hazard / packet", "0",
               TextTable::sci(res.fatalProb, 2)});
    table.row({"fatal fraction", "0",
               TextTable::num(res.fatalFraction, 3)});
    table.row({"faults injected", "0",
               std::to_string(res.faulty.faultsInjected)});
    table.row({"parity trips", "0",
               std::to_string(res.faulty.parityTrips)});
    table.row({"ECC corrections", "0",
               std::to_string(res.faulty.eccCorrections)});
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    sweep::SweepSpec spec; // the scalars: packets, trials, seeds
    sweep::SweepCell cell;
    std::string dumpPath, replayPath;
    bool stats = false, csv = false, json = false;

    cli::ArgParser parser(
        "clumsy_sim",
        "Run one workload on one configuration (a single core, a "
        "multi-engine chip or a line card, whichever the knobs "
        "describe) and report the full result set.");
    sweep::addKnobFlags(parser, spec, cell);
    parser.section("traces");
    parser.optString("--dump-trace", "FILE",
                     "write the app's generated trace and exit",
                     &dumpPath);
    parser.optString("--replay", "FILE",
                     "run one faulty pass over a saved trace (single "
                     "core)",
                     &replayPath);
    parser.section("output");
    parser.flag("--stats", "dump raw simulator counters (--replay)",
                &stats);
    parser.flag("--csv", "CSV tables", &csv);
    parser.flag("--json",
                "machine-readable JSON: the config echo, then the "
                "result, npu or card objects clumsy_sweep writes",
                &json);
    parser.parse(argc, argv);

    if (cell.app.empty())
        fatal("--app is required (try --help)");
    sweep::checkCell(cell);
    const core::ExperimentConfig cfg = sweep::makeConfig(spec, cell);

    // The session app is the one workload with tunable knobs; all
    // others come from the stock factory.
    const apps::SessionParams sess{cell.sessionCapacity,
                                   cell.sessionTimeout};
    const core::AppFactory factory =
        cell.app == "session"
            ? core::AppFactory([sess] {
                  return std::make_unique<apps::SessionApp>(sess);
              })
            : apps::appFactory(cell.app);

    if (!dumpPath.empty())
        return dumpTrace(factory, cfg, dumpPath);
    if (!replayPath.empty())
        return replay(factory, replayPath, cfg, stats);

    // The tier's own metrics ride next to the result: the chip's
    // "npu" object or the card's "card" object, golden and faulty.
    core::ExperimentResult res;
    std::string title = "clumsy_sim: " + cell.app, tier, golden, faulty;
    std::uint64_t digest = 0;
    if (cell.isCard()) {
        const linecard::CardExperimentResult card =
            linecard::runCardExperiment(factory, cfg,
                                        sweep::makeNpuConfig(cell),
                                        sweep::makeCardConfig(cell));
        res = card.core;
        tier = "card";
        golden = sweep::cardMetricsJson(card.golden.card);
        faulty = sweep::cardMetricsJson(card.faultyCard);
        digest = card.golden.valueDigest;
        title += " on " + std::to_string(cell.chips) + " chip(s) x " +
                 std::to_string(cell.peCount) + " PE";
    } else if (cell.isNpu()) {
        const npu::ChipExperimentResult chip = npu::runChipExperiment(
            factory, cfg, sweep::makeNpuConfig(cell));
        res = chip.core;
        tier = "npu";
        golden = sweep::chipMetricsJson(chip.goldenChip);
        faulty = sweep::chipMetricsJson(chip.faultyChip);
        title += " on " + std::to_string(cell.peCount) + " PE(s), " +
                 npu::to_string(cell.dispatch);
    } else {
        res = core::runExperiment(factory, cfg);
    }

    sweep::JsonWriter doc(2);
    doc.beginObject();
    sweep::writeConfigEcho(doc, spec, cell);
    doc.key("result").raw(sweep::experimentResultJson(res));
    if (tier == "card") {
        doc.key("value_digest").value(sweep::hexU64(digest));
        doc.key("fatal_fraction").value(res.fatalFraction);
    }
    if (!tier.empty())
        doc.key(tier).raw(sweep::goldenFaultyJson(golden, faulty));
    doc.endObject();

    if (json) {
        std::fputs((doc.str() + "\n").c_str(), stdout);
        return 0;
    }

    title += " @ Cr=" + TextTable::num(cfg.cr, 2) +
             (cfg.dynamicFrequency ? " (dynamic)" : "") + ", " +
             to_string(cfg.scheme);
    std::vector<TextTable> tables{coreTable(title, res)};
    if (!tier.empty())
        tables.push_back(metricsTable(tier, golden, faulty));
    if (!res.errorProbByType.empty()) {
        TextTable &errs = tables.emplace_back(
            "error probability by marked value");
        errs.header({"marked value", "P(error)"});
        for (const auto &kv : res.errorProbByType)
            errs.row({kv.first, TextTable::num(kv.second, 6)});
    }
    for (const TextTable &t : tables)
        std::fputs((csv ? t.csv() : t.render()).c_str(), stdout);
    return 0;
}
