#include "workloads.hh"

#include <algorithm>
#include <thread>

#include "apps/app.hh"
#include "common/f14_table.hh"
#include "common/pool.hh"
#include "core/experiment.hh"
#include "linecard/card.hh"
#include "mem/backing_store.hh"
#include "npu/chip.hh"
#include "sweep/runner.hh"
#include "sweep/sink.hh"
#include "sweep/spec.hh"
#include "traffic/traffic.hh"

namespace perfbench
{

using namespace clumsy;
using sweep::JsonWriter;

namespace
{

/** Engine backing stores built and freed per traced run. */
constexpr int kStoreProbes = 8;
/** Reps of each card variant the traced run times for its ratios. */
constexpr int kCardProbeReps = 3;
/** No-control-plane stream reps the traced chip run times. */
constexpr int kNoCtrlReps = 2;

/** Every workload's fault seed follows from its trace seed. */
std::uint64_t
faultSeedFor(std::uint64_t seed)
{
    return splitmix64(seed) & 0xffffffffull;
}

double
msSince(SteadyClock::time_point since)
{
    return secondsSince(since) * 1e3;
}

/** Exact work counters summed over the simulation runs of one unit. */
struct Counters
{
    double accesses = 0, missWeighted = 0, instructions = 0;
    double injected = 0, parityTrips = 0, ctrlEvents = 0;
    double portWaits = 0, portWaitCycles = 0, crossHits = 0;
    double mshrMerges = 0, backpressureStalls = 0;
    double npuImbalance = 0, makespanCycles = 0;
    double dramAccesses = 0, dramHitFrac = 0, dramConflicts = 0;
    double dramStallCycles = 0, cardImbalance = 0, ingressDrops = 0;
    double flowsOpened = 0, drained = 0;

    void addRun(const core::RunMetrics &m)
    {
        const auto acc = static_cast<double>(m.dcacheAccesses);
        accesses += acc;
        missWeighted += m.dcacheMissRate * acc;
        instructions += static_cast<double>(m.instructions);
        injected += static_cast<double>(m.faultsInjected);
        parityTrips += static_cast<double>(m.parityTrips);
        ctrlEvents += static_cast<double>(m.ctrlEventsApplied);
    }

    void addCard(const linecard::CardMetrics &c)
    {
        dramAccesses += c.dramAccesses;
        dramConflicts += c.dramRowConflicts;
        dramStallCycles += c.dramStallCycles;
        ingressDrops += c.ingressDrops;
    }

    void write(JsonWriter &j) const
    {
        j.key("mem.dcache_accesses").value(accesses);
        j.key("mem.dcache_miss_rate")
            .value(accesses > 0 ? missWeighted / accesses : 0.0);
        j.key("core.instructions").value(instructions);
        j.key("fault.injected").value(injected);
        j.key("fault.parity_trips").value(parityTrips);
        j.key("ctrl.events_applied").value(ctrlEvents);
        j.key("npu.l2_port_waits").value(portWaits);
        j.key("npu.l2_port_wait_cycles").value(portWaitCycles);
        j.key("npu.cross_engine_hits").value(crossHits);
        j.key("npu.mshr_merges").value(mshrMerges);
        j.key("npu.backpressure_stalls").value(backpressureStalls);
        j.key("npu.load_imbalance").value(npuImbalance);
        j.key("npu.makespan_cycles").value(makespanCycles);
        j.key("dram.accesses").value(dramAccesses);
        j.key("dram.row_hit_frac").value(dramHitFrac);
        j.key("dram.row_conflicts").value(dramConflicts);
        j.key("dram.stall_cycles").value(dramStallCycles);
        j.key("linecard.load_imbalance").value(cardImbalance);
        j.key("linecard.ingress_drops").value(ingressDrops);
        j.key("traffic.flows_opened").value(flowsOpened);
        j.key("traffic.packets_drained").value(drained);
    }
};

/**
 * One packet-accounting record, checked by run.py as
 * 0 <= attempted - processed - dropped <= lostMax. lostMax is what a
 * run may lose to fatal errors beyond its drop counters: nothing for a
 * run that never died, the packet in flight on each engine that died
 * mid-packet (at most one per engine), and the untried rest of a
 * single-core run a fatal error truncated.
 */
void
conservation(JsonWriter &j, const std::string &run, double attempted,
             double processed, double dropped, double lostMax)
{
    j.beginObject()
        .key("run").value(run)
        .key("attempted").value(attempted)
        .key("processed").value(processed)
        .key("dropped").value(dropped)
        .key("lost_max").value(lostMax)
        .endObject();
}

/** A single-core run has no drop counters; a fatal error truncates it. */
void
coreConservation(JsonWriter &j, const std::string &run,
                 const core::RunMetrics &m)
{
    const auto attempted = static_cast<double>(m.packetsAttempted);
    conservation(j, run, attempted,
                 static_cast<double>(m.packetsProcessed), 0.0,
                 m.fatal ? attempted : 0.0);
}

/** A chip run's drops: queue-full, dead-engine and ingress. */
double
chipDrops(const npu::ChipMetrics &c)
{
    return c.dropsQueueFull + c.dropsDeadPe + c.ingressDrops;
}

/** A chip run that died may lose the packet in flight on each engine. */
void
chipConservation(JsonWriter &j, const std::string &run,
                 const npu::ChipStreamResult &chip, double peCount)
{
    conservation(j, run, static_cast<double>(chip.merged.packetsAttempted),
                 static_cast<double>(chip.merged.packetsProcessed),
                 chipDrops(chip.chip), chip.merged.fatal ? peCount : 0.0);
}

/** Time an isolated drain of @p n packets from a fresh source. */
void
drainSource(SpanLog &log, const net::TraceConfig &trace,
            std::int64_t gapCycles, std::uint64_t n, Counters &c)
{
    const Scope span(log, "traffic.drain", -1, -1);
    const std::unique_ptr<traffic::PacketSource> src =
        traffic::makeSource(trace, gapCycles);
    for (std::uint64_t i = 0; i < n; ++i)
        src->next();
    if (const auto *churn =
            dynamic_cast<const traffic::ChurnSource *>(src.get()))
        c.flowsOpened +=
            static_cast<double>(churn->flows().flowsOpened());
    c.drained += static_cast<double>(n);
}

/** Time constructing and destroying one engine's backing store. */
void
probeStores(SpanLog &log, SimSize bytes)
{
    volatile std::uint8_t sink = 0;
    for (int k = 0; k < kStoreProbes; ++k) {
        const Scope span(log, "mem.store", -1, -1);
        mem::BackingStore store(bytes);
        store.write8(bytes - 1, static_cast<std::uint8_t>(k));
        sink = store.read8(bytes - 1);
    }
    (void)sink;
}

void
addCheck(JsonWriter &checks, const char *name, const std::string &want,
         const std::string &got)
{
    checks.key(name)
        .beginObject()
        .key("want").value(want)
        .key("got").value(got)
        .endObject();
}

// ---- paper_sweep ---------------------------------------------------

/**
 * The single-core paper grid: 10 apps x Cr {1, .75, .5, .25} x
 * {no-detection, one-strike, two-strike}, golden plus faulty trials,
 * on min(3, nproc - 1) sweep workers (at least one).
 */
class PaperSweep final : public Workload
{
  public:
    static constexpr std::uint64_t kPackets = 300;
    static constexpr unsigned kTrials = 2;

    void configure(std::uint64_t seed) override
    {
        grid_ = "app=crc,tl,route,drr,nat,md5,url,adpcm,session,lpm;"
                "cr=1,0.75,0.5,0.25;"
                "scheme=no-detection,one-strike,two-strike;"
                "packets=" +
                std::to_string(kPackets) +
                ";trials=" + std::to_string(kTrials) +
                ";seed=" + std::to_string(seed) +
                ";fault-seed=" + std::to_string(faultSeedFor(seed));
        // One CPU is left to the rest of the host: with a worker on
        // every vCPU, wall time also took in the host's scheduling (see
        // README.md, "Noise").
        const unsigned cpus = std::thread::hardware_concurrency();
        jobs_ = std::clamp(cpus > 1 ? cpus - 1 : 1u, 1u, 3u);
    }

    UnitResult runUnit(SpanLog &log, int run) override
    {
        const Scope unit(log, "sweep.unit", -1, run);
        {
            const Scope span(log, "sweep.expand", unit.id(), run);
            spec_ = sweep::SweepSpec::parse(grid_);
            cells_ = sweep::expand(spec_);
        }
        sweep::SweepOutcome outcome;
        {
            const Scope span(log, "sweep.run", unit.id(), run);
            const int parent = span.id();
            const sweep::ProgressFn progress =
                [&log, parent, run](const sweep::SweepCell &cell,
                                    double wallMs, std::size_t,
                                    std::size_t) {
                    log.record("apps." + cell.app + ".cell", wallMs,
                               parent, run);
                };
            outcome = sweep::runSweep(spec_, jobs_, nullptr,
                                      log.enabled() ? progress
                                                    : sweep::ProgressFn{});
        }
        std::string json;
        {
            const Scope span(log, "sweep.render", unit.id(), run);
            json = sweep::renderJson(outcome, false);
            sweep::renderCsv(outcome);
        }

        UnitResult r;
        JsonWriter out;
        out.beginObject();
        out.key("expect")
            .beginObject()
            .key("sweep_json_fnv").value(hex64(fnv1a(json)))
            .key("cells")
            .value(static_cast<std::uint64_t>(outcome.cells.size()))
            .endObject();
        // The sweep result keeps each cell's golden run and last trial;
        // the traced run's core-call probe checks every trial.
        out.key("conservation").beginArray();
        for (const sweep::CellOutcome &c : outcome.cells) {
            const std::string key = c.cell.key();
            coreConservation(out, key + "/golden", c.result.golden);
            coreConservation(out, key + "/last-trial", c.result.faulty);
            r.cellsMs.push_back(c.wallMs);
        }
        out.endArray();
        out.key("dram").beginArray().endArray();
        out.endObject();
        r.outputs = out.str();
        r.packets = static_cast<double>(outcome.cells.size()) *
                    (1.0 + kTrials) * static_cast<double>(kPackets);
        last_ = std::move(outcome);
        return r;
    }

    void probeLayers(SpanLog &log, JsonWriter &counters, JsonWriter &checks,
                     JsonWriter &outputs) override
    {
        // The sweep's cells again, decomposed into the core calls the
        // runner makes, on the same number of workers.
        const std::size_t n = cells_.size();
        std::vector<std::vector<core::RunMetrics>> runs(n);
        std::vector<core::ExperimentResult> results(n);
        const WorkStealingPool pool(jobs_);
        pool.run(n, [&](std::size_t i) {
            const sweep::SweepCell &cell = cells_[i];
            const core::ExperimentConfig cfg =
                sweep::makeConfig(spec_, cell);
            const core::AppFactory factory = apps::appFactory(cell.app);
            const Scope cellSpan(log, "core.cell", -1, -1);
            core::GoldenRecord golden;
            {
                const Scope span(log, "core.golden", cellSpan.id(), -1);
                golden = core::runGolden(factory, cfg);
            }
            std::vector<core::RunMetrics> trials;
            for (unsigned t = 0; t < spec_.trials; ++t) {
                const Scope span(log, "core.trial", cellSpan.id(), -1);
                trials.push_back(
                    core::runFaultyTrial(factory, cfg, t, golden));
            }
            {
                const Scope span(log, "core.aggregate", cellSpan.id(), -1);
                results[i] =
                    core::aggregateTrials(cell.app, golden, trials);
            }
            runs[i].push_back(golden.metrics);
            runs[i].insert(runs[i].end(), trials.begin(), trials.end());
        });

        std::string viaCore, viaSweep;
        Counters c;
        outputs.key("expect").beginObject().endObject();
        outputs.key("conservation").beginArray();
        for (std::size_t i = 0; i < n; ++i) {
            viaCore += sweep::experimentResultJson(results[i]);
            viaSweep += sweep::experimentResultJson(last_.cells[i].result);
            const std::string key = cells_[i].key();
            for (std::size_t t = 0; t < runs[i].size(); ++t) {
                c.addRun(runs[i][t]);
                coreConservation(outputs,
                                 key + (t == 0 ? "/golden"
                                               : "/trial" +
                                                     std::to_string(t - 1)),
                                 runs[i][t]);
            }
        }
        outputs.endArray();
        outputs.key("dram").beginArray().endArray();
        addCheck(checks, "core_calls_match_sweep", hex64(fnv1a(viaSweep)),
                 hex64(fnv1a(viaCore)));

        // Each app's packet stream, drained on its own.
        for (const std::string &app : spec_.apps) {
            const auto it = std::find_if(
                cells_.begin(), cells_.end(),
                [&app](const sweep::SweepCell &cell) {
                    return cell.app == app;
                });
            const core::ExperimentConfig cfg =
                sweep::makeConfig(spec_, *it);
            const net::TraceConfig trace =
                core::resolveTraceConfig(cfg, *apps::makeApp(app));
            drainSource(log, trace, 0, spec_.packets, c);
        }
        probeStores(log, sweep::makeConfig(spec_, cells_.front())
                             .processor.memBytes);

        c.write(counters);
        counters.key("sweep.jobs").value(static_cast<std::uint64_t>(jobs_));
    }

  private:
    std::string grid_;
    unsigned jobs_ = 1;
    sweep::SweepSpec spec_;
    std::vector<sweep::SweepCell> cells_;
    sweep::SweepOutcome last_;
};

// ---- chip-stream probe ---------------------------------------------

/**
 * The chip tier's steady state, probed in card_8chip's traced run: one
 * long golden streaming run (session app, 4 PEs, flow dispatch, shared
 * L2 with 4 MSHRs, churn traffic, control-plane churn of mix all at 4
 * updates per 1000 packets, arrival gap 100), the same stream with the
 * control plane off, and an isolated drain of its churn source. It
 * supplies the npu.* and ctrl.* counters. Its digests and ChipMetrics
 * go to the expectation in @p outputs, which must already hold an open
 * "expect" object; @p conserve collects its packet accounting.
 */
void
probeChipStream(SpanLog &log, std::uint64_t seed, Counters &c,
                JsonWriter &checks, JsonWriter &outputs,
                JsonWriter &conserve)
{
    constexpr std::uint64_t kPackets = 100000;
    core::ExperimentConfig cfg;
    cfg.numPackets = kPackets;
    cfg.traceSeed = seed;
    cfg.faultSeed = faultSeedFor(seed);
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    cfg.churnLifetime = 512;
    cfg.ctrl.rate = 4;
    cfg.ctrl.mix = ctrl::CtrlMix::All;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;
    npuCfg.l2 = npu::L2Mode::Shared;
    npuCfg.mshrs = 4;
    npuCfg.arrivalGapCycles = 100;
    const core::AppFactory factory = apps::appFactory("session");
    const double pes = npuCfg.peCount;

    npu::ChipStreamResult res;
    {
        const Scope span(log, "npu.stream", -1, -1);
        res = npu::runChipStream(factory, cfg, npuCfg, true, 0);
    }
    const npu::ChipMetrics &chip = res.chip;
    chipConservation(conserve, "chip_stream", res, pes);
    c.portWaits = chip.l2PortWaits;
    c.portWaitCycles = chip.l2PortWaitCycles;
    c.crossHits = chip.crossEngineHits;
    c.mshrMerges = chip.mshrMerges;
    c.backpressureStalls = chip.backpressureStalls;
    c.npuImbalance = chip.loadImbalance;
    c.makespanCycles = chip.makespanCycles;
    c.ctrlEvents = static_cast<double>(res.merged.ctrlEventsApplied);

    core::ExperimentConfig noCtrl = cfg;
    noCtrl.ctrl.rate = 0;
    std::vector<std::string> noCtrlDigests;
    for (int k = 0; k < kNoCtrlReps; ++k) {
        npu::ChipStreamResult plain;
        {
            const Scope span(log, "ctrl.noctrl_stream", -1, -1);
            plain = npu::runChipStream(factory, noCtrl, npuCfg, true, 0);
        }
        chipConservation(conserve, "chip_stream_noctrl" + std::to_string(k),
                         plain, pes);
        noCtrlDigests.push_back(hex64(plain.valueDigest));
    }
    addCheck(checks, "noctrl_streams_agree", noCtrlDigests.front(),
             noCtrlDigests.back());
    outputs.key("chip_stream_digest").value(hex64(res.valueDigest))
        .key("chip_stream").raw(sweep::chipMetricsJson(chip))
        .key("chip_stream_noctrl_digest").value(noCtrlDigests.front());

    const Scope span(log, "traffic.churn_drain", -1, -1);
    const std::unique_ptr<traffic::PacketSource> src = traffic::makeSource(
        core::resolveTraceConfig(cfg, *factory()), npuCfg.arrivalGapCycles);
    for (std::uint64_t i = 0; i < kPackets; ++i)
        src->next();
    if (const auto *churn =
            dynamic_cast<const traffic::ChurnSource *>(src.get()))
        c.flowsOpened += static_cast<double>(churn->flows().flowsOpened());
}

// ---- card_8chip ----------------------------------------------------

/** A card run and the name its check records carry. */
struct NamedCardRun
{
    std::string name;
    linecard::CardRunResult run;
};

/**
 * One 8-chip card (route, 2 PEs per chip, rr across chips, flow
 * within a chip, shared L2 with 2 MSHRs, 8 DRAM banks, Cr 0.5,
 * two-strike, card-jobs 1): golden plus faulty trials at fixed
 * card-wide packets. A cell is one runCard call.
 */
class Card8Chip final : public Workload
{
  public:
    static constexpr std::uint64_t kPackets = 2000;
    static constexpr unsigned kTrials = 2;

    void configure(std::uint64_t seed) override
    {
        cfg_ = core::ExperimentConfig{};
        cfg_.numPackets = kPackets;
        cfg_.trials = kTrials;
        cfg_.traceSeed = seed;
        cfg_.faultSeed = faultSeedFor(seed);
        cfg_.cr = 0.5;
        cfg_.scheme = mem::RecoveryScheme::TwoStrike;
        npu_ = npu::NpuConfig{};
        npu_.peCount = 2;
        npu_.dispatch = npu::DispatchPolicy::FlowHash;
        npu_.l2 = npu::L2Mode::Shared;
        npu_.mshrs = 2;
        card_ = linecard::CardConfig{};
        card_.chips = 8;
        card_.dispatch = npu::DispatchPolicy::RoundRobin;
        card_.dram.banks = 8;
        card_.cardJobs = 1;
        card_.validate();
        factory_ = apps::appFactory("route");
    }

    UnitResult runUnit(SpanLog &log, int run) override
    {
        // With the DRAM model on, every chip gets a thread and the
        // fabric lets card-jobs (1) of them run at once. Each unit runs
        // on one CPU, so the hand-offs between chip threads stay on it;
        // spread over idle vCPUs, each hand-off waits for the hypervisor
        // to wake one, and wall time follows the host's load.
        cpus_.next();
        UnitResult r = runCards(log, run, card_, &last_);
        lastOutputs_ = r.outputs;
        return r;
    }

    void probeLayers(SpanLog &log, JsonWriter &counters, JsonWriter &checks,
                     JsonWriter &outputs) override
    {
        Counters c;
        for (const NamedCardRun &r : last_) {
            for (const npu::ChipStreamResult &chip : r.run.chips)
                c.addRun(chip.merged);
            c.addCard(r.run.card);
        }
        const linecard::CardMetrics &g = last_.front().run.card;
        c.dramHitFrac = g.dramRowHitFraction;
        c.cardImbalance = g.loadImbalance;

        // The card-jobs 2 twin must reproduce every modelled byte.
        linecard::CardConfig twin = card_;
        twin.cardJobs = 2;
        {
            const Scope span(log, "linecard.twin", -1, -1);
            const UnitResult r = runCards(log, -1, twin, nullptr);
            addCheck(checks, "card_jobs_2_twin", hex64(fnv1a(lastOutputs_)),
                     hex64(fnv1a(r.outputs)));
        }

        const net::TraceConfig trace =
            core::resolveTraceConfig(cfg_, *factory_());
        std::uint64_t assigned = 0;
        for (int k = 0; k < kCardProbeReps; ++k) {
            const Scope span(log, "linecard.assign", -1, -1);
            assigned = 0;
            for (const std::uint64_t n : linecard::cardAssignCounts(
                     trace, npu_.arrivalGapCycles, card_, kPackets))
                assigned += n;
        }
        addCheck(checks, "card_split_covers_trace",
                 std::to_string(kPackets), std::to_string(assigned));

        // Golden runs of the card, of the same card with the DRAM
        // model off, and of the same packets on one chip, interleaved.
        linecard::CardConfig flat = card_;
        flat.dram.banks = 0;
        linecard::CardConfig oneChip = card_;
        oneChip.chips = 1;
        const std::pair<const char *, const linecard::CardConfig *>
            variants[] = {{"linecard.golden_run", &card_},
                          {"dram.flat_run", &flat},
                          {"linecard.one_chip_run", &oneChip}};
        std::vector<NamedCardRun> probes;
        for (int k = 0; k < kCardProbeReps; ++k) {
            for (const auto &[name, card] : variants) {
                const Scope span(log, name, -1, -1);
                probes.push_back(
                    {name + std::to_string(k),
                     linecard::runCard(factory_, cfg_, npu_, *card, true,
                                       0)});
            }
        }

        drainSource(log, trace, npu_.arrivalGapCycles, kPackets, c);
        probeStores(log, cfg_.processor.memBytes);

        JsonWriter conserve;
        conserve.beginArray();
        outputs.key("expect").beginObject();
        probeChipStream(log, cfg_.traceSeed, c, checks, outputs, conserve);
        outputs.endObject();
        writeRecords(conserve, probes, false);
        conserve.endArray();
        outputs.key("conservation").raw(conserve.str());
        outputs.key("dram").beginArray();
        writeRecords(outputs, probes, true);
        outputs.endArray();
        c.write(counters);
    }

  private:
    /**
     * The check records of @p runs into an open array of @p out: packet
     * conservation per chip and per card, or with @p dram the DRAM row
     * partition per card.
     */
    void writeRecords(JsonWriter &out, const std::vector<NamedCardRun> &runs,
                      bool dram) const
    {
        for (const NamedCardRun &r : runs) {
            const linecard::CardMetrics &m = r.run.card;
            if (dram) {
                out.beginObject()
                    .key("run").value(r.name)
                    .key("accesses").value(m.dramAccesses)
                    .key("hits").value(m.dramRowHits)
                    .key("misses").value(m.dramRowMisses)
                    .key("conflicts").value(m.dramRowConflicts)
                    .endObject();
                continue;
            }
            double drops = m.ingressDrops, lost = 0.0;
            for (std::size_t c = 0; c < r.run.chips.size(); ++c) {
                const npu::ChipStreamResult &chip = r.run.chips[c];
                drops += chip.chip.dropsQueueFull + chip.chip.dropsDeadPe;
                lost += chip.merged.fatal ? npu_.peCount : 0.0;
                chipConservation(out, r.name + "/chip" + std::to_string(c),
                                 chip, npu_.peCount);
            }
            conservation(out, r.name + "/card",
                         static_cast<double>(kPackets), m.packetsProcessed,
                         drops, lost);
        }
    }

    /** Golden plus trials on @p card; the runs go to @p keep if set. */
    UnitResult runCards(SpanLog &log, int run,
                        const linecard::CardConfig &card,
                        std::vector<NamedCardRun> *keep)
    {
        const Scope unit(log, "linecard.unit", -1, run);
        UnitResult r;
        std::vector<NamedCardRun> runs;
        for (unsigned t = 0; t <= kTrials; ++t) {
            const bool golden = t == 0;
            const auto start = SteadyClock::now();
            {
                const Scope span(log, "linecard.run", unit.id(), run);
                runs.push_back(
                    {golden ? std::string("golden")
                            : "trial" + std::to_string(t - 1),
                     linecard::runCard(factory_, cfg_, npu_, card, golden,
                                       golden ? 0 : t - 1)});
            }
            r.cellsMs.push_back(msSince(start));
        }

        JsonWriter out;
        out.beginObject();
        out.key("expect").beginObject();
        out.key("golden_digest").value(hex64(runs.front().run.valueDigest));
        out.key("golden_card")
            .raw(sweep::cardMetricsJson(runs.front().run.card));
        std::vector<linecard::CardMetrics> trials;
        out.key("trial_digests").beginArray();
        for (std::size_t t = 1; t < runs.size(); ++t) {
            out.value(hex64(runs[t].run.valueDigest));
            trials.push_back(runs[t].run.card);
        }
        out.endArray();
        out.key("faulty_card")
            .raw(sweep::cardMetricsJson(
                linecard::averageCardMetrics(trials)));
        out.endObject();
        out.key("conservation").beginArray();
        writeRecords(out, runs, false);
        out.endArray();
        out.key("dram").beginArray();
        writeRecords(out, runs, true);
        out.endArray();
        out.endObject();

        r.outputs = out.str();
        r.packets = static_cast<double>(kPackets) * (1.0 + kTrials);
        if (keep != nullptr)
            *keep = std::move(runs);
        return r;
    }

    core::ExperimentConfig cfg_;
    npu::NpuConfig npu_;
    linecard::CardConfig card_;
    core::AppFactory factory_;
    std::vector<NamedCardRun> last_;
    std::string lastOutputs_;
    CpuRotation cpus_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "paper_sweep")
        return std::make_unique<PaperSweep>();
    if (name == "card_8chip")
        return std::make_unique<Card8Chip>();
    return nullptr;
}

} // namespace perfbench
