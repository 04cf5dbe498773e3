/**
 * @file
 * Tests of the line-card tier (src/linecard/): --card-jobs
 * byte-identity across workloads (including a mapped-fault +
 * control-churn cell), the fabric's token grants to the chips'
 * fibers on idle and dying chips, the one-chip anchor against the
 * streaming chip harness, dispatcher split invariants, the single-pass split's
 * source clones, FIFO cap and detach path, metric merges,
 * shared-DRAM stat coherence, config validation and a faulty route
 * card whose bring-up dies.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "core/experiment.hh"
#include "fault/fault_map.hh"
#include "linecard/card.hh"
#include "npu/chip.hh"
#include "npu/config.hh"
#include "npu/dispatcher.hh"
#include "sweep/sink.hh"
#include "sweep/spec.hh"
#include "traffic/traffic.hh"

using namespace clumsy;
using namespace clumsy::linecard;

namespace
{

core::ExperimentConfig
smallConfig()
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 240;
    cfg.trials = 2;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    return cfg;
}

/**
 * Everything a card experiment produced, as one comparable string:
 * the golden digest, every golden and faulty card metric, and the
 * fatal fraction. Byte-equality of this repr is the determinism bar.
 */
std::string
reprOf(const CardExperimentResult &res)
{
    return sweep::hexU64(res.golden.valueDigest) +
           sweep::cardMetricsJson(res.golden.card) +
           sweep::cardMetricsJson(res.faultyCard) +
           sweep::formatDouble(res.fatalFraction);
}

/** One card run as a comparable string, per-chip outcomes included. */
std::string
reprOf(const CardRunResult &run)
{
    std::string out = sweep::hexU64(run.valueDigest) +
                      sweep::cardMetricsJson(run.card);
    for (const npu::ChipStreamResult &chip : run.chips)
        out += sweep::hexU64(chip.valueDigest) +
               (chip.merged.fatal ? " dead" : " live");
    return out;
}

} // namespace

// --- --card-jobs byte-identity ---------------------------------------

/**
 * The headline contract: every job count — serial, 2, 4 and the
 * hardware default — produces byte-identical results, on three
 * workloads that between them cover round-robin/flow/shortest
 * dispatch, per-chip Cr spread, control-plane churn and a spatially
 * mapped fault cell.
 */
TEST(LineCard, CardJobsAreByteIdenticalAcrossWorkloads)
{
    struct Workload
    {
        std::string app;
        core::ExperimentConfig cfg;
        npu::NpuConfig npu;
        CardConfig card;
    };
    std::vector<Workload> workloads;

    { // crc: 2 chips, round-robin, default DRAM geometry.
        Workload w;
        w.app = "crc";
        w.cfg = smallConfig();
        w.card.chips = 2;
        w.card.dram.banks = 4;
        workloads.push_back(w);
    }
    { // route: 4 chips, flow dispatch, tight bank count, Cr spread.
        Workload w;
        w.app = "route";
        w.cfg = smallConfig();
        w.npu.peCount = 2;
        w.npu.dispatch = npu::DispatchPolicy::FlowHash;
        w.card.chips = 4;
        w.card.dispatch = npu::DispatchPolicy::FlowHash;
        w.card.dram.banks = 2;
        w.card.perChipCr = {0.5, 0.45, 0.55, 0.5};
        workloads.push_back(w);
    }
    { // lpm: mapped faults + control churn on a 3-chip card.
        Workload w;
        w.app = "lpm";
        w.cfg = smallConfig();
        w.cfg.ctrl.rate = 100;
        w.cfg.ctrl.mix = ctrl::CtrlMix::Fib;
        w.cfg.processor.faultMap =
            fault::faultMapSpecFromString("spatial");
        w.card.chips = 3;
        w.card.dispatch = npu::DispatchPolicy::ShortestQueue;
        w.card.dram.banks = 4;
        workloads.push_back(w);
    }

    for (const Workload &w : workloads) {
        CardConfig serial = w.card;
        serial.cardJobs = 1;
        const std::string ref = reprOf(runCardExperiment(
            apps::appFactory(w.app), w.cfg, w.npu, serial));
        for (const unsigned jobs : {2u, 4u, 0u}) {
            CardConfig parallel = w.card;
            parallel.cardJobs = jobs;
            const std::string got = reprOf(runCardExperiment(
                apps::appFactory(w.app), w.cfg, w.npu, parallel));
            EXPECT_EQ(got, ref)
                << w.app << " diverged at card-jobs " << jobs;
        }
    }
}

// --- fabric token grants ---------------------------------------------
//
// Each case runs the fabric at 1, 2, 3 and 8 tokens: serial, fewer
// tokens than chips, a count that does not divide the chips, and one
// token per chip. A lost grant leaves a chip suspended for good, and
// the fiber scheduler panics once every worker is idle; a misdirected
// one shows up as a byte difference.

/**
 * More chips than packets: some chips get no packets at all and
 * finish as soon as they are granted a token, and every grant must
 * still reach the chips that do have work. Unbounded and bounded ingress FIFOs.
 */
TEST(LineCard, ZeroPacketChipsAreByteIdenticalAcrossCardJobs)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 5;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    for (const unsigned ingress : {0u, 1u}) {
        CardConfig card;
        card.chips = 8;
        card.dram.banks = 4;
        card.ingressCapacity = ingress;

        const std::vector<std::uint64_t> counts = cardAssignCounts(
            apps::makeApp("route")->traceConfig(), npuCfg.arrivalGapCycles,
            card, cfg.numPackets);
        ASSERT_EQ(counts[7], 0u) << "the card must have idle chips";

        card.cardJobs = 1;
        const std::string ref = reprOf(runCardExperiment(
            apps::appFactory("route"), cfg, npuCfg, card));
        for (const unsigned jobs : {2u, 3u, 8u}) {
            card.cardJobs = jobs;
            EXPECT_EQ(reprOf(runCardExperiment(apps::appFactory("route"),
                                               cfg, npuCfg, card)),
                      ref)
                << "ingress " << ingress << ", card-jobs " << jobs;
        }
    }
}

/**
 * A faulty trial in which one chip dies early: its finish() must
 * admit the commits waiting on its bound and hand its token on. At
 * this fault scale chip 1 dies after a few packets while the other
 * three run to the end.
 */
TEST(LineCard, ChipDeathMidRunIsByteIdenticalAcrossCardJobs)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.faultScale = 300.0;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    CardConfig card;
    card.chips = 4;
    card.dram.banks = 4;

    card.cardJobs = 1;
    const CardRunResult serial = runCard(apps::appFactory("route"), cfg,
                                         npuCfg, card, false, 1);
    unsigned dead = 0;
    for (const npu::ChipStreamResult &chip : serial.chips)
        dead += chip.merged.fatal ? 1 : 0;
    ASSERT_GE(dead, 1u) << "no chip died; raise the fault scale";
    ASSERT_LT(dead, card.chips) << "every chip died; lower it";

    const std::string ref = reprOf(serial);
    for (const unsigned jobs : {2u, 3u, 8u}) {
        card.cardJobs = jobs;
        EXPECT_EQ(reprOf(runCard(apps::appFactory("route"), cfg, npuCfg,
                                 card, false, 1)),
                  ref)
            << "card-jobs " << jobs;
    }
}

// --- the one-chip anchor ---------------------------------------------

/**
 * A one-chip card with the DRAM model off is the streaming chip
 * harness, bit for bit: chip 0 is unsalted, the split assigns it every
 * packet, and no fabric sits between its L2 and memory. Golden and a
 * faulty trial both anchor.
 */
TEST(LineCard, OneChipCardMatchesChipStreamBitForBit)
{
    const core::ExperimentConfig cfg = smallConfig();
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;
    CardConfig card;
    card.chips = 1;
    card.dram.banks = 0;

    const core::AppFactory factory = apps::appFactory("route");
    for (const bool golden : {true, false}) {
        const unsigned trial = golden ? 0 : 1;
        const CardRunResult run =
            runCard(factory, cfg, npuCfg, card, golden, trial);
        const npu::ChipStreamResult chip =
            npu::runChipStream(factory, cfg, npuCfg, golden, trial);

        ASSERT_EQ(run.chips.size(), 1u);
        EXPECT_EQ(run.chips[0].valueDigest, chip.valueDigest);
        EXPECT_EQ(run.valueDigest != 0, true);
        EXPECT_EQ(sweep::chipMetricsJson(run.chips[0].chip),
                  sweep::chipMetricsJson(chip.chip));
        EXPECT_EQ(run.chips[0].merged.packetsProcessed,
                  chip.merged.packetsProcessed);
        EXPECT_EQ(run.chips[0].merged.instructions,
                  chip.merged.instructions);
        EXPECT_EQ(run.card.packetsProcessed,
                  static_cast<double>(chip.merged.packetsProcessed));
        // No shared DRAM: the card must report zero DRAM demand.
        EXPECT_EQ(run.card.dramAccesses, 0.0);
        EXPECT_EQ(run.card.dramStallCycles, 0.0);
    }
}

// --- split invariants -------------------------------------------------

TEST(LineCard, AssignCountsPartitionTheTrace)
{
    const core::ExperimentConfig cfg = smallConfig();
    const core::AppFactory factory = apps::appFactory("route");
    const net::TraceConfig trace =
        core::resolveTraceConfig(cfg, *factory());
    const std::uint64_t packets = 1003;

    for (const npu::DispatchPolicy policy :
         {npu::DispatchPolicy::RoundRobin, npu::DispatchPolicy::FlowHash,
          npu::DispatchPolicy::ShortestQueue}) {
        CardConfig card;
        card.chips = 4;
        card.dispatch = policy;
        const std::vector<std::uint64_t> counts =
            cardAssignCounts(trace, 0, card, packets);
        ASSERT_EQ(counts.size(), card.chips);
        std::uint64_t total = 0;
        std::uint64_t lo = packets, hi = 0;
        for (const std::uint64_t n : counts) {
            total += n;
            lo = n < lo ? n : lo;
            hi = n > hi ? n : hi;
        }
        EXPECT_EQ(total, packets);
        // Count-based policies balance to within one packet.
        if (policy != npu::DispatchPolicy::FlowHash) {
            EXPECT_LE(hi - lo, 1u);
        }

        // rr and shortest count without drawing the trace; the counts
        // must be the ones the trace-driven dispatcher produces.
        const std::unique_ptr<traffic::PacketSource> src =
            traffic::makeSource(trace, 0);
        npu::Dispatcher disp(policy, card.chips);
        std::vector<unsigned> depths(card.chips, 0);
        const std::vector<char> alive(card.chips, 1);
        std::vector<std::uint64_t> traced(card.chips, 0);
        for (std::uint64_t s = 0; s < packets; ++s) {
            const int chip = disp.choose(src->next(), depths, alive);
            ASSERT_GE(chip, 0);
            ++depths[static_cast<unsigned>(chip)];
            ++traced[static_cast<unsigned>(chip)];
        }
        EXPECT_EQ(counts, traced);
    }
}

// --- the single-pass split ---------------------------------------------

/**
 * A clone taken mid-stream continues it exactly: the same packets,
 * byte for byte, at the same arrival times — for the static and the
 * churn model alike. A detached chip's private replay rests on this.
 */
TEST(LineCard, SourceCloneContinuesTheIdenticalStream)
{
    net::TraceConfig churn = apps::makeApp("route")->traceConfig();
    churn.churn.enabled = true;
    churn.churn.meanLifetimePackets = 16.0;
    for (const net::TraceConfig &trace :
         {apps::makeApp("route")->traceConfig(), churn}) {
        const std::unique_ptr<traffic::PacketSource> src =
            traffic::makeSource(trace, 40);
        for (int i = 0; i < 300; ++i)
            src->next();
        const std::unique_ptr<traffic::PacketSource> copy = src->clone();
        EXPECT_EQ(copy->lastArrivalCycles(), src->lastArrivalCycles());
        for (int i = 0; i < 700; ++i) {
            const net::Packet a = src->next();
            const net::Packet b = copy->next();
            ASSERT_EQ(a.seq, b.seq);
            ASSERT_EQ(a.ip.toBytes(), b.ip.toBytes()) << "seq " << a.seq;
            ASSERT_EQ(a.srcPort, b.srcPort);
            ASSERT_EQ(a.dstPort, b.dstPort);
            ASSERT_EQ(a.payload, b.payload) << "seq " << a.seq;
            ASSERT_EQ(src->lastArrivalCycles(), copy->lastArrivalCycles());
        }
    }
}

/**
 * Chips whose FIFO fills detach onto a private replay, and the result
 * is still byte-identical at every card-jobs value. Two ways to fill a
 * FIFO: with the DRAM model off the chips run one after another on
 * the pool (at card-jobs 1, chip 0 pulls the whole trace before chip
 * 1 starts), and a lopsided flow split leaves a busy chip behind
 * while the light chips advance the shared stream for their rare
 * packets.
 */
TEST(LineCard, DetachedChipsAreByteIdenticalAcrossCardJobs)
{
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;

    struct Case
    {
        std::string name;
        std::string app;
        std::uint64_t packets;
        CardConfig card;
    };
    std::vector<Case> cases;
    {
        Case c{"dram off", "route", (8 + 1) * kSplitFifoCapacity + 24, {}};
        c.card.chips = 8;
        c.card.dram.banks = 0;
        cases.push_back(c);
    }
    {
        // nat's flows split 81..537 packets per chip over 2000.
        Case c{"flow split", "nat", 2000, {}};
        c.card.chips = 8;
        c.card.dispatch = npu::DispatchPolicy::FlowHash;
        c.card.dram.banks = 8;
        cases.push_back(c);
    }

    for (Case &c : cases) {
        core::ExperimentConfig cfg = smallConfig();
        cfg.numPackets = c.packets;
        c.card.cardJobs = 1;
        const CardRunResult serial = runCard(apps::appFactory(c.app), cfg,
                                             npuCfg, c.card, false, 0);
        EXPECT_GT(serial.split.detached, 0u) << c.name;
        EXPECT_EQ(serial.split.peakFifoDepth, kSplitFifoCapacity)
            << c.name;
        const std::string ref = reprOf(serial);
        for (const unsigned jobs : {2u, 3u, 8u}) {
            c.card.cardJobs = jobs;
            const CardRunResult run = runCard(apps::appFactory(c.app), cfg,
                                              npuCfg, c.card, false, 0);
            EXPECT_EQ(reprOf(run), ref)
                << c.name << ", card-jobs " << jobs;
            EXPECT_LE(run.split.peakFifoDepth, kSplitFifoCapacity)
                << c.name << ", card-jobs " << jobs;
        }
    }
}

/**
 * The benchmark's 8-chip card (route, rr across chips, 8 DRAM banks,
 * card-jobs 1): the chips keep pace with each other, so no FIFO fills,
 * no chip detaches, and a run draws each packet once, in the shared
 * pass — the counting pre-pass of a count-based split draws no trace
 * — where a replay per chip drew it nine times.
 */
TEST(LineCard, BenchmarkCardSplitsInOnePass)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 2000;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;
    npuCfg.l2 = npu::L2Mode::Shared;
    npuCfg.mshrs = 2;
    CardConfig card;
    card.chips = 8;
    card.dram.banks = 8;

    for (const bool golden : {true, false}) {
        const CardRunResult run = runCard(apps::appFactory("route"), cfg,
                                          npuCfg, card, golden, 0);
        EXPECT_EQ(run.split.detached, 0u);
        EXPECT_LE(run.split.peakFifoDepth, kSplitFifoCapacity);
        EXPECT_EQ(run.split.generated, cfg.numPackets);
        if (golden) {
            EXPECT_EQ(run.card.packetsProcessed,
                      static_cast<double>(cfg.numPackets));
        }
    }
}

/**
 * A faulty route card whose chips die at bring-up (a write fault on a
 * route table's null root) finishes and reports the fatal, at every
 * card-jobs value, instead of aborting the process.
 */
TEST(LineCard, CorruptedRouteRootIsAChipFatal)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.cr = 0.25;
    cfg.faultScale = 1000.0;
    cfg.trials = 4;
    const npu::NpuConfig npuCfg;
    CardConfig card;
    card.chips = 8;
    card.dispatch = npu::DispatchPolicy::ShortestQueue;
    card.dram.banks = 8;

    card.cardJobs = 1;
    const CardExperimentResult serial =
        runCardExperiment(apps::appFactory("route"), cfg, npuCfg, card);
    EXPECT_GT(serial.fatalFraction, 0.0);
    unsigned rootFatals = 0;
    for (unsigned t = 0; t < cfg.trials; ++t) {
        const CardRunResult run = runCard(apps::appFactory("route"), cfg,
                                          npuCfg, card, false, t);
        for (const npu::ChipStreamResult &chip : run.chips)
            rootFatals += chip.merged.fatalReason.find("corrupted root") !=
                          std::string::npos;
    }
    EXPECT_GT(rootFatals, 0u) << "no chip's route root was corrupted";

    card.cardJobs = 3;
    EXPECT_EQ(reprOf(runCardExperiment(apps::appFactory("route"), cfg,
                                       npuCfg, card)),
              reprOf(serial));
}

// --- metric merging ---------------------------------------------------

/** mergeCardRunMetrics sums counters across the chips of one run. */
TEST(LineCard, MergeCardRunMetricsSumsChipCounters)
{
    const core::ExperimentConfig cfg = smallConfig();
    const npu::NpuConfig npuCfg;
    CardConfig card;
    card.chips = 3;
    card.dram.banks = 4;

    const CardRunResult run =
        runCard(apps::appFactory("crc"), cfg, npuCfg, card);
    ASSERT_EQ(run.chips.size(), 3u);

    std::uint64_t processed = 0, attempted = 0, instructions = 0;
    for (const npu::ChipStreamResult &chip : run.chips) {
        processed += chip.merged.packetsProcessed;
        attempted += chip.merged.packetsAttempted;
        instructions += chip.merged.instructions;
    }
    const core::RunMetrics merged = mergeCardRunMetrics(run);
    EXPECT_EQ(merged.packetsProcessed, processed);
    EXPECT_EQ(merged.packetsAttempted, attempted);
    EXPECT_EQ(merged.instructions, instructions);
    EXPECT_EQ(processed, cfg.numPackets);

    // Card rollups agree with the same per-chip numbers.
    EXPECT_EQ(run.card.packetsProcessed,
              static_cast<double>(processed));
    ASSERT_EQ(run.card.chipPackets.size(), 3u);
    EXPECT_GE(run.card.loadImbalance, 1.0);
}

// --- shared-DRAM stat coherence --------------------------------------

/**
 * With the model on, the card-level DRAM stats obey the model's own
 * invariant (hits + misses + conflicts == accesses) and the hit
 * fraction is consistent with the counts.
 */
TEST(LineCard, DramStatsAreCoherent)
{
    const core::ExperimentConfig cfg = smallConfig();
    const npu::NpuConfig npuCfg;
    CardConfig card;
    card.chips = 2;
    card.dram.banks = 4;

    const CardRunResult run =
        runCard(apps::appFactory("route"), cfg, npuCfg, card);
    const CardMetrics &m = run.card;
    EXPECT_GT(m.dramAccesses, 0.0);
    EXPECT_EQ(m.dramRowHits + m.dramRowMisses + m.dramRowConflicts,
              m.dramAccesses);
    EXPECT_DOUBLE_EQ(m.dramRowHitFraction,
                     m.dramRowHits / m.dramAccesses);
    EXPECT_GE(m.dramStallCycles, 0.0);
}

// --- validation -------------------------------------------------------

TEST(LineCardConfig, ValidateRejectsNonsense)
{
    {
        CardConfig card;
        card.chips = 0;
        EXPECT_DEATH(card.validate(),
                     "a line card needs at least one chip");
    }
    {
        CardConfig card;
        card.chips = 3;
        card.perChipCr = {0.5, 0.5}; // wrong length
        EXPECT_DEATH(card.validate(), "per-chip Cr list names");
    }
    {
        CardConfig card;
        card.chips = 2;
        card.perChipCr = {0.5, 1.5}; // out of range
        EXPECT_DEATH(card.validate(), "outside");
    }
    {
        CardConfig card;
        card.dram.rowBytes = 100; // invalid geometry propagates
        EXPECT_DEATH(card.validate(), "power of two");
    }
}

