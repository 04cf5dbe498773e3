/**
 * @file
 * Tests of the per-access fault injector.
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/random.hh"
#include "fault/injector.hh"

using namespace clumsy;
using namespace clumsy::fault;

namespace
{

FaultInjector
boostedInjector(double scale, std::uint64_t seed = 1)
{
    FaultModelParams params;
    params.scale = scale;
    return FaultInjector(FaultModel(params), seed);
}

} // namespace

TEST(Injector, DisabledIsTransparent)
{
    auto injector = boostedInjector(1e6);
    injector.setEnabled(false);
    for (std::uint32_t v = 0; v < 1000; ++v)
        EXPECT_EQ(injector.corrupt(v, 32), v);
    EXPECT_EQ(injector.faultCount(), 0u);
    EXPECT_EQ(injector.accessCount(), 1000u);
}

TEST(Injector, CleanAtNegligibleRate)
{
    FaultModelParams params;
    params.scale = 0.0;
    FaultInjector injector{FaultModel(params), 2};
    for (std::uint32_t v = 0; v < 1000; ++v)
        EXPECT_EQ(injector.corrupt(v, 32), v);
    EXPECT_EQ(injector.faultCount(), 0u);
}

TEST(Injector, DeterministicBySeed)
{
    auto a = boostedInjector(1e5, 7);
    auto b = boostedInjector(1e5, 7);
    for (std::uint32_t i = 0; i < 5000; ++i)
        EXPECT_EQ(a.corrupt(i, 32), b.corrupt(i, 32));
}

TEST(Injector, FaultRateMatchesModel)
{
    // Boost so that ~32 * p1 * scale = ~3% of accesses fault.
    auto injector = boostedInjector(3600.0, 3);
    const std::uint64_t n = 200000;
    for (std::uint64_t i = 0; i < n; ++i)
        injector.corrupt(static_cast<std::uint32_t>(i), 32);
    const double expected =
        injector.model().bitFaultProb(1.0) * 32.0 * n;
    EXPECT_NEAR(static_cast<double>(injector.faultCount()), expected,
                expected * 0.1);
}

TEST(Injector, RateRisesWithFrequency)
{
    auto slow = boostedInjector(2000.0, 4);
    auto fast = boostedInjector(2000.0, 4);
    fast.setCycleTime(0.25);
    const std::uint64_t n = 100000;
    for (std::uint64_t i = 0; i < n; ++i) {
        slow.corrupt(0, 32);
        fast.corrupt(0, 32);
    }
    // eq. (4): ~9.5x more faults at Cr = 0.25.
    const double ratio =
        static_cast<double>(fast.faultCount()) /
        static_cast<double>(slow.faultCount());
    EXPECT_NEAR(ratio, 9.477, 2.0);
}

TEST(Injector, MaskStaysInsideAccessWidth)
{
    auto injector = boostedInjector(1e6, 5);
    for (const unsigned bits : {1u, 8u, 16u, 24u, 32u}) {
        for (int i = 0; i < 2000; ++i) {
            FaultEvent ev;
            injector.corrupt(0, bits, &ev);
            if (bits < 32) {
                EXPECT_EQ(ev.mask >> bits, 0u)
                    << "mask escaped " << bits << "-bit access";
            }
        }
    }
}

TEST(Injector, MultiBitFaultsFlipAdjacentBits)
{
    FaultModelParams params;
    params.scale = 1e6;
    // Make double faults dominate utterly (zero rates are rejected
    // by the model's validation, so use negligible ones).
    params.baseSingleBit = 1e-30;
    params.baseTripleBit = 1e-30;
    params.baseDoubleBit = 2.59e-6;
    FaultInjector injector{FaultModel(params), 6};
    unsigned seen = 0;
    for (int i = 0; i < 200000 && seen < 50; ++i) {
        FaultEvent ev;
        injector.corrupt(0, 32, &ev);
        if (!ev.flippedBits)
            continue;
        ++seen;
        ASSERT_EQ(ev.flippedBits, 2u);
        ASSERT_EQ(popCount(ev.mask), 2u);
        // Adjacent modulo the access width.
        bool adjacent = false;
        for (unsigned b = 0; b < 32; ++b) {
            const std::uint32_t pair =
                (1u << b) | (1u << ((b + 1) % 32));
            adjacent |= ev.mask == pair;
        }
        EXPECT_TRUE(adjacent) << std::hex << ev.mask;
    }
    EXPECT_GE(seen, 50u);
}

TEST(Injector, EventReportsAppliedMask)
{
    auto injector = boostedInjector(1e6, 8);
    for (int i = 0; i < 5000; ++i) {
        FaultEvent ev;
        const std::uint32_t out = injector.corrupt(0x5a5a5a5a, 32, &ev);
        EXPECT_EQ(out, 0x5a5a5a5a ^ ev.mask);
    }
}

TEST(Injector, StatsBreakdownByMultiplicity)
{
    auto injector = boostedInjector(1e5, 9);
    for (int i = 0; i < 300000; ++i)
        injector.corrupt(0, 32);
    const auto &stats = injector.stats();
    EXPECT_GT(stats.get("single"), stats.get("double"));
    EXPECT_GE(stats.get("double"), stats.get("triple"));
    EXPECT_EQ(stats.get("single") + stats.get("double") +
                  stats.get("triple"),
              injector.faultCount());
}

TEST(Injector, ResetStatsClearsCounters)
{
    auto injector = boostedInjector(1e6, 10);
    for (int i = 0; i < 1000; ++i)
        injector.corrupt(0, 32);
    EXPECT_GT(injector.faultCount(), 0u);
    injector.resetStats();
    EXPECT_EQ(injector.faultCount(), 0u);
    EXPECT_EQ(injector.accessCount(), 0u);
}

TEST(Injector, TwinRngReproducesEveryDraw)
{
    // A clean access takes exactly one uniform; a faulty one takes
    // that uniform plus one below(bits) for the flip position. A twin
    // Rng on the same seed, fed the model's thresholds, therefore
    // reproduces the whole fault sequence; disabled accesses take no
    // draw at all.
    const std::uint64_t seed = 29;
    auto injector = boostedInjector(3e3, seed);
    const double cr = 0.5;
    injector.setCycleTime(cr);
    const FaultModel &model = injector.model();
    const double p2 = model.multiBitFaultProb(2, cr);
    const double p3 = model.multiBitFaultProb(3, cr);
    Rng twin(seed);
    std::uint64_t faults = 0;
    const unsigned kWidths[] = {32, 8, 16, 32, 1};
    for (int i = 0; i < 40000; ++i) {
        const unsigned bits = kWidths[i % 5];
        if (i % 7 == 3) {
            injector.setEnabled(false);
            FaultEvent ev;
            EXPECT_EQ(injector.corrupt(0xa5a5a5a5u, bits, &ev),
                      0xa5a5a5a5u);
            EXPECT_EQ(ev.flippedBits, 0u);
            injector.setEnabled(true);
            continue;
        }
        const double p1 = model.bitFaultProb(cr) * bits;
        const double u = twin.uniform();
        unsigned nflips = 0;
        std::uint32_t mask = 0;
        if (u < p1 + p2 + p3) {
            nflips = u < p1 ? 1 : (u < p1 + p2 ? 2 : 3);
            const auto pos = static_cast<unsigned>(twin.below(bits));
            for (unsigned k = 0; k < nflips; ++k)
                mask |= std::uint32_t{1} << ((pos + k) % bits);
            ++faults;
        }
        FaultEvent ev;
        const std::uint32_t value = static_cast<std::uint32_t>(i);
        ASSERT_EQ(injector.corrupt(value, bits, &ev), value ^ mask)
            << "access " << i;
        ASSERT_EQ(ev.flippedBits, nflips) << "access " << i;
        ASSERT_EQ(ev.mask, mask) << "access " << i;
    }
    EXPECT_GT(faults, 20u); // the faulty branch was exercised
    EXPECT_LT(faults, 4000u);
    EXPECT_EQ(injector.faultCount(), faults);
    EXPECT_EQ(injector.accessCount(), 40000u);
}

TEST(InjectorDeath, RejectsBadWidth)
{
    auto injector = boostedInjector(1.0);
    EXPECT_DEATH(injector.corrupt(0, 0), "width");
    EXPECT_DEATH(injector.corrupt(0, 33), "width");
}
