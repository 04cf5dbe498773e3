/**
 * @file
 * Tests of the simulated DRAM backing store: byte and word access,
 * bounds, and the sparse zero-page layout (untouched pages read as
 * zeros, block operations cross page boundaries, copies are deep, and
 * an app's bring-up touches only a few pages).
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/app.hh"
#include "core/experiment.hh"
#include "mem/backing_store.hh"

using namespace clumsy;
using namespace clumsy::mem;

TEST(BackingStore, PowerOnStateIsZeroPages)
{
    // SimpleScalar-style lazily-allocated zero pages: see the
    // constructor comment for why this matters to fault behaviour.
    BackingStore store(4096);
    for (SimAddr addr = 0; addr < 4096; ++addr)
        ASSERT_EQ(store.read8(addr), 0);
}

TEST(BackingStore, ByteRoundTrip)
{
    BackingStore store(256);
    store.write8(0, 0xab);
    store.write8(255, 0xcd);
    EXPECT_EQ(store.read8(0), 0xab);
    EXPECT_EQ(store.read8(255), 0xcd);
}

TEST(BackingStore, WordRoundTripLittleEndian)
{
    BackingStore store(256);
    store.write32(8, 0x11223344);
    EXPECT_EQ(store.read32(8), 0x11223344u);
    EXPECT_EQ(store.read8(8), 0x44);
    EXPECT_EQ(store.read8(11), 0x11);
}

TEST(BackingStore, ContainsHandlesOverflow)
{
    BackingStore store(256);
    EXPECT_TRUE(store.contains(0, 256));
    EXPECT_FALSE(store.contains(0, 257));
    EXPECT_FALSE(store.contains(255, 2));
    // A wrapping addr+len must not be accepted.
    EXPECT_FALSE(store.contains(0xffffffff, 2));
}

TEST(BackingStore, BlockOps)
{
    BackingStore store(256);
    const std::uint8_t src[5] = {1, 2, 3, 4, 5};
    store.writeBlock(10, src, 5);
    std::uint8_t dst[5] = {};
    store.readBlock(10, dst, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(dst[i], src[i]);
}

TEST(BackingStore, Fill)
{
    BackingStore store(256);
    store.fill(0, 0x77, 16);
    for (SimAddr a = 0; a < 16; ++a)
        EXPECT_EQ(store.read8(a), 0x77);
}

// --- sparse zero pages ------------------------------------------------

constexpr SimSize kPage = BackingStore::kPageBytes;

TEST(BackingStore, UntouchedPagesReadZeroAndStayUntouched)
{
    BackingStore store(4 * kPage);
    store.write8(kPage + 7, 0x5a);
    EXPECT_FALSE(store.pageTouched(0));
    EXPECT_TRUE(store.pageTouched(kPage));
    EXPECT_TRUE(store.pageTouched(2 * kPage - 1));
    EXPECT_FALSE(store.pageTouched(2 * kPage));

    // Reads of every kind return zeros and allocate nothing.
    EXPECT_EQ(store.read8(3 * kPage + 1), 0);
    EXPECT_EQ(store.read32(2 * kPage + 8), 0u);
    std::vector<std::uint8_t> buf(kPage, 0xee);
    store.readBlock(3 * kPage, buf.data(), kPage);
    for (const std::uint8_t b : buf)
        ASSERT_EQ(b, 0);
    EXPECT_FALSE(store.pageTouched(2 * kPage));
    EXPECT_FALSE(store.pageTouched(3 * kPage));

    // The rest of a touched page is still zero.
    EXPECT_EQ(store.read8(kPage + 6), 0);
    EXPECT_EQ(store.read8(kPage + 7), 0x5a);
}

TEST(BackingStore, BlockOpsCrossAPageBoundary)
{
    BackingStore store(3 * kPage);
    store.write32(kPage - 8, 0x01020304u); // page 0 touched, page 1 not

    // readBlock from a touched page into an untouched one.
    std::uint8_t got[16];
    store.readBlock(kPage - 8, got, 16);
    EXPECT_EQ(got[0], 0x04);
    EXPECT_EQ(got[3], 0x01);
    for (int i = 4; i < 16; ++i)
        EXPECT_EQ(got[i], 0) << i;
    EXPECT_FALSE(store.pageTouched(kPage));

    // writeBlock across the boundary allocates the second page.
    std::uint8_t src[16];
    for (int i = 0; i < 16; ++i)
        src[i] = static_cast<std::uint8_t>(0x10 + i);
    store.writeBlock(kPage - 8, src, 16);
    EXPECT_TRUE(store.pageTouched(kPage));
    store.readBlock(kPage - 8, got, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(got[i], src[i]) << i;

    // fill from the middle of page 1 into untouched page 2.
    store.fill(2 * kPage - 4, 0x77, 8);
    EXPECT_TRUE(store.pageTouched(2 * kPage));
    for (SimAddr a = 2 * kPage - 4; a < 2 * kPage + 4; ++a)
        EXPECT_EQ(store.read8(a), 0x77) << a;
    EXPECT_EQ(store.read8(2 * kPage - 5), 0);
    EXPECT_EQ(store.read8(2 * kPage + 4), 0);
}

TEST(BackingStore, CopyIsDeep)
{
    BackingStore original(2 * kPage);
    original.write32(0, 0xdeadbeefu);
    BackingStore copy = original;
    EXPECT_EQ(copy.read32(0), 0xdeadbeefu);

    copy.write32(0, 0x12345678u);    // a touched page
    copy.write8(kPage + 3, 0x42);    // a page the original never wrote
    EXPECT_EQ(original.read32(0), 0xdeadbeefu);
    EXPECT_EQ(original.read8(kPage + 3), 0);
    EXPECT_FALSE(original.pageTouched(kPage));

    BackingStore assigned(2 * kPage);
    assigned = copy;
    copy.write32(0, 0);
    EXPECT_EQ(assigned.read32(0), 0x12345678u);
    EXPECT_EQ(assigned.read8(kPage + 3), 0x42);
}

/**
 * The store stays sparse: after an app's bring-up only a small
 * fraction of its pages hold host memory. A dense store would report
 * every page touched.
 */
TEST(BackingStore, AppBringUpTouchesFewPages)
{
    core::ProcessorConfig cfg;
    cfg.injectionEnabled = false;
    core::ClumsyProcessor proc(cfg);
    apps::makeApp("route")->initialize(proc);

    const BackingStore &store = proc.backingStore();
    const SimSize pages = store.size() / kPage;
    SimSize touched = 0;
    for (SimSize p = 0; p < pages; ++p)
        touched += store.pageTouched(p * kPage) ? 1 : 0;
    EXPECT_GT(touched, 0u);
    EXPECT_LE(touched, pages / 64) << touched << " of " << pages;
}

TEST(BackingStoreDeath, OutOfRangeAccessesPanic)
{
    BackingStore store(256);
    EXPECT_DEATH(store.read8(256), "range");
    EXPECT_DEATH(store.write32(254, 1), "range");
    EXPECT_DEATH(store.read32(2), "misaligned");
    EXPECT_DEATH(store.pageTouched(256), "range");
    std::uint8_t buf[8] = {};
    EXPECT_DEATH(store.readBlock(252, buf, 8), "range");
    EXPECT_DEATH(store.fill(250, 0, 7), "range");
}
