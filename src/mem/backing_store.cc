#include "mem/backing_store.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/logging.hh"

namespace clumsy::mem
{

namespace
{

constexpr SimSize kPageBytes = BackingStore::kPageBytes;

/** What every page nothing has written reads as. */
const std::array<std::uint8_t, kPageBytes> kZeroPage{};

/**
 * Split [addr, addr+len) at page boundaries and call
 * fn(chunkAddr, offsetInRange, chunkLen) for each piece in order.
 */
template <typename Fn>
void
forEachChunk(SimAddr addr, SimSize len, Fn fn)
{
    SimSize done = 0;
    while (done < len) {
        const SimAddr a = addr + done;
        const SimSize n =
            std::min<SimSize>(len - done, kPageBytes - a % kPageBytes);
        fn(a, done, n);
        done += n;
    }
}

} // namespace

BackingStore::BackingStore(SimSize size)
    : size_(size),
      pages_((std::uint64_t{size} + kPageBytes - 1) / kPageBytes)
{
    CLUMSY_ASSERT(size > 0, "backing store must be non-empty");
    // Zero-filled, modeling SimpleScalar-style lazily allocated zero
    // pages (the substrate the paper ran on) — literally: a page is
    // allocated on its first write and reads as zeros until then.
    // This shapes fault behaviour decisively: a corrupted pointer
    // that wanders into unallocated memory reads zero records, and a
    // pointer-chasing loop over zeros never advances — the "execution
    // gets stuck in an infinite loop" fatal-error class the paper
    // reports as its dominant one (caught here by the applications'
    // loop budgets).
}

const std::uint8_t *
BackingStore::pageForRead(SimAddr addr) const
{
    const Page &page = pages_[addr / kPageBytes];
    return page.empty() ? kZeroPage.data() : page.data();
}

std::uint8_t *
BackingStore::pageForWrite(SimAddr addr)
{
    Page &page = pages_[addr / kPageBytes];
    if (page.empty())
        page.assign(kPageBytes, 0);
    return page.data();
}

std::uint8_t
BackingStore::read8(SimAddr addr) const
{
    CLUMSY_ASSERT(contains(addr, 1), "read8 out of range");
    return pageForRead(addr)[addr % kPageBytes];
}

void
BackingStore::write8(SimAddr addr, std::uint8_t value)
{
    CLUMSY_ASSERT(contains(addr, 1), "write8 out of range");
    pageForWrite(addr)[addr % kPageBytes] = value;
}

std::uint32_t
BackingStore::read32(SimAddr addr) const
{
    CLUMSY_ASSERT(contains(addr, 4) && addr % 4 == 0,
                  "read32 misaligned or out of range");
    // Aligned words never straddle a page.
    std::uint32_t v;
    std::memcpy(&v, pageForRead(addr) + addr % kPageBytes, 4);
    return v;
}

void
BackingStore::write32(SimAddr addr, std::uint32_t value)
{
    CLUMSY_ASSERT(contains(addr, 4) && addr % 4 == 0,
                  "write32 misaligned or out of range");
    std::memcpy(pageForWrite(addr) + addr % kPageBytes, &value, 4);
}

void
BackingStore::readBlock(SimAddr addr, std::uint8_t *dst, SimSize len) const
{
    CLUMSY_ASSERT(contains(addr, len), "readBlock out of range");
    forEachChunk(addr, len, [&](SimAddr a, SimSize off, SimSize n) {
        std::memcpy(dst + off, pageForRead(a) + a % kPageBytes, n);
    });
}

void
BackingStore::writeBlock(SimAddr addr, const std::uint8_t *src, SimSize len)
{
    CLUMSY_ASSERT(contains(addr, len), "writeBlock out of range");
    forEachChunk(addr, len, [&](SimAddr a, SimSize off, SimSize n) {
        std::memcpy(pageForWrite(a) + a % kPageBytes, src + off, n);
    });
}

void
BackingStore::fill(SimAddr addr, std::uint8_t value, SimSize len)
{
    CLUMSY_ASSERT(contains(addr, len), "fill out of range");
    forEachChunk(addr, len, [&](SimAddr a, SimSize, SimSize n) {
        std::memset(pageForWrite(a) + a % kPageBytes, value, n);
    });
}

bool
BackingStore::pageTouched(SimAddr addr) const
{
    CLUMSY_ASSERT(contains(addr, 1), "pageTouched out of range");
    return !pages_[addr / kPageBytes].empty();
}

} // namespace clumsy::mem
