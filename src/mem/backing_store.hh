/**
 * @file
 * The simulated flat physical memory (DRAM ground truth).
 *
 * All application data structures live in this address space; the cache
 * hierarchy sits in front of it. Accesses are bounds-checked: a wild
 * address produced by fault-corrupted pointer data is reported to the
 * caller instead of touching host memory, which is one of the two ways
 * the paper's "fatal errors" are detected (the other is loop budgets).
 *
 * Sparse zero pages. The memory is a table of 4 KB pages, each
 * allocated (zero-filled) on its first write; a read of a page nothing
 * has written returns zeros without allocating it. An app's bring-up
 * writes a few dozen KB of its 8 MB address space, so a store costs
 * the host what the app touched, not its modelled size. Every byte
 * still reads back exactly as a dense zero-filled memory would.
 */

#ifndef CLUMSY_MEM_BACKING_STORE_HH
#define CLUMSY_MEM_BACKING_STORE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace clumsy::mem
{

/** Byte-addressable simulated physical memory (copies are deep). */
class BackingStore
{
  public:
    /** Host allocation granule: bytes per lazily allocated page. */
    static constexpr SimSize kPageBytes = 4096;

    /** @param size memory size in bytes (must be > 0). */
    explicit BackingStore(SimSize size);

    /** @return true when [addr, addr+len) lies inside the memory. */
    bool contains(SimAddr addr, SimSize len) const
    {
        // Guard the addition against 32-bit wraparound.
        const std::uint64_t end = std::uint64_t{addr} + len;
        return end <= size_;
    }

    /** Read one byte; addr must be in range. */
    std::uint8_t read8(SimAddr addr) const;

    /** Write one byte; addr must be in range. */
    void write8(SimAddr addr, std::uint8_t value);

    /** Read a little-endian 32-bit word; addr must be 4-aligned. */
    std::uint32_t read32(SimAddr addr) const;

    /** Write a little-endian 32-bit word; addr must be 4-aligned. */
    void write32(SimAddr addr, std::uint32_t value);

    /** Copy len bytes out of the memory. */
    void readBlock(SimAddr addr, std::uint8_t *dst, SimSize len) const;

    /** Copy len bytes into the memory. */
    void writeBlock(SimAddr addr, const std::uint8_t *src, SimSize len);

    /** Fill len bytes with a value. */
    void fill(SimAddr addr, std::uint8_t value, SimSize len);

    /**
     * @return true once anything has written the page holding @p addr
     * (addr must be in range). An untouched page reads as all zeros.
     */
    bool pageTouched(SimAddr addr) const;

    /** @return the memory size in bytes. */
    SimSize size() const { return size_; }

  private:
    /** An allocated page's bytes; empty until its first write. */
    using Page = std::vector<std::uint8_t>;

    /** The bytes of the page holding @p addr, zeros if untouched. */
    const std::uint8_t *pageForRead(SimAddr addr) const;

    /** The bytes of the page holding @p addr, allocated if need be. */
    std::uint8_t *pageForWrite(SimAddr addr);

    SimSize size_;
    std::vector<Page> pages_;
};

} // namespace clumsy::mem

#endif // CLUMSY_MEM_BACKING_STORE_HH
