/**
 * @file
 * Miss-status holding registers.
 *
 * The L1 d-cache has 8 MSHRs (Table 1). They bound memory-level
 * parallelism: a miss to a block already outstanding merges into the
 * existing entry; a new miss with all MSHRs busy stalls the core until
 * one retires.
 *
 * Every L1 miss runs retire, a lookup and usually an allocate, so the
 * file is header-inline and packed: the live entries sit at the front
 * of two fixed arrays, and the earliest fill among them is cached.
 * retire() is then one compare until that fill is due, full(), live()
 * and nextRetirement() are O(1), and lookups scan only live entries.
 * No result depends on which slot holds a block.
 */

#ifndef NURAPID_MEM_MSHR_HH
#define NURAPID_MEM_MSHR_HH

#include <algorithm>
#include <cstdint>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/audit/audit.hh"

namespace nurapid {

class MshrFile
{
  public:
    /** Capacity of the fixed entry arrays (Table 1 uses 8). */
    static constexpr std::uint32_t kMaxEntries = 32;

    explicit MshrFile(std::uint32_t entries, std::uint32_t block_bytes);

    /** Frees every entry whose fill completed at or before @p now. */
    void
    retire(Cycle now)
    {
        if (now < minReady)
            return;
        std::uint32_t kept = 0;
        Cycle earliest = kNeverCycle;
        for (std::uint32_t i = 0; i < numLive; ++i) {
            if (readyCycles[i] > now) {
                blocks[kept] = blocks[i];
                readyCycles[kept] = readyCycles[i];
                earliest = std::min(earliest, readyCycles[i]);
                ++kept;
            }
        }
        numLive = kept;
        minReady = earliest;
    }

    /** Completion cycle of the outstanding miss covering @p addr, or
     *  null if a miss to it would not merge. The pointer is valid until
     *  the next retire() or allocate(). */
    const Cycle *
    find(Addr addr) const
    {
        const Addr block = blockAlign(addr, blockBytes);
        for (std::uint32_t i = 0; i < numLive; ++i) {
            if (blocks[i] == block)
                return &readyCycles[i];
        }
        return nullptr;
    }

    /** True if a miss to @p addr would merge into an existing entry. */
    bool tracks(Addr addr) const { return find(addr) != nullptr; }

    /** Completion cycle of the outstanding miss covering @p addr. */
    Cycle
    readyAt(Addr addr) const
    {
        const Cycle *ready = find(addr);
        panic_if(!ready, "readyAt() on untracked address %llx",
                 static_cast<unsigned long long>(addr));
        return *ready;
    }

    /** True if no entry is free (after retire(now)). */
    bool full() const { return numLive >= numEntries; }

    /**
     * Allocates an entry for the block of @p addr completing at
     * @p ready. Caller must ensure !full() and !tracks(addr).
     */
    void
    allocate(Addr addr, Cycle ready)
    {
        const Addr block = blockAlign(addr, blockBytes);
        panic_if(tracks(block), "duplicate MSHR allocation for %llx",
                 static_cast<unsigned long long>(block));
        panic_if(full(), "MSHR allocation with a full file");
        blocks[numLive] = block;
        readyCycles[numLive] = ready;
        ++numLive;
        minReady = std::min(minReady, ready);
        ++statAllocations;
    }

    /** Earliest completion among outstanding entries (kNeverCycle if none). */
    Cycle nextRetirement() const { return minReady; }

    std::uint32_t live() const { return numLive; }
    std::uint32_t capacity() const { return numEntries; }

    /**
     * Checks the packing invariants: at most capacity() live entries,
     * distinct live blocks, and the cached earliest fill equal to the
     * minimum live completion (kNeverCycle when empty). Reports each
     * violation to @p sink; returns true when clean.
     */
    bool audit(AuditSink &sink) const;

    StatGroup &stats() { return statGroup; }

    /** Bumps the merge counter (core merged a miss). */
    void noteMerge() { ++statMerges; }

    /** Bumps the structural-stall counter (core stalled on full file). */
    void noteFullStall() { ++statFullStalls; }

  private:
    std::uint32_t numEntries;
    std::uint32_t blockBytes;
    std::uint32_t numLive = 0;      //!< live entries, packed at the front
    Cycle minReady = kNeverCycle;   //!< earliest live completion
    Addr blocks[kMaxEntries] = {};
    Cycle readyCycles[kMaxEntries] = {};

    StatGroup statGroup;
    Counter statAllocations;
    Counter statMerges;
    Counter statFullStalls;
};

} // namespace nurapid

#endif // NURAPID_MEM_MSHR_HH
