/** @file Unit tests for the MSHR file and main-memory model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "mem/main_memory.hh"
#include "mem/mshr.hh"

namespace nurapid {
namespace {

TEST(Mshr, AllocateTrackRetire)
{
    MshrFile m(2, 64);
    EXPECT_FALSE(m.full());
    m.allocate(0x100, 50);
    EXPECT_TRUE(m.tracks(0x100));
    EXPECT_TRUE(m.tracks(0x13f));   // same 64 B block
    EXPECT_FALSE(m.tracks(0x140));
    EXPECT_EQ(m.readyAt(0x100), 50u);
    m.allocate(0x200, 70);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.nextRetirement(), 50u);
    m.retire(49);
    EXPECT_TRUE(m.full());
    m.retire(50);
    EXPECT_FALSE(m.full());
    EXPECT_FALSE(m.tracks(0x100));
    EXPECT_TRUE(m.tracks(0x200));
    EXPECT_EQ(m.live(), 1u);
}

TEST(Mshr, NextRetirementEmpty)
{
    MshrFile m(4, 64);
    EXPECT_EQ(m.nextRetirement(), kNeverCycle);
}

TEST(MshrDeath, DuplicateAllocationPanics)
{
    MshrFile m(4, 64);
    m.allocate(0x100, 10);
    EXPECT_DEATH(m.allocate(0x120, 20), "duplicate");
}

TEST(MshrDeath, ReadyAtUntrackedPanics)
{
    MshrFile m(4, 64);
    EXPECT_DEATH(m.readyAt(0x500), "untracked");
}

/**
 * Reference model: the plain valid-flag file the packed MshrFile
 * replaced. Every slot is scanned on every query, so it is slow but
 * obviously right.
 */
class RefMshr
{
  public:
    RefMshr(std::uint32_t entries, std::uint32_t block_bytes)
        : blockBytes(block_bytes), slots(entries)
    {
    }

    void
    retire(Cycle now)
    {
        for (Slot &e : slots) {
            if (e.valid && e.ready <= now)
                e = Slot{};
        }
    }

    bool
    tracks(Addr addr) const
    {
        const Addr block = blockAlign(addr, blockBytes);
        for (const Slot &e : slots) {
            if (e.valid && e.block == block)
                return true;
        }
        return false;
    }

    Cycle
    readyAt(Addr addr) const
    {
        const Addr block = blockAlign(addr, blockBytes);
        for (const Slot &e : slots) {
            if (e.valid && e.block == block)
                return e.ready;
        }
        return kNeverCycle;
    }

    bool full() const { return live() >= slots.size(); }

    void
    allocate(Addr addr, Cycle ready)
    {
        for (Slot &e : slots) {
            if (!e.valid) {
                e = Slot{blockAlign(addr, blockBytes), ready, true};
                return;
            }
        }
    }

    Cycle
    nextRetirement() const
    {
        Cycle best = kNeverCycle;
        for (const Slot &e : slots) {
            if (e.valid && e.ready < best)
                best = e.ready;
        }
        return best;
    }

    std::uint32_t
    live() const
    {
        std::uint32_t n = 0;
        for (const Slot &e : slots)
            n += e.valid ? 1 : 0;
        return n;
    }

  private:
    struct Slot
    {
        Addr block = kInvalidAddr;
        Cycle ready = kNeverCycle;
        bool valid = false;
    };

    std::uint32_t blockBytes;
    std::vector<Slot> slots;
};

constexpr std::uint32_t kBlock = 32;

/** Compares every query of @p m against @p ref over blocks 0..@p pool. */
::testing::AssertionResult
sameState(const MshrFile &m, const RefMshr &ref, std::uint32_t pool)
{
    if (m.full() != ref.full() || m.live() != ref.live() ||
        m.nextRetirement() != ref.nextRetirement()) {
        return ::testing::AssertionFailure()
               << "full " << m.full() << "/" << ref.full() << ", live "
               << m.live() << "/" << ref.live() << ", next "
               << m.nextRetirement() << "/" << ref.nextRetirement();
    }
    for (std::uint32_t b = 0; b < pool; ++b) {
        const Addr addr = Addr{b} * kBlock + b % kBlock;
        if (m.tracks(addr) != ref.tracks(addr)) {
            return ::testing::AssertionFailure()
                   << "tracks(" << addr << ") " << m.tracks(addr);
        }
        if (m.tracks(addr) && m.readyAt(addr) != ref.readyAt(addr)) {
            return ::testing::AssertionFailure()
                   << "readyAt(" << addr << ") " << m.readyAt(addr)
                   << " vs " << ref.readyAt(addr);
        }
    }
    return ::testing::AssertionSuccess();
}

/** Operation mix the differential driver ran. */
struct OpCounts
{
    std::uint64_t retires = 0;
    std::uint64_t merges = 0;
    std::uint64_t allocations = 0;
    std::uint64_t full_stalls = 0;
};

/**
 * Drives a packed file and the reference side by side through @p ops
 * seeded operations shaped like OooCore::missLatency: bare retires and
 * misses that merge, allocate, or stall on a full file first. Checks
 * every query after each operation; stops at the first divergence.
 */
OpCounts
driveBoth(MshrFile &m, std::uint32_t capacity, std::uint64_t ops,
          std::uint64_t seed)
{
    RefMshr ref(capacity, kBlock);
    const std::uint32_t pool = 3 * capacity + 4;
    Rng rng(seed, 0x5a17);
    OpCounts n;
    Cycle now = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        now += rng.below(16);
        m.retire(now);
        ref.retire(now);
        if (rng.below(4) == 0) {
            ++n.retires;
        } else {
            const Addr addr = Addr{rng.below(pool)} * kBlock +
                              rng.below(kBlock);
            if (ref.tracks(addr)) {
                ++n.merges;
            } else {
                if (ref.full()) {
                    ++n.full_stalls;
                    EXPECT_TRUE(m.full());
                    now = std::max(now, ref.nextRetirement());
                    m.retire(now);
                    ref.retire(now);
                }
                const Cycle ready = now + rng.below(40 * capacity);
                m.allocate(addr, ready);
                ref.allocate(addr, ready);
                ++n.allocations;
            }
        }
        const ::testing::AssertionResult same = sameState(m, ref, pool);
        EXPECT_TRUE(same) << "capacity " << capacity << ", op " << i;
        if (!same)
            break;
    }
    return n;
}

TEST(MshrDifferential, PackedFileMatchesSlotScan)
{
    MshrFile m(8, kBlock);
    const OpCounts n = driveBoth(m, 8, 120'000, 1);
    EXPECT_GT(n.retires, 10'000u);
    EXPECT_GT(n.merges, 10'000u);
    EXPECT_GT(n.allocations, 10'000u);
    EXPECT_GT(n.full_stalls, 1'000u);
    EXPECT_EQ(m.stats().counterValue("allocations"), n.allocations);
}

TEST(MshrDifferential, SmallestAndLargestFiles)
{
    for (const std::uint32_t capacity : {1u, 2u, MshrFile::kMaxEntries}) {
        MshrFile m(capacity, kBlock);
        const OpCounts n = driveBoth(m, capacity, 30'000, capacity);
        EXPECT_GT(n.merges, 0u) << capacity;
        EXPECT_GT(n.full_stalls, 0u) << capacity;
    }
}

TEST(MshrEdge, RetireAtExactlyReadyFrees)
{
    MshrFile m(4, 64);
    m.allocate(0x000, 10);
    m.allocate(0x040, 10);
    m.allocate(0x080, 12);
    m.retire(9);
    EXPECT_EQ(m.live(), 3u);
    EXPECT_EQ(m.nextRetirement(), 10u);
    m.retire(10);
    EXPECT_EQ(m.live(), 1u);
    EXPECT_FALSE(m.tracks(0x000));
    EXPECT_FALSE(m.tracks(0x040));
    EXPECT_EQ(m.readyAt(0x080), 12u);
    EXPECT_EQ(m.nextRetirement(), 12u);
}

TEST(MshrEdge, CapacityOne)
{
    MshrFile m(1, 64);
    m.allocate(0x100, 5);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.nextRetirement(), 5u);
    m.retire(5);
    EXPECT_FALSE(m.full());
    m.allocate(0x100, 9);   // the same block, reallocated after retire
    EXPECT_EQ(m.readyAt(0x100), 9u);
    EXPECT_TRUE(m.full());
}

TEST(MshrEdge, CapacityAtTheCap)
{
    const std::uint32_t cap = MshrFile::kMaxEntries;
    MshrFile m(cap, 64);
    for (std::uint32_t i = 0; i < cap; ++i)
        m.allocate(Addr{i} * 64, 100 + (i * 7) % cap);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.live(), cap);
    EXPECT_EQ(m.nextRetirement(), 100u);
    m.retire(100);
    EXPECT_EQ(m.live(), cap - 1);
    EXPECT_EQ(m.nextRetirement(), 101u);
    for (std::uint32_t i = 0; i < cap; ++i)
        EXPECT_EQ(m.tracks(Addr{i} * 64), (i * 7) % cap != 0) << i;
}

TEST(MshrEdge, EmptyFileNeverRetires)
{
    MshrFile m(2, 64);
    m.retire(kNeverCycle - 1);
    EXPECT_EQ(m.nextRetirement(), kNeverCycle);
    m.allocate(0x40, 30);
    m.allocate(0x80, 20);
    m.retire(30);
    EXPECT_EQ(m.live(), 0u);
    EXPECT_EQ(m.nextRetirement(), kNeverCycle);
}

TEST(MshrDeath, AboveTheCapIsFatal)
{
    EXPECT_DEATH(MshrFile(MshrFile::kMaxEntries + 1, 64), "cap of 32");
}

TEST(MshrDeath, AllocateOnFullFilePanics)
{
    MshrFile m(1, 64);
    m.allocate(0x100, 10);
    EXPECT_DEATH(m.allocate(0x200, 20), "full");
}

TEST(MshrAudit, CleanAfterChurn)
{
    for (const std::uint32_t capacity : {1u, 8u, MshrFile::kMaxEntries}) {
        MshrFile m(capacity, kBlock);
        CountingAuditSink sink;
        EXPECT_TRUE(m.audit(sink));
        driveBoth(m, capacity, 20'000, 7 + capacity);
        EXPECT_TRUE(m.audit(sink)) << sink.summary();
        EXPECT_TRUE(sink.clean()) << capacity;
    }
}

TEST(MainMemory, LatencyFormula)
{
    // Table 1: 130 cycles + 4 cycles per 8 bytes.
    MainMemory mem;
    EXPECT_EQ(mem.latency(128), 130u + 4u * 16u);
    EXPECT_EQ(mem.latency(32), 130u + 4u * 4u);
    EXPECT_EQ(mem.latency(8), 134u);
    EXPECT_EQ(mem.latency(1), 134u);  // rounds up to one beat
}

TEST(MainMemory, EnergyAndCounters)
{
    MainMemory mem;
    mem.read(128);
    mem.write(128);
    mem.write(128);
    EXPECT_EQ(mem.stats().counterValue("reads"), 1u);
    EXPECT_EQ(mem.stats().counterValue("writes"), 2u);
    EXPECT_GT(mem.dynamicEnergyNJ(), 0.0);
    mem.resetStats();
    EXPECT_EQ(mem.stats().counterValue("reads"), 0u);
    EXPECT_DOUBLE_EQ(mem.dynamicEnergyNJ(), 0.0);
}

TEST(MainMemory, CustomParams)
{
    MainMemory::Params p;
    p.base_latency = 100;
    p.cycles_per_8b = 2;
    MainMemory mem(p);
    EXPECT_EQ(mem.latency(16), 104u);
}

} // namespace
} // namespace nurapid
