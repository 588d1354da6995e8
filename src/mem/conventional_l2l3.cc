#include "mem/conventional_l2l3.hh"

#include "common/logging.hh"

namespace nurapid {

ConventionalL2L3::ConventionalL2L3(const SramMacroModel &model,
                                   const Params &params)
    : Organization("conventional-l2l3", 2, params.memory), p(params),
      l2Cache(p.l2), l3Cache(p.l3),
      l2Timing(makeUniformTiming(model, p.l2.capacity_bytes, p.l2.assoc,
                                 p.l2.block_bytes, /*sequential=*/true, 1,
                                 p.l2_latency)),
      l3Timing(makeUniformTiming(model, p.l3.capacity_bytes, p.l3.assoc,
                                 p.l3.block_bytes, /*sequential=*/true, 1,
                                 p.l3_latency))
{
    statGroup.addCounter("accesses", statAccesses);
    statGroup.addCounter("l2_hits", statL2Hits);
    statGroup.addCounter("l3_hits", statL3Hits);
    statGroup.addCounter("memory_fills", statMemFills);
}

LowerMemory::Result
ConventionalL2L3::access(Addr addr, AccessType type, Cycle now)
{
    if (type == AccessType::Writeback) {
        // L1 dirty eviction: absorb into L2 (write-allocate), push any
        // L2 victim into L3. Off the critical path.
        Result result;
        result.latency = 0;
        result.hit = true;
        if (obsSink) [[unlikely]]
            obsSink->writeback(now, addr);
        cacheEnergy.chargeWriteback(l2Timing.write_nj);
        auto r = l2Cache.access(addr, /*is_write=*/true);
        if (r.evicted && r.evicted_dirty) {
            cacheEnergy.chargeSwap(l3Timing.write_nj);
            auto r3 = l3Cache.access(r.evicted_addr, true);
            if (r3.evicted && !l2Cache.contains(r3.evicted_addr)) {
                // The L3 victim leaves the hierarchy unless a (non-
                // inclusive) L2 copy keeps it on chip.
                recordEviction(result, r3.evicted_addr, r3.evicted_dirty,
                               now);
                if (r3.evicted_dirty)
                    mem.write(p.l3.block_bytes);
            }
        } else if (r.evicted && !l3Cache.contains(r.evicted_addr)) {
            // Clean L2 victims are dropped, not pushed into L3.
            recordEviction(result, r.evicted_addr, false, now);
        }
        return result;
    }

    const bool is_write = type == AccessType::Write;
    ++statAccesses;
    Result result;

    cacheEnergy.chargeData(0, is_write ? l2Timing.write_nj
                                       : l2Timing.read_nj);
    auto r2 = l2Cache.access(addr, is_write);
    // The demand L3 lookup logically precedes the victim writeback: if
    // the victim's allocation below displaces the demanded block from
    // its shared L3 set, the block was still resident when the lookup
    // started, so the access must resolve as an L3 hit. Capture that
    // residency before the push; the miss-path probe then re-allocates
    // the block MRU, which is the state a lookup-first ordering leaves.
    const bool l3_resident_at_lookup =
        !r2.hit && r2.evicted && r2.evicted_dirty &&
        l3Cache.contains(addr);
    if (r2.evicted && r2.evicted_dirty) {
        // Non-inclusive hierarchy: L2 victims are allocated into L3.
        cacheEnergy.chargeSwap(l3Timing.write_nj);
        auto wb = l3Cache.access(r2.evicted_addr, true);
        if (wb.evicted && !l2Cache.contains(wb.evicted_addr)) {
            recordEviction(result, wb.evicted_addr, wb.evicted_dirty, now);
            if (wb.evicted_dirty)
                mem.write(p.l3.block_bytes);
        }
    } else if (r2.evicted && !l3Cache.contains(r2.evicted_addr)) {
        recordEviction(result, r2.evicted_addr, false, now);
    }
    if (r2.hit) {
        ++statL2Hits;
        regionHist.sample(0);
        result.hit = true;
        result.latency = p.l2_latency;
        if (obsSink) [[unlikely]]
            obsSink->hit(now, addr, 0, result.latency);
        return result;
    }

    cacheEnergy.chargeData(1, l3Timing.read_nj);
    auto r3 = l3Cache.access(addr, is_write);
    if (r3.evicted && !l2Cache.contains(r3.evicted_addr)) {
        recordEviction(result, r3.evicted_addr, r3.evicted_dirty, now);
        if (r3.evicted_dirty)
            mem.write(p.l3.block_bytes);
    } else if (r3.evicted && r3.evicted_dirty) {
        mem.write(p.l3.block_bytes);
    }
    if (r3.hit || l3_resident_at_lookup) {
        ++statL3Hits;
        regionHist.sample(1);
        // The L3 probe overlaps the tail of the L2 lookup (pipelined
        // lookup), so an L3 hit costs the L3's uniform access time.
        result.hit = true;
        result.latency = p.l3_latency;
        if (obsSink) [[unlikely]]
            obsSink->hit(now, addr, 1, result.latency);
        return result;
    }

    ++statMemFills;
    result.hit = false;
    // Sequential tag-data access: the miss is known after the tag-only
    // probes of both levels, well before a full data access would have
    // completed.
    result.latency = l2Timing.tag_latency + l3Timing.tag_latency +
        mem.read(p.l3.block_bytes);
    if (obsSink) [[unlikely]]
        obsSink->miss(now, addr, result.latency);
    return result;
}

void
ConventionalL2L3::resetStats()
{
    Organization::resetStats();
    l2Cache.stats().resetAll();
    l3Cache.stats().resetAll();
}

} // namespace nurapid
