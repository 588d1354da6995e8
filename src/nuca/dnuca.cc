#include "nuca/dnuca.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace nurapid {

DNucaCache::DNucaCache(const SramMacroModel &model, const Params &params)
    : Organization(params.name, params.rows, params.memory), p(params),
      times(makeDNucaTiming(model, p.capacity_bytes, p.rows, p.cols,
                            p.block_bytes)),
      tags(p.name + ": D-NUCA", p.capacity_bytes, p.assoc, p.block_bytes),
      waysPerRow(p.assoc / p.rows),
      partialMask((Addr{1} << p.partial_tag_bits) - 1),
      bankFree(std::size_t{p.rows} * p.cols, 0)
{
    fatal_if(p.assoc % p.rows != 0,
             "associativity %u not divisible across %u bank rows",
             p.assoc, p.rows);
    fatal_if(!isPowerOf2(p.cols), "bank-set count %u not a power of two",
             p.cols);

    statGroup.addCounter("demand_accesses", cnt.demandAccesses);
    statGroup.addCounter("writeback_accesses", cnt.writebackAccesses);
    statGroup.addCounter("hits", cnt.hits);
    statGroup.addCounter("misses", cnt.misses);
    statGroup.addCounter("evictions", cnt.evictions);
    statGroup.addCounter("promotions", cnt.promotions);
    statGroup.addCounter("block_moves", cnt.blockMoves);
    statGroup.addCounter("bank_data_accesses", cnt.bankDataAccesses);
    statGroup.addCounter("bank_search_probes", cnt.bankSearchProbes);
    statGroup.addCounter("ss_probes", cnt.ssProbes);
    statGroup.addCounter("false_partial_hits", cnt.falsePartialHits);
    statGroup.addCounter("bank_wait_cycles", cnt.bankWaitCycles);
}

std::uint32_t
DNucaCache::colOf(std::uint32_t set) const
{
    return set & (p.cols - 1);
}

std::uint32_t
DNucaCache::rowOfWay(std::uint32_t way) const
{
    return way / waysPerRow;
}

Cycle
DNucaCache::acquireBank(std::uint32_t row, std::uint32_t col, Cycle at,
                        Cycles busy)
{
    Cycle &free = bankFree[std::size_t{row} * p.cols + col];
    const Cycle start = std::max(at, free);
    cnt.bankWaitCycles += start - at;
    free = start + (busy ? busy : times.bank_busy);
    return start;
}

LowerMemory::Result
DNucaCache::access(Addr addr, AccessType type, Cycle now)
{
    const Addr block = blockAlign(addr, p.block_bytes);
    const bool is_writeback = type == AccessType::Writeback;
    const bool is_write = type == AccessType::Write || is_writeback;

    if (is_writeback)
        ++cnt.writebackAccesses;
    else
        ++cnt.demandAccesses;

    const std::uint32_t set = tags.setOf(block);
    const std::uint32_t col = colOf(set);
    const Addr tag = tags.tagOf(block);
    const Addr partial = tag & partialMask;

    // Ground truth: which way (if any) holds the block, and which rows
    // the smart-search array would flag as partial-tag matches. Two
    // vector probes over the set's tag row replace the way-by-way scan;
    // the valid bitmap also clears the padding lanes. The historical
    // scan kept the *last* matching way, hence the countl_zero reduce
    // (first and last coincide on audit-clean state anyway).
    const std::uint64_t full_match = tags.match(set, tag);
    const std::uint64_t partial_match =
        tags.matchPartial(set, partialMask, partial);
    const std::uint32_t hit_way = full_match
        ? 63 - static_cast<std::uint32_t>(std::countl_zero(full_match))
        : p.assoc;
    const std::uint64_t row_mask_base =
        (std::uint64_t{1} << waysPerRow) - 1;
    const auto rowMatches = [&](std::uint32_t r) {
        return ((partial_match >> (r * waysPerRow)) & row_mask_base) != 0;
    };
    const bool any_partial = partial_match != 0;

    Result result;
    Cycles lookup_lat = 0;

    if (p.search == DNucaSearch::SsEnergy) {
        // Probe the smart-search array, then walk only the banks whose
        // partial tags matched, closest first, until the real hit.
        ++cnt.ssProbes;
        cacheEnergy.chargeTag(times.ss_access_nj);
        lookup_lat = times.ss_latency;
        const std::uint32_t hit_row =
            hit_way < p.assoc ? rowOfWay(hit_way) : p.rows;
        for (std::uint32_t r = 0; r < p.rows; ++r) {
            if (!rowMatches(r))
                continue;
            ++cnt.bankDataAccesses;
            cacheEnergy.chargeData(r, times.bank(r, col).access_nj);
            const Cycle start = acquireBank(r, col, now + lookup_lat);
            lookup_lat = static_cast<Cycles>(start - now) +
                times.bank(r, col).latency;
            if (r == hit_row)
                break;
            ++cnt.falsePartialHits;
        }
    } else {
        // Multicast search: every bank of the bank set performs its
        // parallel tag+data access (the data read starts with the tag
        // compare — this is what makes multicast searching so
        // energy-hungry); the owner returns the data at its latency.
        for (std::uint32_t r = 0; r < p.rows; ++r) {
            ++cnt.bankSearchProbes;
            ++cnt.bankDataAccesses;
            cacheEnergy.chargeData(r, times.bank(r, col).access_nj);
            acquireBank(r, col, now);
        }
        if (p.search == DNucaSearch::SsPerformance) {
            ++cnt.ssProbes;
            cacheEnergy.chargeTag(times.ss_access_nj);
        }
        if (hit_way < p.assoc) {
            const std::uint32_t r = rowOfWay(hit_way);
            // The owning bank's access was issued by the multicast
            // above; the reply returns at that bank's latency (plus
            // any wait the occupied bank imposed).
            const Cycle start = acquireBank(r, col, now);
            lookup_lat = static_cast<Cycles>(start - now) +
                times.bank(r, col).latency;
        } else if (p.search == DNucaSearch::SsPerformance && !any_partial) {
            // Early miss determination from the smart-search array.
            lookup_lat = times.ss_latency;
        } else {
            // Miss resolved only when the slowest searched bank replies.
            if (any_partial)
                ++cnt.falsePartialHits;
            lookup_lat = times.maxLatencyOfMB(p.rows - 1);
        }
    }

    if (hit_way < p.assoc) {
        const std::uint32_t r = rowOfWay(hit_way);
        if (!is_writeback) {
            ++cnt.hits;
            regionHist.sample(r);
        }
        tags.touch(set, hit_way);
        if (is_write)
            tags.setDirty(set, hit_way, true);

        // Bubble promotion: swap with a block one bank closer (demand
        // hits only; L1 writebacks update in place).
        if (p.promote_on_hit && r > 0 && !is_writeback) {
            const std::uint32_t victim =
                tags.victimIn(set, (r - 1) * waysPerRow, waysPerRow);
            // An invalid victim way makes the "swap" a pure inward move.
            if (obsSink) [[unlikely]] {
                if (tags.isValid(set, victim))
                    obsSink->swap(now, block, r, r - 1);
                else
                    obsSink->promotion(now, block, r, r - 1);
            }
            tags.swapWays(set, hit_way, victim);
            ++cnt.promotions;
            cnt.blockMoves += 2;
            cnt.bankDataAccesses += 4;
            cacheEnergy.chargeSwap(times.swapEnergy(r - 1, r, col));
            // Both banks stay occupied while the two blocks are in
            // flight; closely-following accesses to either (e.g. the
            // next sector of a streaming L2 block) must wait — the
            // bandwidth cost of bubble promotion the paper calls out.
            const Cycles sb = times.swapBusy(r - 1, r, col);
            acquireBank(r, col, now + lookup_lat, sb);
            acquireBank(r - 1, col, now + lookup_lat, sb);
        }

        result.hit = true;
        result.latency = is_writeback ? 0 : lookup_lat;
        if (obsSink) [[unlikely]] {
            if (is_writeback)
                obsSink->writeback(now, block);
            else
                obsSink->hit(now, block, r, result.latency);
        }
        NURAPID_AUDIT_POINT(auditTick, audit(audit::hookSink()));
        return result;
    }

    // Miss path.
    if (!is_writeback)
        ++cnt.misses;
    if (obsSink && is_writeback) [[unlikely]]
        obsSink->writeback(now, block);

    // Prefer an invalid way (slowest rows first); otherwise evict the
    // slowest way of the set — which need not be the set-LRU block.
    std::uint32_t dest_way = p.assoc;
    const std::uint64_t invalid = tags.invalidWays(set);
    for (std::uint32_t r = p.rows; r-- > 0 && dest_way == p.assoc;) {
        const std::uint32_t first = r * waysPerRow;
        const std::uint64_t row_invalid =
            (invalid >> first) & ((std::uint64_t{1} << waysPerRow) - 1);
        if (row_invalid) {
            dest_way = first +
                static_cast<std::uint32_t>(std::countr_zero(row_invalid));
        }
    }
    if (dest_way == p.assoc) {
        dest_way = tags.victimIn(set, (p.rows - 1) * waysPerRow, waysPerRow);
        ++cnt.evictions;
        ++cnt.bankDataAccesses;
        cacheEnergy.chargeData(p.rows - 1,
                               times.bank(p.rows - 1, col).access_nj);
        const bool victim_dirty = tags.isDirty(set, dest_way);
        recordEviction(result, tags.blockAddr(set, dest_way), victim_dirty,
                       now);
        if (victim_dirty)
            mem.write(p.block_bytes);
    }

    const std::uint32_t dest_row = rowOfWay(dest_way);
    tags.fill(set, dest_way, tag, is_write);
    tags.touch(set, dest_way);
    ++cnt.bankDataAccesses;
    cacheEnergy.chargeData(dest_row, times.bank(dest_row, col).access_nj);

    const Cycles mem_lat = mem.read(p.block_bytes);
    acquireBank(dest_row, col, now + lookup_lat + mem_lat);

    result.hit = false;
    result.latency = is_writeback ? 0 : lookup_lat + mem_lat;
    if (obsSink && !is_writeback) [[unlikely]]
        obsSink->miss(now, block, result.latency);
    NURAPID_AUDIT_POINT(auditTick, audit(audit::hookSink()));
    return result;
}

void
DNucaCache::regionOccupancy(std::vector<std::uint64_t> &out) const
{
    tags.occupancy(waysPerRow, out);
}

void
DNucaCache::forEachResident(const ResidentFn &fn) const
{
    tags.forEachResident(fn);
}

bool
DNucaCache::audit(AuditSink &sink) const
{
    // A duplicate tag would make the multicast search ambiguous: two
    // banks would answer the same request.
    return tags.audit(sink, p.name, 0);
}

std::size_t
DNucaCache::hotStateBytes() const
{
    return tags.hotBytes() + bankFree.size() * sizeof(Cycle);
}

} // namespace nurapid
