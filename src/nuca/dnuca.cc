#include "nuca/dnuca.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "mem/tag_probe.hh"

namespace nurapid {

DNucaCache::DNucaCache(const SramMacroModel &model, const Params &params)
    : p(params),
      times(makeDNucaTiming(model, p.capacity_bytes, p.rows, p.cols,
                            p.block_bytes)),
      sets(static_cast<std::uint32_t>(
          p.capacity_bytes / (std::uint64_t{p.assoc} * p.block_bytes))),
      waysPerRow(p.assoc / p.rows),
      partialMask((Addr{1} << p.partial_tag_bits) - 1),
      bankFree(std::size_t{p.rows} * p.cols, 0),
      mem(p.memory), statGroup(p.name), regionHist(p.rows)
{
    fatal_if(p.assoc == 0 || p.assoc > RankPlane::kMaxWays,
             "%s: D-NUCA associativity %u outside the rank-plane range "
             "1..%u", p.name.c_str(), p.assoc, RankPlane::kMaxWays);
    fatal_if(p.assoc % p.rows != 0,
             "associativity %u not divisible across %u bank rows",
             p.assoc, p.rows);
    fatal_if(!isPowerOf2(sets), "set count %u not a power of two", sets);
    fatal_if(!isPowerOf2(p.cols), "bank-set count %u not a power of two",
             p.cols);
    fatal_if(!isPowerOf2(p.block_bytes),
             "block size %u not a power of two", p.block_bytes);
    blockShift = floorLog2(p.block_bytes);
    tagShift = blockShift + floorLog2(sets);

    strideShift = ceilLog2(p.assoc);
    wayStride = std::uint32_t{1} << strideShift;
    waysMask = (std::uint64_t{1} << p.assoc) - 1;
    tagPlane.assign(std::size_t{sets} << strideShift, 0);
    validBits.assign(sets, 0);
    dirtyBits.assign(sets, 0);
    ranks.init(sets, p.assoc);

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
DNucaCache::setOf(Addr block) const
{
    return static_cast<std::uint32_t>(
        (block >> blockShift) & (sets - 1));
}

Addr
DNucaCache::tagOf(Addr block) const
{
    return block >> tagShift;
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

void
DNucaCache::touch(std::uint32_t set, std::uint32_t way)
{
    ranks.touch(set, way);
}

std::uint32_t
DNucaCache::lruWayInRow(std::uint32_t set, std::uint32_t row) const
{
    const std::uint32_t first = row * waysPerRow;
    const std::uint64_t row_bits = (std::uint64_t{1} << waysPerRow) - 1;
    // Lowest invalid way of the row wins outright.
    const std::uint64_t row_invalid =
        (~validBits[set] >> first) & row_bits;
    if (row_invalid) {
        return first +
            static_cast<std::uint32_t>(std::countr_zero(row_invalid));
    }
    return ranks.lruWayMasked(set, row_bits << first);
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

    const std::uint32_t set = setOf(block);
    const std::uint32_t col = colOf(set);
    const Addr tag = tagOf(block);
    const Addr partial = tag & partialMask;

    // Ground truth: which way (if any) holds the block, and which rows
    // the smart-search array would flag as partial-tag matches. Two
    // vector probes over the set's tag row replace the way-by-way scan;
    // the valid bitmap also clears the padding lanes. The historical
    // scan kept the *last* matching way, hence the countl_zero reduce
    // (first and last coincide on audit-clean state anyway).
    const std::uint64_t *row = &tagPlane[rowBase(set)];
    const std::uint64_t full_match =
        probeMatch(row, wayStride, tag) & validBits[set];
    const std::uint64_t partial_match =
        probeMatchMasked(row, wayStride, partialMask, partial) &
        validBits[set];
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
        touch(set, hit_way);
        if (is_write)
            dirtyBits[set] |= std::uint64_t{1} << hit_way;

        // Bubble promotion: swap with a block one bank closer (demand
        // hits only; L1 writebacks update in place).
        if (p.promote_on_hit && r > 0 && !is_writeback) {
            const std::uint32_t victim = lruWayInRow(set, r - 1);
            // An invalid victim way makes the "swap" a pure inward move.
            if (obsSink) [[unlikely]] {
                if ((validBits[set] >> victim) & 1)
                    obsSink->swap(now, block, r, r - 1);
                else
                    obsSink->promotion(now, block, r, r - 1);
            }
            const std::size_t base = rowBase(set);
            std::swap(tagPlane[base + hit_way], tagPlane[base + victim]);
            swapBits(validBits[set], hit_way, victim);
            swapBits(dirtyBits[set], hit_way, victim);
            ranks.swapWays(set, hit_way, victim);
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
    const std::uint64_t invalid = ~validBits[set] & waysMask;
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
        dest_way = lruWayInRow(set, p.rows - 1);
        const std::uint64_t way_bit = std::uint64_t{1} << dest_way;
        ++cnt.evictions;
        ++cnt.bankDataAccesses;
        cacheEnergy.chargeData(p.rows - 1,
                               times.bank(p.rows - 1, col).access_nj);
        recordEviction(result,
                       (tagPlane[rowBase(set) + dest_way] * sets + set) *
                           p.block_bytes,
                       (dirtyBits[set] & way_bit) != 0, now);
        if (dirtyBits[set] & way_bit)
            mem.write(p.block_bytes);
        validBits[set] &= ~way_bit;
    }

    const std::uint32_t dest_row = rowOfWay(dest_way);
    const std::uint64_t dest_bit = std::uint64_t{1} << dest_way;
    tagPlane[rowBase(set) + dest_way] = tag;
    validBits[set] |= dest_bit;
    if (is_write)
        dirtyBits[set] |= dest_bit;
    else
        dirtyBits[set] &= ~dest_bit;
    touch(set, dest_way);
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

EnergyNJ
DNucaCache::dynamicEnergyNJ() const
{
    return cacheEnergy.total_nj + mem.dynamicEnergyNJ();
}

void
DNucaCache::regionOccupancy(std::vector<std::uint64_t> &out) const
{
    out.assign(p.rows, 0);
    for (std::uint32_t s = 0; s < sets; ++s) {
        for (std::uint64_t vb = validBits[s]; vb; vb &= vb - 1) {
            const auto w =
                static_cast<std::uint32_t>(std::countr_zero(vb));
            ++out[rowOfWay(w)];
        }
    }
}

void
DNucaCache::forEachResident(const ResidentFn &fn) const
{
    for (std::uint32_t s = 0; s < sets; ++s) {
        const std::size_t base = rowBase(s);
        for (std::uint64_t vb = validBits[s]; vb; vb &= vb - 1) {
            const auto w =
                static_cast<std::uint32_t>(std::countr_zero(vb));
            fn((tagPlane[base + w] * sets + s) * p.block_bytes,
               (dirtyBits[s] >> w) & 1);
        }
    }
}

bool
DNucaCache::audit(AuditSink &sink) const
{
    bool clean = true;
    for (std::uint32_t s = 0; s < sets; ++s) {
        const std::size_t base = rowBase(s);
        for (std::uint32_t w = 0; w < p.assoc; ++w) {
            if (!((validBits[s] >> w) & 1))
                continue;
            // A duplicate tag makes the multicast search ambiguous:
            // two banks would answer the same request.
            for (std::uint32_t w2 = w + 1; w2 < p.assoc; ++w2) {
                if (((validBits[s] >> w2) & 1) &&
                    tagPlane[base + w2] == tagPlane[base + w]) {
                    clean = false;
                    sink.violation({p.name, "duplicate-tag",
                                    strprintf("tag %#llx also in way %u",
                                              static_cast<
                                                  unsigned long long>(
                                                  tagPlane[base + w]), w2),
                                    s, w, AuditViolation::kNoIndex,
                                    AuditViolation::kNoIndex});
                }
            }
        }

        // The rank plane must hold a permutation of 0..assoc-1 per
        // set, or recency scans lose their tie-free guarantee.
        if (!ranks.isPermutation(s)) {
            clean = false;
            sink.violation({p.name, "lru-rank",
                            strprintf("set %u recency ranks are not a "
                                      "permutation of %u ways", s,
                                      p.assoc),
                            s, AuditViolation::kNoIndex,
                            AuditViolation::kNoIndex,
                            AuditViolation::kNoIndex});
        }
    }
    return clean;
}

std::size_t
DNucaCache::hotStateBytes() const
{
    return (tagPlane.size() + validBits.size() + dirtyBits.size()) *
               sizeof(std::uint64_t) +
           ranks.bytes() + bankFree.size() * sizeof(Cycle);
}

void
DNucaCache::resetStats()
{
    statGroup.resetAll();
    mem.resetStats();
    regionHist.reset();
    cacheEnergy.reset();
}

} // namespace nurapid
