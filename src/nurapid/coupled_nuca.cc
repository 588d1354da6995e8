#include "nurapid/coupled_nuca.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "mem/tag_probe.hh"

namespace nurapid {

CoupledNucaCache::CoupledNucaCache(const SramMacroModel &model,
                                   const Params &params)
    : p(params),
      times(makeNuRapidTiming(model, p.capacity_bytes, p.num_dgroups,
                              p.assoc, p.block_bytes)),
      sets(static_cast<std::uint32_t>(
          p.capacity_bytes / (std::uint64_t{p.assoc} * p.block_bytes))),
      waysPerGroup(p.assoc / p.num_dgroups),
      mem(p.memory), statGroup(p.name), regionHist(p.num_dgroups)
{
    fatal_if(p.assoc == 0 || p.assoc > RankPlane::kMaxWays,
             "%s: coupled NUCA associativity %u outside the rank-plane "
             "range 1..%u", p.name.c_str(), p.assoc, RankPlane::kMaxWays);
    fatal_if(p.assoc % p.num_dgroups != 0,
             "associativity %u not divisible across %u d-groups",
             p.assoc, p.num_dgroups);
    fatal_if(!isPowerOf2(sets), "set count %u not a power of two", sets);
    fatal_if(!isPowerOf2(p.block_bytes),
             "block size %u not a power of two", p.block_bytes);
    blockShift = floorLog2(p.block_bytes);
    tagShift = blockShift + floorLog2(sets);

    strideShift = ceilLog2(p.assoc);
    wayStride = std::uint32_t{1} << strideShift;
    waysMask = (std::uint64_t{1} << p.assoc) - 1;
    tagPlane.assign(std::size_t{sets} << strideShift, 0);
    ranks.init(sets, p.assoc);
    validBits.assign(sets, 0);
    dirtyBits.assign(sets, 0);

    statGroup.addCounter("demand_accesses", cnt.demandAccesses);
    statGroup.addCounter("writeback_accesses", cnt.writebackAccesses);
    statGroup.addCounter("hits", cnt.hits);
    statGroup.addCounter("misses", cnt.misses);
    statGroup.addCounter("evictions", cnt.evictions);
    statGroup.addCounter("promotions", cnt.promotions);
    statGroup.addCounter("demotions", cnt.demotions);
    statGroup.addCounter("block_moves", cnt.blockMoves);
    statGroup.addCounter("dgroup_accesses", cnt.dgroupAccesses);
}

std::uint32_t
CoupledNucaCache::groupOfWay(std::uint32_t way) const
{
    return way / waysPerGroup;
}

void
CoupledNucaCache::touch(std::uint32_t set, std::uint32_t way)
{
    ranks.touch(set, way);
}

std::uint32_t
CoupledNucaCache::lruWayInGroup(std::uint32_t set,
                                std::uint32_t group) const
{
    // Lowest invalid way of the group wins outright (the historical
    // scan returned the first invalid way in index order).
    const std::uint32_t first = group * waysPerGroup;
    const std::uint64_t group_bits =
        (std::uint64_t{1} << waysPerGroup) - 1;
    const std::uint64_t group_invalid =
        (~validBits[set] >> first) & group_bits;
    if (group_invalid) {
        return first +
            static_cast<std::uint32_t>(std::countr_zero(group_invalid));
    }
    return ranks.lruWayMasked(set, group_bits << first);
}

LowerMemory::Result
CoupledNucaCache::access(Addr addr, AccessType type, Cycle now)
{
    const Addr block = blockAlign(addr, p.block_bytes);
    const bool is_writeback = type == AccessType::Writeback;
    const bool is_write = type == AccessType::Write || is_writeback;

    if (is_writeback)
        ++cnt.writebackAccesses;
    else
        ++cnt.demandAccesses;

    // Demand accesses contend for the single port; L1 writebacks drain
    // from a writeback buffer through idle slots.
    Cycle start = now;
    if (p.single_port && !is_writeback)
        start = std::max(now, portFree);
    Cycles busy = 0;

    cacheEnergy.chargeTag(times.tag_read_nj);

    const std::uint32_t set = static_cast<std::uint32_t>(
        (block >> blockShift) & (sets - 1));
    const Addr tag = block >> tagShift;
    const std::size_t row = rowBase(set);

    // Tag probe across all ways (first valid match wins).
    const std::uint64_t match =
        probeMatch(&tagPlane[row], wayStride, tag) & validBits[set];
    const std::uint32_t hit_way = match
        ? static_cast<std::uint32_t>(std::countr_zero(match))
        : p.assoc;

    Result result;
    if (hit_way < p.assoc) {
        const std::uint32_t g = groupOfWay(hit_way);
        ++cnt.dgroupAccesses;
        if (!is_writeback) {
            ++cnt.hits;
            regionHist.sample(g);
        }
        touch(set, hit_way);
        if (is_write)
            dirtyBits[set] |= std::uint64_t{1} << hit_way;
        cacheEnergy.chargeData(g, is_write ? times.dgroups[g].data_write_nj
                                           : times.dgroups[g].data_read_nj);
        busy = times.port_cycle;

        // Promotion is a swap *within the set*: the coupled layout can
        // only exchange our block with a way of the faster d-group.
        // (L1 writebacks update in place.)
        if (g > 0 && !is_writeback &&
            p.promotion != PromotionPolicy::DemotionOnly) {
            const std::uint32_t tgt_group =
                p.promotion == PromotionPolicy::NextFastest ? g - 1 : 0;
            const std::uint32_t victim = lruWayInGroup(set, tgt_group);
            if (obsSink) [[unlikely]] {
                if ((validBits[set] >> victim) & 1)
                    obsSink->swap(now, block, g, tgt_group);
                else
                    obsSink->promotion(now, block, g, tgt_group);
            }
            std::swap(tagPlane[row | hit_way], tagPlane[row | victim]);
            swapBits(validBits[set], hit_way, victim);
            swapBits(dirtyBits[set], hit_way, victim);
            ranks.swapWays(set, hit_way, victim);
            ++cnt.promotions;
            ++cnt.demotions;
            cnt.blockMoves += 2;
            cnt.dgroupAccesses += 4;
            busy += times.swapBusy(g, tgt_group);
            cacheEnergy.chargeSwap(2.0 * times.swapEnergy(g, tgt_group));
        }

        result.hit = true;
        result.latency = is_writeback
            ? 0
            : static_cast<Cycles>(start - now) +
                times.dgroups[g].total_latency;
        if (obsSink) [[unlikely]] {
            if (is_writeback)
                obsSink->writeback(now, block);
            else
                obsSink->hit(now, block, g, result.latency);
        }
    } else {
        if (!is_writeback)
            ++cnt.misses;
        if (obsSink && is_writeback) [[unlikely]]
            obsSink->writeback(now, block);

        // Data replacement: evict the set-LRU block, freeing its way.
        std::uint32_t victim;
        const std::uint64_t invalid = ~validBits[set] & waysMask;
        if (invalid) {
            victim = static_cast<std::uint32_t>(
                std::countr_zero(invalid));
        } else {
            victim = ranks.lruWay(set);
        }
        if ((validBits[set] >> victim) & 1) {
            ++cnt.evictions;
            ++cnt.dgroupAccesses;
            cacheEnergy.chargeData(
                groupOfWay(victim),
                times.dgroups[groupOfWay(victim)].data_read_nj);
            const bool victim_dirty = (dirtyBits[set] >> victim) & 1;
            recordEviction(result,
                           (tagPlane[row | victim] * sets + set) *
                               p.block_bytes,
                           victim_dirty, now);
            if (victim_dirty)
                mem.write(p.block_bytes);
            validBits[set] &= ~(std::uint64_t{1} << victim);
        }

        // Initial placement in the fastest d-group: bubble existing
        // blocks outward, group by group, until the freed way absorbs
        // one (same mechanics as D-NUCA's bubble replacement).
        const std::uint32_t free_group = groupOfWay(victim);
        std::uint32_t hole = victim;
        for (std::uint32_t g = free_group; g-- > 0;) {
            const std::uint32_t w = lruWayInGroup(set, g);
            if (!((validBits[set] >> w) & 1)) {
                // A free way closer in: restart the bubble from here.
                hole = w;
                continue;
            }
            // Demote g's LRU occupant one d-group outward into the hole.
            if (obsSink) [[unlikely]] {
                obsSink->demotion(
                    now,
                    (tagPlane[row | w] * sets + set) * p.block_bytes,
                    g, groupOfWay(hole));
            }
            tagPlane[row | hole] = tagPlane[row | w];
            validBits[set] |= std::uint64_t{1} << hole;
            dirtyBits[set] = (dirtyBits[set] &
                              ~(std::uint64_t{1} << hole)) |
                (((dirtyBits[set] >> w) & 1) << hole);
            // The stamp plane copied w's stamp into the hole; a rank
            // *swap* is decision-identical (w is invalidated on the
            // next line and invalid ranks are never consulted) and
            // keeps the ranks a permutation.
            ranks.swapWays(set, hole, w);
            validBits[set] &= ~(std::uint64_t{1} << w);
            ++cnt.demotions;
            ++cnt.blockMoves;
            cnt.dgroupAccesses += 2;
            busy += times.swapBusy(g, groupOfWay(hole));
            cacheEnergy.chargeSwap(times.swapEnergy(g, groupOfWay(hole)));
            hole = w;
        }

        tagPlane[row | hole] = tag;
        validBits[set] |= std::uint64_t{1} << hole;
        if (is_write)
            dirtyBits[set] |= std::uint64_t{1} << hole;
        else
            dirtyBits[set] &= ~(std::uint64_t{1} << hole);
        touch(set, hole);
        ++cnt.dgroupAccesses;
        cacheEnergy.chargeTagData(times.tag_write_nj, 0,
                                  times.dgroups[0].data_write_nj);
        busy += times.port_cycle;

        const Cycles mem_lat = mem.read(p.block_bytes);
        result.hit = false;
        result.latency = is_writeback
            ? 0
            : static_cast<Cycles>(start - now) + times.tag_latency +
                mem_lat;
        if (obsSink && !is_writeback) [[unlikely]]
            obsSink->miss(now, block, result.latency);
    }

    if (p.single_port && !is_writeback) {
        NURAPID_AUDIT_POINT(auditTick, audit(audit::hookSink()));
        portFree = start + busy;
    }
    return result;
}

EnergyNJ
CoupledNucaCache::dynamicEnergyNJ() const
{
    return cacheEnergy.total_nj + mem.dynamicEnergyNJ();
}

void
CoupledNucaCache::regionOccupancy(std::vector<std::uint64_t> &out) const
{
    out.assign(p.num_dgroups, 0);
    for (std::uint32_t s = 0; s < sets; ++s) {
        std::uint64_t vb = validBits[s];
        while (vb) {
            const std::uint32_t w = static_cast<std::uint32_t>(
                std::countr_zero(vb));
            vb &= vb - 1;
            ++out[groupOfWay(w)];
        }
    }
}

void
CoupledNucaCache::forEachResident(const ResidentFn &fn) const
{
    for (std::uint32_t s = 0; s < sets; ++s) {
        const std::size_t row = rowBase(s);
        std::uint64_t vb = validBits[s];
        while (vb) {
            const std::uint32_t w = static_cast<std::uint32_t>(
                std::countr_zero(vb));
            vb &= vb - 1;
            fn((tagPlane[row | w] * sets + s) * p.block_bytes,
               (dirtyBits[s] >> w) & 1);
        }
    }
}

bool
CoupledNucaCache::audit(AuditSink &sink) const
{
    bool clean = true;
    for (std::uint32_t s = 0; s < sets; ++s) {
        const std::size_t row = rowBase(s);
        const std::uint64_t vb = validBits[s];
        for (std::uint32_t w = 0; w < p.assoc; ++w) {
            if (!((vb >> w) & 1))
                continue;
            for (std::uint32_t w2 = w + 1; w2 < p.assoc; ++w2) {
                if (((vb >> w2) & 1) &&
                    tagPlane[row | w2] == tagPlane[row | w]) {
                    clean = false;
                    sink.violation({p.name, "duplicate-tag",
                                    strprintf("tag %#llx also in way %u",
                                              static_cast<
                                                  unsigned long long>(
                                                  tagPlane[row | w]), w2),
                                    s, w, groupOfWay(w),
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
CoupledNucaCache::hotStateBytes() const
{
    return (tagPlane.size() + validBits.size() + dirtyBits.size()) *
               sizeof(std::uint64_t) +
           ranks.bytes();
}

void
CoupledNucaCache::resetStats()
{
    statGroup.resetAll();
    mem.resetStats();
    regionHist.reset();
    cacheEnergy.reset();
}

} // namespace nurapid
