#include "nurapid/coupled_nuca.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace nurapid {

CoupledNucaCache::CoupledNucaCache(const SramMacroModel &model,
                                   const Params &params)
    : p(params),
      times(makeNuRapidTiming(model, p.capacity_bytes, p.num_dgroups,
                              p.assoc, p.block_bytes)),
      tags(p.name + ": coupled NUCA", p.capacity_bytes, p.assoc,
           p.block_bytes),
      waysPerGroup(p.assoc / p.num_dgroups),
      mem(p.memory), statGroup(p.name), regionHist(p.num_dgroups)
{
    fatal_if(p.assoc % p.num_dgroups != 0,
             "associativity %u not divisible across %u d-groups",
             p.assoc, p.num_dgroups);

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

    // Tag probe across all ways (first valid match wins).
    const TagStore::Lookup look = tags.lookup(block);
    const std::uint32_t set = look.set;
    const std::uint32_t hit_way = look.hit ? look.way : p.assoc;

    Result result;
    if (hit_way < p.assoc) {
        const std::uint32_t g = groupOfWay(hit_way);
        ++cnt.dgroupAccesses;
        if (!is_writeback) {
            ++cnt.hits;
            regionHist.sample(g);
        }
        tags.touch(set, hit_way);
        if (is_write)
            tags.setDirty(set, hit_way, true);
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
            const std::uint32_t victim =
                tags.victimIn(set, tgt_group * waysPerGroup, waysPerGroup);
            if (obsSink) [[unlikely]] {
                if (tags.isValid(set, victim))
                    obsSink->swap(now, block, g, tgt_group);
                else
                    obsSink->promotion(now, block, g, tgt_group);
            }
            tags.swapWays(set, hit_way, victim);
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
        const std::uint32_t victim = tags.victimWay(set);
        if (tags.isValid(set, victim)) {
            ++cnt.evictions;
            ++cnt.dgroupAccesses;
            cacheEnergy.chargeData(
                groupOfWay(victim),
                times.dgroups[groupOfWay(victim)].data_read_nj);
            const bool victim_dirty = tags.isDirty(set, victim);
            recordEviction(result, tags.blockAddr(set, victim),
                           victim_dirty, now);
            if (victim_dirty)
                mem.write(p.block_bytes);
            tags.invalidate(set, victim);
        }

        // Initial placement in the fastest d-group: bubble existing
        // blocks outward, group by group, until the freed way absorbs
        // one (same mechanics as D-NUCA's bubble replacement). The
        // hole is always an invalid way, so swapping it with a valid
        // way moves that line outward and leaves the hole behind.
        const std::uint32_t free_group = groupOfWay(victim);
        std::uint32_t hole = victim;
        for (std::uint32_t g = free_group; g-- > 0;) {
            const std::uint32_t w =
                tags.victimIn(set, g * waysPerGroup, waysPerGroup);
            if (!tags.isValid(set, w)) {
                // A free way closer in: restart the bubble from here.
                hole = w;
                continue;
            }
            // Demote g's LRU occupant one d-group outward into the hole.
            if (obsSink) [[unlikely]] {
                obsSink->demotion(now, tags.blockAddr(set, w), g,
                                  groupOfWay(hole));
            }
            tags.swapWays(set, hole, w);
            ++cnt.demotions;
            ++cnt.blockMoves;
            cnt.dgroupAccesses += 2;
            busy += times.swapBusy(g, groupOfWay(hole));
            cacheEnergy.chargeSwap(times.swapEnergy(g, groupOfWay(hole)));
            hole = w;
        }

        tags.fill(set, hole, tags.tagOf(block), is_write);
        tags.touch(set, hole);
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
    tags.occupancy(waysPerGroup, out);
}

void
CoupledNucaCache::forEachResident(const ResidentFn &fn) const
{
    tags.forEachResident(fn);
}

bool
CoupledNucaCache::audit(AuditSink &sink) const
{
    return tags.audit(sink, p.name, waysPerGroup);
}

std::size_t
CoupledNucaCache::hotStateBytes() const
{
    return tags.hotBytes();
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
