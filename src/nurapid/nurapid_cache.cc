#include "nurapid/nurapid_cache.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace nurapid {

namespace {

/** Regions per d-group under @p p's frame restriction; fatal()s unless
 *  the restriction divides the d-group's frames. Runs in the member
 *  initializer so a bad restriction is named before DataArray checks
 *  the region count it implies. */
std::uint32_t
regionsPerGroup(const NuRapidCache::Params &p)
{
    const std::uint64_t frames =
        p.capacity_bytes / p.num_dgroups / p.block_bytes;
    if (p.frame_restriction == 0)
        return 1;
    fatal_if(frames % p.frame_restriction != 0,
             "frame restriction %u does not divide the d-group frame "
             "count (%llu)", p.frame_restriction,
             static_cast<unsigned long long>(frames));
    return static_cast<std::uint32_t>(frames / p.frame_restriction);
}

} // namespace

NuRapidCache::NuRapidCache(const SramMacroModel &model, const Params &params)
    : Organization(params.name, params.num_dgroups, params.memory),
      p(params),
      times(makeNuRapidTiming(model, p.capacity_bytes, p.num_dgroups,
                              p.assoc, p.block_bytes)),
      tagArray(p.capacity_bytes, p.assoc, p.block_bytes),
      dataArray(p.num_dgroups,
                static_cast<std::uint32_t>(
                    p.capacity_bytes / p.num_dgroups / p.block_bytes),
                regionsPerGroup(p), p.distance_repl, p.seed)
{
    statGroup.addCounter("demand_accesses", cnt.demandAccesses);
    statGroup.addCounter("writeback_accesses", cnt.writebackAccesses);
    statGroup.addCounter("hits", cnt.hits);
    statGroup.addCounter("misses", cnt.misses);
    statGroup.addCounter("evictions", cnt.evictions);
    statGroup.addCounter("dirty_evictions", cnt.dirtyEvictions);
    statGroup.addCounter("promotions", cnt.promotions);
    statGroup.addCounter("demotions", cnt.demotions);
    statGroup.addCounter("block_moves", cnt.blockMoves);
    statGroup.addCounter("dgroup_accesses", cnt.dgroupAccesses);
    statGroup.addCounter("tag_probes", cnt.tagProbes);
    statGroup.addCounter("restriction_evictions",
                         cnt.restrictionEvictions);
    statGroup.addCounter("port_wait_cycles", cnt.portWaitCycles);
}

void
NuRapidCache::moveBlock(std::uint32_t group, std::uint32_t frame,
                        std::uint32_t dest_group, std::uint32_t dest_frame)
{
    const DataArray::Frame src = dataArray.frame(group, frame);
    panic_if(!src.valid, "moving an invalid frame");
    const std::uint32_t set = src.set;
    const std::uint32_t way = src.way;

    dataArray.remove(group, frame);
    dataArray.place(dest_group, dest_frame, set, way);

    panic_if(!tagArray.isValid(set, way) ||
                 tagArray.groupOf(set, way) != group ||
                 tagArray.frameOf(set, way) != frame,
             "forward/reverse pointer mismatch during move");
    tagArray.setForward(set, way, static_cast<std::uint8_t>(dest_group),
                        dest_frame);

    ++cnt.blockMoves;
    cnt.dgroupAccesses += 2;  // read at source + write at destination
}

std::uint32_t
NuRapidCache::ensureFree(std::uint32_t group, std::uint32_t region,
                         Cycles &busy, Result &result, Cycle now)
{
    if (dataArray.hasFree(group, region))
        return dataArray.allocFrame(group, region);

    if (group + 1 == p.num_dgroups) {
        // No slower d-group to demote into. With unrestricted pointers
        // this is unreachable (a data-replacement eviction always frees
        // a frame before placement); with Section 2.4.3's restriction a
        // region can fill up, and the victim must leave the cache.
        panic_if(p.frame_restriction == 0,
                 "slowest d-group full despite unrestricted placement");
        const std::uint32_t f = dataArray.victimFrame(group, region);
        const DataArray::Frame fr = dataArray.frame(group, f);
        const bool victim_dirty = tagArray.isDirty(fr.set, fr.way);
        recordEviction(result, tagArray.blockAddr(fr.set, fr.way),
                       victim_dirty, now);
        if (victim_dirty)
            mem.write(p.block_bytes);
        tagArray.invalidate(fr.set, fr.way);
        dataArray.remove(group, f);
        ++cnt.restrictionEvictions;
        ++cnt.evictions;
        return dataArray.allocFrame(group, region);
    }

    const std::uint32_t victim = dataArray.victimFrame(group, region);
    Addr victim_addr = 0;
    if (obsSink) [[unlikely]] {
        const DataArray::Frame vf = dataArray.frame(group, victim);
        victim_addr = tagArray.blockAddr(vf.set, vf.way);
    }
    const std::uint32_t dest =
        ensureFree(group + 1, region, busy, result, now);
    moveBlock(group, victim, group + 1, dest);
    if (obsSink) [[unlikely]]
        obsSink->demotion(now, victim_addr, group, group + 1);
    ++cnt.demotions;
    busy += times.swapBusy(group, group + 1);
    cacheEnergy.chargeSwap(times.swapEnergy(group, group + 1));
    return dataArray.allocFrame(group, region);
}

void
NuRapidCache::promote(std::uint32_t set, std::uint32_t way, Cycles &busy,
                      Cycle now)
{
    const std::uint32_t g = tagArray.groupOf(set, way);
    if (g == 0 || p.promotion == PromotionPolicy::DemotionOnly)
        return;

    const std::uint32_t target =
        p.promotion == PromotionPolicy::NextFastest ? g - 1 : 0;
    const std::uint32_t region = dataArray.regionOf(
        tagArray.blockIndex(tagArray.blockAddr(set, way)));

    ++cnt.promotions;

    if (dataArray.hasFree(target, region)) {
        // Pure promotion into a free frame: one block move.
        const std::uint32_t dest = dataArray.allocFrame(target, region);
        moveBlock(g, tagArray.frameOf(set, way), target, dest);
        if (obsSink) [[unlikely]] {
            obsSink->promotion(now, tagArray.blockAddr(set, way), g,
                               target);
        }
        busy += times.swapBusy(g, target);
        cacheEnergy.chargeSwap(times.swapEnergy(g, target));
        return;
    }

    // Swap with a distance-replacement victim of the target d-group
    // (which may belong to any set): the victim demotes into the frame
    // our block vacates.
    const std::uint32_t victim = dataArray.victimFrame(target, region);
    const std::uint32_t our_frame = tagArray.frameOf(set, way);

    const DataArray::Frame vf = dataArray.frame(target, victim);
    panic_if(!tagArray.isValid(vf.set, vf.way) ||
                 tagArray.groupOf(vf.set, vf.way) != target ||
                 tagArray.frameOf(vf.set, vf.way) != victim,
             "victim pointer mismatch during promotion swap");

    dataArray.swapFrames(g, our_frame, target, victim);
    tagArray.setForward(set, way, static_cast<std::uint8_t>(target),
                        victim);
    tagArray.setForward(vf.set, vf.way, static_cast<std::uint8_t>(g),
                        our_frame);

    if (obsSink) [[unlikely]] {
        // One Swap event covers the atomic pair: the hit block moved
        // g -> target, the distance victim target -> g.
        obsSink->swap(now, tagArray.blockAddr(set, way), g, target);
    }

    ++cnt.demotions;
    cnt.blockMoves += 2;
    cnt.dgroupAccesses += 4;  // read + write at both d-groups
    busy += times.swapBusy(g, target);
    cacheEnergy.chargeSwap(2.0 * times.swapEnergy(g, target));
}

LowerMemory::Result
NuRapidCache::access(Addr addr, AccessType type, Cycle now)
{
    const Addr block = blockAlign(addr, p.block_bytes);
    const bool is_writeback = type == AccessType::Writeback;
    const bool is_write = type == AccessType::Write || is_writeback;

    if (is_writeback)
        ++cnt.writebackAccesses;
    else
        ++cnt.demandAccesses;

    // Single-port serialization: a new demand access waits for
    // outstanding swap/fill work (Section 2.3). L1 writebacks sit in a
    // writeback buffer and drain through idle port slots, so they
    // neither wait nor block demand traffic.
    Cycle start = now;
    if (p.single_port && !p.ideal_fastest && !is_writeback) {
        start = std::max(now, portFree);
        cnt.portWaitCycles += start - now;
    }
    Cycles busy = 0;  // port occupancy accrued by this access

    ++cnt.tagProbes;
    cacheEnergy.chargeTag(times.tag_read_nj);

    const TagArray::Lookup look = tagArray.lookup(block);
    Result result;

    if (look.hit) {
        const std::uint32_t g = tagArray.groupOf(look.set, look.way);
        ++cnt.dgroupAccesses;
        if (!is_writeback) {
            ++cnt.hits;
            regionHist.sample(g);
        }

        tagArray.touch(look.set, look.way);
        dataArray.touch(g, tagArray.frameOf(look.set, look.way));
        if (is_write)
            tagArray.setDirty(look.set, look.way, true);

        cacheEnergy.chargeData(g, is_write ? times.dgroups[g].data_write_nj
                                           : times.dgroups[g].data_read_nj);

        const Cycles lat = p.ideal_fastest
            ? times.dgroups[0].total_latency
            : times.dgroups[g].total_latency;
        busy = times.port_cycle;

        // L1 writebacks update in place without migrating the block.
        if (!p.ideal_fastest && !is_writeback)
            promote(look.set, look.way, busy, now);

        result.hit = true;
        result.latency = is_writeback
            ? 0
            : static_cast<Cycles>(start - now) + lat;
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

        // Data replacement: evict the set-LRU block from the cache,
        // freeing its data frame (Section 2.2, step 2).
        const std::uint32_t way = tagArray.victimWay(look.set);
        if (tagArray.isValid(look.set, way)) {
            ++cnt.evictions;
            const bool victim_dirty = tagArray.isDirty(look.set, way);
            recordEviction(result, tagArray.blockAddr(look.set, way),
                           victim_dirty, now);
            if (victim_dirty) {
                ++cnt.dirtyEvictions;
                mem.write(p.block_bytes);
            }
            const std::uint32_t vg = tagArray.groupOf(look.set, way);
            dataArray.remove(vg, tagArray.frameOf(look.set, way));
            ++cnt.dgroupAccesses;  // victim read-out
            cacheEnergy.chargeData(vg, times.dgroups[vg].data_read_nj);
        }

        // Distance placement: the new block always enters the fastest
        // d-group (Section 2.1), demoting as needed.
        const std::uint32_t region =
            dataArray.regionOf(tagArray.blockIndex(block));
        const std::uint32_t f0 = ensureFree(0, region, busy, result, now);

        tagArray.fillEntry(look.set, way, tagArray.tagOf(block),
                           is_write, 0, f0);
        dataArray.place(0, f0, look.set, way);
        tagArray.touch(look.set, way);

        cacheEnergy.chargeTagData(times.tag_write_nj, 0,
                                  times.dgroups[0].data_write_nj);
        ++cnt.dgroupAccesses;  // fill write
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

    if (p.single_port && !p.ideal_fastest && !is_writeback) {
        // Single-port serialization (Section 2.3): this access's work
        // must begin no earlier than the previous holder released the
        // port, and must occupy it for at least one port cycle.
        NURAPID_AUDIT_POINT(auditTick, {
            if (start < portFree) {
                audit::hookSink().violation(
                    {p.name, "port-double-booked",
                     strprintf("access started at %llu before port free "
                               "at %llu",
                               static_cast<unsigned long long>(start),
                               static_cast<unsigned long long>(portFree)),
                     AuditViolation::kNoIndex, AuditViolation::kNoIndex,
                     AuditViolation::kNoIndex, AuditViolation::kNoIndex});
            }
            if (busy < times.port_cycle) {
                audit::hookSink().violation(
                    {p.name, "port-occupancy-lost",
                     strprintf("access occupied the port for %llu < one "
                               "port cycle (%llu)",
                               static_cast<unsigned long long>(busy),
                               static_cast<unsigned long long>(
                                   times.port_cycle)),
                     AuditViolation::kNoIndex, AuditViolation::kNoIndex,
                     AuditViolation::kNoIndex, AuditViolation::kNoIndex});
            }
            audit(audit::hookSink());
        });
        portFree = start + busy;
    }

    return result;
}

void
NuRapidCache::regionOccupancy(std::vector<std::uint64_t> &out) const
{
    out.assign(p.num_dgroups, 0);
    for (std::uint32_t g = 0; g < dataArray.numGroups(); ++g) {
        for (std::uint32_t f = 0; f < dataArray.framesPerGroup(); ++f)
            out[g] += dataArray.frame(g, f).valid;
    }
}

void
NuRapidCache::forEachResident(const ResidentFn &fn) const
{
    tagArray.forEachResident(fn);
}

bool
NuRapidCache::audit(AuditSink &sink) const
{
    bool clean = tagArray.audit(sink);
    if (!dataArray.audit(sink))
        clean = false;

    // Counts: the tag and data sides must hold the same block count.
    if (tagArray.validCount() != dataArray.validCount()) {
        clean = false;
        sink.violation({p.name, "count-mismatch",
                        strprintf("%llu valid tags vs %llu valid frames",
                                  static_cast<unsigned long long>(
                                      tagArray.validCount()),
                                  static_cast<unsigned long long>(
                                      dataArray.validCount())),
                        AuditViolation::kNoIndex, AuditViolation::kNoIndex,
                        AuditViolation::kNoIndex,
                        AuditViolation::kNoIndex});
    }

    // Forward direction: every valid tag entry's (group, frame) pointer
    // must land on a valid frame whose reverse pointer names it, in the
    // region its address hashes to (Section 2.4.3).
    for (std::uint32_t s = 0; s < tagArray.numSets(); ++s) {
        for (std::uint32_t w = 0; w < tagArray.assoc(); ++w) {
            const TagArray::Entry &e = tagArray.entry(s, w);
            if (!e.valid)
                continue;
            if (e.group >= dataArray.numGroups() ||
                e.frame >= dataArray.framesPerGroup()) {
                clean = false;
                sink.violation({p.name, "forward-pointer-range",
                                strprintf("points at (%u, %u), array is "
                                          "%u x %u", e.group, e.frame,
                                          dataArray.numGroups(),
                                          dataArray.framesPerGroup()),
                                s, w, e.group, e.frame});
                continue;
            }
            const DataArray::Frame &f = dataArray.frame(e.group, e.frame);
            if (!f.valid || f.set != s || f.way != w) {
                clean = false;
                sink.violation({p.name, "forward-reverse-mismatch",
                                f.valid
                                    ? strprintf("frame points back at "
                                                "(%u, %u)", f.set,
                                                unsigned{f.way})
                                    : std::string("frame is invalid"),
                                s, w, e.group, e.frame});
            }
            if (p.frame_restriction != 0) {
                const Addr bi =
                    tagArray.blockIndex(tagArray.blockAddr(s, w));
                if (dataArray.regionOfFrame(e.frame) !=
                        dataArray.regionOf(bi)) {
                    clean = false;
                    sink.violation({p.name, "region-restriction",
                                    strprintf("block of region %u placed "
                                              "in region %u",
                                              dataArray.regionOf(bi),
                                              dataArray.regionOfFrame(
                                                  e.frame)),
                                    s, w, e.group, e.frame});
                }
            }
        }
    }

    // Reverse direction: every valid frame's (set, way) pointer must
    // name a valid tag entry whose forward pointer names this frame.
    for (std::uint32_t g = 0; g < dataArray.numGroups(); ++g) {
        for (std::uint32_t f = 0; f < dataArray.framesPerGroup(); ++f) {
            const DataArray::Frame &fr = dataArray.frame(g, f);
            if (!fr.valid)
                continue;
            if (fr.set >= tagArray.numSets() ||
                fr.way >= tagArray.assoc()) {
                clean = false;
                sink.violation({p.name, "reverse-pointer-range",
                                strprintf("points at (%u, %u), tag array "
                                          "is %u x %u", fr.set,
                                          unsigned{fr.way},
                                          tagArray.numSets(),
                                          tagArray.assoc()),
                                AuditViolation::kNoIndex,
                                AuditViolation::kNoIndex, g, f});
                continue;
            }
            const TagArray::Entry &e = tagArray.entry(fr.set, fr.way);
            if (!e.valid || e.group != g || e.frame != f) {
                clean = false;
                sink.violation({p.name, "reverse-forward-mismatch",
                                e.valid
                                    ? strprintf("entry points at "
                                                "(%u, %u)",
                                                unsigned{e.group},
                                                e.frame)
                                    : std::string("entry is invalid"),
                                fr.set, fr.way, g, f});
            }
        }
    }

    return clean;
}

bool
NuRapidCache::checkInvariants() const
{
    CountingAuditSink sink;
    return audit(sink);
}

std::uint32_t
NuRapidCache::blocksOfSetInGroup(std::uint32_t set,
                                 std::uint32_t group) const
{
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < tagArray.assoc(); ++w) {
        const TagArray::Entry &e = tagArray.entry(set, w);
        if (e.valid && e.group == group)
            ++n;
    }
    return n;
}

} // namespace nurapid
