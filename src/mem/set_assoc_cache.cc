#include "mem/set_assoc_cache.hh"

namespace nurapid {

std::uint32_t
CacheOrg::numSets() const
{
    return static_cast<std::uint32_t>(
        capacity_bytes / (std::uint64_t{assoc} * block_bytes));
}

std::uint32_t
CacheOrg::numBlocks() const
{
    return static_cast<std::uint32_t>(capacity_bytes / block_bytes);
}

void
fingerprintCacheOrg(Fingerprint &fp, const char *tag, const CacheOrg &org)
{
    fp.field(tag, org.name);
    fp.field("capacity", org.capacity_bytes);
    fp.field("assoc", org.assoc);
    fp.field("block", org.block_bytes);
}

SetAssocCache::SetAssocCache(const CacheOrg &org)
    : organization(org),
      tags(org.name + ":", org.capacity_bytes, org.assoc, org.block_bytes),
      statGroup(org.name)
{
    statGroup.addCounter("hits", cnt.hits);
    statGroup.addCounter("misses", cnt.misses);
    statGroup.addCounter("evictions", cnt.evictions);
    statGroup.addCounter("writebacks", cnt.writebacks);
}

SetAssocCache::Access
SetAssocCache::accessMiss(std::uint32_t set, Addr tag, bool is_write)
{
    ++cnt.misses;

    Access result;
    const std::uint32_t victim_way = tags.victimWay(set);
    if (tags.isValid(set, victim_way)) {
        ++cnt.evictions;
        result.evicted = true;
        result.evicted_addr = tags.blockAddr(set, victim_way);
        result.evicted_dirty = tags.isDirty(set, victim_way);
        if (result.evicted_dirty)
            ++cnt.writebacks;
    }

    tags.fill(set, victim_way, tag, is_write);
    tags.touch(set, victim_way);

    result.way = victim_way;
    return result;
}

bool
SetAssocCache::contains(Addr addr) const
{
    return tags.lookup(addr).hit;
}

bool
SetAssocCache::markDirty(Addr addr)
{
    const TagStore::Lookup look = tags.lookup(addr);
    if (look.hit)
        tags.setDirty(look.set, look.way, true);
    return look.hit;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    const TagStore::Lookup look = tags.lookup(addr);
    if (!look.hit)
        return false;
    const bool was_dirty = tags.isDirty(look.set, look.way);
    tags.invalidate(look.set, look.way);
    return was_dirty;
}

double
SetAssocCache::missRatio() const
{
    const double total =
        static_cast<double>(cnt.hits.value() + cnt.misses.value());
    return total > 0 ? cnt.misses.value() / total : 0.0;
}

} // namespace nurapid
