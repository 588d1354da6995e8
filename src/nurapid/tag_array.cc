#include "nurapid/tag_array.hh"

#include "common/logging.hh"

namespace nurapid {

TagArray::TagArray(std::uint64_t capacity_bytes, std::uint32_t assoc,
                   std::uint32_t block_bytes)
    : TagStore("NuRAPID tag array:", capacity_bytes, assoc, block_bytes),
      groupPlane(slots(), 0), framePlane(slots(), 0)
{
}

TagArray::Entry
TagArray::entry(std::uint32_t set, std::uint32_t way) const
{
    panic_if(set >= numSets() || way >= assoc(),
             "tag entry (%u, %u) out of range", set, way);
    Entry e;
    e.tag = tagAt(set, way);
    e.valid = isValid(set, way);
    e.dirty = isDirty(set, way);
    e.group = groupOf(set, way);
    e.frame = frameOf(set, way);
    return e;
}

void
TagArray::setEntry(std::uint32_t set, std::uint32_t way, const Entry &e)
{
    panic_if(set >= numSets() || way >= assoc(),
             "tag entry (%u, %u) out of range", set, way);
    fillEntry(set, way, e.tag, e.dirty, e.group, e.frame);
    if (!e.valid)
        invalidate(set, way);
}

} // namespace nurapid
