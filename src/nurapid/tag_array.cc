#include "nurapid/tag_array.hh"

#include "common/logging.hh"

namespace nurapid {

namespace {

/** @p capacity_bytes, once its block count is known to fit a forward
 *  pointer's frame field; checked before TagStore allocates. */
std::uint64_t
checkedCapacity(std::uint64_t capacity_bytes, std::uint32_t block_bytes)
{
    fatal_if(block_bytes != 0 &&
                 capacity_bytes / block_bytes > TagArray::kMaxFrames,
             "NuRAPID tag array: %llu blocks exceed the forward "
             "pointer's %u-frame field",
             static_cast<unsigned long long>(capacity_bytes / block_bytes),
             TagArray::kMaxFrames);
    return capacity_bytes;
}

} // namespace

TagArray::TagArray(std::uint64_t capacity_bytes, std::uint32_t assoc,
                   std::uint32_t block_bytes)
    : TagStore("NuRAPID tag array:",
               checkedCapacity(capacity_bytes, block_bytes), assoc,
               block_bytes),
      forwardPlane(slots(), 0)
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
    panic_if(e.frame >= kMaxFrames, "forward frame %u does not fit",
             e.frame);
    fillEntry(set, way, e.tag, e.dirty, e.group, e.frame);
    if (!e.valid)
        invalidate(set, way);
}

} // namespace nurapid
