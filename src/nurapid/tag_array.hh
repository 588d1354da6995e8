/**
 * @file
 * NuRAPID's centralized set-associative tag array.
 *
 * Tag placement stays conventionally set-associative (an n-way cache
 * holds at most n blocks of a set), but every entry carries a *forward
 * pointer* (d-group, frame) to an arbitrary data frame — the decoupling
 * that enables distance associativity (Section 2.1, Figure 1).
 *
 * The tag, valid, dirty and recency state is the shared TagStore
 * (mem/tag_store.hh) — this class *is* one, plus two forward-pointer
 * planes laid out like its tag plane (byte-wide d-group, 32-bit
 * frame). The inherited mutators leave the forward pointers alone;
 * fillEntry(), setForward() and setEntry() write them. Entries are
 * read and written through by-value Entry views (entry()/setEntry())
 * so the audit hooks and tests keep checking the same facts against
 * the packed planes.
 */

#ifndef NURAPID_NURAPID_TAG_ARRAY_HH
#define NURAPID_NURAPID_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/tag_store.hh"
#include "sim/audit/audit.hh"

namespace nurapid {

class TagArray : public TagStore
{
  public:
    /** By-value view of one tag entry, assembled from the planes. */
    struct Entry
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint8_t group = 0;    //!< forward pointer: d-group
        std::uint32_t frame = 0;   //!< forward pointer: frame in group
    };

    TagArray(std::uint64_t capacity_bytes, std::uint32_t assoc,
             std::uint32_t block_bytes);

    /** Reads entry (set, way) as a value (range-checked). */
    Entry entry(std::uint32_t set, std::uint32_t way) const;

    /** Overwrites every field of entry (set, way) (range-checked); an
     *  invalid entry is stored clean. */
    void setEntry(std::uint32_t set, std::uint32_t way, const Entry &e);

    std::uint8_t
    groupOf(std::uint32_t set, std::uint32_t way) const
    {
        return groupPlane[slot(set, way)];
    }

    std::uint32_t
    frameOf(std::uint32_t set, std::uint32_t way) const
    {
        return framePlane[slot(set, way)];
    }

    /** Redirects the forward pointer of (set, way). */
    void
    setForward(std::uint32_t set, std::uint32_t way,
               std::uint8_t group, std::uint32_t frame)
    {
        groupPlane[slot(set, way)] = group;
        framePlane[slot(set, way)] = frame;
    }

    /** Fills (set, way): tag + forward pointer, valid, dirty as given. */
    void
    fillEntry(std::uint32_t set, std::uint32_t way, Addr tag, bool dirty,
              std::uint8_t group, std::uint32_t frame)
    {
        fill(set, way, tag, dirty);
        setForward(set, way, group, frame);
    }

    /**
     * Audits the tag side (TagStore::audit: no duplicate tag in a set —
     * set-associative placement, Section 2.1 — and exact LRU ranks)
     * under component "tag-array" with (set, way) context. Returns
     * true if clean. Allocation-free.
     */
    bool
    audit(AuditSink &sink) const
    {
        return TagStore::audit(sink, "tag-array", 0);
    }

    /** Bytes of per-reference hot state (tag store + pointer planes). */
    std::size_t
    hotBytes() const
    {
        return TagStore::hotBytes() + groupPlane.size() +
               framePlane.size() * sizeof(std::uint32_t);
    }

  private:
    std::vector<std::uint8_t> groupPlane;   //!< [slot]: forward d-group
    std::vector<std::uint32_t> framePlane;  //!< [slot]: forward frame
};

} // namespace nurapid

#endif // NURAPID_NURAPID_TAG_ARRAY_HH
