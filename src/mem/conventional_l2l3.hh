/**
 * @file
 * The paper's base case: a conventional on-chip two-level lower
 * hierarchy (1 MB L2 @ 11 cycles + 8 MB L3 @ 43 cycles, Table 1), both
 * uniform-access with sequential tag-data probes.
 */

#ifndef NURAPID_MEM_CONVENTIONAL_L2L3_HH
#define NURAPID_MEM_CONVENTIONAL_L2L3_HH

#include <memory>
#include <string>

#include "mem/organization.hh"
#include "mem/set_assoc_cache.hh"
#include "timing/latency_tables.hh"

namespace nurapid {

class ConventionalL2L3 final : public Organization
{
  public:
    struct Params
    {
        CacheOrg l2{"base.l2", 1ull << 20, 8, 128};
        CacheOrg l3{"base.l3", 8ull << 20, 8, 128};
        Cycles l2_latency = 11;   //!< Table 1 input
        Cycles l3_latency = 43;   //!< Table 1 input
        MainMemory::Params memory{};
    };

    explicit ConventionalL2L3(const SramMacroModel &model)
        : ConventionalL2L3(model, Params{}) {}
    ConventionalL2L3(const SramMacroModel &model, const Params &params);

    Result access(Addr addr, AccessType type, Cycle now) override;

    /** Also resets the L2's and L3's own stat groups. */
    void resetStats() override;

    /** Reports each on-chip block once per level it resides in. */
    void forEachResident(const ResidentFn &fn) const override
    {
        l2Cache.forEachValid(fn);
        l3Cache.forEachValid(fn);
    }

    /** Regions (here and in regionHits()): 0 = L2, 1 = L3. */
    void regionOccupancy(std::vector<std::uint64_t> &out) const override
    {
        out.assign({l2Cache.validCount(), l3Cache.validCount()});
    }

    bool audit(AuditSink &sink) const override
    {
        const bool l2_ok = l2Cache.audit(sink);
        const bool l3_ok = l3Cache.audit(sink);
        return l2_ok && l3_ok;
    }

    SetAssocCache &l2() { return l2Cache; }
    SetAssocCache &l3() { return l3Cache; }

    /** L2 + L3 plane footprint. */
    std::size_t
    hotStateBytes() const override
    {
        return l2Cache.hotBytes() + l3Cache.hotBytes();
    }

  private:
    Params p;
    SetAssocCache l2Cache;
    SetAssocCache l3Cache;
    UniformCacheTiming l2Timing;
    UniformCacheTiming l3Timing;

    Counter statAccesses;
    Counter statL2Hits;
    Counter statL3Hits;
    Counter statMemFills;
};

} // namespace nurapid

#endif // NURAPID_MEM_CONVENTIONAL_L2L3_HH
