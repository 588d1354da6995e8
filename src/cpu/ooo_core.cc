#include "cpu/ooo_core.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace nurapid {

OooCore::OooCore(const CoreParams &params, SetAssocCache &l1i_cache,
                 SetAssocCache &l1d_cache, LowerMemory &lower_mem)
    : p(params), l1i(l1i_cache), l1d(l1d_cache), lower(lower_mem),
      mshrs(p.mshrs, p.mshr_block_bytes), statGroup("core")
{
    fatal_if(p.issue_width == 0 || p.ruu_entries == 0, "degenerate core");
    dispatchCpi = std::max(1.0 / p.issue_width, p.dispatch_cpi);
    inertClock = InertClock(dispatchCpi, p.mispredict_penalty);
    // Structural bounds: at most one pending load per RUU slot plus
    // the one being dispatched; the store ring is popped back below
    // lsq_entries on every push, so lsq_entries + 1 is its peak.
    pendingLoads.init(p.ruu_entries + 2);
    pendingStores.init(p.lsq_entries + 2);
    statGroup.addCounter("l1d_accesses", statL1DAccesses);
    statGroup.addCounter("l1i_accesses", statL1IAccesses);
    statGroup.addCounter("l1d_misses", statL1DMisses);
    statGroup.addCounter("l1i_misses", statL1IMisses);
    statGroup.addCounter("l2_demand", statL2Demand);
    statGroup.addCounter("l2_demand_hits", statL2DemandHits);
    statGroup.addCounter("rob_stalls", statRobStalls);
    statGroup.addCounter("lsq_stalls", statLsqStalls);
    statGroup.addCounter("dep_stalls", statDepStalls);
    statGroup.addCounter("critical_stalls", statCriticalStalls);
}

void
OooCore::run(TraceSource &trace, std::uint64_t records)
{
    runTyped(lower, trace, records);
}

std::uint64_t
OooCore::cycles() const
{
    // Account for the drain of whatever is still in flight.
    const auto dispatched = static_cast<std::uint64_t>(cycleF);
    const std::uint64_t now = std::max(dispatched, lastCompletion);
    return now > cycleBase ? now - cycleBase : 0;
}

double
OooCore::ipc() const
{
    const std::uint64_t c = cycles();
    return c ? static_cast<double>(insts) / c : 0.0;
}

void
OooCore::resetStats()
{
    statGroup.resetAll();
    bpred.resetStats();
    mshrs.stats().resetAll();
    l1i.stats().resetAll();
    l1d.stats().resetAll();
    // Time stays absolute — the lower hierarchy's port/bank clocks are
    // absolute too, so zeroing the dispatch clock here would make the
    // first measured accesses appear to wait out the whole warmup.
    // Instead, record baselines and keep in-flight state warm.
    const auto dispatched = static_cast<std::uint64_t>(cycleF);
    cycleBase = std::max(dispatched, static_cast<std::uint64_t>(
        lastCompletion));
    instBase = insts;
}

} // namespace nurapid
