/**
 * @file
 * Trace-driven out-of-order core timing model (Table 1's machine:
 * 8-wide, 64-entry RUU, 32-entry LSQ, 8 MSHRs, 9-cycle mispredict
 * penalty).
 *
 * The model dispatches the trace at issue-width rate and enforces the
 * classic ROB-occupancy bound on memory-level parallelism: an L1 miss
 * issued at instruction i blocks dispatch at instruction i + RUU until
 * its fill returns, so short L2 hits hide under the window while
 * memory-latency misses stall the core — exactly the sensitivity the
 * paper's L2 experiments need.
 *
 * The per-reference loop is a template over the lower-memory and trace
 * types (runTyped). The System instantiates it per concrete (final)
 * cache organization with a non-virtual packed-trace cursor, so the
 * whole access chain — trace replay, L1 lookup and replacement, the
 * organization's access() — inlines into one loop body with no virtual
 * dispatch. run(TraceSource&) keeps the fully polymorphic path for
 * tools and tests; both instantiate the same body, so they are
 * bit-identical by construction.
 */

#ifndef NURAPID_CPU_OOO_CORE_HH
#define NURAPID_CPU_OOO_CORE_HH

#include <algorithm>
#include <cstdint>

#include "common/fixed_ring.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/inert_clock.hh"
#include "mem/lower_memory.hh"
#include "mem/mshr.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/obs/obs.hh"
#include "trace/distilled_trace.hh"
#include "trace/record.hh"

namespace nurapid {

struct CoreParams
{
    std::uint32_t issue_width = 8;

    /**
     * Effective dispatch cost per instruction in cycles. The floor is
     * 1/issue_width; workloads raise it to their intrinsic (dependency
     * and functional-unit limited) CPI so base IPCs match Table 3.
     */
    double dispatch_cpi = 0.125;
    std::uint32_t ruu_entries = 64;
    std::uint32_t lsq_entries = 32;
    Cycles mispredict_penalty = 9;
    Cycles l1_latency = 3;
    std::uint32_t mshrs = 8;

    /**
     * MSHR tracking granularity. The default matches the L1 block
     * size (32 B), as in the paper's SimpleScalar substrate: misses to
     * different sectors of one 128 B L2 block are separate L2 accesses
     * (this burst traffic is part of what loads D-NUCA's banks).
     * Setting it to the L2 block size models sector-merging MSHRs.
     */
    std::uint32_t mshr_block_bytes = 32;

    /**
     * Cycles of independent work the scheduler finds while a
     * latency-critical load is outstanding. Latency beyond this slack
     * stalls dispatch (the load's consumers are next in line).
     */
    Cycles consumer_slack = 4;
};

class OooCore
{
  public:
    OooCore(const CoreParams &params, SetAssocCache &l1i,
            SetAssocCache &l1d, LowerMemory &lower);

    /** Runs @p records trace records through the machine (polymorphic
     *  trace + lower memory; tools/tests). */
    void run(TraceSource &trace, std::uint64_t records);

    /**
     * Devirtualized equivalent: @p lower_mem must be the same object
     * the core was constructed against, passed as its concrete final
     * type; @p trace is any type with bool next(TraceRecord&). The
     * loop body is shared with run(), so results are bit-identical.
     */
    template <class LowerT, class TraceT>
    void runTyped(LowerT &lower_mem, TraceT &trace,
                  std::uint64_t records);

    /**
     * Replays @p records records of a distilled stream (must have been
     * distilled against this core's L1 organizations and predictor
     * configuration — System keys the stream by them). Only L2-relevant
     * events touch the machine; the L1 tag walk and predictor tables
     * are skipped entirely, with their counter effects added per
     * segment at each cut's final record. The replay may cross cuts
     * but must stop on one, so folded counters are exact there.
     * Bit-identical to runTyped over the same records (asserted by
     * tests/test_distilled_trace.cc); @p cur advances past the segment.
     */
    template <class LowerT>
    void runDistilled(LowerT &lower_mem, DistilledTrace::Cursor &cur,
                      std::uint64_t records);

    const CoreParams &params() const { return p; }

    /** Cycles elapsed since the last resetStats() (incl. drain). */
    std::uint64_t cycles() const;
    std::uint64_t instructions() const { return insts - instBase; }
    double ipc() const;

    BranchPredictor &branchPredictor() { return bpred; }
    MshrFile &mshrFile() { return mshrs; }
    StatGroup &stats() { return statGroup; }

    /** The inert loop's clock stepper (its kernel count, for tests). */
    const InertClock &inertStepper() const { return inertClock; }

    std::uint64_t l1dAccesses() const { return statL1DAccesses.value(); }
    std::uint64_t l1iAccesses() const { return statL1IAccesses.value(); }

    /** Zeroes timing/statistics state but keeps caches warm. */
    void resetStats();

    /**
     * Attaches the event sink (for MSHR-stall events) and the
     * interval recorder (ticked once per retired reference in
     * runTyped; in runDistilled once per event record and once per
     * run of inert records, split at epoch boundaries — so epoch
     * boundaries land on the same record index in both paths). Either
     * may be null.
     *
     * Because epochs end on a retired reference, each epoch snapshot
     * samples the organization's cumulative EnergyBreakdown at a
     * reference boundary — never mid-access — so the per-epoch energy
     * timeline telescopes exactly to the end-of-run accumulators on
     * every replay path (live and distilled).
     */
    void
    attachObservability(EventSink *sink, IntervalRecorder *recorder)
    {
        obsSink = sink;
        obsRec = recorder;
    }

  private:
    struct Pending
    {
        std::uint64_t inst = 0;  //!< instruction index at issue
        Cycle completion = 0;
    };

    /** Retires completed loads; stalls dispatch when the oldest
     *  pending load is a full RUU behind the dispatch point. Inline:
     *  the live loop runs it once per record, usually hitting the
     *  empty/young-front early exit; replayInert only where it acts. */
    void
    enforceWindow()
    {
        auto now = static_cast<Cycle>(cycleF);
        while (!pendingLoads.empty()) {
            const Pending &front = pendingLoads.front();
            if (front.completion <= now) {
                pendingLoads.pop_front();
                continue;
            }
            if (insts - front.inst >= p.ruu_entries) {
                cycleF = std::max(cycleF,
                                  static_cast<double>(front.completion));
                now = static_cast<Cycle>(cycleF);
                pendingLoads.pop_front();
                ++statRobStalls;
                continue;
            }
            break;
        }
    }

    /**
     * The inert loop of runDistilled over gap words [@p g, @p end).
     * inertClock steps the dispatch clock and the instruction count
     * bit-identically to the live loop's two FP additions per record
     * (in integers within a binade; see cpu/inert_clock.hh) and stops
     * at the records where enforceWindow() can act: where the oldest
     * pending load has completed, (Cycle)clock >= completion, or is a
     * full RUU behind, insts >= inst + ruu_entries. Both are hoisted
     * into scalar limits — for an integer C < 2^53, (Cycle)c >= C
     * exactly when c >= (double)C — so enforceWindow() runs only where
     * one trips.
     */
    void
    replayInert(const std::uint8_t *g, const std::uint8_t *end)
    {
        double c = cycleF;
        std::uint64_t n_insts = insts;
        double lim_c = 0;
        std::uint64_t lim_i = 0;
        const auto limits = [&] {
            if (pendingLoads.empty()) {
                lim_c = InertClock::kNoClockLimit;
                lim_i = InertClock::kNoInstLimit;
            } else {
                const Pending &front = pendingLoads.front();
                lim_c = static_cast<double>(front.completion);
                lim_i = front.inst + p.ruu_entries;
            }
        };
        limits();
        while (g != end) {
            g = inertClock.advance(c, n_insts, g, end, lim_c, lim_i);
            if (c >= lim_c || n_insts >= lim_i) [[unlikely]] {
                cycleF = c;
                insts = n_insts;
                enforceWindow();
                c = cycleF;
                limits();
            }
        }
        cycleF = c;
        insts = n_insts;
    }

    /**
     * replayInert with the interval recorder attached: the run is
     * split at each epoch boundary inside it and ticked per piece.
     * Exact, because a snapshot reads only the clock, lastCompletion,
     * the instruction count and the organization's books, and
     * replayInert leaves them where the live loop does at any record.
     */
    void replayInertObserved(const std::uint8_t *g,
                             const std::uint8_t *end);

    template <class LowerT>
    Cycles missLatency(LowerT &lower_mem, Addr addr, AccessType type,
                       Cycle now);

    /** Everything after an L1 miss is detected: miss counters, the L2
     *  access, completion bookkeeping, and the LSQ/window/dependence
     *  side effects. Shared verbatim between runTyped and runDistilled
     *  so the two paths cannot drift. */
    template <class LowerT>
    void missPath(LowerT &lower_mem, Addr addr, bool store, bool ifetch,
                  bool latency_critical, Cycle now);

    CoreParams p;
    SetAssocCache &l1i;
    SetAssocCache &l1d;
    LowerMemory &lower;
    BranchPredictor bpred;
    MshrFile mshrs;

    double dispatchCpi = 0.125;
    InertClock inertClock;      //!< replayInert's exact clock stepper
    double cycleF = 0.0;        //!< absolute dispatch clock (never reset)
    std::uint64_t insts = 0;    //!< absolute instruction count
    Cycle lastCompletion = 0;
    Cycle lastMissCompletion = 0;  //!< last deep load's data-ready time
    Cycle cycleBase = 0;        //!< measurement-phase baselines
    std::uint64_t instBase = 0;
    /** In-flight queues are structurally bounded — loads by RUU
     *  occupancy (one in-window miss per instruction slot), stores by
     *  the LSQ drain rule — so they live in fixed rings that panic on
     *  overflow instead of deque segments that allocate mid-loop. */
    FixedRing<Pending> pendingLoads;
    FixedRing<Cycle> pendingStores;

    /** Flight-recorder hooks; null (the common case) when detached. */
    EventSink *obsSink = nullptr;
    IntervalRecorder *obsRec = nullptr;

    std::uint64_t auditTick = 0;  //!< periodic MSHR-audit miss counter

    StatGroup statGroup;
    Counter statL1DAccesses;
    Counter statL1IAccesses;
    Counter statL1DMisses;
    Counter statL1IMisses;
    Counter statL2Demand;
    Counter statL2DemandHits;
    Counter statRobStalls;
    Counter statLsqStalls;
    Counter statDepStalls;
    Counter statCriticalStalls;
};

template <class LowerT>
Cycles
OooCore::missLatency(LowerT &lower_mem, Addr addr, AccessType type,
                     Cycle now)
{
    const Addr block = blockAlign(addr, p.mshr_block_bytes);
    mshrs.retire(now);
    NURAPID_AUDIT_POINT(auditTick, mshrs.audit(audit::hookSink()));

    if (const Cycle *ready = mshrs.find(block)) {
        mshrs.noteMerge();
        return *ready > now ? static_cast<Cycles>(*ready - now) : 0;
    }

    if (mshrs.full()) {
        // Structural stall: wait for the oldest fill.
        const Cycle ready = mshrs.nextRetirement();
        if (obsSink) [[unlikely]] {
            obsSink->mshrStall(
                now, block,
                ready > now ? static_cast<Cycles>(ready - now) : 0);
        }
        cycleF = std::max(cycleF, static_cast<double>(ready));
        now = static_cast<Cycle>(cycleF);
        mshrs.retire(now);
        mshrs.noteFullStall();
    }

    ++statL2Demand;
    const LowerMemory::Result res = lower_mem.access(block, type, now);
    if (res.hit)
        ++statL2DemandHits;
    const Cycles total = p.l1_latency + res.latency;
    mshrs.allocate(block, now + total);
    return total;
}

template <class LowerT>
void
OooCore::missPath(LowerT &lower_mem, Addr addr, bool store, bool ifetch,
                  bool latency_critical, Cycle now)
{
    if (ifetch)
        ++statL1IMisses;
    else
        ++statL1DMisses;

    const AccessType type = store ? AccessType::Write : AccessType::Read;
    const Cycles lat = missLatency(lower_mem, addr, type, now);
    const Cycle completion = now + lat;
    lastCompletion = std::max(lastCompletion, completion);

    // Latency-critical loads feed consumers immediately: only a
    // small slack of independent work hides their latency.
    if (latency_critical && !store && !ifetch &&
        completion > now + p.consumer_slack) {
        const double resume =
            static_cast<double>(completion - p.consumer_slack);
        if (resume > cycleF) {
            cycleF = resume;
            ++statCriticalStalls;
        }
    }

    if (store) {
        // Stores retire through the LSQ without blocking dispatch
        // unless the queue fills.
        pendingStores.push_back(completion);
        while (!pendingStores.empty() &&
               pendingStores.front() <= static_cast<Cycle>(cycleF)) {
            pendingStores.pop_front();
        }
        if (pendingStores.size() > p.lsq_entries) {
            cycleF = std::max(
                cycleF, static_cast<double>(pendingStores.front()));
            pendingStores.pop_front();
            ++statLsqStalls;
        }
    } else {
        // Loads (and ifetches) hold the window.
        pendingLoads.push_back({insts, completion});
        if (!ifetch)
            lastMissCompletion = completion;
    }
}

template <class LowerT, class TraceT>
void
OooCore::runTyped(LowerT &lower_mem, TraceT &trace, std::uint64_t records)
{
    TraceRecord r;
    for (std::uint64_t n = 0; n < records; ++n) {
        if (!trace.next(r))
            break;

        insts += r.inst_gap + 1;
        cycleF += (r.inst_gap + 1) * dispatchCpi;

        if (r.has_branch) {
            if (!bpred.predictAndUpdate(r.branch_pc, r.branch_taken))
                cycleF += p.mispredict_penalty;
        }

        enforceWindow();

        const bool ifetch = r.op == TraceOp::Ifetch;
        const bool store = r.op == TraceOp::Store;

        // A pointer-chase load cannot issue before the previous deep
        // load's data returns — this is what exposes L2 *hit* latency
        // (independent loads hide under the RUU window instead).
        if (r.depends_on_prev && !store && !ifetch) {
            if (static_cast<double>(lastMissCompletion) > cycleF) {
                cycleF = static_cast<double>(lastMissCompletion);
                ++statDepStalls;
            }
        }
        const auto now = static_cast<Cycle>(cycleF);
        SetAssocCache &l1 = ifetch ? l1i : l1d;
        if (ifetch)
            ++statL1IAccesses;
        else
            ++statL1DAccesses;

        const SetAssocCache::Access a = l1.access(r.addr, store);
        if (a.evicted && a.evicted_dirty) {
            lower_mem.access(a.evicted_addr, AccessType::Writeback, now);
        }
        if (!a.hit) {
            missPath(lower_mem, r.addr, store, ifetch,
                     r.latency_critical, now);
        }
        if (obsRec) [[unlikely]]
            obsRec->tick();
    }
}

template <class LowerT>
void
OooCore::runDistilled(LowerT &lower_mem, DistilledTrace::Cursor &cur,
                      std::uint64_t records)
{
    using DT = DistilledTrace;
    const std::uint64_t stop = cur.pos + records;
    const std::uint8_t *const gaps = cur.gaps;
    std::uint16_t f = 0;

    while (cur.pos < stop) {
        panic_if(cur.ev == cur.ev_end,
                 "distilled events drained before the stop record — "
                 "replay must end on one of the stream's cuts");
        const DT::Event &e = *cur.ev++;
        const std::uint64_t erec = e.rec;
        panic_if(erec >= stop,
                 "distilled event past the stop record — replay must "
                 "end on one of the stream's cuts");

        // Non-event records [cur.pos, erec): all L1 hits with no stall
        // other than a folded mispredict penalty. Only the dispatch
        // clock (bit-identical to the live loop's per-record FP
        // additions), the instruction count and the window advance;
        // the L1 tag/LRU walk and predictor tables fold away.
        if (obsRec) [[unlikely]]
            replayInertObserved(gaps + cur.pos, gaps + erec);
        else
            replayInert(gaps + cur.pos, gaps + erec);
        cur.pos = erec + 1;

        // The event record itself, replayed in live-loop order.
        f = e.flags;
        insts += e.inst_gap + 1;
        cycleF += (e.inst_gap + 1) * dispatchCpi;

        if (f & DT::kHasBranch) {
            bpred.foldStats(1, (f & DT::kMispredict) ? 1 : 0);
            if (f & DT::kMispredict)
                cycleF += p.mispredict_penalty;
        }

        enforceWindow();

        const bool ifetch = (f & DT::kIfetch) != 0;
        const bool store = (f & DT::kStore) != 0;

        // Dependence check: the distiller keeps only the first
        // dependent load after each deep-load completion update (later
        // checks in the same epoch are no-ops — the dispatch clock is
        // monotonic), so this fires exactly when the live loop's would.
        if (f & DT::kDepCheck) {
            if (static_cast<double>(lastMissCompletion) > cycleF) {
                cycleF = static_cast<double>(lastMissCompletion);
                ++statDepStalls;
            }
        }
        const auto now = static_cast<Cycle>(cycleF);
        if (ifetch)
            ++statL1IAccesses;
        else
            ++statL1DAccesses;

        if (f & DT::kL1Miss) {
            (ifetch ? l1i : l1d)
                .foldStats(0, 1, (f & DT::kL1Evict) ? 1 : 0,
                           (f & DT::kWriteback) ? 1 : 0);
            if (f & DT::kWriteback) {
                lower_mem.access(Addr{e.victim} << cur.victim_shift,
                                 AccessType::Writeback, now);
            }
            missPath(lower_mem, Addr{e.block} << cur.block_shift, store,
                     ifetch, (f & DT::kLatencyCritical) != 0, now);
        } else {
            (ifetch ? l1i : l1d).foldStats(1, 0, 0, 0);
        }

        // The segment's non-event records, counted at its last record:
        // nothing reads these counters between cuts.
        if (f & DT::kSegmentEnd) {
            const DT::SegmentFold &fold = *cur.fold++;
            statL1IAccesses += fold.l1i_hits;
            statL1DAccesses += fold.l1d_hits;
            l1i.foldStats(fold.l1i_hits, 0, 0, 0);
            l1d.foldStats(fold.l1d_hits, 0, 0, 0);
            bpred.foldStats(fold.bp_correct + fold.mispredicts,
                            fold.mispredicts);
        }
        if (obsRec) [[unlikely]]
            obsRec->tick();
    }
    panic_if(records > 0 && !(f & DT::kSegmentEnd),
             "distilled replay stopped off a cut — the segment's folded "
             "counters would be lost");
}

} // namespace nurapid

#endif // NURAPID_CPU_OOO_CORE_HH
