/**
 * @file
 * Full simulated system: OoO core + L1 I/D + one lower-level cache
 * organization + a synthetic workload, with warmup/measure phases.
 */

#ifndef NURAPID_SIM_SYSTEM_HH
#define NURAPID_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/ooo_core.hh"
#include "energy/energy_model.hh"
#include "sim/config.hh"
#include "sim/obs/obs.hh"
#include "trace/distilled_trace.hh"
#include "trace/packed_trace.hh"

namespace nurapid {

/** Everything the benches need from one finished measurement run. */
struct RunMetrics
{
    std::string workload;
    std::string organization;

    double ipc = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    std::uint64_t l2_demand = 0;       //!< demand accesses into the L2
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    double l2_apki = 0;                //!< demand accesses / kilo-inst

    /** Fraction of demand L2 accesses hitting each latency region
     *  (d-group / bank row / level); the remainder missed. */
    std::vector<double> region_frac;
    double miss_frac = 0;

    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t block_moves = 0;
    std::uint64_t data_array_accesses = 0;  //!< d-group/bank data ops

    EnergyReport energy;

    /** Wall-clock cost of the warmup+measure simulation, seconds. For
     *  a memoized result this is the *original* simulation cost (what
     *  the cache hit saved), not the lookup time. */
    double wall_seconds = 0;

    /** True when the run engine served this result from its cache. */
    bool from_cache = false;

    /** Path of the interval-metrics JSONL this run wrote, empty when
     *  observability was off. Side-effect bookkeeping only: excluded
     *  from run-cache serialization and metric comparison. */
    std::string metrics_file;
};

class System
{
  public:
    System(const OrgSpec &org, const WorkloadProfile &profile,
           const SimLength &length = SimLength::fromEnv(),
           const CoreParams &core_params = defaultCoreParams());

    /** Runs warmup (stats then reset) and the measurement phase. */
    RunMetrics runAll();

    RunMetrics metrics() const;

    /**
     * Arms the flight recorder for this run. Call before runAll():
     * the sink and recorder attach at measurement start, so warmup
     * stays unobserved and the epoch-0 baseline reflects the
     * post-reset counters. No-op when @p cfg requests nothing.
     */
    void enableObservability(const ObsConfig &cfg);

    /** Null unless enableObservability() armed them (for tests). */
    EventSink *observabilitySink() { return obsSink.get(); }
    IntervalRecorder *observabilityRecorder() { return obsRec.get(); }

    OooCore &core() { return *coreModel; }
    LowerMemory &lower() { return *lowerMem; }
    SetAssocCache &l1i() { return l1iCache; }
    SetAssocCache &l1d() { return l1dCache; }
    /** The replayed stream; null when distillation is off. */
    const DistilledTrace *distilledTrace() const { return distilled.get(); }

  private:
    void warmup();
    void measure();

    /** Feeds the next @p records workload records through the core via
     *  the devirtualized per-organization loop: distilled replay, or
     *  the packed-record loop when NURAPID_DISTILL=0. */
    void runRecords(std::uint64_t records);

    OrgSpec spec;
    WorkloadProfile prof;
    SimLength length;
    std::unique_ptr<LowerMemory> lowerMem;
    SetAssocCache l1iCache;
    SetAssocCache l1dCache;
    std::unique_ptr<OooCore> coreModel;
    /** Shared packed stream, built on the live loop's first non-empty
     *  segment (never for a distilled run), and the count of records
     *  this system has consumed. */
    std::shared_ptr<const PackedTrace> packed;
    std::uint64_t consumed = 0;
    /** Shared distilled L2-event stream (null when distillation is
     *  off) and this system's replay position in it. Every segment
     *  must end on a distillation cut; runRecords panics otherwise. */
    std::shared_ptr<const DistilledTrace> distilled;
    DistilledTrace::Cursor dcur;
    /** Finishes the timeline and writes any requested export files,
     *  stamping the metrics path into @p m. */
    void exportObservability(RunMetrics &m);

    ProcessorEnergyParams energyParams;
    double wallSeconds = 0;  //!< set by runAll()
    ObsConfig obsCfg;
    std::unique_ptr<EventSink> obsSink;
    std::unique_ptr<IntervalRecorder> obsRec;
    bool obsAttached = false;
};

/** Instantiates the lower-memory organization an OrgSpec describes
 *  against the shared SRAM macro model (also used by the differential
 *  fuzzing harness to build candidates without a whole System). */
std::unique_ptr<LowerMemory> makeOrganization(const OrgSpec &spec);

/**
 * Runs one (organization, workload) pair end to end through the
 * process-wide run engine (sim/runner/run_engine.hh): memoized, and
 * parallel when batched via runSuite/RunEngine::runMany.
 */
RunMetrics runOne(const OrgSpec &org, const WorkloadProfile &profile,
                  const SimLength &length = SimLength::fromEnv());

/**
 * Runs a whole suite through the process-wide run engine; one
 * RunMetrics per workload, in suite order. Uncached runs fan out over
 * NURAPID_JOBS worker threads (default: hardware concurrency).
 */
std::vector<RunMetrics> runSuite(const OrgSpec &org,
                                 const std::vector<WorkloadProfile> &suite,
                                 const SimLength &length =
                                     SimLength::fromEnv());

/**
 * Runs several organizations over one workload suite as a single
 * engine batch. Result [i][j] is organization i on suite workload j.
 */
std::vector<std::vector<RunMetrics>>
runSuites(const std::vector<OrgSpec> &specs,
          const std::vector<WorkloadProfile> &suite,
          const SimLength &length = SimLength::fromEnv());

/**
 * Forces construction of the shared const singletons (SRAM macro
 * model, technology point, workload table) so parallel workers only
 * ever read them. Safe to call from any thread; idempotent.
 */
void touchSharedSimulationState();

/** Geometric-mean relative performance (ipc vs base ipc). */
double meanRelativePerformance(const std::vector<RunMetrics> &runs,
                               const std::vector<RunMetrics> &base);

} // namespace nurapid

#endif // NURAPID_SIM_SYSTEM_HH
