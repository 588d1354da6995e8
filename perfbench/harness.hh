/**
 * @file
 * The benchmark's own instruments: host clocks, an in-memory span
 * recorder, the fixed-latency null organization the core-replay layer
 * is timed against, the recording wrapper that captures an
 * organization's L2 access stream, and the digest and accounting checks
 * of the correctness gate. Everything here sits outside src/: the
 * simulator is only ever called through its public entry points.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/lower_memory.hh"
#include "sim/system.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** User + system CPU seconds of the whole process, all threads. */
double processCpuSeconds();

/** Peak resident set size of the process, MiB. */
double peakRssMiB();

double median(std::vector<double> values);

/**
 * Spans recorded around the benchmark's calls into the simulator's
 * modules. Kept in memory, written out once at the end. Not
 * thread-safe: only the main thread records.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;    //!< "<module>.<call>", e.g. "trace.gen"
        std::string detail;  //!< profile / organization it ran on
        double start_s = 0;  //!< relative to the recorder's origin
        double end_s = 0;
        int parent = -1;     //!< index of the enclosing span
        std::uint64_t count = 0;  //!< work items (records, accesses)

        double seconds() const { return end_s - start_s; }
    };

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, std::string name, std::string detail,
              std::uint64_t count = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec;
        int index;
    };

    const std::vector<Span> &spans() const { return all; }

    /** Durations of every span named @p name (and @p detail, unless
     *  empty), in recording order. */
    std::vector<double> durations(const std::string &name,
                                  const std::string &detail = "") const;

    /** Sum of count over the spans durations() selects. */
    std::uint64_t totalCount(const std::string &name,
                             const std::string &detail = "") const;

    /** Sum of seconds over the spans durations() selects. */
    double totalSeconds(const std::string &name,
                        const std::string &detail = "") const;

    /** Writes the spans, with per-name totals and self times, as JSON
     *  under the given provenance header lines. */
    bool writeJson(const std::string &path,
                   const std::vector<std::string> &header) const;

  private:
    Clock::time_point origin = Clock::now();
    std::vector<Span> all;
    int open = -1;  //!< innermost open span
};

/** Fixed-latency lower memory: every access hits. Isolates the core's
 *  distilled replay loop from any organization's cost. */
class NullMemory final : public nurapid::LowerMemory
{
  public:
    static constexpr nurapid::Cycles kLatency = 10;

    Result access(nurapid::Addr, nurapid::AccessType,
                  nurapid::Cycle) override;
    nurapid::EnergyNJ dynamicEnergyNJ() const override { return 0; }
    nurapid::EnergyNJ cacheEnergyNJ() const override { return 0; }
    const std::string &name() const override { return label; }
    nurapid::StatGroup &stats() override { return group; }
    const nurapid::StatGroup &stats() const override { return group; }
    const nurapid::Histogram &regionHits() const override { return hist; }
    void resetStats() override {}
    void forEachResident(const ResidentFn &) const override {}
    bool audit(nurapid::AuditSink &) const override { return true; }

    std::uint64_t accesses = 0;

  private:
    std::string label = "null";
    nurapid::StatGroup group{"null"};
    nurapid::Histogram hist{1};
};

/** One call into an organization's access(), as the core made it. */
struct L2Access
{
    nurapid::Addr addr;
    nurapid::Cycle now;
    nurapid::AccessType type;
};

/** Forwards every call to @p inner unchanged and logs each access()
 *  in order, so the stream can be replayed into a fresh organization. */
class RecordingMemory final : public nurapid::LowerMemory
{
  public:
    RecordingMemory(nurapid::LowerMemory &inner,
                    std::vector<L2Access> &log)
        : inner(inner), log(log)
    {
    }

    Result access(nurapid::Addr addr, nurapid::AccessType type,
                  nurapid::Cycle now) override;
    nurapid::EnergyNJ dynamicEnergyNJ() const override;
    nurapid::EnergyNJ cacheEnergyNJ() const override;
    const std::string &name() const override { return inner.name(); }
    nurapid::StatGroup &stats() override { return inner.stats(); }
    const nurapid::StatGroup &stats() const override;
    const nurapid::Histogram &regionHits() const override;
    void resetStats() override { inner.resetStats(); }
    void forEachResident(const ResidentFn &fn) const override;
    bool audit(nurapid::AuditSink &sink) const override;

  private:
    nurapid::LowerMemory &inner;
    std::vector<L2Access> &log;
};

/** FNV-1a digest of a run's simulated statistics: cycles,
 *  instructions, L2 demand/hits/misses, region and miss fractions,
 *  promotions, demotions, block moves, data-array accesses and every
 *  energy total. Host-side fields (wall time, cache provenance) are
 *  excluded. */
std::uint64_t runDigest(const nurapid::RunMetrics &m);

/** Folds per-run digests, in order, into one batch digest. */
std::uint64_t combineDigests(const std::vector<std::uint64_t> &digests);

std::string hex(std::uint64_t value);

/** Accounting invariants of one run; empty when they hold, else what
 *  failed. */
std::string checkRun(const nurapid::RunMetrics &m);

/** True when two organizations' statistics are identical: every
 *  counter, every region-hit bucket and both energy totals bitwise. */
bool sameOrgStats(const nurapid::LowerMemory &a,
                  const nurapid::LowerMemory &b);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
