/**
 * @file
 * Run-result memoization: a stable fingerprint for one
 * (organization, workload, simulation length) run, and a cache of
 * finished RunMetrics keyed by it.
 *
 * The cache is consulted in-process (so one bench binary never
 * simulates the same run twice) and can be persisted to a JSON file —
 * set NURAPID_RUN_CACHE=/path/file.json and the 16 bench binaries
 * share one simulation of the repeated baseline suites instead of
 * each recomputing them from scratch.
 *
 * The fingerprint covers every input that determines the result: all
 * parameter fields of the active organization kind (not just the
 * description string), every field of the workload profile including
 * its layer structure and seed, the warmup/measure lengths, and a
 * schema version bumped whenever the simulator's behavior or the
 * RunMetrics layout changes. The full key string is stored alongside
 * each entry and verified on lookup, so a digest collision degrades to
 * a cache miss, never to a wrong result.
 */

#ifndef NURAPID_SIM_RUNNER_RUN_CACHE_HH
#define NURAPID_SIM_RUNNER_RUN_CACHE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/json.hh"
#include "sim/system.hh"

namespace nurapid {

/** Bump when simulator behavior changes invalidate old cache files. */
inline constexpr std::uint32_t kRunCacheSchema = 3;

/** Canonical key + digest identifying one run's inputs. */
struct RunKey
{
    std::string key;     //!< full canonical key string
    std::string digest;  //!< 16-hex-digit FNV-1a of the key
};

/** Builds the fingerprint of one (spec, profile, length) run. */
RunKey fingerprintRun(const OrgSpec &spec, const WorkloadProfile &profile,
                      const SimLength &length);

/** RunMetrics <-> JSON (used by the cache file; round-trips exactly). */
Json runMetricsToJson(const RunMetrics &m);
bool runMetricsFromJson(const Json &j, RunMetrics &out);

/**
 * True when two runs produced the same simulation outcome: every field
 * is compared bit-for-bit except wall_seconds and from_cache, which
 * describe how the result was obtained rather than what it is.
 */
bool identicalMetrics(const RunMetrics &a, const RunMetrics &b);

/** Thread-safe memoization table with optional file persistence. */
class RunCache
{
  public:
    /** Looks up a run; returns true and fills @p out on a hit. */
    bool lookup(const RunKey &key, RunMetrics &out) const;

    /** Stores a finished run (overwrites any previous entry). */
    void store(const RunKey &key, const RunMetrics &metrics);

    std::size_t size() const;

    /**
     * Visits every entry as (full key string, metrics), in digest
     * order. Used by nurapid_sim --dump-cache to print a normalized
     * view two cache files can be diffed by.
     */
    void forEachEntry(
        const std::function<void(const std::string &,
                                 const RunMetrics &)> &fn) const;

    /**
     * Merges entries from @p path into this cache (in-memory entries
     * win). Silently ignores a missing file; warns and ignores a
     * malformed or schema-mismatched one. Returns entries loaded.
     */
    std::size_t loadFile(const std::string &path);

    /**
     * Writes the cache to @p path, first re-merging any entries other
     * processes appended since loadFile (ours win), via a per-process
     * temp-file rename so concurrent readers never see a torn file and
     * concurrent writers never share a temp file. An advisory flock on
     * `<path>.lock` is held across the merge and the rename, so
     * concurrent savers never lose each other's entries.
     */
    bool saveFile(const std::string &path);

  private:
    struct Entry
    {
        std::string key;  //!< collision guard
        RunMetrics metrics;
    };

    mutable std::mutex mtx;
    std::map<std::string, Entry> entries;  //!< digest -> entry

    std::size_t mergeLocked(const std::string &path);
};

} // namespace nurapid

#endif // NURAPID_SIM_RUNNER_RUN_CACHE_HH
