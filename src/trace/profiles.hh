/**
 * @file
 * Workload profiles standing in for the paper's SPEC2K runs (Table 3).
 *
 * SPEC binaries and ref inputs are not redistributable, so each
 * benchmark is replaced by a synthetic profile whose *L2-visible
 * structure* — references per kilo-instruction, layered working-set
 * sizes, hot-set skew, store ratio, branch behavior — is calibrated to
 * the paper's Table 3 (base IPC and L2 accesses per kilo-instruction)
 * and to the known memory character of each benchmark. DESIGN.md
 * documents this substitution.
 */

#ifndef NURAPID_TRACE_PROFILES_HH
#define NURAPID_TRACE_PROFILES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fingerprint.hh"

namespace nurapid {

/** One reuse layer of a workload's footprint. */
struct WorkingSetLayer
{
    std::uint64_t bytes = 0;    //!< layer capacity
    double weight = 0.0;        //!< fraction of references it receives
    std::uint32_t segments = 1; //!< scattered segments (hot-set skew)

    /**
     * Of the segments, this many are placed at bases congruent modulo
     * the cache's set-coverage period (1 MB for the 8 MB / 8-way /
     * 128 B organization) — like page-aligned arrays that collide in
     * set-index space. They stack multiple simultaneously-hot blocks
     * into the same sets: the paper's "hot sets" (Section 2.1).
     */
    std::uint32_t colliding_segments = 0;
};

struct WorkloadProfile
{
    std::string name;
    bool fp = true;
    bool high_load = true;      //!< paper's high-load / low-load split

    // Paper Table 3 anchors (targets for the generator, not inputs to
    // the simulator).
    double table3_ipc = 1.0;
    double table3_l2_apki = 20.0;

    /** Intrinsic (non-memory) CPI of the benchmark's instruction mix;
     *  calibrated so the base hierarchy reproduces Table 3's IPCs. */
    double base_cpi = 0.125;

    // Reference-stream structure.
    double mem_refs_per_kinst = 350.0;  //!< L1 d-cache refs / 1k inst
    double store_frac = 0.3;
    double seq_frac = 0.4;       //!< sequential-walk (spatial) fraction
    double dep_frac = 0.25;      //!< loads value-dependent on the
                                 //!< previous load (exposes L2 latency)
    double critical_frac = 0.85; //!< deep loads with immediate consumers
                                 //!< (latency exposed beyond a small
                                 //!< ILP slack)

    /**
     * Working-set phase drift: after this many L2-layer references one
     * hot-layer segment slides forward by 1/8 of its size (the working
     * set creeps as program phases advance; old blocks die, fresh ones
     * stream in). Counting deep references — not raw records — keeps
     * drift-induced misses proportional to each benchmark's L2
     * activity. 0 disables drift.
     */
    std::uint64_t drift_period = 2'500;
    std::vector<WorkingSetLayer> layers;  //!< weights sum to <= 1;
                                          //!< remainder = cold scans

    // Instruction-side pressure (ifetch refs that can miss the L1I).
    double ifetch_refs_per_kinst = 0.0;
    std::uint64_t code_bytes = 64 * 1024;

    // Branch behavior.
    double branches_per_kinst = 180.0;
    double hard_branch_frac = 0.15;  //!< weakly-biased branches
    double hard_branch_bias = 0.7;   //!< P(taken) for hard branches

    std::uint64_t footprint_bytes = 64ull << 20;
    std::uint64_t seed = 0;  //!< per-benchmark stream seed
};

/** Appends every field that shapes a run of @p p: the one profile
 *  field list that the run key, the distilled-stream key and the
 *  packed-trace registry share. The Table 3 anchors are left out:
 *  nothing simulated reads them. */
void fingerprintProfile(Fingerprint &fp, const WorkloadProfile &p);

/** The 15-application suite standing in for the paper's Table 3. */
const std::vector<WorkloadProfile> &workloadSuite();

/** Subset helpers for the benches. */
std::vector<WorkloadProfile> highLoadSuite();
std::vector<WorkloadProfile> lowLoadSuite();

/** Finds a profile by name; fatal if absent. */
const WorkloadProfile &findProfile(const std::string &name);

} // namespace nurapid

#endif // NURAPID_TRACE_PROFILES_HH
