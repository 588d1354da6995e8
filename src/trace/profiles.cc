#include "trace/profiles.hh"

#include "common/logging.hh"

namespace nurapid {

namespace {

constexpr std::uint64_t KB = 1024;
constexpr std::uint64_t MB = 1024 * 1024;

/**
 * Builds one profile. @p hot/@p warm are the L2-resident layers (bytes
 * and share of *non-L1* traffic); the cold remainder walks the full
 * footprint. @p apki is the paper's Table 3 target; layer weights are
 * derived from it given the reference rate and spatial locality.
 */
WorkloadProfile
make(const std::string &name, bool fp, bool high, double ipc, double apki,
     double seq, double dep, double store_frac, std::uint64_t hot_bytes,
     std::uint32_t hot_segs, double hot_share, std::uint64_t warm_bytes,
     double warm_share, std::uint64_t footprint, std::uint64_t seed,
     double cpi = 0.125, double apki_cal = 1.0, double ifetch_apki = 0.0,
     std::uint64_t code_bytes = 64 * KB)
{
    WorkloadProfile p;
    p.name = name;
    p.fp = fp;
    p.high_load = high;
    p.table3_ipc = ipc;
    p.table3_l2_apki = apki;
    p.base_cpi = cpi;
    p.mem_refs_per_kinst = 350.0;
    p.store_frac = store_frac;
    p.seq_frac = seq;
    p.dep_frac = dep;
    p.footprint_bytes = footprint;
    p.seed = seed;
    p.ifetch_refs_per_kinst = ifetch_apki > 0 ? ifetch_apki * 30.0 : 0.0;
    p.code_bytes = code_bytes;
    p.branches_per_kinst = fp ? 120.0 : 200.0;
    p.hard_branch_frac = fp ? 0.08 : 0.22;
    p.hard_branch_bias = 0.72;

    // Sequential walks mostly hit the L1 (8 B steps in 32 B blocks), so
    // only ~1/4 of them reach the L2; random references to multi-MB
    // layers essentially always miss the 64 KB L1.
    const double l1_filter = seq * 0.25 + (1.0 - seq);
    // The streaming layers also churn the L1 and roughly double the
    // analytic miss estimate (measured); fold that into the weight.
    const double churn = 2.0;
    // Pointer-chase bursts multiply each deep draw into ~1 + dep*4.5
    // deep references on average; deflate the drawn weight to keep the
    // APKI on target.
    const double chase_boost = 1.0 + dep * 4.5;
    // apki_cal is the final measured-vs-target correction (the
    // analytic filter model is only approximate per benchmark).
    const double w_nl = apki * apki_cal /
        (p.mem_refs_per_kinst * l1_filter * churn * chase_boost);
    fatal_if(w_nl >= 0.9, "%s: APKI target %f unreachable", name.c_str(),
             apki);
    double cold_share = 1.0 - hot_share - warm_share;
    fatal_if(cold_share < 0, "%s: layer shares exceed 1", name.c_str());
    // Shrink the cold-scan share (into the hot layer): working-set
    // drift already supplies phase-change misses, and the combined L2
    // miss ratios then land near the paper's ~10% while keeping the
    // per-benchmark ordering.
    hot_share += cold_share * 0.75;
    cold_share *= 0.25;

    // Layer 0: the L1-resident region takes everything that is not L2
    // traffic.
    p.layers.push_back({40 * KB, 1.0 - w_nl, 2, 0});
    // A few hot segments collide in set-index space (hot sets with
    // ~4-5 simultaneously-hot ways: more than the coupled designs can
    // keep fast, within the 8-way tag associativity).
    p.layers.push_back({hot_bytes, w_nl * hot_share, hot_segs,
                        std::min<std::uint32_t>(3, hot_segs / 4)});
    if (warm_share > 0)
        p.layers.push_back({warm_bytes, w_nl * warm_share, 8, 0});
    // Remainder of the weight (w_nl * cold_share) walks the footprint.
    return p;
}

} // namespace

const std::vector<WorkloadProfile> &
workloadSuite()
{
    static const std::vector<WorkloadProfile> suite = {
        //   name     fp    high   ipc  apki  seq  st    hot        segs share  warm     share  footprint  seed ifetch
        make("applu",  true,  true, 0.9, 42.0, 0.55, 0.12, 0.26, 1600 * KB, 16, 0.72, 3 * MB, 0.18, 64 * MB, 11, 0.183, 1.23),
        make("apsi",   true,  true, 1.1, 24.0, 0.50, 0.20, 0.30, 1200 * KB, 12, 0.74, 2 * MB, 0.16, 48 * MB, 12, 0.437, 1.40),
        make("art",    true,  true, 0.5, 37.0, 0.35, 0.55, 0.20, 2800 * KB, 24, 0.80, 4 * MB, 0.12, 64 * MB, 13, 1.293, 1.67),
        make("bzip2", false,  true, 1.3, 18.0, 0.45, 0.30, 0.32,  900 * KB, 10, 0.72, 2 * MB, 0.16, 32 * MB, 14, 0.202, 1.58),
        make("equake", true,  true, 0.7, 39.0, 0.50, 0.25, 0.24, 1800 * KB, 18, 0.70, 4 * MB, 0.18, 64 * MB, 15, 0.718, 1.17),
        make("galgel", true,  true, 0.9, 28.0, 0.55, 0.18, 0.25, 1400 * KB, 14, 0.76, 3 * MB, 0.14, 48 * MB, 16, 0.487, 1.26),
        make("mcf",   false,  true, 0.4, 55.0, 0.20, 0.70, 0.22, 2200 * KB, 20, 0.62, 6 * MB, 0.20, 128 * MB, 17, 1.259, 1.61),
        make("mgrid",  true,  true, 1.0, 31.0, 0.60, 0.15, 0.24, 1500 * KB, 14, 0.74, 3 * MB, 0.16, 64 * MB, 18, 0.278, 1.00),
        make("parser", false, true, 1.0, 17.0, 0.40, 0.45, 0.30,  700 * KB, 10, 0.72, 2 * MB, 0.16, 32 * MB, 19,
             /*cpi=*/0.643, /*apki_cal=*/0.92, /*ifetch_apki=*/1.0, /*code=*/256 * KB),
        make("swim",   true,  true, 0.8, 34.0, 0.60, 0.12, 0.27, 1900 * KB, 18, 0.70, 4 * MB, 0.18, 96 * MB, 20, 0.644, 0.98),
        make("twolf", false,  true, 0.9, 22.0, 0.40, 0.40, 0.28, 1000 * KB, 12, 0.76, 2 * MB, 0.14, 32 * MB, 21, 0.589, 1.68),
        make("vpr",   false,  true, 1.0, 19.0, 0.40, 0.35, 0.28, 1100 * KB, 12, 0.74, 2 * MB, 0.15, 32 * MB, 22, 0.512, 1.31),
        make("crafty", false, false, 1.3, 3.0, 0.45, 0.35, 0.30, 300 * KB,  6, 0.70, 1 * MB, 0.15, 16 * MB, 23,
             /*cpi=*/0.528, /*apki_cal=*/0.59, /*ifetch_apki=*/0.5, /*code=*/128 * KB),
        make("gzip",  false, false, 1.4, 4.0, 0.50, 0.30, 0.32,  400 * KB,  6, 0.72, 1 * MB, 0.14, 16 * MB, 24, 0.427, 1.21),
        make("wupwise", true, false, 1.2, 5.0, 0.55, 0.15, 0.26, 500 * KB,  8, 0.72, 1 * MB, 0.14, 24 * MB, 25, 0.759, 1.00),
    };
    return suite;
}

std::vector<WorkloadProfile>
highLoadSuite()
{
    std::vector<WorkloadProfile> out;
    for (const auto &p : workloadSuite())
        if (p.high_load)
            out.push_back(p);
    return out;
}

std::vector<WorkloadProfile>
lowLoadSuite()
{
    std::vector<WorkloadProfile> out;
    for (const auto &p : workloadSuite())
        if (!p.high_load)
            out.push_back(p);
    return out;
}

void
fingerprintProfile(Fingerprint &fp, const WorkloadProfile &p)
{
    fp.field("workload", p.name);
    fp.field("fp", p.fp);
    fp.field("high_load", p.high_load);
    fp.field("base_cpi", p.base_cpi);
    fp.field("mem_refs_per_kinst", p.mem_refs_per_kinst);
    fp.field("store_frac", p.store_frac);
    fp.field("seq_frac", p.seq_frac);
    fp.field("dep_frac", p.dep_frac);
    fp.field("critical_frac", p.critical_frac);
    fp.field("drift_period", p.drift_period);
    fp.field("ifetch_refs_per_kinst", p.ifetch_refs_per_kinst);
    fp.field("code_bytes", p.code_bytes);
    fp.field("branches_per_kinst", p.branches_per_kinst);
    fp.field("hard_branch_frac", p.hard_branch_frac);
    fp.field("hard_branch_bias", p.hard_branch_bias);
    fp.field("footprint", p.footprint_bytes);
    fp.field("seed", p.seed);
    fp.field("layers", static_cast<std::uint64_t>(p.layers.size()));
    for (const auto &layer : p.layers) {
        fp.field("layer.bytes", layer.bytes);
        fp.field("layer.weight", layer.weight);
        fp.field("layer.segments", layer.segments);
        fp.field("layer.colliding", layer.colliding_segments);
    }
}

const WorkloadProfile &
findProfile(const std::string &name)
{
    for (const auto &p : workloadSuite())
        if (p.name == name)
            return p;
    fatal("no workload profile named '%s'", name.c_str());
}

} // namespace nurapid
