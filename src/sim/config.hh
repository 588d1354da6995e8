/**
 * @file
 * System configuration presets (the paper's Table 1 and Section 4).
 */

#ifndef NURAPID_SIM_CONFIG_HH
#define NURAPID_SIM_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cpu/ooo_core.hh"
#include "mem/conventional_l2l3.hh"
#include "mem/set_assoc_cache.hh"
#include "nuca/dnuca.hh"
#include "nuca/snuca.hh"
#include "nurapid/coupled_nuca.hh"
#include "nurapid/nurapid_cache.hh"

namespace nurapid {

/** Which lower-level cache organization the system instantiates. */
enum class OrgKind : std::uint8_t {
    BaseL2L3,     //!< conventional 1 MB L2 + 8 MB L3
    DNuca,        //!< the D-NUCA baseline
    SNuca,        //!< static-NUCA baseline (no migration, no search)
    NuRapid,      //!< the paper's contribution
    CoupledSA,    //!< set-associative-placement NUCA (Figure 4)
};

/** Tagged union of organization parameters. */
struct OrgSpec
{
    OrgKind kind = OrgKind::NuRapid;
    ConventionalL2L3::Params base{};
    DNucaCache::Params dnuca{};
    SNucaCache::Params snuca{};
    NuRapidCache::Params nurapid{};
    CoupledNucaCache::Params coupled{};

    std::string description() const;

    /** Presets used throughout the evaluation. */
    static OrgSpec baseline();
    static OrgSpec dnucaSsPerformance();
    static OrgSpec dnucaSsEnergy();
    static OrgSpec snucaDefault();
    static OrgSpec nurapidDefault(std::uint32_t num_dgroups = 4,
                                  PromotionPolicy promotion =
                                      PromotionPolicy::NextFastest,
                                  DistanceRepl drepl =
                                      DistanceRepl::Random);
    static OrgSpec nurapidIdeal();
    static OrgSpec coupledSA();
};

/** Table 1 L1 organizations (64 KB, 2-way, 32 B blocks). */
CacheOrg l1iOrg();
CacheOrg l1dOrg();

/** Table 1 core parameters. */
CoreParams defaultCoreParams();

/**
 * Simulation length control. Records are memory references; the paper
 * runs 5 B instructions after a 5 B fast-forward — our synthetic
 * profiles are stationary, so a few million references converge.
 * NURAPID_SIM_SCALE (a float) scales both numbers.
 */
struct SimLength
{
    std::uint64_t warmup_records = 1'000'000;
    std::uint64_t measure_records = 3'000'000;

    /** Both lengths times @p scale, truncated; empty when @p scale is
     *  not a positive finite number or leaves no measured record. */
    std::optional<SimLength> scaled(double scale) const;

    static SimLength fromEnv();
};

} // namespace nurapid

#endif // NURAPID_SIM_CONFIG_HH
