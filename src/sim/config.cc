#include "sim/config.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace nurapid {

std::string
OrgSpec::description() const
{
    switch (kind) {
      case OrgKind::BaseL2L3:
        return "base L2/L3";
      case OrgKind::DNuca:
        return strprintf("D-NUCA (%s)", dnucaSearchName(dnuca.search));
      case OrgKind::SNuca:
        return "S-NUCA (static)";
      case OrgKind::NuRapid:
        return strprintf("NuRAPID %u d-groups (%s, %s%s%s)",
                         nurapid.num_dgroups,
                         promotionPolicyName(nurapid.promotion),
                         distanceReplName(nurapid.distance_repl),
                         nurapid.ideal_fastest ? ", ideal" : "",
                         nurapid.single_port ? "" : ", multi-port");
      case OrgKind::CoupledSA:
        return "set-associative placement";
    }
    return "unknown";
}

OrgSpec
OrgSpec::baseline()
{
    OrgSpec s;
    s.kind = OrgKind::BaseL2L3;
    return s;
}

OrgSpec
OrgSpec::dnucaSsPerformance()
{
    OrgSpec s;
    s.kind = OrgKind::DNuca;
    s.dnuca.search = DNucaSearch::SsPerformance;
    return s;
}

OrgSpec
OrgSpec::dnucaSsEnergy()
{
    OrgSpec s;
    s.kind = OrgKind::DNuca;
    s.dnuca.search = DNucaSearch::SsEnergy;
    return s;
}

OrgSpec
OrgSpec::snucaDefault()
{
    OrgSpec s;
    s.kind = OrgKind::SNuca;
    return s;
}

OrgSpec
OrgSpec::nurapidDefault(std::uint32_t num_dgroups,
                        PromotionPolicy promotion, DistanceRepl drepl)
{
    OrgSpec s;
    s.kind = OrgKind::NuRapid;
    s.nurapid.num_dgroups = num_dgroups;
    s.nurapid.promotion = promotion;
    s.nurapid.distance_repl = drepl;
    return s;
}

OrgSpec
OrgSpec::nurapidIdeal()
{
    OrgSpec s = nurapidDefault();
    s.nurapid.ideal_fastest = true;
    return s;
}

OrgSpec
OrgSpec::coupledSA()
{
    OrgSpec s;
    s.kind = OrgKind::CoupledSA;
    return s;
}

CacheOrg
l1iOrg()
{
    return {"l1i", 64 * 1024, 2, 32};
}

CacheOrg
l1dOrg()
{
    return {"l1d", 64 * 1024, 2, 32};
}

CoreParams
defaultCoreParams()
{
    return CoreParams{};
}

std::optional<SimLength>
SimLength::scaled(double scale) const
{
    if (!std::isfinite(scale) || scale <= 0)
        return std::nullopt;
    const SimLength len{static_cast<std::uint64_t>(warmup_records * scale),
                        static_cast<std::uint64_t>(measure_records * scale)};
    if (len.measure_records == 0)
        return std::nullopt;
    return len;
}

SimLength
SimLength::fromEnv()
{
    SimLength len;
    if (const char *s = std::getenv("NURAPID_SIM_SCALE")) {
        errno = 0;
        char *end = nullptr;
        const double scale = std::strtod(s, &end);
        const std::optional<SimLength> scaled_len =
            *s != '\0' && end && *end == '\0' && errno != ERANGE
            ? len.scaled(scale) : std::nullopt;
        if (scaled_len)
            len = *scaled_len;
        else
            warnOnce("ignoring invalid NURAPID_SIM_SCALE '%s'", s);
    }
    return len;
}

} // namespace nurapid
