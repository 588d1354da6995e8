/**
 * @file
 * The single virtual-to-concrete switch over the five final cache
 * organizations, used once per replay segment by System::runRecords.
 */

#ifndef NURAPID_SIM_ORG_DISPATCH_HH
#define NURAPID_SIM_ORG_DISPATCH_HH

#include "common/logging.hh"
#include "sim/config.hh"

namespace nurapid {

/**
 * Recovers the concrete organization type behind the factory's
 * LowerMemory pointer and invokes @p fn with it. Every organization is
 * final, so this one switch is the only place virtual dispatch happens
 * on the simulation path — inside fn the compiler statically binds and
 * inlines the organization's access().
 */
template <class Fn>
void
withConcreteOrg(LowerMemory &lower, OrgKind kind, Fn &&fn)
{
    switch (kind) {
      case OrgKind::BaseL2L3:
        fn(static_cast<ConventionalL2L3 &>(lower));
        return;
      case OrgKind::DNuca:
        fn(static_cast<DNucaCache &>(lower));
        return;
      case OrgKind::SNuca:
        fn(static_cast<SNucaCache &>(lower));
        return;
      case OrgKind::NuRapid:
        fn(static_cast<NuRapidCache &>(lower));
        return;
      case OrgKind::CoupledSA:
        fn(static_cast<CoupledNucaCache &>(lower));
        return;
    }
    panic("unknown organization kind");
}

} // namespace nurapid

#endif // NURAPID_SIM_ORG_DISPATCH_HH
