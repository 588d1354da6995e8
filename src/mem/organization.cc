#include "mem/organization.hh"

#include <utility>

namespace nurapid {

Organization::Organization(std::string name, std::uint32_t regions,
                           const MainMemory::Params &memory)
    : cacheEnergy(regions), regionHist(regions), mem(memory),
      statGroup(std::move(name))
{
}

void
Organization::resetStats()
{
    statGroup.resetAll();
    mem.resetStats();
    regionHist.reset();
    cacheEnergy.reset();
}

} // namespace nurapid
