#include "common/stats.hh"

#include <sstream>

#include "common/logging.hh"

namespace nurapid {

StatGroup::StatGroup(std::string group_name)
    : groupName(std::move(group_name))
{
}

Counter &
StatGroup::addCounter(const std::string &name, Counter &c)
{
    panic_if(counterIndex.count(name),
             "duplicate counter '%s' in group '%s'",
             name.c_str(), groupName.c_str());
    counters.emplace_back(name, &c);
    counterIndex[name] = &c;
    return c;
}

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    auto it = counterIndex.find(name);
    if (it == counterIndex.end())
        fatal("no counter '%s' in stat group '%s'",
              name.c_str(), groupName.c_str());
    return it->second->value();
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    return counterIndex.count(name) != 0;
}

std::vector<std::pair<std::string, std::uint64_t>>
StatGroup::counterValues() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters.size());
    for (const auto &[name, c] : counters)
        out.emplace_back(name, c->value());
    return out;
}

void
StatGroup::resetAll()
{
    for (auto &[name, c] : counters)
        c->reset();
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    for (const auto &[name, c] : counters) {
        os << (groupName.empty() ? name : groupName + "." + name)
           << " " << c->value() << "\n";
    }
    return os.str();
}

} // namespace nurapid
