/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Components own Stat objects and register them (with a hierarchical
 * dotted name) in a StatGroup. StatGroups can be dumped as text and
 * queried by name in tests.
 */

#ifndef NURAPID_COMMON_STATS_HH
#define NURAPID_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nurapid {

/** A monotonically-growing event counter. */
class Counter
{
  public:
    Counter &operator++() { ++count; return *this; }
    Counter &operator+=(std::uint64_t n) { count += n; return *this; }
    void reset() { count = 0; }
    std::uint64_t value() const { return count; }

  private:
    std::uint64_t count = 0;
};

/**
 * A named, ordered collection of statistics.
 *
 * Values are registered by pointer; the group does not own them. The
 * registering component must outlive the group or unregister itself
 * (components in this codebase live for the whole simulation, so no
 * unregistration API is provided).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string group_name = "");

    /** Registers a counter under @p name; returns it for chaining. */
    Counter &addCounter(const std::string &name, Counter &c);

    /** Looks up a counter value; fatal if absent (test convenience). */
    std::uint64_t counterValue(const std::string &name) const;

    /** True if a counter with @p name was registered. */
    bool hasCounter(const std::string &name) const;

    /** Every counter's (name, value), in registration order — the
     *  observability layer snapshots these at epoch boundaries. */
    std::vector<std::pair<std::string, std::uint64_t>>
    counterValues() const;

    /** Resets every registered statistic to zero. */
    void resetAll();

    /** Renders "name value" lines, sorted by registration order. */
    std::string dump() const;

    const std::string &name() const { return groupName; }

  private:
    std::string groupName;
    std::vector<std::pair<std::string, Counter *>> counters;
    std::map<std::string, Counter *> counterIndex;
};

} // namespace nurapid

#endif // NURAPID_COMMON_STATS_HH
