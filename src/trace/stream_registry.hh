/**
 * @file
 * Process-wide memo of shared read-only streams keyed by a fingerprint
 * key string. PackedTrace and DistilledTrace each keep one, so every
 * run of a workload (the RunEngine's concurrent workers included)
 * shares one buffer.
 */

#ifndef NURAPID_TRACE_STREAM_REGISTRY_HH
#define NURAPID_TRACE_STREAM_REGISTRY_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace nurapid {

template <class T>
class StreamRegistry
{
  public:
    using Ptr = std::shared_ptr<const T>;

    /**
     * Replaces @p key's stream with @p build(current) and returns it;
     * current is null on the first request. build runs under the
     * entry's own lock only, so requests for different keys build in
     * parallel and requests for one key build once.
     */
    template <class Build>
    Ptr
    get(const std::string &key, Build &&build)
    {
        std::shared_ptr<Entry> entry;
        {
            std::lock_guard<std::mutex> lock(mtx);
            std::shared_ptr<Entry> &slot = entries[key];
            if (!slot)
                slot = std::make_shared<Entry>();
            entry = slot;
        }
        std::lock_guard<std::mutex> lock(entry->build_mutex);
        entry->stream = build(entry->stream);
        return entry->stream;
    }

    /** Drops the entries whose stream no one else holds; returns how
     *  many. An entry a request is still building is kept. */
    std::size_t
    dropUnused()
    {
        std::lock_guard<std::mutex> lock(mtx);
        std::size_t freed = 0;
        for (auto it = entries.begin(); it != entries.end();) {
            Entry &e = *it->second;
            std::unique_lock<std::mutex> build_lock(e.build_mutex,
                                                    std::try_to_lock);
            if (it->second.use_count() == 1 && build_lock.owns_lock() &&
                (!e.stream || e.stream.use_count() == 1)) {
                build_lock.unlock();
                it = entries.erase(it);
                ++freed;
            } else {
                ++it;
            }
        }
        return freed;
    }

  private:
    struct Entry
    {
        Ptr stream;
        std::mutex build_mutex;
    };

    std::mutex mtx;  //!< guards the map, never a build
    std::map<std::string, std::shared_ptr<Entry>> entries;
};

} // namespace nurapid

#endif // NURAPID_TRACE_STREAM_REGISTRY_HH
