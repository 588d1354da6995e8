#include "sim/profile/profile.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace nurapid {
namespace prof {

namespace {

constexpr unsigned kBuckets = static_cast<unsigned>(Bucket::kCount);

std::atomic<std::uint64_t> buckets[kBuckets];
std::once_flag footer_armed;

const char *const kNames[kBuckets] = {
    "trace-gen", "distill", "core", "l2-org", "probe", "recency", "stats",
};

double
secs(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

void
printFooter()
{
    std::uint64_t total = 0;
    for (unsigned b = 0; b < kBuckets; ++b)
        total += buckets[b].load();
    if (total == 0)
        return;
    // l2-org time is spent inside the core loop: report it as a slice
    // of the core bucket, not as an addend.
    const std::uint64_t core = buckets[
        static_cast<unsigned>(Bucket::Core)].load();
    const std::uint64_t l2 = buckets[
        static_cast<unsigned>(Bucket::L2Org)].load();
    const std::uint64_t probe = buckets[
        static_cast<unsigned>(Bucket::Probe)].load();
    const std::uint64_t recency = buckets[
        static_cast<unsigned>(Bucket::Recency)].load();
    const std::uint64_t gen = buckets[
        static_cast<unsigned>(Bucket::TraceGen)].load();
    const std::uint64_t distill = buckets[
        static_cast<unsigned>(Bucket::Distill)].load();
    const std::uint64_t stats = buckets[
        static_cast<unsigned>(Bucket::Stats)].load();
    const double attributed = secs(gen + distill + core + stats);
    std::fprintf(stderr,
                 "[profile] trace-gen %.3fs | distill %.3fs | core %.3fs "
                 "(l2-org %.3fs, %.1f%%; probe %.3fs; recency %.3fs) "
                 "| stats %.3fs | attributed %.3fs\n",
                 secs(gen), secs(distill), secs(core), secs(l2),
                 core ? 100.0 * l2 / core : 0.0, secs(probe),
                 secs(recency), secs(stats), attributed);
}

} // namespace

void
add(Bucket bucket, std::uint64_t nanos)
{
    std::call_once(footer_armed, [] { std::atexit(printFooter); });
    buckets[static_cast<unsigned>(bucket)].fetch_add(
        nanos, std::memory_order_relaxed);
}

std::uint64_t
nanos(Bucket bucket)
{
    return buckets[static_cast<unsigned>(bucket)].load();
}

void
resetAll()
{
    for (unsigned b = 0; b < kBuckets; ++b)
        buckets[b].store(0);
}

} // namespace prof
} // namespace nurapid
