#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>

namespace perfbench {

using namespace nurapid;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, std::string name,
                           std::string detail, std::uint64_t count)
    : rec(rec), index(static_cast<int>(rec.all.size()))
{
    Span s;
    s.name = std::move(name);
    s.detail = std::move(detail);
    s.parent = rec.open;
    s.count = count;
    rec.all.push_back(std::move(s));
    rec.open = index;
    // Read the clock last, so the bookkeeping above is outside the span.
    rec.all[index].start_s = secondsSince(rec.origin);
}

SpanRecorder::Scope::~Scope()
{
    const double end = secondsSince(rec.origin);
    rec.all[index].end_s = end;
    rec.open = rec.all[index].parent;
}

std::vector<double>
SpanRecorder::durations(const std::string &name,
                        const std::string &detail) const
{
    std::vector<double> out;
    for (const Span &s : all) {
        if (s.name == name && (detail.empty() || s.detail == detail))
            out.push_back(s.seconds());
    }
    return out;
}

std::uint64_t
SpanRecorder::totalCount(const std::string &name,
                         const std::string &detail) const
{
    std::uint64_t n = 0;
    for (const Span &s : all) {
        if (s.name == name && (detail.empty() || s.detail == detail))
            n += s.count;
    }
    return n;
}

double
SpanRecorder::totalSeconds(const std::string &name,
                           const std::string &detail) const
{
    double t = 0;
    for (double d : durations(name, detail))
        t += d;
    return t;
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

bool
SpanRecorder::writeJson(const std::string &path,
                        const std::vector<std::string> &header) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;

    // Self time: a span's duration minus what its direct children cover
    // (children of one span never overlap: a single thread records).
    std::vector<double> child(all.size(), 0.0);
    for (const Span &s : all) {
        if (s.parent >= 0)
            child[s.parent] += s.seconds();
    }
    struct Total
    {
        std::size_t spans = 0;
        double seconds = 0;
        double self = 0;
        std::uint64_t count = 0;
    };
    std::map<std::string, Total> totals;
    for (std::size_t i = 0; i < all.size(); ++i) {
        Total &t = totals[all[i].name];
        ++t.spans;
        t.seconds += all[i].seconds();
        t.self += all[i].seconds() - child[i];
        t.count += all[i].count;
    }

    std::fprintf(f, "{\"header\": [");
    for (std::size_t i = 0; i < header.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "", jsonString(header[i]).c_str());
    std::fprintf(f, "],\n \"totals\": {");
    bool first = true;
    for (const auto &[name, t] : totals) {
        std::fprintf(f,
                     "%s\n  %s: {\"spans\": %zu, \"seconds\": %.9g, "
                     "\"self_seconds\": %.9g, \"count\": %llu}",
                     first ? "" : ",", jsonString(name).c_str(), t.spans,
                     t.seconds, t.self,
                     static_cast<unsigned long long>(t.count));
        first = false;
    }
    std::fprintf(f, "},\n \"spans\": [");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"parent\": %d, \"name\": %s, "
                     "\"detail\": %s, \"start_s\": %.9f, \"end_s\": %.9f, "
                     "\"count\": %llu}",
                     i ? "," : "", i, s.parent, jsonString(s.name).c_str(),
                     jsonString(s.detail).c_str(), s.start_s, s.end_s,
                     static_cast<unsigned long long>(s.count));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

LowerMemory::Result
NullMemory::access(Addr, AccessType, Cycle)
{
    ++accesses;
    Result r;
    r.latency = kLatency;
    r.hit = true;
    return r;
}

LowerMemory::Result
RecordingMemory::access(Addr addr, AccessType type, Cycle now)
{
    log.push_back(L2Access{addr, now, type});
    return inner.access(addr, type, now);
}

EnergyNJ
RecordingMemory::dynamicEnergyNJ() const
{
    return inner.dynamicEnergyNJ();
}

EnergyNJ
RecordingMemory::cacheEnergyNJ() const
{
    return inner.cacheEnergyNJ();
}

const StatGroup &
RecordingMemory::stats() const
{
    return static_cast<const LowerMemory &>(inner).stats();
}

const Histogram &
RecordingMemory::regionHits() const
{
    return inner.regionHits();
}

void
RecordingMemory::forEachResident(const ResidentFn &fn) const
{
    inner.forEachResident(fn);
}

bool
RecordingMemory::audit(AuditSink &sink) const
{
    return inner.audit(sink);
}

namespace {

class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        add(static_cast<std::uint64_t>(s.size()));
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

} // namespace

std::uint64_t
runDigest(const RunMetrics &m)
{
    Fnv f;
    f.add(m.workload);
    f.add(m.organization);
    f.add(m.cycles);
    f.add(m.instructions);
    f.add(m.l2_demand);
    f.add(m.l2_hits);
    f.add(m.l2_misses);
    for (double r : m.region_frac)
        f.add(r);
    f.add(m.miss_frac);
    f.add(m.promotions);
    f.add(m.demotions);
    f.add(m.block_moves);
    f.add(m.data_array_accesses);
    f.add(m.energy.core_nj);
    f.add(m.energy.l1_nj);
    f.add(m.energy.l2_cache_nj);
    f.add(m.energy.memory_nj);
    f.add(m.energy.total_nj);
    f.add(m.energy.edp);
    return f.value();
}

std::uint64_t
combineDigests(const std::vector<std::uint64_t> &digests)
{
    Fnv f;
    for (std::uint64_t d : digests)
        f.add(d);
    return f.value();
}

std::string
hex(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
checkRun(const RunMetrics &m)
{
    char buf[256];
    if (m.cycles == 0 || m.instructions == 0)
        return "no cycles or instructions simulated";
    if (m.l2_hits + m.l2_misses != m.l2_demand) {
        std::snprintf(buf, sizeof(buf),
                      "hits %llu + misses %llu != demand accesses %llu",
                      static_cast<unsigned long long>(m.l2_hits),
                      static_cast<unsigned long long>(m.l2_misses),
                      static_cast<unsigned long long>(m.l2_demand));
        return buf;
    }
    if (m.l2_demand > 0) {
        double sum = m.miss_frac;
        for (double r : m.region_frac)
            sum += r;
        if (std::fabs(sum - 1.0) > 1e-9) {
            std::snprintf(buf, sizeof(buf),
                          "region fractions + miss fraction = %.12f", sum);
            return buf;
        }
    }
    return "";
}

bool
sameOrgStats(const LowerMemory &a, const LowerMemory &b)
{
    if (a.stats().counterValues() != b.stats().counterValues())
        return false;
    const Histogram &ha = a.regionHits();
    const Histogram &hb = b.regionHits();
    if (ha.buckets() != hb.buckets())
        return false;
    for (std::size_t i = 0; i < ha.buckets(); ++i) {
        if (ha.count(i) != hb.count(i))
            return false;
    }
    // Bitwise: replay must charge energy in the same order.
    const double ea[] = {a.cacheEnergyNJ(), a.dynamicEnergyNJ()};
    const double eb[] = {b.cacheEnergyNJ(), b.dynamicEnergyNJ()};
    return std::memcmp(ea, eb, sizeof(ea)) == 0;
}

} // namespace perfbench
