#include "testing/fuzzer.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/system.hh"
#include "trace/trace_file.hh"

namespace nurapid {

namespace {

/** Unique blocks the organization can hold (for hot-pool sizing). */
std::uint64_t
specCapacityBlocks(const OrgSpec &spec)
{
    switch (spec.kind) {
      case OrgKind::BaseL2L3:
        return (spec.base.l2.capacity_bytes + spec.base.l3.capacity_bytes) /
            spec.base.l3.block_bytes;
      case OrgKind::DNuca:
        return spec.dnuca.capacity_bytes / spec.dnuca.block_bytes;
      case OrgKind::SNuca:
        return spec.snuca.capacity_bytes / spec.snuca.block_bytes;
      case OrgKind::NuRapid:
        return spec.nurapid.capacity_bytes / spec.nurapid.block_bytes;
      case OrgKind::CoupledSA:
        return spec.coupled.capacity_bytes / spec.coupled.block_bytes;
    }
    panic("unknown organization kind");
}

std::uint32_t
specBlockBytes(const OrgSpec &spec)
{
    switch (spec.kind) {
      case OrgKind::BaseL2L3: return spec.base.l3.block_bytes;
      case OrgKind::DNuca: return spec.dnuca.block_bytes;
      case OrgKind::SNuca: return spec.snuca.block_bytes;
      case OrgKind::NuRapid: return spec.nurapid.block_bytes;
      case OrgKind::CoupledSA: return spec.coupled.block_bytes;
    }
    panic("unknown organization kind");
}

FuzzTarget
makeTarget(std::string name, OrgSpec spec)
{
    FuzzTarget t;
    t.name = std::move(name);
    t.spec = std::move(spec);
    t.differ.block_bytes = specBlockBytes(t.spec);
    t.differ.multi_residence = t.spec.kind == OrgKind::BaseL2L3;
    return t;
}

} // namespace

std::vector<FuzzTarget>
fuzzTargetMatrix()
{
    std::vector<FuzzTarget> out;

    // Conventional two-level hierarchy, shrunk 16x.
    {
        OrgSpec spec;
        spec.kind = OrgKind::BaseL2L3;
        spec.base.l2 = CacheOrg{"fuzz.l2", 64ull << 10, 8, 64};
        spec.base.l3 = CacheOrg{"fuzz.l3", 512ull << 10, 8, 64};
        out.push_back(makeTarget("conventional-l2l3", spec));
    }

    // S-NUCA and D-NUCA (every search mode) on one small bank grid.
    {
        OrgSpec spec;
        spec.kind = OrgKind::SNuca;
        spec.snuca.name = "fuzz.snuca";
        spec.snuca.capacity_bytes = 256ull << 10;
        spec.snuca.assoc = 16;
        spec.snuca.block_bytes = 64;
        spec.snuca.rows = 8;
        spec.snuca.cols = 4;
        out.push_back(makeTarget("snuca", spec));
    }
    for (const DNucaSearch search :
         {DNucaSearch::Multicast, DNucaSearch::SsPerformance,
          DNucaSearch::SsEnergy}) {
        OrgSpec spec;
        spec.kind = OrgKind::DNuca;
        spec.dnuca.name = "fuzz.dnuca";
        spec.dnuca.capacity_bytes = 256ull << 10;
        spec.dnuca.assoc = 16;
        spec.dnuca.block_bytes = 64;
        spec.dnuca.rows = 8;
        spec.dnuca.cols = 4;
        spec.dnuca.search = search;
        out.push_back(makeTarget(
            strprintf("dnuca-%s", dnucaSearchName(search)), spec));
    }

    // Coupled set-associative placement, every promotion policy.
    for (const PromotionPolicy promo :
         {PromotionPolicy::DemotionOnly, PromotionPolicy::NextFastest,
          PromotionPolicy::Fastest}) {
        OrgSpec spec;
        spec.kind = OrgKind::CoupledSA;
        spec.coupled.name = "fuzz.coupled";
        spec.coupled.capacity_bytes = 128ull << 10;
        spec.coupled.assoc = 8;
        spec.coupled.block_bytes = 64;
        spec.coupled.num_dgroups = 4;
        spec.coupled.promotion = promo;
        out.push_back(makeTarget(
            strprintf("coupled-%s", promotionPolicyName(promo)), spec));
    }

    // NuRAPID: promotion x distance replacement, unrestricted and with
    // Section 2.4.3 frame restriction (8 frames per region).
    for (const PromotionPolicy promo :
         {PromotionPolicy::DemotionOnly, PromotionPolicy::NextFastest,
          PromotionPolicy::Fastest}) {
        for (const DistanceRepl drepl :
             {DistanceRepl::Random, DistanceRepl::LRU,
              DistanceRepl::TreePLRU}) {
            for (const std::uint32_t restriction : {0u, 8u}) {
                OrgSpec spec;
                spec.kind = OrgKind::NuRapid;
                spec.nurapid.name = "fuzz.nurapid";
                spec.nurapid.capacity_bytes = 128ull << 10;
                spec.nurapid.assoc = 8;
                spec.nurapid.block_bytes = 64;
                spec.nurapid.num_dgroups = 4;
                spec.nurapid.promotion = promo;
                spec.nurapid.distance_repl = drepl;
                spec.nurapid.frame_restriction = restriction;
                out.push_back(makeTarget(
                    strprintf("nurapid-%s-%s%s",
                              promotionPolicyName(promo),
                              distanceReplName(drepl),
                              restriction ? "-restricted" : ""),
                    spec));
            }
        }
    }

    return out;
}

TraceFuzzer::TraceFuzzer(const FuzzTarget &target, const FuzzConfig &config)
    : tgt(target), cfg(config)
{
}

std::vector<TraceRecord>
TraceFuzzer::generate(const FuzzTarget &target, const FuzzConfig &config)
{
    Rng rng(config.seed, /*stream=*/0xf022);
    const std::uint32_t bb = target.differ.block_bytes;
    const std::uint64_t hot = config.hot_blocks
        ? config.hot_blocks
        : 2 * specCapacityBlocks(target.spec);

    std::vector<TraceRecord> out;
    out.reserve(config.iterations);

    std::array<Addr, 8> recent{};
    std::uint32_t recent_count = 0;
    std::uint32_t recent_pos = 0;
    Addr cold_next = hot;  //!< block indices beyond the hot pool

    for (std::uint64_t i = 0; i < config.iterations; ++i) {
        const unsigned where = rng.below(100);
        Addr block;
        if (where < config.cold_pct) {
            block = cold_next++;
        } else if (where < config.cold_pct + config.revisit_pct &&
                   recent_count > 0) {
            block = recent[rng.below(recent_count)];
        } else {
            block = rng.below64(hot);
        }
        recent[recent_pos] = block;
        recent_pos = (recent_pos + 1) % recent.size();
        recent_count = std::min<std::uint32_t>(
            recent_count + 1, static_cast<std::uint32_t>(recent.size()));

        const unsigned kind = rng.below(100);
        AccessType type = AccessType::Read;
        if (kind < config.writeback_pct)
            type = AccessType::Writeback;
        else if (kind < config.writeback_pct + config.store_pct)
            type = AccessType::Write;

        // Random sub-block offsets exercise the block alignment paths.
        const Addr addr = block * bb + rng.below(bb);
        out.push_back(lowerTraceRecord(
            addr, type, static_cast<std::uint16_t>(rng.below(4))));
    }
    return out;
}

std::optional<std::string>
TraceFuzzer::replay(const FuzzTarget &target,
                    const std::vector<TraceRecord> &trace,
                    std::uint64_t conservation_interval)
{
    const std::unique_ptr<LowerMemory> cand = makeOrganization(target.spec);
    DifferentialTester::Options opts = target.differ;
    opts.conservation_interval = conservation_interval;
    DifferentialTester differ(*cand, opts);
    for (const TraceRecord &rec : trace) {
        if (auto fail = differ.step(rec))
            return fail;
    }
    return differ.deepCheck();
}

FuzzResult
TraceFuzzer::run(const std::string &dump_dir)
{
    FuzzResult result;
    const std::vector<TraceRecord> trace = generate(tgt, cfg);

    {
        const std::unique_ptr<LowerMemory> cand = makeOrganization(tgt.spec);
        DifferentialTester::Options opts = tgt.differ;
        opts.conservation_interval = cfg.conservation_interval;
        DifferentialTester differ(*cand, opts);
        for (std::uint64_t i = 0; i < trace.size(); ++i) {
            if (auto fail = differ.step(trace[i])) {
                result.passed = false;
                result.message = *fail;
                result.failing_step = i;
                break;
            }
        }
        if (result.passed) {
            if (auto fail = differ.deepCheck()) {
                result.passed = false;
                result.message = *fail;
                result.failing_step = trace.size() - 1;
            }
        }
    }
    if (result.passed)
        return result;

    // Minimize: greedy chunk removal (ddmin-style) over the failing
    // prefix. Any mismatch counts as "still failing" — shifting the
    // first divergence is fine, shrinking the trace is the goal.
    std::vector<TraceRecord> working(
        trace.begin(), trace.begin() + result.failing_step + 1);
    std::uint32_t replays = 0;
    constexpr std::uint32_t kMaxReplays = 256;
    std::size_t chunk = working.size() / 2;
    while (chunk >= 1 && replays < kMaxReplays) {
        bool removed_any = false;
        for (std::size_t at = 0;
             at < working.size() && replays < kMaxReplays;) {
            std::vector<TraceRecord> attempt;
            attempt.reserve(working.size());
            attempt.insert(attempt.end(), working.begin(),
                           working.begin() + at);
            attempt.insert(
                attempt.end(),
                working.begin() +
                    std::min(at + chunk, working.size()),
                working.end());
            ++replays;
            if (!attempt.empty() &&
                replay(tgt, attempt, cfg.conservation_interval)) {
                working = std::move(attempt);
                removed_any = true;
                // Same position now holds the records after the cut.
            } else {
                at += chunk;
            }
        }
        if (chunk == 1 && !removed_any)
            break;
        chunk = std::max<std::size_t>(1, chunk / 2);
    }
    if (auto fail = replay(tgt, working, cfg.conservation_interval))
        result.message = *fail;
    result.minimized = std::move(working);

    if (!dump_dir.empty()) {
        result.dump_path = strprintf(
            "%s/fuzz_fail_%s_seed%llu.trace", dump_dir.c_str(),
            tgt.name.c_str(),
            static_cast<unsigned long long>(cfg.seed));
        TraceFileWriter writer(result.dump_path);
        for (const TraceRecord &rec : result.minimized)
            writer.append(rec);
        writer.close();
    }
    return result;
}

} // namespace nurapid
