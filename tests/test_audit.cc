/**
 * @file
 * Invariant-audit layer tests: the sinks and runtime configuration,
 * clean audits on fresh and heavily-churned caches, and fault
 * injection — every class of corruption (forward pointer, reverse
 * pointer, duplicate tag, free-list damage, region restriction) must
 * be pinpointed by audit() with the right invariant name and context.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/rng.hh"
#include "mem/set_assoc_cache.hh"
#include "nurapid/coupled_nuca.hh"
#include "nurapid/data_array.hh"
#include "nurapid/nurapid_cache.hh"
#include "nurapid/tag_array.hh"
#include "timing/geometry.hh"

namespace nurapid {
namespace {

const SramMacroModel &
model()
{
    static SramMacroModel m(TechParams::the70nm());
    return m;
}

NuRapidCache::Params
smallParams(std::uint32_t restriction = 0)
{
    NuRapidCache::Params p;
    p.capacity_bytes = 64 * 1024;
    p.assoc = 4;
    p.block_bytes = 128;
    p.num_dgroups = 4;
    p.frame_restriction = restriction;
    p.seed = 3;
    return p;
}

/** Random mixed-type churn; returns the cache already warmed. */
void
churn(NuRapidCache &c, std::uint64_t accesses)
{
    Rng rng(7, 0xa0d1);
    Cycle now = 0;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const Addr addr = rng.below64(4096) * 128 + rng.below(128);
        const unsigned kind = rng.below(10);
        const AccessType type = kind == 0 ? AccessType::Writeback
            : kind < 4 ? AccessType::Write
                       : AccessType::Read;
        now += 1 + rng.below(8);
        c.access(addr, type, now);
    }
}

/** True if any kept violation names @p invariant. */
bool
reported(const CountingAuditSink &sink, const std::string &invariant)
{
    for (const AuditViolation &v : sink.first()) {
        if (v.invariant == invariant)
            return true;
    }
    return false;
}

TEST(AuditViolation, DescribeCarriesFullContext)
{
    AuditViolation v;
    v.component = "nurapid";
    v.invariant = "forward-reverse-mismatch";
    v.detail = "frame is invalid";
    v.set = 3;
    v.way = 1;
    v.group = 2;
    v.frame = 17;
    const std::string text = v.describe();
    EXPECT_NE(text.find("nurapid"), std::string::npos);
    EXPECT_NE(text.find("forward-reverse-mismatch"), std::string::npos);
    EXPECT_NE(text.find("frame is invalid"), std::string::npos);
    for (const char *ctx : {"3", "1", "2", "17"})
        EXPECT_NE(text.find(ctx), std::string::npos) << ctx;
}

TEST(CountingAuditSink, CountsAllButKeepsOnlyFirstFew)
{
    CountingAuditSink sink(/*keep=*/2);
    EXPECT_TRUE(sink.clean());
    EXPECT_EQ(sink.summary(), "");
    for (std::uint32_t i = 0; i < 5; ++i) {
        AuditViolation v;
        v.component = "c";
        v.invariant = "inv";
        v.set = i;
        sink.violation(v);
    }
    EXPECT_FALSE(sink.clean());
    EXPECT_EQ(sink.count(), 5u);
    ASSERT_EQ(sink.first().size(), 2u);
    EXPECT_EQ(sink.first()[0].set, 0u);
    EXPECT_EQ(sink.first()[1].set, 1u);
    EXPECT_NE(sink.summary().find("inv"), std::string::npos);

    sink.reset();
    EXPECT_TRUE(sink.clean());
    EXPECT_EQ(sink.count(), 0u);
    EXPECT_TRUE(sink.first().empty());
}

TEST(AuditConfig, FromEnvParsesFlagAndInterval)
{
    ::unsetenv("NURAPID_AUDIT");
    ::unsetenv("NURAPID_AUDIT_INTERVAL");
    const audit::AuditConfig defaults = audit::AuditConfig::fromEnv();
    EXPECT_TRUE(defaults.enabled);
    EXPECT_EQ(defaults.interval, 4096u);

    ::setenv("NURAPID_AUDIT", "0", 1);
    ::setenv("NURAPID_AUDIT_INTERVAL", "17", 1);
    const audit::AuditConfig tuned = audit::AuditConfig::fromEnv();
    EXPECT_FALSE(tuned.enabled);
    EXPECT_EQ(tuned.interval, 17u);

    ::unsetenv("NURAPID_AUDIT");
    ::unsetenv("NURAPID_AUDIT_INTERVAL");
}

TEST(AuditConfig, HookSinkIsReplaceable)
{
    CountingAuditSink counting;
    audit::setHookSink(&counting);
    EXPECT_EQ(&audit::hookSink(), &counting);

    AuditViolation v;
    v.component = "test";
    v.invariant = "synthetic";
    audit::hookSink().violation(v);
    EXPECT_EQ(counting.count(), 1u);

    audit::setHookSink(nullptr);  // restore the panicking default
    EXPECT_NE(&audit::hookSink(), &counting);
}

TEST(AuditConfig, CompiledInMatchesBuildFlag)
{
#if NURAPID_AUDIT_ENABLED
    EXPECT_TRUE(audit::compiledIn());
#else
    EXPECT_FALSE(audit::compiledIn());
#endif
}

TEST(TagArrayAudit, CleanAfterUse)
{
    TagArray tags(8 * 1024, 4, 128);
    for (Addr a = 0; a < 32; ++a) {
        const auto look = tags.lookup(a * 128);
        const std::uint32_t way = tags.victimWay(look.set);
        auto e = tags.entry(look.set, way);
        e.valid = true;
        e.tag = tags.tagOf(a * 128);
        tags.setEntry(look.set, way, e);
        tags.touch(look.set, way);
    }
    CountingAuditSink sink;
    EXPECT_TRUE(tags.audit(sink));
    EXPECT_TRUE(sink.clean());
}

TEST(TagArrayAudit, DetectsDuplicateTag)
{
    TagArray tags(8 * 1024, 4, 128);
    for (const std::uint32_t way : {0u, 1u}) {
        auto e = tags.entry(0, way);
        e.valid = true;
        e.tag = 42;
        tags.setEntry(0, way, e);
    }
    CountingAuditSink sink;
    EXPECT_FALSE(tags.audit(sink));
    ASSERT_FALSE(sink.first().empty());
    EXPECT_EQ(sink.first()[0].invariant, "duplicate-tag");
    EXPECT_EQ(sink.first()[0].set, 0u);
}

// The tag-store audit is shared by every organization; each reports
// under its own component name, the coupled cache with the d-group of
// the offending way.
TEST(TagStoreAudit, SetAssocCacheReportsUnderItsName)
{
    SetAssocCache cache({"l2.audit", 64 * 4 * 64, 4, 64});
    for (Addr a = 0; a < 64; ++a)
        cache.access(a * 64, a % 3 == 0);
    CountingAuditSink clean;
    EXPECT_TRUE(cache.audit(clean)) << clean.summary();

    cache.tagsForTesting().fill(9, 1, 42, false);
    cache.tagsForTesting().fill(9, 3, 42, true);
    CountingAuditSink dup;
    EXPECT_FALSE(cache.audit(dup));
    ASSERT_EQ(dup.count(), 1u);
    const AuditViolation &d = dup.first()[0];
    EXPECT_EQ(d.component, "l2.audit");
    EXPECT_EQ(d.invariant, "duplicate-tag");
    EXPECT_EQ(d.set, 9u);
    EXPECT_EQ(d.way, 1u);
    EXPECT_EQ(d.group, AuditViolation::kNoIndex);

    cache.tagsForTesting().invalidate(9, 3);
    cache.tagsForTesting().ranksForTesting().setWordForTesting(17, 0);
    CountingAuditSink rank;
    EXPECT_FALSE(cache.audit(rank));
    ASSERT_EQ(rank.count(), 1u);
    EXPECT_EQ(rank.first()[0].component, "l2.audit");
    EXPECT_EQ(rank.first()[0].invariant, "lru-rank");
    EXPECT_EQ(rank.first()[0].set, 17u);
}

TEST(TagStoreAudit, CoupledNucaReportsDGroupOfDuplicate)
{
    CoupledNucaCache::Params p;
    p.name = "sa.audit";
    p.capacity_bytes = 64 * 1024;  // 64 sets of 8 ways, 2 per d-group
    p.assoc = 8;
    p.block_bytes = 128;
    p.num_dgroups = 4;
    CoupledNucaCache cache(model(), p);
    Cycle now = 0;
    for (Addr a = 0; a < 256; ++a)
        cache.access(a * 128, AccessType::Read, now += 100);
    CountingAuditSink clean;
    EXPECT_TRUE(cache.audit(clean)) << clean.summary();

    TagStore &tags = cache.tagsForTesting();
    tags.fill(3, 5, tags.tagAt(3, 2), false);
    CountingAuditSink dup;
    EXPECT_FALSE(cache.audit(dup));
    ASSERT_EQ(dup.count(), 1u);
    const AuditViolation &d = dup.first()[0];
    EXPECT_EQ(d.component, "sa.audit");
    EXPECT_EQ(d.invariant, "duplicate-tag");
    EXPECT_EQ(d.set, 3u);
    EXPECT_EQ(d.way, 2u);
    EXPECT_EQ(d.group, 1u);  // ways 2 and 3 sit in d-group 1

    tags.invalidate(3, 5);
    tags.ranksForTesting().setWordForTesting(40, ~std::uint64_t{0});
    CountingAuditSink rank;
    EXPECT_FALSE(cache.audit(rank));
    ASSERT_EQ(rank.count(), 1u);
    EXPECT_EQ(rank.first()[0].component, "sa.audit");
    EXPECT_EQ(rank.first()[0].invariant, "lru-rank");
    EXPECT_EQ(rank.first()[0].set, 40u);
}

TEST(DataArrayAudit, CleanAfterChurn)
{
    DataArray data(4, 16, 1, DistanceRepl::LRU, 5);
    for (std::uint32_t i = 0; i < 16; ++i) {
        const std::uint32_t f = data.allocFrame(0, 0);
        data.place(0, f, i, 0);
    }
    // Full group: victim, remove, re-place churn.
    for (std::uint32_t i = 0; i < 8; ++i) {
        const std::uint32_t victim = data.victimFrame(0, 0);
        data.remove(0, victim);
        const std::uint32_t f = data.allocFrame(0, 0);
        data.place(0, f, 100 + i, 1);
        data.touch(0, f);
    }
    CountingAuditSink sink;
    EXPECT_TRUE(data.audit(sink)) << sink.summary();
}

TEST(DataArrayAudit, DetectsFrameFlippedValidBehindFreeList)
{
    DataArray data(2, 8, 1, DistanceRepl::LRU, 5);
    // Frame 3 of group 0 is on the free list; flip it valid without
    // allocating — the free list and the valid partition now disagree.
    auto fr = data.frame(0, 3);
    fr.valid = true;
    data.setFrame(0, 3, fr);
    CountingAuditSink sink;
    EXPECT_FALSE(data.audit(sink));
    EXPECT_TRUE(reported(sink, "free-valid-frame") ||
                reported(sink, "valid-not-chained"))
        << sink.summary();
}

TEST(DataArrayAudit, DetectsPlacedFrameFlippedInvalid)
{
    DataArray data(2, 8, 1, DistanceRepl::LRU, 5);
    const std::uint32_t f = data.allocFrame(0, 0);
    data.place(0, f, 0, 0);
    auto fr = data.frame(0, f);
    fr.valid = false;  // still LRU-chained, not freed
    data.setFrame(0, f, fr);
    CountingAuditSink sink;
    EXPECT_FALSE(data.audit(sink));
    EXPECT_TRUE(reported(sink, "chain-invalid-frame") ||
                reported(sink, "invalid-not-free"))
        << sink.summary();
}

TEST(NuRapidAudit, CleanAfterHeavyChurn)
{
    for (const std::uint32_t restriction : {0u, 8u}) {
        NuRapidCache c(model(), smallParams(restriction));
        churn(c, 4000);
        CountingAuditSink sink;
        EXPECT_TRUE(c.audit(sink)) << sink.summary();
        EXPECT_TRUE(sink.clean());
        EXPECT_TRUE(c.checkInvariants());
    }
}

/** First valid tag entry of @p c, as (set, way). */
std::pair<std::uint32_t, std::uint32_t>
firstValidEntry(const NuRapidCache &c)
{
    for (std::uint32_t s = 0; s < c.tags().numSets(); ++s) {
        for (std::uint32_t w = 0; w < c.tags().assoc(); ++w) {
            if (c.tags().entry(s, w).valid)
                return {s, w};
        }
    }
    ADD_FAILURE() << "no valid entry";
    return {0, 0};
}

TEST(NuRapidAudit, DetectsForwardPointerCorruption)
{
    NuRapidCache c(model(), smallParams());
    churn(c, 2000);
    const auto [s, w] = firstValidEntry(c);
    auto e = c.tagsForTesting().entry(s, w);
    e.frame = (e.frame + 1) % c.data().framesPerGroup();
    c.tagsForTesting().setEntry(s, w, e);

    CountingAuditSink sink;
    EXPECT_FALSE(c.audit(sink));
    EXPECT_TRUE(reported(sink, "forward-reverse-mismatch") ||
                reported(sink, "reverse-forward-mismatch"))
        << sink.summary();
    EXPECT_FALSE(c.checkInvariants());
}

TEST(NuRapidAudit, DetectsForwardPointerOutOfRange)
{
    NuRapidCache c(model(), smallParams());
    churn(c, 2000);
    const auto [s, w] = firstValidEntry(c);
    auto e = c.tagsForTesting().entry(s, w);
    e.frame = c.data().framesPerGroup();
    c.tagsForTesting().setEntry(s, w, e);

    CountingAuditSink sink;
    EXPECT_FALSE(c.audit(sink));
    ASSERT_TRUE(reported(sink, "forward-pointer-range"))
        << sink.summary();
    // The violation locates the corrupted entry exactly.
    for (const AuditViolation &v : sink.first()) {
        if (v.invariant == "forward-pointer-range") {
            EXPECT_EQ(v.set, s);
            EXPECT_EQ(v.way, w);
        }
    }
}

TEST(NuRapidAudit, DetectsReversePointerCorruption)
{
    NuRapidCache c(model(), smallParams());
    churn(c, 2000);
    // Find a valid frame and point it at a different way.
    for (std::uint32_t g = 0; g < c.data().numGroups(); ++g) {
        for (std::uint32_t f = 0; f < c.data().framesPerGroup(); ++f) {
            if (!c.data().frame(g, f).valid)
                continue;
            auto fr = c.dataForTesting().frame(g, f);
            fr.way = static_cast<std::uint16_t>(
                (fr.way + 1) % c.tags().assoc());
            c.dataForTesting().setFrame(g, f, fr);
            CountingAuditSink sink;
            EXPECT_FALSE(c.audit(sink));
            EXPECT_TRUE(reported(sink, "reverse-forward-mismatch") ||
                        reported(sink, "forward-reverse-mismatch"))
                << sink.summary();
            return;
        }
    }
    FAIL() << "no valid frame after churn";
}

TEST(NuRapidAudit, DetectsRegionRestrictionViolation)
{
    // Section 2.4.3: with 8-frame regions, a block's frame must sit in
    // the region its address hashes to. Teleport one block's frame to
    // the other region (fixing both pointer directions so only the
    // restriction invariant is at stake).
    NuRapidCache c(model(), smallParams(/*restriction=*/8));
    ASSERT_GT(c.data().numRegions(), 1u);
    churn(c, 2000);

    const auto [s, w] = firstValidEntry(c);
    auto e = c.tagsForTesting().entry(s, w);
    const std::uint32_t wrong =
        (e.frame + 8) % c.data().framesPerGroup();
    ASSERT_NE(c.data().regionOfFrame(wrong),
              c.data().regionOfFrame(e.frame));

    // Evict whatever lives in the destination frame's slot by swapping
    // pointers is overkill here: just repoint both directions at a
    // frame we first clear.
    auto dest = c.dataForTesting().frame(e.group, wrong);
    auto src = c.dataForTesting().frame(e.group, e.frame);
    if (dest.valid) {
        auto de = c.tagsForTesting().entry(dest.set, dest.way);
        de.valid = false;
        c.tagsForTesting().setEntry(dest.set, dest.way, de);
    }
    c.dataForTesting().setFrame(e.group, wrong, src);
    src.valid = false;
    c.dataForTesting().setFrame(e.group, e.frame, src);
    e.frame = wrong;
    c.tagsForTesting().setEntry(s, w, e);

    // The surgery above also disturbs the data-array free list, so
    // keep plenty of violations — region-restriction must be among
    // them.
    CountingAuditSink sink(/*keep=*/64);
    EXPECT_FALSE(c.audit(sink));
    EXPECT_TRUE(reported(sink, "region-restriction")) << sink.summary();
}

} // namespace
} // namespace nurapid
