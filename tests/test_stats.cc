/** @file Unit tests for the statistics package and histogram. */

#include <gtest/gtest.h>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace nurapid {
namespace {

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    EXPECT_EQ(c.value(), 1u);
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, TracksMoments)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(StatGroup, RegisterAndQuery)
{
    StatGroup g("grp");
    Counter hits, misses;
    g.addCounter("hits", hits);
    g.addCounter("misses", misses);
    ++hits;
    ++hits;
    ++misses;
    EXPECT_EQ(g.counterValue("hits"), 2u);
    EXPECT_EQ(g.counterValue("misses"), 1u);
    EXPECT_TRUE(g.hasCounter("hits"));
    EXPECT_FALSE(g.hasCounter("nope"));
}

TEST(StatGroup, ResetAll)
{
    StatGroup g("grp");
    Counter c;
    g.addCounter("c", c);
    c += 5;
    g.resetAll();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatGroup, DumpContainsNamesAndValues)
{
    StatGroup g("cache");
    Counter c;
    g.addCounter("hits", c);
    c += 7;
    const std::string dump = g.dump();
    EXPECT_NE(dump.find("cache.hits 7"), std::string::npos);
}

TEST(StatGroupDeath, DuplicateCounterPanics)
{
    StatGroup g("grp");
    Counter a, b;
    g.addCounter("x", a);
    EXPECT_DEATH(g.addCounter("x", b), "duplicate counter");
}

TEST(Histogram, SampleAndFractions)
{
    Histogram h(4);
    h.sample(0, 3);
    h.sample(1);
    h.sample(3, 6);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.3);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.1);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.0);
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.6);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(2);
    h.sample(5);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.clamped(), 1u);
}

TEST(Histogram, MergeAddsBucketwise)
{
    Histogram a(3), b(3);
    a.sample(0);
    b.sample(0);
    b.sample(2, 4);
    a.merge(b);
    EXPECT_EQ(a.count(0), 2u);
    EXPECT_EQ(a.count(2), 4u);
    EXPECT_EQ(a.total(), 6u);
}

TEST(HistogramDeath, MergeShapeMismatchPanics)
{
    Histogram a(2), b(3);
    EXPECT_DEATH(a.merge(b), "different shapes");
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"x", "1"});
    t.row({"longer", "23"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, NumAndPct)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.123, 1), "12.3%");
}

TEST(TextTableDeath, RowWidthMismatchPanics)
{
    TextTable t;
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "cells");
}

} // namespace
} // namespace nurapid
