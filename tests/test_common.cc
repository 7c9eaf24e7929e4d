// Unit tests for src/common: byte utilities, wire codec, deterministic
// RNG, statistics, CSV output, chart/table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/ascii_chart.h"
#include "common/bytes.h"
#include "common/codec.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace dap::common {
namespace {

// ---------------------------------------------------------------- bytes

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
}

TEST(Bytes, HexAcceptsUppercase) {
  EXPECT_EQ(from_hex("ABCDEF"), (Bytes{0xab, 0xcd, 0xef}));
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, FromHexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, FromHexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
  EXPECT_THROW(from_hex("0g"), std::invalid_argument);
}

TEST(Bytes, BytesOfCopiesText) {
  const Bytes b = bytes_of("hi");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 'h');
  EXPECT_EQ(b[1], 'i');
}

TEST(Bytes, ConcatJoinsAllParts) {
  const Bytes a = {1, 2};
  const Bytes b = {};
  const Bytes c = {3};
  EXPECT_EQ(concat({a, b, c}), (Bytes{1, 2, 3}));
}

TEST(Bytes, EqualComparesContent) {
  EXPECT_TRUE(equal(Bytes{1, 2}, Bytes{1, 2}));
  EXPECT_FALSE(equal(Bytes{1, 2}, Bytes{1, 3}));
  EXPECT_FALSE(equal(Bytes{1, 2}, Bytes{1, 2, 3}));
}

TEST(Bytes, ConstantTimeEqualMatchesEqual) {
  const Bytes a = {9, 9, 9};
  EXPECT_TRUE(constant_time_equal(a, Bytes{9, 9, 9}));
  EXPECT_FALSE(constant_time_equal(a, Bytes{9, 9, 8}));
  EXPECT_FALSE(constant_time_equal(a, Bytes{9, 9}));
  EXPECT_TRUE(constant_time_equal({}, {}));
}

// ---------------------------------------------------------------- codec

TEST(Codec, IntegerRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

TEST(Codec, BlobRoundTrip) {
  Writer w;
  w.blob(Bytes{5, 6, 7});
  w.blob(Bytes{});
  Reader r(w.data());
  EXPECT_EQ(r.blob(), (Bytes{5, 6, 7}));
  EXPECT_EQ(r.blob(), Bytes{});
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, RawRoundTrip) {
  Writer w;
  w.raw(Bytes{1, 2, 3});
  Reader r(w.data());
  EXPECT_EQ(r.raw(3), (Bytes{1, 2, 3}));
}

TEST(Codec, TruncatedReadsReturnNullopt) {
  Writer w;
  w.u16(7);
  Reader r(w.data());
  EXPECT_EQ(r.u32(), std::nullopt);  // only 2 bytes available
  EXPECT_EQ(r.u16(), 7);             // the failed read consumed nothing
  EXPECT_EQ(r.u8(), std::nullopt);
}

TEST(Codec, TruncatedBlobReturnsNullopt) {
  Writer w;
  w.u16(10);  // claims 10 payload bytes
  w.u8(1);    // provides only 1
  Reader r(w.data());
  EXPECT_EQ(r.blob(), std::nullopt);
}

TEST(Codec, BlobRejectsOversizedPayload) {
  Writer w;
  const Bytes big(70000, 0xaa);
  EXPECT_THROW(w.blob(big), std::invalid_argument);
}

TEST(Codec, RemainingTracksPosition) {
  Writer w;
  w.u32(1);
  Reader r(w.data());
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.u8();
  EXPECT_EQ(r.remaining(), 3u);
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal_count = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal_count;
  }
  EXPECT_LT(equal_count, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.next_double());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformWithinBoundsInclusive) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit over 1000 draws
}

TEST(Rng, UniformSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform(42, 42), 42u);
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(9, 5), std::invalid_argument);
}

TEST(Rng, UniformUnbiasedOverSmallRange) {
  Rng rng(17);
  std::array<int, 3> counts{};
  const int n = 90000;
  for (int i = 0; i < n; ++i) {
    counts[rng.uniform(0, 2)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 3.0, 0.01);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BytesLengthAndDeterminism) {
  Rng a(23), b(23);
  const Bytes ba = a.bytes(33);
  EXPECT_EQ(ba.size(), 33u);
  EXPECT_EQ(ba, b.bytes(33));
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(31);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int equal_count = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++equal_count;
  }
  EXPECT_LT(equal_count, 2);
}

TEST(Rng, SplitMix64KnownValue) {
  // Reference value from the SplitMix64 reference implementation.
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  EXPECT_EQ(first, 0xe220a8397b1dcdafULL);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, a, b;
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 10;
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(RateEstimator, RateAndInterval) {
  RateEstimator est;
  for (int i = 0; i < 70; ++i) est.add(true);
  for (int i = 0; i < 30; ++i) est.add(false);
  EXPECT_DOUBLE_EQ(est.rate(), 0.7);
  const auto [lo, hi] = est.wilson95();
  EXPECT_LT(lo, 0.7);
  EXPECT_GT(hi, 0.7);
  EXPECT_GT(lo, 0.5);
  EXPECT_LT(hi, 0.85);
}

TEST(RateEstimator, EmptyHasFullInterval) {
  RateEstimator est;
  EXPECT_DOUBLE_EQ(est.rate(), 0.0);
  const auto [lo, hi] = est.wilson95();
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST(RateEstimator, ExtremesStayInUnitInterval) {
  RateEstimator all, none;
  for (int i = 0; i < 50; ++i) {
    all.add(true);
    none.add(false);
  }
  EXPECT_LE(all.wilson95().second, 1.0);
  EXPECT_GE(none.wilson95().first, 0.0);
  EXPECT_LT(all.wilson95().first, 1.0);  // uncertainty remains
  EXPECT_GT(none.wilson95().second, 0.0);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(0.0, 1.0, 11);
  ASSERT_EQ(v.size(), 11u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_NEAR(v[5], 0.5, 1e-12);
}

TEST(Linspace, DegenerateCounts) {
  EXPECT_TRUE(linspace(0, 1, 0).empty());
  const auto one = linspace(3.0, 9.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 3.0);
}

// ------------------------------------------------------------------ csv

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "dap_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({1.5, 2.0});
    csv.row_text({"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(Csv, RejectsArityMismatch) {
  const std::string path = testing::TempDir() + "dap_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Csv, FormatNumberHandlesSpecials) {
  EXPECT_EQ(format_number(std::nan("")), "nan");
  EXPECT_EQ(format_number(INFINITY), "inf");
  EXPECT_EQ(format_number(-INFINITY), "-inf");
  EXPECT_EQ(format_number(0.25), "0.25");
}

// ---------------------------------------------------------------- chart

TEST(AsciiChart, RendersSeriesAndLegend) {
  Series s1{"alpha", {0, 1, 2}, {0, 1, 4}};
  Series s2{"beta", {0, 1, 2}, {4, 1, 0}};
  const std::string out = render_chart({s1, s2}, {});
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
}

TEST(AsciiChart, RejectsEmptyAndMismatched) {
  EXPECT_THROW(render_chart({}, {}), std::invalid_argument);
  Series bad{"bad", {0, 1}, {0}};
  EXPECT_THROW(render_chart({bad}, {}), std::invalid_argument);
  Series empty{"empty", {}, {}};
  EXPECT_THROW(render_chart({empty}, {}), std::invalid_argument);
}

TEST(AsciiChart, FlatSeriesDoesNotDivideByZero) {
  Series flat{"flat", {0, 1, 2}, {5, 5, 5}};
  EXPECT_NO_THROW(render_chart({flat}, {}));
}

// ---------------------------------------------------------------- table

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, NumericRowFormatting) {
  TextTable t({"v"});
  t.add_row_numeric({0.125});
  EXPECT_NE(t.render().find("0.125"), std::string::npos);
}

TEST(TextTable, RejectsBadArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

}  // namespace
}  // namespace dap::common
