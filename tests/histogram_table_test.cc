#include <gtest/gtest.h>

#include "common/csv.h"
#include "support/histogram.h"
#include "common/rng.h"
#include "common/table.h"

namespace prc {
namespace {

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(HistogramTest, BucketsValuesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, EdgeValuesSaturate) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(5.0);
  h.add(1.0);  // == hi lands in last bin, not overflow
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 2u);
}

TEST(HistogramTest, BinGeometry) {
  Histogram h(2.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_high(0), 2.5);
  EXPECT_DOUBLE_EQ(h.bin_center(2), 3.25);
  EXPECT_THROW(h.bin_low(4), std::out_of_range);
}

TEST(HistogramTest, DensitySumsToOne) {
  Histogram h(0.0, 1.0, 8);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) h.add(rng.uniform());
  double sum = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) sum += h.density(b);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(HistogramTest, TotalVariationDistanceZeroForIdenticalLaws) {
  Histogram a(0.0, 1.0, 16), b(0.0, 1.0, 16);
  Rng rng(6);
  for (int i = 0; i < 50000; ++i) {
    a.add(rng.uniform());
    b.add(rng.uniform());
  }
  EXPECT_LT(a.total_variation_distance(b), 0.05);
  Histogram c(0.0, 2.0, 16);
  EXPECT_THROW(a.total_variation_distance(c), std::invalid_argument);
}

TEST(HistogramTest, TotalVariationDetectsDifferentLaws) {
  Histogram a(0.0, 1.0, 16), b(0.0, 1.0, 16);
  Rng rng(7);
  for (int i = 0; i < 50000; ++i) {
    a.add(rng.uniform());
    b.add(rng.uniform() * rng.uniform());  // skewed toward 0
  }
  EXPECT_GT(a.total_variation_distance(b), 0.2);
}

TEST(TextTableTest, AlignsAndFormats) {
  TextTable table({"p", "error"}, 3);
  table.add_numeric_row({0.1, 0.0321});
  table.add_row({"0.2", "low"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("p"), std::string::npos);
  EXPECT_NE(text.find("0.032"), std::string::npos);
  EXPECT_NE(text.find("low"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTableTest, RejectsBadRows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTableTest, CsvOutput) {
  TextTable table({"a", "b"}, 2);
  table.add_numeric_row({1.0, 2.0});
  EXPECT_EQ(table.to_csv(), "a,b\n1.00,2.00\n");
}

TEST(TextTableTest, CsvOutputQuotesStructuralCharacters) {
  TextTable table({"contract", "price"}, 2);
  table.add_row({"(alpha=0.05, delta=0.9)", "100"});
  table.add_row({"say \"hi\"", "5"});
  EXPECT_EQ(table.to_csv(),
            "contract,price\n\"(alpha=0.05, delta=0.9)\",100\n"
            "\"say \"\"hi\"\"\",5\n");
  // The emitted text parses back with the CSV reader.
  const auto parsed = parse_csv(table.to_csv());
  ASSERT_EQ(parsed.row_count(), 2u);
  EXPECT_EQ(parsed.field(0, 0), "(alpha=0.05, delta=0.9)");
  EXPECT_EQ(parsed.field(1, 0), "say \"hi\"");
}

}  // namespace
}  // namespace prc
