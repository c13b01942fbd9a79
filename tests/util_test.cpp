// Unit tests for src/util: logging, RNG, tables, CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "obs/resource.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace mlcd::util {
namespace {

// ---------------------------------------------------------------- logging

TEST(Logging, LevelNamesAreStable) {
  EXPECT_EQ(log_level_name(LogLevel::kTrace), "TRACE");
  EXPECT_EQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(log_level_name(LogLevel::kInfo), "INFO");
  EXPECT_EQ(log_level_name(LogLevel::kWarn), "WARN");
  EXPECT_EQ(log_level_name(LogLevel::kError), "ERROR");
}

TEST(Logging, ThresholdFiltersLowerLevels) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
  set_log_level(saved);
}

TEST(Logging, StatementDoesNotThrowWhenDisabled) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);
  EXPECT_NO_THROW(MLCD_LOG(kError, "test") << "invisible " << 42);
  set_log_level(saved);
}

int g_counted_calls = 0;

std::string counted_argument() {
  ++g_counted_calls;
  return std::string(64, 'x');  // too long for the small-string buffer
}

// This binary links mlcd_obs_alloc, so allocations are counted.
TEST(Logging, StatementBelowTheLevelEvaluatesAndAllocatesNothing) {
  ASSERT_TRUE(obs::alloc_hook_active());
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  g_counted_calls = 0;
  const std::uint64_t before = obs::alloc_counters().allocations;
  MLCD_LOG(kDebug, "t") << counted_argument();
  const std::uint64_t after = obs::alloc_counters().allocations;
  EXPECT_EQ(g_counted_calls, 0);
  EXPECT_EQ(after - before, 0u);

  set_log_level(LogLevel::kDebug);
  MLCD_LOG(kDebug, "t") << counted_argument();
  EXPECT_EQ(g_counted_calls, 1);
  set_log_level(saved);
}

TEST(Logging, StatementNestsUnderAnUnbracedIfElse) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);
  int else_taken = 0;
  for (const bool c : {true, false}) {
    if (c)
      MLCD_LOG(kError, "t") << "then-branch";
    else
      ++else_taken;
  }
  EXPECT_EQ(else_taken, 1);
  set_log_level(saved);
}

// -------------------------------------------------------------------- rng

// Mt19937_64 must be std::mt19937_64, draw for draw: every seeded
// stream in the library (and so every golden report) depends on it.
void expect_same_draws(Mt19937_64& engine, std::mt19937_64& reference,
                       int draws, const char* what) {
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t want = reference();
    const std::uint64_t got = engine();
    ASSERT_EQ(got, want) << what << ", draw " << i;
  }
}

TEST(Mt64Engine, MatchesTheStandardEngineAcrossTheFirstBlockBoundary) {
  // 312 words per block: draws 0..1311 cover 1000 draws on each side.
  constexpr int kDraws = 312 + 1000;
  std::vector<std::uint64_t> seeds = {
      0, 1, 5489, std::numeric_limits<std::uint64_t>::max()};
  std::mt19937_64 seed_source(20261019);
  for (int i = 0; i < 1000; ++i) seeds.push_back(seed_source());
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    expect_same_draws(engine, reference, kDraws,
                      ("seed " + std::to_string(seed)).c_str());
  }
}

TEST(Mt64Engine, StandardCheckValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces
  // 9981545732273789042.
  Mt19937_64 engine(5489);
  std::uint64_t value = 0;
  for (int i = 0; i < 10000; ++i) value = engine();
  EXPECT_EQ(value, 9981545732273789042ULL);
  EXPECT_EQ(Mt19937_64::min(), std::mt19937_64::min());
  EXPECT_EQ(Mt19937_64::max(), std::mt19937_64::max());
}

TEST(Mt64Engine, CopiesContinueTheStream) {
  for (const int at : {0, 1, 155, 156, 311, 312}) {
    Mt19937_64 engine(42);
    std::mt19937_64 reference(42);
    for (int i = 0; i < at; ++i) {
      engine();
      reference();
    }
    Mt19937_64 copy(engine);
    std::mt19937_64 reference_copy(reference);
    const std::string what = "copy at " + std::to_string(at);
    expect_same_draws(engine, reference, 700, what.c_str());
    expect_same_draws(copy, reference_copy, 700, what.c_str());
    // Assignment over a differently seeded engine takes the state too.
    Mt19937_64 assigned(7);
    assigned = copy;
    std::mt19937_64 reference_assigned(42);
    reference_assigned.discard(static_cast<unsigned long long>(at) + 700);
    expect_same_draws(assigned, reference_assigned, 400, what.c_str());
  }
}

TEST(Mt64Engine, DiscardMatchesTheStandardEngine) {
  for (const unsigned long long lead : {0ULL, 1ULL, 155ULL, 311ULL}) {
    for (const unsigned long long n :
         {0ULL, 1ULL, 155ULL, 156ULL, 157ULL, 311ULL, 312ULL, 313ULL,
          1000ULL, 5000ULL}) {
      Mt19937_64 engine(9);
      std::mt19937_64 reference(9);
      for (unsigned long long i = 0; i < lead; ++i) {
        engine();
        reference();
      }
      engine.discard(n);
      reference.discard(n);
      const std::string what =
          "discard " + std::to_string(n) + " after " + std::to_string(lead);
      expect_same_draws(engine, reference, 400, what.c_str());
    }
  }
}

TEST(Mt64Engine, ForkedChildrenMatchTheStandardEngine) {
  for (const std::uint64_t seed : {0ULL, 3ULL, 77ULL}) {
    Rng parent(seed);
    std::mt19937_64 reference_parent(seed);
    for (std::uint64_t label = 1; label <= 40; ++label) {
      Rng child = parent.fork(label);
      const std::uint64_t salt = reference_parent();
      std::mt19937_64 reference_child(
          splitmix64(seed ^ splitmix64(label) ^ salt));
      // Through the distribution helpers too: they see the same bits.
      std::mt19937_64 reference_draws = reference_child;
      EXPECT_EQ(child.uniform(),
                std::uniform_real_distribution<double>(0.0, 1.0)(
                    reference_draws));
      EXPECT_EQ(child.normal(),
                std::normal_distribution<double>(0.0, 1.0)(reference_draws));
      reference_child = reference_draws;
      expect_same_draws(child.engine(), reference_child, 60,
                        ("fork " + std::to_string(label)).c_str());
    }
  }
}

TEST(Mt64Engine, ShufflesLikeTheStandardEngine) {
  std::vector<int> a(100), b(100);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  Rng rng(5);
  std::mt19937_64 reference(5);
  std::shuffle(a.begin(), a.end(), rng.engine());
  std::shuffle(b.begin(), b.end(), reference);
  EXPECT_EQ(a, b);
}


TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(4));
}

TEST(Rng, NormalHasRoughlyUnitMoments) {
  Rng rng(42);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, LognormalMedianIsMedian) {
  Rng rng(5);
  constexpr double median = 100.0;
  int below = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.lognormal_median(median, 0.5) < median) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.02);
}

TEST(Rng, ForkStreamsAreIndependentAndDeterministic) {
  Rng parent1(9), parent2(9);
  Rng child1 = parent1.fork(1);
  Rng child2 = parent2.fork(1);
  // Identical parent state + label => identical child stream.
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
  }
  // Different labels from the same state => different streams.
  Rng parent3(9);
  Rng childA = parent3.fork(1);
  Rng parent4(9);
  Rng childB = parent4.fork(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (childA.uniform() == childB.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, StringForkMatchesHashFork) {
  Rng a(3), b(3);
  Rng c1 = a.fork("c5.xlarge");
  Rng c2 = b.fork(fnv1a64("c5.xlarge"));
  EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
}

TEST(Rng, Splitmix64KnownValues) {
  // splitmix64 is a fixed algorithm; lock in determinism across builds.
  EXPECT_EQ(splitmix64(0), 16294208416658607535ULL);
  EXPECT_EQ(splitmix64(1), 10451216379200822465ULL);
}

TEST(Rng, Fnv1aKnownValue) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
}

// ------------------------------------------------------------------ table

TEST(Table, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(TablePrinter(std::vector<std::string>{}),
               std::invalid_argument);
}

TEST(Table, SetAlignOutOfRangeThrows) {
  TablePrinter t({"a"});
  EXPECT_THROW(t.set_align(5, Align::kLeft), std::out_of_range);
}

TEST(Table, SeparatorAddsRule) {
  TablePrinter t({"alpha"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // Two rules: one under the header, one mid-table.
  std::size_t count = 0, pos = 0;
  while ((pos = out.find("---", pos)) != std::string::npos) {
    ++count;
    pos = out.find('\n', pos);
  }
  EXPECT_GE(count, 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_speedup(2.5, 1), "2.5x");
  EXPECT_EQ(fmt_percent(0.815, 1), "81.5%");
  EXPECT_EQ(fmt_dollars(12.3, 2), "$12.30");
  EXPECT_EQ(fmt_hours(4.5, 1), "4.5 h");
}

// -------------------------------------------------------------------- csv

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/mlcd_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.add_row({"1", "2"});
    csv.add_row({"3", "4"});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::filesystem::remove(path);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, ArityMismatchThrows) {
  const std::string path = testing::TempDir() + "/mlcd_csv_arity.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.add_row({"1"}), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Csv, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-zzz/file.csv", {"a"}),
               std::runtime_error);
}

// ------------------------------------------------------------------- plot

TEST(AsciiPlot, RendersAllSeriesSymbolsAndLegend) {
  Series a{"alpha", 'o', {0, 1, 2}, {0, 1, 4}};
  Series b{"beta", '*', {0, 1, 2}, {4, 1, 0}};
  const std::string chart = render_chart({a, b});
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find("o=alpha"), std::string::npos);
  EXPECT_NE(chart.find("*=beta"), std::string::npos);
}

TEST(AsciiPlot, AnchorsNonNegativeDataAtZero) {
  Series s{"s", '*', {0, 1}, {5, 10}};
  const std::string chart = render_chart({s});
  EXPECT_NE(chart.find("0.0"), std::string::npos);
  EXPECT_NE(chart.find("10.0"), std::string::npos);
}

TEST(AsciiPlot, PeakLandsOnTopRow) {
  // The maximum must be drawn on the first grid row.
  Series s{"s", '*', {0, 1, 2}, {0, 10, 0}};
  AsciiChartOptions options;
  options.width = 16;
  options.height = 8;
  const std::string chart = render_chart({s}, options);
  // First plotted line (no y_label set) contains the top row.
  const std::string first_line = chart.substr(0, chart.find('\n'));
  EXPECT_NE(first_line.find('*'), std::string::npos);
}

TEST(AsciiPlot, Errors) {
  EXPECT_THROW(render_chart({}), std::invalid_argument);
  Series empty{"e", '*', {}, {}};
  EXPECT_THROW(render_chart({empty}), std::invalid_argument);
  Series ragged{"r", '*', {1, 2}, {1}};
  EXPECT_THROW(render_chart({ragged}), std::invalid_argument);
  Series ok{"ok", '*', {0}, {1}};
  AsciiChartOptions tiny;
  tiny.width = 2;
  EXPECT_THROW(render_chart({ok}, tiny), std::invalid_argument);
}

TEST(AsciiPlot, BarFillsProportionally) {
  const std::string empty = render_bar("x", 0.0, "0%", 10);
  const std::string half = render_bar("x", 0.5, "50%", 10);
  const std::string full = render_bar("x", 1.0, "100%", 10);
  EXPECT_EQ(std::count(empty.begin(), empty.end(), '#'), 0);
  EXPECT_EQ(std::count(half.begin(), half.end(), '#'), 5);
  EXPECT_EQ(std::count(full.begin(), full.end(), '#'), 10);
  // Clamped outside [0, 1].
  const std::string over = render_bar("x", 1.7, "?", 10);
  EXPECT_EQ(std::count(over.begin(), over.end(), '#'), 10);
}

// ------------------------------------------------------------------- json

TEST(Json, NestedDocument) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("mlcd");
  json.key("count").value(3);
  json.key("ratio").value(0.25);
  json.key("ok").value(true);
  json.key("missing").null();
  json.key("items").begin_array();
  json.value("a").value("b");
  json.begin_object().key("n").value(1).end_object();
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"mlcd\",\"count\":3,\"ratio\":0.25,"
            "\"ok\":true,\"missing\":null,"
            "\"items\":[\"a\",\"b\",{\"n\":1}]}");
}

TEST(Json, Escaping) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonWriter::escape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(json.str(), "[null,null]");
}

TEST(Json, MisuseThrows) {
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter json;
    json.begin_array();
    EXPECT_THROW(json.key("k"), std::logic_error);  // key inside array
  }
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.str(), std::logic_error);  // unclosed
  }
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.end_array(), std::logic_error);  // mismatch
  }
  {
    JsonWriter json;
    json.value(1);
    EXPECT_THROW(json.value(2), std::logic_error);  // two documents
  }
}

// ------------------------------------------------------------- csv reading

TEST(CsvRead, ParsesPlainAndQuotedFields) {
  const auto plain = parse_csv_line("a,b,c");
  ASSERT_EQ(plain.size(), 3u);
  EXPECT_EQ(plain[1], "b");
  const auto quoted = parse_csv_line("\"a,b\",c,\"say \"\"hi\"\"\"");
  ASSERT_EQ(quoted.size(), 3u);
  EXPECT_EQ(quoted[0], "a,b");
  EXPECT_EQ(quoted[2], "say \"hi\"");
}

TEST(CsvRead, EmptyFieldsPreserved) {
  const auto fields = parse_csv_line("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(CsvRead, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv_line("\"oops"), std::invalid_argument);
}

TEST(CsvRead, ReadsFileSkippingCommentsAndBlanks) {
  const std::string path = testing::TempDir() + "/mlcd_read.csv";
  {
    std::ofstream out(path);
    out << "# comment\n\na,b\n1,2\n";
  }
  const auto rows = read_csv(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_EQ(rows[1][1], "2");
  std::filesystem::remove(path);
  EXPECT_THROW(read_csv(path), std::runtime_error);
}

TEST(CsvRead, WriterOutputIsReadable) {
  const std::string path = testing::TempDir() + "/mlcd_roundtrip.csv";
  {
    CsvWriter csv(path, {"x", "tricky"});
    csv.add_row({"1", "a,b \"c\""});
  }
  const auto rows = read_csv(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "a,b \"c\"");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mlcd::util
