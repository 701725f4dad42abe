// Unit tests for src/common: Status, Result, Rng, string utils, TablePrinter,
// file I/O and the command-line flag table.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table.h"

namespace malleus {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad degree");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad degree");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad degree");
}

TEST(StatusTest, FactoryCodesMatchPredicates) {
  EXPECT_TRUE(Status::Infeasible("x").IsInfeasible());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Infeasible("a"), Status::Infeasible("a"));
  EXPECT_FALSE(Status::Infeasible("a") == Status::Infeasible("b"));
}

Status FailingOp() { return Status::NotFound("nope"); }

Status Propagates() {
  MALLEUS_RETURN_NOT_OK(FailingOp());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Propagates().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Infeasible("no solution");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInfeasible());
}

Result<int> HalveEven(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> QuarterEven(int v) {
  int half;
  MALLEUS_ASSIGN_OR_RETURN(half, HalveEven(v));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(QuarterEven(6).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All five values should appear.
}

TEST(RngTest, NormalHasReasonableMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(2.50001, 2), "2.5");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(1536ULL << 20), "1.50 GiB");
}

TEST(StringUtilTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(0.5e-6 * 2), "1.0 us");
  EXPECT_EQ(FormatSeconds(0.02), "20.0 ms");
  EXPECT_EQ(FormatSeconds(2.0), "2.00 s");
  EXPECT_EQ(FormatSeconds(600.0), "10.0 min");
}

TEST(StringUtilTest, JsonNumberFiniteValues) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(1.25), "1.25");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(JsonNumber(1.0 / 3.0, 3), "0.333");
}

TEST(StringUtilTest, JsonNumberNonFiniteBecomesNull) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JsonNumber(inf), "null");
  EXPECT_EQ(JsonNumber(-inf), "null");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

TEST(StringUtilTest, JsonSanitizeRewritesBareNonFiniteTokens) {
  EXPECT_EQ(JsonSanitizeNonFinite("{\"a\":inf}"), "{\"a\":null}");
  EXPECT_EQ(JsonSanitizeNonFinite("{\"a\":-inf}"), "{\"a\":null}");
  EXPECT_EQ(JsonSanitizeNonFinite("{\"a\":nan}"), "{\"a\":null}");
  EXPECT_EQ(JsonSanitizeNonFinite("{\"a\":-nan}"), "{\"a\":null}");
  EXPECT_EQ(JsonSanitizeNonFinite("[inf,nan,-inf]"), "[null,null,null]");
  EXPECT_EQ(JsonSanitizeNonFinite("{\"a\":nan(0x8000000000000)}"),
            "{\"a\":null}");
  EXPECT_EQ(JsonSanitizeNonFinite("{\"a\":infinity}"), "{\"a\":null}");
}

TEST(StringUtilTest, JsonSanitizeLeavesStringsAndNumbersAlone) {
  // "inf"/"nan" inside string literals are content, not numbers.
  EXPECT_EQ(JsonSanitizeNonFinite("{\"label\":\"inf speedup\"}"),
            "{\"label\":\"inf speedup\"}");
  EXPECT_EQ(JsonSanitizeNonFinite("{\"nan\":1.5e-3}"), "{\"nan\":1.5e-3}");
  // Escaped quotes must not desynchronize the in-string tracker.
  EXPECT_EQ(JsonSanitizeNonFinite("{\"a\":\"x\\\"inf\\\"y\",\"b\":inf}"),
            "{\"a\":\"x\\\"inf\\\"y\",\"b\":null}");
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t("demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", "1.5"});
  t.AddSeparator();
  t.AddRow({"b", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  // Numeric cells right-aligned.
  EXPECT_NE(s.find("|    22 |"), std::string::npos);
}

TEST(TablePrinterTest, HandlesRaggedRows) {
  TablePrinter t;
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"only-one"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("only-one"), std::string::npos);
}

TEST(StringUtilTest, JsonQuoteWrapsTheEscapedString) {
  EXPECT_EQ(JsonQuote(""), "\"\"");
  EXPECT_EQ(JsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

TEST(FileUtilTest, WriteThenReadRoundTripsBytes) {
  const std::string path = ::testing::TempDir() + "/file_util_test.bin";
  const std::string bytes("a\0b\r\n\xff", 6);
  ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
  Result<std::string> read = ReadFileBytes(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes);
  ASSERT_TRUE(WriteFileBytes(path, "x").ok());  // Truncates.
  EXPECT_EQ(*ReadFileBytes(path), "x");
  std::remove(path.c_str());
}

TEST(FileUtilTest, MissingFileIsNotFound) {
  Result<std::string> read =
      ReadFileBytes(::testing::TempDir() + "/no/such/file");
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
  EXPECT_FALSE(WriteFileBytes(::testing::TempDir() + "/no/such/file", "x")
                   .ok());
}

// Parses `args` (argv[0] is supplied) with `flags`.
Status ParseArgs(FlagTable* flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags->Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagTableTest, IntegersParseFromTheWholeString) {
  int n = 7;
  uint64_t u = 7;
  FlagTable flags("prog");
  flags.Define("n", &n, "N", "");
  flags.Define("u", &u, "U", "");
  EXPECT_TRUE(ParseArgs(&flags, {"--n=-12", "--u=18446744073709551615"}).ok());
  EXPECT_EQ(n, -12);
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  for (const char* bad : {"--n=12abc", "--n=", "--n=1.5", "--n= 1", "--n=two",
                          "--u=-1", "--u=+1", "--u=abc"}) {
    const Status st = ParseArgs(&flags, {bad});
    EXPECT_TRUE(st.IsInvalidArgument()) << bad;
    EXPECT_NE(st.message().find(bad), std::string::npos) << st.message();
  }
  EXPECT_EQ(n, -12);  // Rejected values leave the target untouched.
}

TEST(FlagTableTest, OutOfRangeIntegersAreRejected) {
  int n = 0;
  int64_t wide = 0;
  FlagTable flags("prog");
  flags.Define("n", &n, "N", "");
  flags.Define("wide", &wide, "N", "");
  EXPECT_TRUE(ParseArgs(&flags, {"--wide=2147483648"}).ok());
  EXPECT_EQ(wide, int64_t{2147483648});
  const Status st = ParseArgs(&flags, {"--n=2147483648"});
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("out of range"), std::string::npos);
  EXPECT_FALSE(ParseArgs(&flags, {"--wide=9223372036854775808"}).ok());
  EXPECT_EQ(n, 0);
}

TEST(FlagTableTest, ValidatorRejectsAndNamesTheFlag) {
  int threads = 1;
  std::string format = "text";
  FlagTable flags("prog");
  flags.Define("threads", &threads, "N", "", InRange(1, 8));
  flags.Define("format", &format, "text|json", "", OneOf({"text", "json"}));
  EXPECT_TRUE(ParseArgs(&flags, {"--threads=8", "--format=json"}).ok());
  EXPECT_EQ(threads, 8);
  EXPECT_EQ(format, "json");
  const Status st = ParseArgs(&flags, {"--format=yaml"});
  EXPECT_EQ(st.message(), "bad value for --format=yaml (want text|json)");
  EXPECT_FALSE(ParseArgs(&flags, {"--threads=0"}).ok());
  EXPECT_EQ(threads, 8);
}

TEST(FlagTableTest, OptionalValueFlags) {
  std::string lint;
  FlagTable flags("prog");
  flags.DefineOptional("lint", &lint, "text", "text|json", "",
                       OneOf({"text", "json"}));
  EXPECT_TRUE(ParseArgs(&flags, {}).ok());
  EXPECT_EQ(lint, "");
  EXPECT_TRUE(ParseArgs(&flags, {"--lint"}).ok());
  EXPECT_EQ(lint, "text");
  EXPECT_TRUE(ParseArgs(&flags, {"--lint=json"}).ok());
  EXPECT_EQ(lint, "json");
  EXPECT_FALSE(ParseArgs(&flags, {"--lint=yaml"}).ok());
  EXPECT_EQ(lint, "json");
}

TEST(FlagTableTest, UnknownFlagsAndWrongForms) {
  bool on = false;
  int n = 0;
  FlagTable flags("prog");
  flags.DefineSwitch("on", &on, "");
  flags.Define("n", &n, "N", "");
  EXPECT_EQ(ParseArgs(&flags, {"--nope"}).message(), "unknown flag: --nope");
  EXPECT_EQ(ParseArgs(&flags, {"--nope=1"}).message(),
            "unknown flag: --nope=1");
  EXPECT_EQ(ParseArgs(&flags, {"-x"}).message(), "unknown flag: -x");
  EXPECT_EQ(ParseArgs(&flags, {"-n=1"}).message(), "unknown flag: -n=1");
  EXPECT_EQ(ParseArgs(&flags, {"--on=1"}).message(), "--on takes no value");
  EXPECT_EQ(ParseArgs(&flags, {"--n"}).message(), "--n needs a value (--n=N)");
  EXPECT_FALSE(on);
  EXPECT_TRUE(ParseArgs(&flags, {"--on"}).ok());
  EXPECT_TRUE(on);
}

TEST(FlagTableTest, PositionalArguments) {
  std::string method;
  std::string params;
  FlagTable pair("prog");
  pair.DefinePositional("METHOD", &method, /*required=*/true);
  pair.DefinePositional("PARAMS", &params, /*required=*/false);
  EXPECT_EQ(ParseArgs(&pair, {}).message(), "missing METHOD");
  EXPECT_TRUE(ParseArgs(&pair, {"plan"}).ok());
  EXPECT_EQ(method, "plan");
  EXPECT_TRUE(ParseArgs(&pair, {"plan", "{}"}).ok());
  EXPECT_EQ(params, "{}");
  EXPECT_EQ(ParseArgs(&pair, {"plan", "{}", "x"}).message(),
            "unexpected argument: x");

  std::vector<std::string> files;
  bool list = false;
  FlagTable rest("prog");
  rest.DefineSwitch("list", &list, "");
  rest.DefinePositionals("FILE", &files);
  EXPECT_TRUE(ParseArgs(&rest, {"a", "--list", "b", "-"}).ok());
  EXPECT_EQ(files, (std::vector<std::string>{"a", "b", "-"}));
  EXPECT_TRUE(list);

  FlagTable none("prog");
  EXPECT_EQ(ParseArgs(&none, {"a"}).message(), "unexpected argument: a");
}

TEST(FlagTableTest, AppliesFlagsInArgvOrder) {
  // A flag that loads several fields (like --scenario=FILE) applies where
  // it stands: later flags override its fields, earlier ones are replaced.
  int nodes = 4;
  std::string model = "32b";
  FlagTable flags("prog");
  flags.DefineCallback("preset", "NAME", "", [&](const std::string& name) {
    if (name != "big") return Status::NotFound("no preset " + name);
    nodes = 8;
    model = "70b";
    return Status::OK();
  });
  flags.Define("nodes", &nodes, "N", "");
  EXPECT_TRUE(ParseArgs(&flags, {"--preset=big", "--nodes=2"}).ok());
  EXPECT_EQ(nodes, 2);
  EXPECT_EQ(model, "70b");
  EXPECT_TRUE(ParseArgs(&flags, {"--nodes=2", "--preset=big"}).ok());
  EXPECT_EQ(nodes, 8);
  EXPECT_EQ(ParseArgs(&flags, {"--preset=tiny"}).message(),
            "bad value for --preset=tiny: no preset tiny");
}

TEST(FlagTableTest, HelpStopsParsingAndUsageComesFromTheTable) {
  int n = 0;
  std::string file;
  FlagTable flags("prog");
  flags.Define("n", &n, "N", "count\nsecond line");
  flags.DefinePositional("FILE", &file, /*required=*/true);
  EXPECT_TRUE(ParseArgs(&flags, {"--help", "--bogus"}).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_TRUE(ParseArgs(&flags, {"f"}).ok());
  EXPECT_FALSE(flags.help_requested());
  EXPECT_EQ(flags.Usage(),
            "usage: prog [flags] FILE\n"
            "  --n=N  count\n"
            "         second line\n");
}

}  // namespace
}  // namespace malleus
