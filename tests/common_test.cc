// Unit tests for src/common: Status, Result, Rng, string utils, the JSON
// writer, TablePrinter, file I/O and the command-line flag table.

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
#include "serve/json.h"

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

TEST(JsonWriterTest, PlacesEveryCommaInNestedAndEmptyContainers) {
  JsonWriter w;
  w.BeginObject()
      .Key("empty_object").BeginObject().EndObject()
      .Key("empty_array").BeginArray().EndArray()
      .Key("list").BeginArray();
  w.Int(1).BeginObject().EndObject().BeginArray().EndArray();
  w.BeginObject().Key("a").Bool(true).Key("b").String("").EndObject();
  w.BeginArray().BeginArray().Int(2).EndArray().String("x").EndArray();
  w.EndArray().Key("raw").Raw("[3,4]").Key("last").Bool(false).EndObject();
  EXPECT_EQ(w.str(),
            "{\"empty_object\":{},\"empty_array\":[],\"list\":[1,{},[],"
            "{\"a\":true,\"b\":\"\"},[[2],\"x\"]],\"raw\":[3,4],"
            "\"last\":false}");

  JsonWriter top;
  top.BeginArray().EndArray();
  EXPECT_EQ(top.str(), "[]");
}

TEST(JsonWriterTest, EscapesKeysAndStringsLikeJsonQuote) {
  const std::string nasty =
      std::string("q\"b\\n\nr\rt\t\x01\x1f") + '\0' + "\x7f/é";
  JsonWriter w;
  w.BeginObject().Key(nasty).String(nasty).EndObject();
  const std::string quoted =
      "\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u001f\\u0000\x7f/é\"";
  EXPECT_EQ(JsonQuote(nasty), quoted);
  EXPECT_EQ(w.str(), "{" + quoted + ":" + quoted + "}");
}

TEST(JsonWriterTest, BothNumberRulesRenderNonFiniteAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  JsonWriter w;
  w.BeginArray();
  for (double v : {std::nan(""), inf, -inf}) w.Number(v).Fixed(v, 6);
  w.Number(1.0 / 3.0).Number(1.0 / 3.0, 3).Fixed(2.5, 0).Fixed(-1.25, 4);
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[null,null,null,null,null,null,0.333333333,0.333,2,-1.2500]");
}

TEST(JsonWriterTest, IntegersAreExactAtTheirExtremes) {
  JsonWriter w;
  w.BeginArray()
      .Int(std::numeric_limits<int64_t>::min())
      .Int(std::numeric_limits<int64_t>::max())
      .Int(0)
      .Uint(std::numeric_limits<uint64_t>::max())
      .EndArray();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808,9223372036854775807,0,"
            "18446744073709551615]");
}

TEST(JsonWriterTest, DeepDocumentRoundTripsThroughTheParser) {
  constexpr int kDepth = 20;
  JsonWriter w;
  for (int d = 0; d < kDepth; ++d) {
    w.BeginObject()
        .Key("depth").Int(d)
        .Key("name").String("level \"" + std::to_string(d) + "\"\n")
        .Key("values").BeginArray()
        .Number(0.1 * d, 17).Fixed(d + 0.5, 1).Bool(d % 2 == 0)
        .Number(std::nan(""))
        .EndArray()
        .Key("child");
  }
  w.BeginArray().EndArray();
  for (int d = 0; d < kDepth; ++d) w.EndObject();

  Result<serve::JsonValue> doc = serve::JsonValue::Parse(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const serve::JsonValue* node = &*doc;
  for (int d = 0; d < kDepth; ++d) {
    ASSERT_TRUE(node->is_object());
    ASSERT_EQ(node->members().size(), 4u);
    EXPECT_EQ(node->Find("depth")->Int64(), d);
    EXPECT_EQ(node->Find("name")->string_value(),
              "level \"" + std::to_string(d) + "\"\n");
    const std::vector<serve::JsonValue>& values =
        node->Find("values")->array();
    ASSERT_EQ(values.size(), 4u);
    EXPECT_EQ(values[0].number(), 0.1 * d);
    EXPECT_EQ(values[1].number(), d + 0.5);
    EXPECT_EQ(values[2].bool_value(), d % 2 == 0);
    EXPECT_TRUE(values[3].is_null());
    node = node->Find("child");
  }
  ASSERT_TRUE(node->is_array());
  EXPECT_TRUE(node->array().empty());
}

TEST(StringUtilTest, ParseValueReadsWholeFiniteValuesThatFit) {
  double d = 0.0;
  EXPECT_TRUE(ParseValue("2.5000000000000004", &d).ok());
  EXPECT_EQ(d, 2.5000000000000004);
  EXPECT_TRUE(ParseValue("1e-3", &d).ok());
  EXPECT_EQ(d, 1e-3);
  for (const char* bad : {"inf", "-inf", "infinity", "nan", "NAN", "nan(1)",
                          "2.5x", "2.5 ", " 2.5", "+2.5", "", "1e400",
                          "0x1p3"}) {
    EXPECT_TRUE(ParseValue(bad, &d).IsInvalidArgument()) << bad;
  }
  EXPECT_EQ(d, 1e-3);  // Rejected values leave the target untouched.

  int n = 0;
  EXPECT_TRUE(ParseValue("-12", &n).ok());
  EXPECT_EQ(n, -12);
  EXPECT_FALSE(ParseValue("4294967297", &n).ok());
  EXPECT_FALSE(ParseValue("4abc", &n).ok());
  EXPECT_EQ(n, -12);
  uint64_t u = 0;
  EXPECT_TRUE(ParseValue("18446744073709551615", &u).ok());
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(ParseValue("-1", &u).ok());
  std::string text;
  EXPECT_TRUE(ParseValue(" as is ", &text).ok());
  EXPECT_EQ(text, " as is ");
}

TEST(StringUtilTest, KeyValueWordsSplitOnceAndRejectDuplicates) {
  EXPECT_EQ(SplitWords("  a=1\tb=2=3  c \n"),
            (std::vector<std::string>{"a=1", "b=2=3", "c"}));
  EXPECT_TRUE(SplitWords(" \t ").empty());
  const std::vector<std::string> words = {"a=1", "b=2=3", "c="};
  const Result<KeyValues> kv = ParseKeyValues(words);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  ASSERT_EQ(kv->pairs.size(), 3u);
  EXPECT_EQ(*kv->Find("b"), "2=3");
  EXPECT_EQ(*kv->Find("c"), "");
  EXPECT_EQ(kv->Find("d"), nullptr);
  const std::vector<std::string> twice = {"a=1", "a=2"};
  EXPECT_NE(ParseKeyValues(twice).status().message().find("duplicate key"),
            std::string::npos);
  const std::vector<std::string> bare = {"a"};
  EXPECT_FALSE(ParseKeyValues(bare).ok());
  const std::vector<std::string> no_key = {"=1"};
  EXPECT_FALSE(ParseKeyValues(no_key).ok());
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
