// Tests for src/serve: the JSON parser, the versioned JSONL protocol,
// and the planner-as-a-service server — typed error responses, deadline
// admission, queue bounds, byte-identical responses across worker counts,
// cache persistence across restarts, and the stdio and TCP transports.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "straggler/situation.h"

namespace malleus {
namespace serve {
namespace {

// ---------- JSON ----------

TEST(JsonTest, ParsesScalarsAndContainers) {
  Result<JsonValue> v = JsonValue::Parse(
      "{\"a\":1,\"b\":-2.5e2,\"c\":true,\"d\":null,"
      "\"e\":[1,\"two\",{\"f\":false}]}");
  MALLEUS_CHECK_OK(v.status());
  ASSERT_TRUE(v->is_object());
  EXPECT_TRUE(v->Find("a")->IsInt64());
  EXPECT_EQ(v->Find("a")->Int64(), 1);
  EXPECT_DOUBLE_EQ(v->Find("b")->number(), -250.0);
  EXPECT_TRUE(v->Find("c")->bool_value());
  EXPECT_TRUE(v->Find("d")->is_null());
  const JsonValue* e = v->Find("e");
  ASSERT_TRUE(e->is_array());
  ASSERT_EQ(e->array().size(), 3u);
  EXPECT_EQ(e->array()[1].string_value(), "two");
  EXPECT_FALSE(e->array()[2].Find("f")->bool_value());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, DecodesEscapesIncludingSurrogatePairs) {
  Result<JsonValue> v = JsonValue::Parse(
      "\"a\\n\\t\\\"\\\\\\/\\u0041\\u00e9\\ud83d\\ude00\"");
  MALLEUS_CHECK_OK(v.status());
  // A = A, é = é (2 UTF-8 bytes), surrogate pair = 😀 (4 bytes).
  EXPECT_EQ(v->string_value(), "a\n\t\"\\/A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",
      "{",
      "[1,]",
      "{\"a\":}",
      "tru",
      "01",
      "1.",
      "\"unterminated",
      "\"bad\\q\"",
      "{\"a\":1} trailing",
      "nan",
  };
  for (const char* text : bad) {
    Result<JsonValue> v = JsonValue::Parse(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

// ---------- protocol ----------

TEST(ProtocolTest, ParsesFullRequest) {
  int64_t id = 0;
  Result<Request> r = ParseRequest(
      "{\"v\":1,\"id\":42,\"method\":\"plan\","
      "\"params\":{\"cluster\":\"c\"},\"deadline_ms\":250}",
      &id);
  MALLEUS_CHECK_OK(r.status());
  EXPECT_EQ(id, 42);
  EXPECT_EQ(r->id, 42);
  EXPECT_EQ(r->method, "plan");
  EXPECT_TRUE(r->has_deadline);
  EXPECT_EQ(r->deadline_ms, 250);
  EXPECT_EQ(r->params.Find("cluster")->string_value(), "c");
}

TEST(ProtocolTest, ParamsAndDeadlineAreOptional) {
  int64_t id = 0;
  Result<Request> r =
      ParseRequest("{\"v\":1,\"id\":1,\"method\":\"status\"}", &id);
  MALLEUS_CHECK_OK(r.status());
  EXPECT_TRUE(r->params.is_object());
  EXPECT_FALSE(r->has_deadline);
}

TEST(ProtocolTest, RejectsBadRequestsAndRecoversId) {
  int64_t id = 0;
  // Wrong protocol version, but the id is still recovered for the error
  // response.
  Result<Request> r =
      ParseRequest("{\"v\":2,\"id\":9,\"method\":\"plan\"}", &id);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(id, 9);

  id = 0;
  EXPECT_FALSE(ParseRequest("{\"v\":1,\"method\":\"plan\"}", &id).ok());
  EXPECT_EQ(id, 0);  // No id field: errors echo id 0.
  EXPECT_FALSE(ParseRequest("{\"v\":1,\"id\":1}", &id).ok());
  EXPECT_FALSE(
      ParseRequest("{\"v\":1,\"id\":1,\"method\":\"m\",\"params\":3}", &id)
          .ok());
  EXPECT_FALSE(ParseRequest("[]", &id).ok());
}

TEST(ProtocolTest, RequestLineRoundTrips) {
  int64_t id = 0;
  Result<Request> r =
      ParseRequest(RequestLine(5, "lint", "{\"x\":1}", 100), &id);
  MALLEUS_CHECK_OK(r.status());
  EXPECT_EQ(r->id, 5);
  EXPECT_EQ(r->method, "lint");
  EXPECT_EQ(r->deadline_ms, 100);
}

TEST(ProtocolTest, WireErrorCodesAreDistinctForCommonStatuses) {
  EXPECT_STREQ(WireErrorCode(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(WireErrorCode(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(WireErrorCode(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(WireErrorCode(StatusCode::kNotImplemented),
               "NOT_IMPLEMENTED");
  EXPECT_STREQ(WireErrorCode(StatusCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
}

// ---------- server ----------

constexpr char kRegisterLine[] =
    "{\"v\":1,\"id\":1,\"method\":\"register\",\"params\":{\"name\":\"c1\","
    "\"scenario\":\"model = tiny\\nnodes = 1\\nbatch = 8\\nphase = s1\"}}";
constexpr char kPlanLine[] =
    "{\"v\":1,\"id\":2,\"method\":\"plan\","
    "\"params\":{\"cluster\":\"c1\",\"situation\":\"s1\"}}";
constexpr char kReplanLine[] =
    "{\"v\":1,\"id\":3,\"method\":\"replan\","
    "\"params\":{\"cluster\":\"c1\",\"situation\":\"s2\"}}";

ServerOptions SmallOptions() {
  ServerOptions options;
  options.num_workers = 2;
  options.planner_threads = 1;
  return options;
}

// The error code of a non-ok response line, or "" for an ok response.
std::string ErrorCodeOf(const std::string& response) {
  Result<JsonValue> doc = JsonValue::Parse(response);
  MALLEUS_CHECK_OK(doc.status());
  if (doc->Find("ok")->bool_value()) return "";
  return doc->Find("error")->Find("code")->string_value();
}

TEST(ServerTest, RegisterPlanReplanFlow) {
  Server server(SmallOptions());
  MALLEUS_CHECK_OK(server.Start());
  EXPECT_EQ(ErrorCodeOf(server.Handle(kRegisterLine)), "");

  const std::string plan = server.Handle(kPlanLine);
  EXPECT_EQ(ErrorCodeOf(plan), "");
  Result<JsonValue> doc = JsonValue::Parse(plan);
  MALLEUS_CHECK_OK(doc.status());
  EXPECT_EQ(doc->Find("id")->Int64(), 2);
  const JsonValue* result = doc->Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_FALSE(result->Find("signature")->string_value().empty());
  EXPECT_GT(result->Find("dp")->Int64(), 0);
  EXPECT_TRUE(result->Find("plan_changed")->bool_value());

  // Re-planning for a different situation keeps the pinned DP degree.
  const std::string replan = server.Handle(kReplanLine);
  EXPECT_EQ(ErrorCodeOf(replan), "");
  Result<JsonValue> rdoc = JsonValue::Parse(replan);
  EXPECT_EQ(rdoc->Find("result")->Find("dp")->Int64(),
            doc->Find("result")->Find("dp")->Int64());

  // Registering the same scenario under a new name shares the session.
  const std::string alias = server.Handle(
      "{\"v\":1,\"id\":4,\"method\":\"register\",\"params\":{"
      "\"name\":\"c2\","
      "\"scenario\":\"model = tiny\\nnodes = 1\\nbatch = 8\\nphase = "
      "s1\"}}");
  EXPECT_EQ(ErrorCodeOf(alias), "");
  EXPECT_NE(alias.find("\"shared\":true"), std::string::npos);
  MALLEUS_CHECK_OK(server.Shutdown());
}

TEST(ServerTest, ReplanFallsBackWhenThePinnedDpIsInfeasible) {
  Server server(SmallOptions());
  MALLEUS_CHECK_OK(server.Start());
  EXPECT_EQ(ErrorCodeOf(server.Handle(kRegisterLine)), "");
  // No 8-GPU cluster fits 99 pipelines: replan answers with the planner's
  // own DP choice, the same plan an unpinned 'plan' returns.
  const std::string replan = server.Handle(
      "{\"v\":1,\"id\":3,\"method\":\"replan\","
      "\"params\":{\"cluster\":\"c1\",\"situation\":\"s1\",\"dp\":99}}");
  EXPECT_EQ(ErrorCodeOf(replan), "");
  const std::string plan = server.Handle(kPlanLine);
  Result<JsonValue> rdoc = JsonValue::Parse(replan);
  Result<JsonValue> pdoc = JsonValue::Parse(plan);
  MALLEUS_CHECK_OK(rdoc.status());
  MALLEUS_CHECK_OK(pdoc.status());
  const JsonValue* replanned = rdoc->Find("result");
  ASSERT_NE(replanned, nullptr) << replan;
  EXPECT_EQ(replanned->Find("dp")->Int64(),
            pdoc->Find("result")->Find("dp")->Int64());
  EXPECT_EQ(replanned->Find("signature")->string_value(),
            pdoc->Find("result")->Find("signature")->string_value());
  EXPECT_GT(
      server.metrics().GetCounter("serve.planner_replan_fallbacks")->Value(),
      0.0);
  MALLEUS_CHECK_OK(server.Shutdown());
}

TEST(ServerTest, RepeatedReplanIsServedFromTheMemo) {
  Server server(SmallOptions());
  MALLEUS_CHECK_OK(server.Start());
  EXPECT_EQ(ErrorCodeOf(server.Handle(kRegisterLine)), "");
  EXPECT_EQ(ErrorCodeOf(server.Handle(kPlanLine)), "");
  const std::string first = server.Handle(kReplanLine);
  EXPECT_EQ(ErrorCodeOf(first), "");
  obs::MetricsRegistry& metrics = server.metrics();
  const double solves = metrics.GetCounter("serve.planner_solves")->Value();
  const double hits =
      metrics.GetCounter("serve.planner_replan_memo_hits")->Value();

  // The same pinned situation again: one memo lookup, the same response
  // except that the plan did not change this time.
  const std::string again = server.Handle(kReplanLine);
  Result<JsonValue> a = JsonValue::Parse(first);
  Result<JsonValue> b = JsonValue::Parse(again);
  MALLEUS_CHECK_OK(a.status());
  MALLEUS_CHECK_OK(b.status());
  EXPECT_EQ(b->Find("result")->Find("signature")->string_value(),
            a->Find("result")->Find("signature")->string_value());
  EXPECT_FALSE(b->Find("result")->Find("plan_changed")->bool_value());
  EXPECT_EQ(metrics.GetCounter("serve.planner_solves")->Value(), solves);
  EXPECT_EQ(metrics.GetCounter("serve.planner_replan_memo_hits")->Value(),
            hits + 1.0);
  MALLEUS_CHECK_OK(server.Shutdown());
}

TEST(ServerTest, TypedErrorResponses) {
  Server server(SmallOptions());
  MALLEUS_CHECK_OK(server.Start());

  // Unparsable line: typed error echoing id 0, the daemon keeps serving.
  std::string r = server.Handle("this is not json");
  EXPECT_EQ(ErrorCodeOf(r), "INVALID_ARGUMENT");
  EXPECT_NE(r.find("\"id\":0"), std::string::npos);

  EXPECT_EQ(ErrorCodeOf(server.Handle(
                "{\"v\":7,\"id\":1,\"method\":\"status\"}")),
            "FAILED_PRECONDITION");
  EXPECT_EQ(ErrorCodeOf(server.Handle(
                "{\"v\":1,\"id\":1,\"method\":\"frobnicate\"}")),
            "NOT_IMPLEMENTED");
  EXPECT_EQ(ErrorCodeOf(server.Handle(
                "{\"v\":1,\"id\":1,\"method\":\"plan\","
                "\"params\":{\"cluster\":\"nope\"}}")),
            "NOT_FOUND");
  EXPECT_EQ(ErrorCodeOf(server.Handle(
                "{\"v\":1,\"id\":1,\"method\":\"register\",\"params\":{"
                "\"name\":\"bad\",\"scenario\":\"model = tiny\\nnodes = "
                "0\\nbatch = 8\"}}")),
            "INVALID_ARGUMENT");

  // Replan without a prior plan (and no explicit dp) is a precondition
  // failure, not a crash: there is no DP degree to pin.
  EXPECT_EQ(ErrorCodeOf(server.Handle(kRegisterLine)), "");
  EXPECT_EQ(ErrorCodeOf(server.Handle(kReplanLine)), "FAILED_PRECONDITION");

  // After all of the above the server still answers normally.
  EXPECT_EQ(ErrorCodeOf(server.Handle(kPlanLine)), "");
  MALLEUS_CHECK_OK(server.Shutdown());
}

TEST(ServerTest, StragglerLevelsCoverTheFittedRange) {
  Server server(SmallOptions());
  MALLEUS_CHECK_OK(server.Start());
  EXPECT_EQ(ErrorCodeOf(server.Handle(kRegisterLine)), "");
  const auto plan = [&server](const std::string& straggler) {
    return server.Handle(
        "{\"v\":1,\"id\":5,\"method\":\"plan\",\"params\":{"
        "\"cluster\":\"c1\",\"stragglers\":[" +
        straggler + "]}}");
  };
  // The paper's highest injected level, 8, is the same situation as its
  // rate.
  const std::string by_level = plan("{\"gpu\":3,\"level\":8}");
  const std::string by_rate = plan(StrFormat(
      "{\"gpu\":3,\"rate\":%.17g}", straggler::RateForLevel(8)));
  ASSERT_EQ(ErrorCodeOf(by_level), "") << by_level;
  ASSERT_EQ(ErrorCodeOf(by_rate), "") << by_rate;
  Result<JsonValue> level_doc = JsonValue::Parse(by_level);
  Result<JsonValue> rate_doc = JsonValue::Parse(by_rate);
  MALLEUS_CHECK_OK(level_doc.status());
  MALLEUS_CHECK_OK(rate_doc.status());
  EXPECT_EQ(level_doc->Find("result")->Find("signature")->string_value(),
            rate_doc->Find("result")->Find("signature")->string_value());

  const std::string beyond = plan("{\"gpu\":3,\"level\":9}");
  EXPECT_EQ(ErrorCodeOf(beyond), "OUT_OF_RANGE");
  EXPECT_NE(beyond.find("[1, 8]"), std::string::npos) << beyond;
  MALLEUS_CHECK_OK(server.Shutdown());
}

TEST(ServerTest, ExpiredDeadlineIsDeadlineExceeded) {
  Server server(SmallOptions());
  MALLEUS_CHECK_OK(server.Start());
  EXPECT_EQ(ErrorCodeOf(server.Handle(kRegisterLine)), "");
  // deadline_ms 0 expires at admission; the request is never planned.
  const std::string r = server.Handle(
      "{\"v\":1,\"id\":5,\"method\":\"plan\","
      "\"params\":{\"cluster\":\"c1\",\"situation\":\"s1\"},"
      "\"deadline_ms\":0}");
  EXPECT_EQ(ErrorCodeOf(r), kDeadlineExceeded);
  // A generous deadline is honored.
  EXPECT_EQ(ErrorCodeOf(server.Handle(
                "{\"v\":1,\"id\":6,\"method\":\"plan\","
                "\"params\":{\"cluster\":\"c1\",\"situation\":\"s1\"},"
                "\"deadline_ms\":60000}")),
            "");
  MALLEUS_CHECK_OK(server.Shutdown());
}

TEST(ServerTest, SubmitBeforeStartIsUnavailable) {
  Server server(SmallOptions());
  std::string response;
  server.Submit(kPlanLine, [&](std::string r) { response = std::move(r); });
  EXPECT_EQ(ErrorCodeOf(response), "UNAVAILABLE");
}

TEST(ServerTest, FullQueueRejectsWithResourceExhausted) {
  ServerOptions options = SmallOptions();
  options.num_workers = 1;
  options.max_queue = 1;
  options.max_batch = 1;
  Server server(options);
  MALLEUS_CHECK_OK(server.Start());
  EXPECT_EQ(ErrorCodeOf(server.Handle(kRegisterLine)), "");
  EXPECT_EQ(ErrorCodeOf(server.Handle(kPlanLine)), "");

  // Flood a single-worker server whose queue holds one request: the
  // submission loop far outruns the ~sub-millisecond warm re-plans, so
  // some requests must bounce with RESOURCE_EXHAUSTED and every submitted
  // request still gets exactly one response.
  constexpr int kFlood = 500;
  std::mutex mu;
  std::atomic<int> responded{0};
  int ok = 0, rejected = 0, other = 0;
  for (int i = 0; i < kFlood; ++i) {
    server.Submit(kPlanLine, [&](std::string r) {
      const std::string code = ErrorCodeOf(r);
      std::lock_guard<std::mutex> lock(mu);
      if (code.empty()) {
        ++ok;
      } else if (code == "RESOURCE_EXHAUSTED") {
        ++rejected;
      } else {
        ++other;
      }
      responded.fetch_add(1);
    });
  }
  server.Drain();
  EXPECT_EQ(responded.load(), kFlood);
  EXPECT_EQ(other, 0);
  EXPECT_GT(ok, 0);
  EXPECT_GT(rejected, 0);
  MALLEUS_CHECK_OK(server.Shutdown());
}

TEST(ServerTest, ResponsesAreByteIdenticalAcrossWorkerCounts) {
  std::vector<std::string> responses[2];
  const int worker_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    ServerOptions options = SmallOptions();
    options.num_workers = worker_counts[run];
    Server server(options);
    MALLEUS_CHECK_OK(server.Start());
    EXPECT_EQ(ErrorCodeOf(server.Handle(kRegisterLine)), "");
    EXPECT_EQ(ErrorCodeOf(server.Handle(kPlanLine)), "");
    for (int i = 0; i < 8; ++i) {
      responses[run].push_back(server.Handle(kReplanLine));
    }
    MALLEUS_CHECK_OK(server.Shutdown());
  }
  ASSERT_EQ(responses[0].size(), responses[1].size());
  for (size_t i = 0; i < responses[0].size(); ++i) {
    EXPECT_EQ(responses[0][i], responses[1][i]) << "response " << i;
  }
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return StrFormat("%s/%s.%d", dir != nullptr ? dir : "/tmp", name,
                   static_cast<int>(::getpid()));
}

TEST(ServerTest, CachePersistsAcrossRestart) {
  const std::string path = TempPath("serve_test_cache");
  std::remove(path.c_str());

  ServerOptions options = SmallOptions();
  options.cache_save_path = path;
  {
    Server server(options);
    MALLEUS_CHECK_OK(server.Start());
    EXPECT_EQ(ErrorCodeOf(server.Handle(kRegisterLine)), "");
    EXPECT_EQ(ErrorCodeOf(server.Handle(kPlanLine)), "");
    MALLEUS_CHECK_OK(server.Shutdown());  // Persists the cache.
  }
  {
    ServerOptions warm = SmallOptions();
    warm.cache_load_path = path;
    Server server(warm);
    MALLEUS_CHECK_OK(server.Start());
    const std::string reg = server.Handle(kRegisterLine);
    EXPECT_EQ(ErrorCodeOf(reg), "");
    EXPECT_NE(reg.find("\"warm\":true"), std::string::npos) << reg;
    Result<JsonValue> doc = JsonValue::Parse(reg);
    EXPECT_GT(doc->Find("result")->Find("warm_entries")->Int64(), 0);
    MALLEUS_CHECK_OK(server.Shutdown());
  }
  std::remove(path.c_str());
}

TEST(ServerTest, CorruptCacheFileDowngradesToColdStart) {
  const std::string path = TempPath("serve_test_corrupt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("MLSCACHE but then garbage follows", f);
  std::fclose(f);

  ServerOptions options = SmallOptions();
  options.cache_load_path = path;
  Server server(options);
  // Startup must succeed; the corrupt file costs warmth, not the daemon.
  MALLEUS_CHECK_OK(server.Start());
  const std::string reg = server.Handle(kRegisterLine);
  EXPECT_EQ(ErrorCodeOf(reg), "");
  EXPECT_NE(reg.find("\"warm\":false"), std::string::npos) << reg;
  EXPECT_EQ(ErrorCodeOf(server.Handle(kPlanLine)), "");
  MALLEUS_CHECK_OK(server.Shutdown());
  std::remove(path.c_str());
}

// ---------- stdio transport ----------

TEST(StdioTest, ScriptedSessionRunsInOrder) {
  // A stdio stream is one scripted client: with several workers free to
  // overlap, each request must still see the ones above it, so the replan
  // finds the registered cluster and its pinned plan.
  ServerOptions options = SmallOptions();
  options.num_workers = 4;
  options.max_batch = 1;
  Server server(options);
  MALLEUS_CHECK_OK(server.Start());
  std::istringstream in(std::string(kRegisterLine) + "\n" + kPlanLine +
                        "\n" + kReplanLine + "\n");
  std::ostringstream out;
  MALLEUS_CHECK_OK(ServeStdio(&server, in, out));
  std::istringstream responses(out.str());
  std::string line;
  for (int id = 1; id <= 3; ++id) {
    ASSERT_TRUE(std::getline(responses, line)) << out.str();
    Result<JsonValue> doc = JsonValue::Parse(line);
    MALLEUS_CHECK_OK(doc.status());
    EXPECT_EQ(doc->Find("id")->Int64(), id);
    EXPECT_EQ(ErrorCodeOf(line), "") << line;
  }
  MALLEUS_CHECK_OK(server.Shutdown());
}

// ---------- TCP transport ----------

TEST(TcpTest, EndToEndOverLoopback) {
  Server server(SmallOptions());
  MALLEUS_CHECK_OK(server.Start());
  TcpServer tcp(&server);
  MALLEUS_CHECK_OK(tcp.Listen(0));  // Ephemeral port.
  ASSERT_GT(tcp.port(), 0);
  std::thread serving([&] { MALLEUS_CHECK_OK(tcp.Serve()); });

  {
    Result<std::unique_ptr<Client>> client =
        Client::ConnectTcp("127.0.0.1", tcp.port());
    MALLEUS_CHECK_OK(client.status());
    // The `result` value of an ok response line.
    const auto result_of = [](const std::string& response) {
      Result<JsonValue> doc = JsonValue::Parse(response);
      MALLEUS_CHECK_OK(doc.status());
      const JsonValue* result = doc->Find("result");
      MALLEUS_CHECK(result != nullptr) << response;
      return *result;
    };
    Result<std::string> reg = (*client)->CallRaw(
        "register",
        "{\"name\":\"c1\",\"scenario\":\"model = tiny\\nnodes = 1\\nbatch "
        "= 8\\nphase = s1\"}");
    MALLEUS_CHECK_OK(reg.status());
    EXPECT_EQ(result_of(*reg).Find("cluster")->string_value(), "c1");

    Result<std::string> plan = (*client)->CallRaw(
        "plan", "{\"cluster\":\"c1\",\"situation\":\"s1\"}");
    MALLEUS_CHECK_OK(plan.status());
    EXPECT_GT(result_of(*plan).Find("dp")->Int64(), 0);

    // A wire error comes back as a response line carrying its code.
    Result<std::string> missing =
        (*client)->CallRaw("plan", "{\"cluster\":\"ghost\"}");
    MALLEUS_CHECK_OK(missing.status());
    EXPECT_EQ(ErrorCodeOf(*missing), "NOT_FOUND");

    Result<std::string> bye = (*client)->CallRaw("shutdown", "{}");
    MALLEUS_CHECK_OK(bye.status());
    EXPECT_EQ(ErrorCodeOf(*bye), "");
  }
  serving.join();
  EXPECT_TRUE(server.shutdown_requested());
  MALLEUS_CHECK_OK(server.Shutdown());
}

}  // namespace
}  // namespace serve
}  // namespace malleus
