// Serving bench: drives the planner-as-a-service core with plan/replan
// traffic on the 64-GPU S3 scenario (70B over 8 nodes) and reports
// latency percentiles, sustained warm re-plan throughput, and the
// cold-vs-warm-cache restart comparison.
//
// Two measurements:
//   1. Warm re-plan throughput: closed-loop clients (one per worker) each
//      issue identical `replan` requests against a warmed session;
//      p50/p99 latency and requests/s, at --threads and at one worker.
//      After the first, every one of them is a hit in the planner's 'R'
//      memo (core/planner_cache.h): no sweep and no lint, so this
//      measures the served path around one lookup. Every response must
//      be byte-identical across both runs (the protocol's determinism
//      contract).
//   2. Restart: the first server's cache is saved, a new server
//      --cache-load's it, and its *first* planning request after register
//      is timed — the same full `plan` request the cold server answered
//      (after a restart there is no prior plan to pin a DP degree from,
//      so a fresh `plan` is exactly what a client issues).
//      restart_speedup = cold_plan / warm_first_plan (target: >= 50x).
//
// Emits BENCH_serve.json with all of the above plus pass/fail verdicts
// (>= 500 req/s sustained, >= 50x restart speedup).
//
//   $ ./bench/bench_serve [--threads=N] [--requests=N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/table.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace malleus {
namespace bench {
namespace {

constexpr char kScenario[] = "model = 70b\nnodes = 8\nbatch = 64\nphase = s3";

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Line(const char* method, const JsonWriter& params) {
  // A fixed request id keeps full response lines byte-comparable across
  // runs (ids are client-chosen; the server does not require uniqueness).
  return serve::RequestLine(7, method, params.str(), /*deadline_ms=*/-1);
}

std::string RegisterLine() {
  JsonWriter params;
  params.BeginObject().Key("name").String("c64");
  params.Key("scenario").String(kScenario).EndObject();
  return Line("register", params);
}

// A plan or replan of cluster c64 under situation s3.
std::string PlanLine(const char* method) {
  JsonWriter params;
  params.BeginObject().Key("cluster").String("c64");
  params.Key("situation").String("s3").EndObject();
  return Line(method, params);
}

// The "result" member of a response line; null for an error response.
serve::JsonValue ResultOf(const std::string& response) {
  const Result<serve::JsonValue> doc = serve::JsonValue::Parse(response);
  const serve::JsonValue* result = doc->Find("result");
  return result != nullptr ? *result : serve::JsonValue::Null();
}

// Expects an ok response; aborts loudly otherwise so a broken server
// cannot produce plausible-looking numbers.
std::string MustOk(serve::Server* server, const std::string& line) {
  std::string response = server->Handle(line);
  if (ResultOf(response).is_null()) {
    std::fprintf(stderr, "request failed:\n  %s\n  %s\n", line.c_str(),
                 response.c_str());
    std::exit(1);
  }
  return response;
}

struct LoadResult {
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::set<std::string> distinct_responses;
};

// Closed-loop load: `clients` threads each issue `per_client` identical
// synchronous requests; latencies are pooled.
LoadResult RunLoad(serve::Server* server, const std::string& line,
                   int clients, int per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::set<std::string>> responses(clients);
  const double t0 = Now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([server, &line, &latencies, &responses, c,
                          per_client] {
      for (int i = 0; i < per_client; ++i) {
        const double start = Now();
        std::string response = server->Handle(line);
        latencies[c].push_back(Now() - start);
        responses[c].insert(std::move(response));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = Now() - t0;

  LoadResult out;
  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  out.throughput_rps = static_cast<double>(all.size()) / elapsed;
  out.p50_ms = all[all.size() / 2] * 1e3;
  out.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)] * 1e3;
  for (auto& per_thread : responses) {
    out.distinct_responses.insert(per_thread.begin(), per_thread.end());
  }
  return out;
}

int Main(int argc, char** argv) {
  int threads = 4;
  int requests = 2000;
  FlagTable flags("bench_serve");
  flags.Define("threads", &threads, "N",
               "server workers and load clients (default 4, at least 1)");
  flags.Define("requests", &requests, "N",
               "warm re-plan requests per load run (default 2000, at\n"
               "least --threads)");
  if (!flags.ParseOrUsage(argc, argv)) return 2;
  threads = std::max(1, threads);
  requests = std::max(threads, requests);

  const std::string cache_path =
      StrFormat("%s/bench_serve.cache",
                std::getenv("TMPDIR") != nullptr ? std::getenv("TMPDIR")
                                                 : "/tmp");
  std::remove(cache_path.c_str());

  const std::string plan_line = PlanLine("plan");
  const std::string replan_line = PlanLine("replan");

  // ---- Server A: cold plan, then sustained warm re-plan load. ----
  serve::ServerOptions options;
  options.num_workers = threads;
  options.planner_threads = 1;
  options.max_queue = 256;
  options.cache_save_path = cache_path;
  double cold_plan_seconds;
  std::string cold_plan_response;
  LoadResult warm_loaded;
  LoadResult warm_single;
  {
    serve::Server server(options);
    MALLEUS_CHECK(server.Start().ok());
    MustOk(&server, RegisterLine());
    const double t0 = Now();
    cold_plan_response = MustOk(&server, plan_line);
    cold_plan_seconds = Now() - t0;

    for (int i = 0; i < 16; ++i) MustOk(&server, replan_line);  // Warmup.
    warm_loaded = RunLoad(&server, replan_line, threads,
                          (requests + threads - 1) / threads);
    MALLEUS_CHECK(server.Shutdown().ok());  // Persists the cache.
  }

  // Same traffic at one worker; responses must match byte for byte.
  {
    serve::ServerOptions single = options;
    single.num_workers = 1;
    single.cache_save_path.clear();
    serve::Server server(single);
    MALLEUS_CHECK(server.Start().ok());
    MustOk(&server, RegisterLine());
    MustOk(&server, plan_line);
    warm_single = RunLoad(&server, replan_line, 1, requests);
  }
  std::set<std::string> all_responses = warm_loaded.distinct_responses;
  all_responses.insert(warm_single.distinct_responses.begin(),
                       warm_single.distinct_responses.end());
  const bool identical = all_responses.size() == 1;

  // ---- Server B: restarted with --cache-load; time the FIRST plan. ----
  // The same request server A answered cold: after a restart there is no
  // prior plan to pin, so a full `plan` is what a client issues, and the
  // warm-loaded cache must answer it from memoized solves.
  double warm_first_plan_seconds;
  bool warm_registered;
  bool warm_plan_matches;
  {
    serve::ServerOptions warm = options;
    warm.cache_save_path.clear();
    warm.cache_load_path = cache_path;
    serve::Server server(warm);
    MALLEUS_CHECK(server.Start().ok());
    const std::string reg = MustOk(&server, RegisterLine());
    warm_registered = ResultOf(reg).Find("warm")->bool_value();
    const double t0 = Now();
    const std::string warm_plan_response = MustOk(&server, plan_line);
    warm_first_plan_seconds = Now() - t0;
    // The cache must change latency, never the answer.
    warm_plan_matches = warm_plan_response == cold_plan_response;
  }
  const double restart_speedup = cold_plan_seconds / warm_first_plan_seconds;
  const bool throughput_ok = warm_loaded.throughput_rps >= 500.0;
  const bool speedup_ok = restart_speedup >= 50.0;

  TablePrinter table("serve bench (70b, 8x8, s3)");
  table.SetHeader({"metric", "value"});
  table.AddRow({"cold plan", StrFormat("%.3fs", cold_plan_seconds)});
  table.AddRow({"warm first plan after restart",
                StrFormat("%.6fs", warm_first_plan_seconds)});
  table.AddRow({"restart speedup", StrFormat("%.0fx %s", restart_speedup,
                                             speedup_ok ? "(pass)"
                                                        : "(FAIL)")});
  table.AddRow({StrFormat("throughput @%d workers", threads),
                StrFormat("%.0f req/s %s", warm_loaded.throughput_rps,
                          throughput_ok ? "(pass)" : "(FAIL)")});
  table.AddRow({"throughput @1 worker",
                StrFormat("%.0f req/s", warm_single.throughput_rps)});
  table.AddRow({StrFormat("latency p50/p99 @%d workers", threads),
                StrFormat("%.2f/%.2f ms", warm_loaded.p50_ms,
                          warm_loaded.p99_ms)});
  table.AddRow({"responses byte-identical", identical ? "yes" : "NO"});
  table.AddRow({"restart cache warm-loaded", warm_registered ? "yes" : "NO"});
  table.AddRow({"warm plan matches cold plan",
                warm_plan_matches ? "yes" : "NO"});
  table.Print();

  JsonWriter json = BeginBenchJson();
  json.Key("scenario").String("70b-8x8-s3").Key("requests").Int(requests);
  json.Key("load").BeginArray();
  for (const auto& [workers, load] :
       {std::pair(threads, warm_loaded), std::pair(1, warm_single)}) {
    json.BeginObject().Key("workers").Int(workers);
    json.Key("throughput_rps").Fixed(load.throughput_rps, 1);
    json.Key("p50_ms").Fixed(load.p50_ms, 3);
    json.Key("p99_ms").Fixed(load.p99_ms, 3).EndObject();
  }
  json.EndArray().Key("identical_responses").Bool(identical);
  json.Key("cache").BeginObject();
  json.Key("cold_plan_seconds").Fixed(cold_plan_seconds, 6);
  json.Key("warm_first_plan_seconds").Fixed(warm_first_plan_seconds, 6);
  json.Key("restart_speedup").Fixed(restart_speedup, 1);
  json.Key("warm_loaded").Bool(warm_registered);
  json.Key("warm_plan_matches_cold").Bool(warm_plan_matches).EndObject();
  json.Key("passes").BeginObject().Key("throughput_500rps").Bool(throughput_ok);
  json.Key("restart_speedup_50x").Bool(speedup_ok).EndObject();
  WriteBenchJson("serve", std::move(json));

  std::remove(cache_path.c_str());
  return (identical && warm_registered && warm_plan_matches) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace malleus

int main(int argc, char** argv) { return malleus::bench::Main(argc, argv); }
