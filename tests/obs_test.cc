// Tests for src/obs: Chrome trace-event export well-formedness, histogram
// quantile accuracy, counter/gauge semantics, registry export formats, and
// the SimulateStep span instrumentation (span count == 1F1B task count).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/planner.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/uniform.h"
#include "serve/json.h"
#include "sim/pipeline_sim.h"
#include "topology/cluster.h"

namespace malleus {
namespace obs {
namespace {

bool IsValidJson(const std::string& text) {
  return serve::JsonValue::Parse(text).ok();
}

TEST(JsonValidatorTest, SelfCheck) {
  EXPECT_TRUE(IsValidJson(R"({"a":[1,2.5,-3e4],"b":"x\né","c":null})"));
  EXPECT_FALSE(IsValidJson(R"({"a":1,})"));
  EXPECT_FALSE(IsValidJson("{\"a\":\"\n\"}"));  // bare newline in string
  EXPECT_FALSE(IsValidJson("[1 2]"));
}

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.Value(), 0.0);
  c.Increment();
  c.Increment(2.5);
  EXPECT_DOUBLE_EQ(c.Value(), 3.5);
  c.Reset();
  EXPECT_DOUBLE_EQ(c.Value(), 0.0);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(4.0);
  g.Add(-1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, ExactStatsAndReset) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.Observe(v);
  EXPECT_EQ(h.Count(), 4);
  EXPECT_DOUBLE_EQ(h.Sum(), 10.0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 4.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
}

TEST(HistogramTest, QuantilesWithinBucketError) {
  // Log-scale buckets with growth g bound the relative quantile error by
  // sqrt(g) (the bucket midpoint is at most half a bucket off).
  HistogramOptions opts;
  Histogram h(opts);
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  const double tol = std::sqrt(opts.growth) + 1e-9;
  struct Case {
    double q, expected;
  };
  for (const Case& c :
       {Case{0.50, 500.0}, Case{0.95, 950.0}, Case{0.99, 990.0}}) {
    const double got = h.Quantile(c.q);
    EXPECT_GE(got, c.expected / tol) << "q=" << c.q;
    EXPECT_LE(got, c.expected * tol) << "q=" << c.q;
  }
  // Quantiles never leave the observed range.
  EXPECT_GE(h.Quantile(0.0), 1.0);
  EXPECT_LE(h.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, SingleValueQuantilesClamp) {
  Histogram h;
  h.Observe(0.125);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.125);
}

TEST(MetricsRegistryTest, ExportsAndReset) {
  MetricsRegistry reg;
  reg.GetCounter("engine.replans")->Increment(3);
  reg.GetGauge("planner.last_estimate_seconds")->Set(1.25);
  Histogram* h = reg.GetHistogram("planner.solve_seconds");
  h->Observe(0.01);
  h->Observe(0.02);

  const std::string json = reg.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"engine.replans\""), std::string::npos);
  EXPECT_NE(json.find("\"planner.solve_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);

  const std::string text = reg.ToText();
  EXPECT_NE(text.find("engine.replans"), std::string::npos);
  EXPECT_NE(text.find("planner.solve_seconds"), std::string::npos);

  reg.ResetAll();
  EXPECT_DOUBLE_EQ(reg.GetCounter("engine.replans")->Value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("planner.last_estimate_seconds")->Value(),
                   0.0);
  EXPECT_EQ(reg.GetHistogram("planner.solve_seconds")->Count(), 0);
}

TEST(MetricsRegistryTest, HistogramJsonCarriesQuantileValues) {
  // The JSON render must expose p50/p95/p99 as numbers consistent with
  // the histogram's own quantile estimates — bench harnesses parse these
  // fields out of metrics.json snapshots.
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("whatif.replay_seconds");
  for (int i = 1; i <= 100; ++i) h->Observe(i * 0.001);
  const HistogramSnapshot snap = h->Snapshot();

  const std::string json = reg.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  for (const char* key : {"\"count\":100", "\"p50\":", "\"p95\":",
                          "\"p99\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // The rendered values are the snapshot's values, byte-exact.
  EXPECT_NE(json.find(StrFormat("\"p50\":%s", JsonNumber(snap.p50).c_str())),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(StrFormat("\"p95\":%s", JsonNumber(snap.p95).c_str())),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(StrFormat("\"p99\":%s", JsonNumber(snap.p99).c_str())),
            std::string::npos)
      << json;
  // Sanity: the quantiles bracket the data and are ordered.
  EXPECT_GE(snap.p50, 0.001);
  EXPECT_LE(snap.p99, 0.1 * 1.5);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
}

TEST(MetricsRegistryTest, NonFiniteValuesExportAsJsonNull) {
  // A gauge fed a NaN/Inf (e.g. a ratio over a zero denominator) must not
  // corrupt the JSON export; the registry renders such values as null.
  MetricsRegistry reg;
  reg.GetGauge("bad.gauge")->Set(std::numeric_limits<double>::quiet_NaN());
  reg.GetCounter("bad.counter")
      ->Increment(std::numeric_limits<double>::infinity());
  const std::string json = reg.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"bad.gauge\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, GlobalIsStable) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.GetCounter("obs_test.stable"),
            b.GetCounter("obs_test.stable"));
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreNotLost) {
  // The planner's candidate sweep updates metrics from worker threads
  // (see core::Planner::Plan); hammer one registry from several threads
  // and check that no increment or observation is lost.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        reg.GetCounter("hammer.count")->Increment();
        reg.GetGauge("hammer.gauge")->Set(static_cast<double>(t));
        reg.GetHistogram("hammer.hist")->Observe(1e-3 * (i % 10 + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(reg.GetCounter("hammer.count")->Value(),
                   kThreads * kOpsPerThread);
  EXPECT_EQ(reg.GetHistogram("hammer.hist")->Count(),
            kThreads * kOpsPerThread);
  const double gauge = reg.GetGauge("hammer.gauge")->Value();
  EXPECT_GE(gauge, 0.0);
  EXPECT_LT(gauge, kThreads);
  EXPECT_TRUE(IsValidJson(reg.ToJson()));
}

TEST(MetricsScopeTest, CurrentFallsBackToGlobalAndNestsAndRestores) {
  EXPECT_EQ(&MetricsRegistry::Current(), &MetricsRegistry::Global());
  MetricsRegistry a, b;
  {
    MetricsScope scope_a(&a);
    EXPECT_EQ(&MetricsRegistry::Current(), &a);
    {
      MetricsScope scope_b(&b);
      EXPECT_EQ(&MetricsRegistry::Current(), &b);
    }
    // Nested scopes restore the enclosing scope, not Global.
    EXPECT_EQ(&MetricsRegistry::Current(), &a);
  }
  EXPECT_EQ(&MetricsRegistry::Current(), &MetricsRegistry::Global());
}

TEST(MetricsScopeTest, ScopeIsPerThread) {
  MetricsRegistry a;
  MetricsScope scope(&a);
  MetricsRegistry* seen_on_other_thread = nullptr;
  std::thread t([&] { seen_on_other_thread = &MetricsRegistry::Current(); });
  t.join();
  // A scope installed on this thread must not leak into others.
  EXPECT_EQ(seen_on_other_thread, &MetricsRegistry::Global());
}

// Re-entrancy hammer: two planners run concurrently, each under its own
// tagged registry. Every planner.solves increment must land in the
// registry of the thread that ran the plan — none may cross-talk into the
// other request's registry or leak into Global. This is the contract the
// serving layer's per-request metrics depend on.
TEST(MetricsScopeTest, ConcurrentTaggedPlannersDoNotCrossTalk) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(1);
  const model::CostModel cost(model::ModelSpec::Tiny(), cluster.gpu());
  const double global_before =
      MetricsRegistry::Global().GetCounter("planner.solves")->Value();

  constexpr int kPlansPerThread = 3;
  MetricsRegistry registries[2];
  std::thread threads[2];
  for (int t = 0; t < 2; ++t) {
    threads[t] = std::thread([&, t] {
      MetricsScope scope(&registries[t]);
      core::Planner planner(cluster, cost);
      straggler::Situation situation(cluster.num_gpus());
      if (t == 1) situation.SetRate(0, 2.0);  // Distinct workloads.
      core::PlannerOptions options;
      options.num_threads = 2;  // Fan out inside the scope, too.
      for (int i = 0; i < kPlansPerThread; ++i) {
        MALLEUS_CHECK_OK(planner.Plan(situation, 16, options).status());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < 2; ++t) {
    EXPECT_DOUBLE_EQ(
        registries[t].GetCounter("planner.solves")->Value(),
        static_cast<double>(kPlansPerThread))
        << "registry " << t;
    // Pool workers re-install the scope, so candidate metrics land here
    // as well, not in Global.
    EXPECT_GT(
        registries[t].GetCounter("planner.candidates_explored")->Value(), 0)
        << "registry " << t;
  }
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetCounter("planner.solves")->Value(),
      global_before);
}

TEST(ScopedTimerTest, RecordsOneObservation) {
  Histogram h;
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.Count(), 1);
  EXPECT_GE(h.Snapshot().min, 0.0);
}

TEST(TraceRecorderTest, ChromeJsonShape) {
  TraceRecorder rec;
  const TrackId gpu = rec.Track("pipeline 0", "stage 0");
  rec.AddSpan("fwd mb0", "compute", gpu, 0.0, 0.5,
              {TraceArg::Int("micro", 0), TraceArg::Str("gpus", "n0[0-3]")});
  rec.AddInstant("replan", "engine", rec.Track("engine", "transitions"), 1.0,
                 {TraceArg::Num("planning_seconds", 0.25)});
  EXPECT_EQ(rec.num_events(), 2u);

  const std::string json = rec.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Track metadata for Perfetto naming.
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Complete span + instant phases; instants carry thread scope.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // Durations are microseconds: 0.5 s span -> 500000.
  EXPECT_NE(json.find("\"dur\":500000.0000"), std::string::npos);
}

TEST(TraceRecorderTest, EscapesNamesInJson) {
  TraceRecorder rec;
  rec.AddSpan("odd \"name\"\nwith\tcontrol", "c,at",
              rec.Track("p\"d", "t\\d"), 0.0, 1.0,
              {TraceArg::Str("note", "line1\r\nline2 \x01")});
  const std::string json = rec.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  // Quotes, backslashes and control characters in span/track names and
  // string args must come out escaped — a raw newline inside a JSON
  // string literal breaks chrome://tracing imports.
  EXPECT_NE(json.find("odd \\\"name\\\"\\nwith\\tcontrol"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("p\\\"d"), std::string::npos) << json;
  EXPECT_NE(json.find("t\\\\d"), std::string::npos) << json;
  EXPECT_NE(json.find("line1\\r\\nline2 \\u0001"), std::string::npos)
      << json;
  for (char c : json) {
    EXPECT_NE(c, '\x01');
  }
}

TEST(TraceRecorderTest, NonAsciiNamesPassThroughUtf8) {
  // UTF-8 multi-byte sequences are legal JSON string bytes and must pass
  // through unescaped (Perfetto renders them as-is).
  TraceRecorder rec;
  rec.AddSpan("stage \xc3\xa9tape \xe6\xae\xb5", "compute",
              rec.Track("n\xc5\x93ud 0", "GPU 0"), 0.0, 0.5, {});
  const std::string json = rec.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("stage \xc3\xa9tape \xe6\xae\xb5"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("n\xc5\x93ud 0"), std::string::npos) << json;
}

// Number of events `rec` recorded under `category`.
size_t CountCategory(const TraceRecorder& rec, const std::string& category) {
  size_t n = 0;
  for (const TraceEvent& e : rec.Events()) {
    if (e.category == category) ++n;
  }
  return n;
}

class SimTraceTest : public ::testing::Test {
 protected:
  plan::ParallelPlan MakePlan(int dp, int tp, int pp) {
    plan::UniformConfig cfg;
    cfg.dp = dp;
    cfg.tp = tp;
    cfg.pp = pp;
    cfg.global_batch = 32;
    std::vector<topo::GpuId> all = cluster_.AllGpus();
    std::vector<topo::GpuId> gpus(all.begin(), all.begin() + dp * tp * pp);
    Result<plan::ParallelPlan> p =
        plan::BuildUniformPlan(cluster_, cost_, gpus, cfg);
    MALLEUS_CHECK_OK(p.status());
    return std::move(p).ValueOrDie();
  }

  std::string Simulate(const plan::ParallelPlan& p, TraceRecorder* rec,
                       uint64_t seed) {
    straggler::Situation healthy(cluster_.num_gpus());
    Rng rng(seed);
    sim::SimOptions opts;
    opts.timing_noise_stddev = 0.0;
    opts.trace = rec;
    Result<sim::StepResult> r =
        sim::SimulateStep(cluster_, cost_, p, healthy, opts, &rng);
    MALLEUS_CHECK_OK(r.status());
    return rec->ToChromeTraceJson();
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(2);
  model::CostModel cost_{model::ModelSpec::Tiny(), topo::GpuSpec()};
};

TEST_F(SimTraceTest, OneSpanPer1F1BTaskPlusGradSync) {
  const plan::ParallelPlan p = MakePlan(2, 2, 4);
  TraceRecorder rec;
  const std::string json = Simulate(p, &rec, 42);
  EXPECT_TRUE(IsValidJson(json));

  // Every stage of every pipeline runs its full 1F1B schedule, one span
  // per StageTask.
  size_t want_compute = 0;
  for (const plan::Pipeline& pipe : p.pipelines) {
    for (int s = 0; s < pipe.num_stages(); ++s) {
      want_compute +=
          sim::Build1F1BSchedule(s, pipe.num_stages(), pipe.num_microbatches)
              .size();
    }
  }
  EXPECT_GT(want_compute, 0u);
  EXPECT_EQ(CountCategory(rec, "compute"), want_compute);
  // dp=2 -> one grad-sync span per pipeline.
  EXPECT_EQ(CountCategory(rec, "sync"), p.pipelines.size());
  // pp=4 with P2P enabled -> at least one transfer span.
  EXPECT_GT(CountCategory(rec, "comm"), 0u);
}

TEST_F(SimTraceTest, NoGradSyncSpanWithoutDataParallelism) {
  const plan::ParallelPlan p = MakePlan(1, 2, 4);
  TraceRecorder rec;
  Simulate(p, &rec, 42);
  EXPECT_EQ(CountCategory(rec, "sync"), 0u);
  EXPECT_GT(CountCategory(rec, "compute"), 0u);
}

TEST_F(SimTraceTest, DeterministicForFixedSeed) {
  const plan::ParallelPlan p = MakePlan(2, 2, 2);
  TraceRecorder a, b;
  const std::string ja = Simulate(p, &a, 7);
  const std::string jb = Simulate(p, &b, 7);
  EXPECT_EQ(ja, jb);

  TraceRecorder c;
  straggler::Situation s(cluster_.num_gpus());
  s.SetRate(0, 2.0);
  Rng rng(7);
  sim::SimOptions opts;
  opts.trace = &c;
  Result<sim::StepResult> r =
      sim::SimulateStep(cluster_, cost_, p, s, opts, &rng);
  MALLEUS_CHECK_OK(r.status());
  EXPECT_NE(ja, c.ToChromeTraceJson());  // straggler shifts span times
}

TEST_F(SimTraceTest, TimeOffsetShiftsAllSpans) {
  const plan::ParallelPlan p = MakePlan(1, 2, 2);
  TraceRecorder rec;
  straggler::Situation healthy(cluster_.num_gpus());
  Rng rng(3);
  sim::SimOptions opts;
  opts.timing_noise_stddev = 0.0;
  opts.trace = &rec;
  opts.trace_time_offset_seconds = 100.0;
  MALLEUS_CHECK_OK(
      sim::SimulateStep(cluster_, cost_, p, healthy, opts, &rng).status());
  for (const TraceEvent& e : rec.Events()) {
    EXPECT_GE(e.start_us, 100.0 * 1e6);
  }
}

}  // namespace
}  // namespace obs
}  // namespace malleus
