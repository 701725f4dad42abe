#include "serve/server.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/scenario_lint.h"
#include "lint/diagnostic.h"
#include "plan/estimator.h"
#include "solver/cache_io.h"
#include "straggler/situation.h"

namespace malleus {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - since)
      .count();
}

std::string IntArrayJson(const std::vector<int>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", values[i]);
  }
  out += "]";
  return out;
}

std::string DoubleArrayJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  out += "]";
  return out;
}

// Param extraction helpers: each returns a typed wire error naming the key
// so clients can tell which field they got wrong.

Result<std::string> RequireString(const JsonValue& params, const char* key) {
  const JsonValue* value = params.Find(key);
  if (value == nullptr || !value->is_string()) {
    return Status::InvalidArgument(
        StrFormat("param '%s' must be a string", key));
  }
  return value->string_value();
}

Result<int64_t> OptionalInt(const JsonValue& params, const char* key,
                            int64_t fallback) {
  const JsonValue* value = params.Find(key);
  if (value == nullptr) return fallback;
  if (!value->IsInt64()) {
    return Status::InvalidArgument(
        StrFormat("param '%s' must be an integer", key));
  }
  return value->Int64();
}

Result<bool> OptionalBool(const JsonValue& params, const char* key,
                          bool fallback) {
  const JsonValue* value = params.Find(key);
  if (value == nullptr) return fallback;
  if (!value->is_bool()) {
    return Status::InvalidArgument(
        StrFormat("param '%s' must be a boolean", key));
  }
  return value->bool_value();
}

// Builds the straggler situation a plan/replan/estimate runs under:
// optional canonical name (or "overlay" for the scenario's custom one),
// then per-GPU overrides from `stragglers` and `failed`.
Result<straggler::Situation> BuildSituation(const Session& session,
                                            const JsonValue& params) {
  straggler::Situation situation(session.cluster().num_gpus());
  const JsonValue* name = params.Find("situation");
  if (name != nullptr) {
    if (!name->is_string()) {
      return Status::InvalidArgument("param 'situation' must be a string");
    }
    const std::string& label = name->string_value();
    if (label == "overlay") {
      if (!session.resolved().has_overlay) {
        return Status::FailedPrecondition(
            "scenario defines no straggler overlay");
      }
      situation = session.resolved().overlay;
    } else {
      MALLEUS_ASSIGN_OR_RETURN(straggler::SituationId id,
                               scenario::SituationIdByName(label));
      MALLEUS_ASSIGN_OR_RETURN(
          situation, straggler::Situation::Canonical(session.cluster(), id));
    }
  }
  const int num_gpus = session.cluster().num_gpus();
  const JsonValue* stragglers = params.Find("stragglers");
  if (stragglers != nullptr) {
    if (!stragglers->is_array()) {
      return Status::InvalidArgument("param 'stragglers' must be an array");
    }
    for (const JsonValue& entry : stragglers->array()) {
      if (!entry.is_object()) {
        return Status::InvalidArgument(
            "each 'stragglers' entry must be an object");
      }
      const JsonValue* gpu = entry.Find("gpu");
      if (gpu == nullptr || !gpu->IsInt64() || gpu->Int64() < 0 ||
          gpu->Int64() >= num_gpus) {
        return Status::OutOfRange(StrFormat(
            "straggler 'gpu' must be an integer in [0, %d)", num_gpus));
      }
      const topo::GpuId id = static_cast<topo::GpuId>(gpu->Int64());
      const JsonValue* level = entry.Find("level");
      const JsonValue* rate = entry.Find("rate");
      if ((level != nullptr) == (rate != nullptr)) {
        return Status::InvalidArgument(
            "each 'stragglers' entry needs exactly one of 'level'/'rate'");
      }
      if (level != nullptr) {
        if (!level->IsInt64() || level->Int64() < 1 || level->Int64() > 6) {
          return Status::OutOfRange(
              "straggler 'level' must be an integer in [1, 6]");
        }
        situation.SetLevel(id, static_cast<int>(level->Int64()));
      } else {
        if (!rate->is_number() || rate->number() < 1.0) {
          return Status::OutOfRange("straggler 'rate' must be >= 1.0");
        }
        situation.SetRate(id, rate->number());
      }
    }
  }
  const JsonValue* failed = params.Find("failed");
  if (failed != nullptr) {
    if (!failed->is_array()) {
      return Status::InvalidArgument("param 'failed' must be an array");
    }
    for (const JsonValue& gpu : failed->array()) {
      if (!gpu.IsInt64() || gpu.Int64() < 0 || gpu.Int64() >= num_gpus) {
        return Status::OutOfRange(StrFormat(
            "'failed' entries must be integers in [0, %d)", num_gpus));
      }
      situation.Fail(static_cast<topo::GpuId>(gpu.Int64()));
    }
  }
  return situation;
}

// Renders the deterministic plan-response body. Wall-clock timings and
// cache statistics are deliberately absent: responses must be
// byte-identical for identical requests at any worker/thread count.
std::string RenderPlanJson(const std::string& cluster_name,
                           const core::PlanResult& result,
                           const std::string& signature, bool plan_changed) {
  const plan::ParallelPlan& p = result.plan;
  std::string out = StrFormat(
      "{\"cluster\":\"%s\",\"signature\":\"%s\",\"plan_changed\":%s,"
      "\"batch\":%lld,\"micro_batch\":%d,\"tp\":%d,\"dp\":%d,"
      "\"estimated_seconds\":%s,\"estimated_full_seconds\":%s,"
      "\"warnings\":%d,\"pipelines\":[",
      JsonEscape(cluster_name).c_str(), JsonEscape(signature).c_str(),
      plan_changed ? "true" : "false",
      static_cast<long long>(p.global_batch), p.micro_batch_size,
      result.chosen_tp, p.dp_degree(),
      JsonNumber(result.estimated_seconds).c_str(),
      JsonNumber(result.estimated_full_seconds).c_str(),
      result.diagnostics.num_warnings());
  for (size_t i = 0; i < p.pipelines.size(); ++i) {
    const plan::Pipeline& pipe = p.pipelines[i];
    if (i > 0) out += ",";
    out += StrFormat("{\"microbatches\":%lld,\"stages\":[",
                     static_cast<long long>(pipe.num_microbatches));
    for (size_t j = 0; j < pipe.stages.size(); ++j) {
      const plan::Stage& stage = pipe.stages[j];
      if (j > 0) out += ",";
      out += StrFormat("{\"layers\":%d,\"gpus\":%s}", stage.num_layers,
                       IntArrayJson(stage.group.gpus).c_str());
    }
    out += "]}";
  }
  out += StrFormat("],\"standby\":%s}", IntArrayJson(p.standby_gpus).c_str());
  return out;
}

std::string RenderDiagnosticsJson(const lint::DiagnosticSink& sink) {
  std::string out =
      StrFormat("{\"errors\":%d,\"warnings\":%d,\"notes\":%d,"
                "\"diagnostics\":[",
                sink.num_errors(), sink.num_warnings(), sink.num_notes());
  for (size_t i = 0; i < sink.diagnostics().size(); ++i) {
    const lint::Diagnostic& d = sink.diagnostics()[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"severity\":\"%s\",\"code\":\"%s\",\"location\":\"%s\","
        "\"message\":\"%s\"}",
        lint::SeverityName(d.severity), JsonEscape(d.code).c_str(),
        JsonEscape(d.location).c_str(), JsonEscape(d.message).c_str());
  }
  out += "]}";
  return out;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  MALLEUS_CHECK_GT(options_.num_workers, 0);
  MALLEUS_CHECK_GT(options_.planner_threads, 0);
  MALLEUS_CHECK_GT(options_.max_queue, 0);
  MALLEUS_CHECK_GT(options_.max_batch, 0);
}

Server::~Server() {
  const Status status = Shutdown();
  if (!status.ok()) {
    MALLEUS_LOG(Warning) << "server shutdown: " << status.ToString();
  }
}

Status Server::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MALLEUS_CHECK(pool_ == nullptr) << "Start() called twice";
    accepting_ = true;
  }
  pool_ = std::make_unique<exec::ThreadPool>(options_.num_workers);
  if (!options_.cache_load_path.empty()) {
    Result<std::vector<solver::CacheFileSection>> sections =
        solver::ReadCacheFile(options_.cache_load_path);
    if (sections.ok()) {
      MALLEUS_LOG(Info) << "warm-loaded " << sections->size()
                        << " cache section(s) from "
                        << options_.cache_load_path;
      registry_.AddPendingSections(std::move(*sections));
    } else if (sections.status().code() == StatusCode::kNotFound) {
      MALLEUS_LOG(Info) << "no cache file at " << options_.cache_load_path
                        << ", starting cold";
    } else {
      // Corrupt / unreadable: cold start is the contract, never a crash
      // and never a startup failure.
      MALLEUS_LOG(Warning) << "ignoring cache file: "
                           << sections.status().ToString();
    }
  }
  return Status::OK();
}

void Server::Submit(std::string line, DoneFn done) {
  int64_t id = 0;
  Result<Request> parsed = ParseRequest(line, &id);
  if (!parsed.ok()) {
    metrics_.GetCounter("serve.parse_errors")->Increment();
    done(ErrorResponse(id, parsed.status()));
    return;
  }

  bool spawn = false;
  Status rejection = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) {
      rejection = Status::Unavailable("server is not accepting requests");
    } else if (queue_.size() >= static_cast<size_t>(options_.max_queue)) {
      rejection = Status::ResourceExhausted(
          StrFormat("admission queue full (%d pending)", options_.max_queue));
    } else {
      Pending pending;
      pending.request = std::move(*parsed);
      pending.done = std::move(done);
      pending.admitted = Clock::now();
      queue_.push_back(std::move(pending));
      metrics_.GetGauge("serve.queue_depth")
          ->Set(static_cast<double>(queue_.size()));
      if (active_drainers_ < options_.num_workers) {
        ++active_drainers_;
        spawn = true;
      }
    }
  }
  if (!rejection.ok()) {
    metrics_.GetCounter("serve.rejected")->Increment();
    done(ErrorResponse(id, rejection));
    return;
  }
  if (spawn) {
    pool_->Submit([this] { DrainerLoop(); });
  }
}

std::string Server::Handle(std::string line) {
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::string response;
  bool ready = false;
  Submit(std::move(line), [&](std::string r) {
    std::lock_guard<std::mutex> lock(done_mu);
    response = std::move(r);
    ready = true;
    done_cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return ready; });
  return response;
}

void Server::DrainerLoop() {
  while (true) {
    std::vector<Pending> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (!queue_.empty() &&
             batch.size() < static_cast<size_t>(options_.max_batch)) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      if (batch.empty()) {
        --active_drainers_;
        idle_cv_.notify_all();
        return;
      }
      in_flight_ += static_cast<int64_t>(batch.size());
      metrics_.GetGauge("serve.queue_depth")
          ->Set(static_cast<double>(queue_.size()));
    }
    for (Pending& pending : batch) {
      std::string response = Process(&pending);
      pending.done(std::move(response));
      {
        std::lock_guard<std::mutex> lock(mu_);
        --in_flight_;
        if (in_flight_ == 0 && queue_.empty()) idle_cv_.notify_all();
      }
    }
  }
}

std::string Server::Process(Pending* pending) {
  const Request& request = pending->request;
  const Clock::time_point start = Clock::now();
  if (request.has_deadline) {
    const int64_t waited_ms = ElapsedMs(pending->admitted, start);
    if (waited_ms >= request.deadline_ms) {
      metrics_.GetCounter("serve.deadline_exceeded")->Increment();
      return ErrorResponseCode(
          request.id, kDeadlineExceeded,
          StrFormat("deadline of %lld ms expired after %lld ms in queue",
                    static_cast<long long>(request.deadline_ms),
                    static_cast<long long>(waited_ms)));
    }
  }

  // The request's own registry: everything the planner/solver stack
  // records while handling this request lands here (keyed to the request,
  // not the process), then gets folded into the server's serve.* series.
  obs::MetricsRegistry request_metrics;
  std::string response;
  {
    obs::MetricsScope scope(&request_metrics);
    response = Dispatch(request);
  }
  FoldRequestMetrics(&request_metrics);

  metrics_.GetCounter("serve.requests")->Increment();
  metrics_.GetHistogram("serve.request_seconds")
      ->Observe(std::chrono::duration<double>(Clock::now() - start).count());
  return response;
}

std::string Server::Dispatch(const Request& request) {
  Result<std::string> result = [&]() -> Result<std::string> {
    if (request.method == "register") {
      return HandleRegister(request.params);
    }
    if (request.method == "plan") {
      return HandlePlan(request.params, /*replan=*/false);
    }
    if (request.method == "replan") {
      return HandlePlan(request.params, /*replan=*/true);
    }
    if (request.method == "estimate") return HandleEstimate(request.params);
    if (request.method == "lint") return HandleLint(request.params);
    if (request.method == "status") return HandleStatus();
    if (request.method == "save_cache") {
      return HandleSaveCache(request.params);
    }
    if (request.method == "shutdown") return HandleShutdown();
    return Status::NotImplemented(
        StrFormat("unknown method '%s'", request.method.c_str()));
  }();
  if (!result.ok()) {
    metrics_.GetCounter("serve.errors")->Increment();
    return ErrorResponse(request.id, result.status());
  }
  return OkResponse(request.id, *result);
}

Result<std::string> Server::HandleRegister(const JsonValue& params) {
  MALLEUS_ASSIGN_OR_RETURN(std::string name, RequireString(params, "name"));
  MALLEUS_ASSIGN_OR_RETURN(std::string text,
                           RequireString(params, "scenario"));
  MALLEUS_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec,
                           scenario::ParseScenarioString(text));
  // Static lint before resolution so a bad scenario is one clear
  // INVALID_ARGUMENT instead of whatever resolution trips over first.
  lint::DiagnosticSink sink;
  core::ScenarioLintOptions lint_options;
  lint_options.with_plan = false;
  MALLEUS_RETURN_NOT_OK(core::LintScenarioSpec(spec, lint_options, &sink));
  if (sink.HasErrors()) {
    for (const lint::Diagnostic& d : sink.diagnostics()) {
      if (d.severity == lint::Severity::kError) {
        return Status::InvalidArgument(StrFormat(
            "scenario failed lint (%d error(s), first: %s)",
            sink.num_errors(), d.ToString().c_str()));
      }
    }
  }
  MALLEUS_ASSIGN_OR_RETURN(SessionRegistry::RegisterOutcome outcome,
                           registry_.Register(name, std::move(spec)));
  return StrFormat(
      "{\"cluster\":\"%s\",\"fingerprint\":\"%016llx\",\"gpus\":%d,"
      "\"shared\":%s,\"warm\":%s,\"warm_entries\":%lld}",
      JsonEscape(name).c_str(),
      static_cast<unsigned long long>(outcome.session->fingerprint()),
      outcome.session->cluster().num_gpus(),
      outcome.shared ? "true" : "false", outcome.warm ? "true" : "false",
      static_cast<long long>(outcome.warm_entries));
}

Result<std::string> Server::HandlePlan(const JsonValue& params, bool replan) {
  MALLEUS_ASSIGN_OR_RETURN(std::string name,
                           RequireString(params, "cluster"));
  MALLEUS_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                           registry_.Find(name));
  MALLEUS_ASSIGN_OR_RETURN(
      int64_t batch, OptionalInt(params, "batch", session->spec().batch));
  if (batch <= 0) {
    return Status::InvalidArgument("param 'batch' must be positive");
  }
  MALLEUS_ASSIGN_OR_RETURN(straggler::Situation situation,
                           BuildSituation(*session, params));

  core::PlannerOptions popts;
  popts.num_threads = options_.planner_threads;
  const std::shared_ptr<const Session::LastPlan> previous =
      session->last_plan();
  if (replan) {
    // Footnote 2 of the paper: re-planning keeps the DP degree (model
    // state memory depends on it). Keep the prior plan's, or an explicit
    // 'dp' when a restarted client re-plans into a fresh session; when it
    // is infeasible, Replan answers with the planner's own choice.
    MALLEUS_ASSIGN_OR_RETURN(int64_t dp, OptionalInt(params, "dp", 0));
    if (dp < 0) return Status::InvalidArgument("param 'dp' must be >= 1");
    if (dp == 0) {
      if (previous == nullptr) {
        return Status::FailedPrecondition(
            "replan requires a prior plan for this cluster (or an explicit "
            "'dp')");
      }
      dp = previous->plan.dp_degree();
    }
    popts.dp_degree = static_cast<int>(dp);
  }

  // 'plan' leaves dp_degree at 0, for which Replan is a memoized Plan.
  MALLEUS_ASSIGN_OR_RETURN(core::PlanResult result,
                           session->planner().Replan(situation, batch, popts));
  std::string signature = result.plan.Signature();
  const bool plan_changed =
      previous == nullptr || signature != previous->signature;
  std::string body = RenderPlanJson(name, result, signature, plan_changed);
  session->set_last_plan(std::move(result.plan), std::move(signature));
  session->IncrementPlansServed();
  return body;
}

Result<std::string> Server::HandleEstimate(const JsonValue& params) {
  MALLEUS_ASSIGN_OR_RETURN(std::string name,
                           RequireString(params, "cluster"));
  MALLEUS_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                           registry_.Find(name));
  const std::shared_ptr<const Session::LastPlan> last = session->last_plan();
  if (last == nullptr) {
    return Status::FailedPrecondition(
        "estimate requires a prior plan for this cluster");
  }
  MALLEUS_ASSIGN_OR_RETURN(straggler::Situation situation,
                           BuildSituation(*session, params));
  const plan::StepEstimate estimate =
      plan::EstimateStep(last->plan, session->cost(), situation);
  return StrFormat(
      "{\"cluster\":\"%s\",\"signature\":\"%s\",\"step_seconds\":%s,"
      "\"simplified_seconds\":%s,\"pipeline_seconds\":%s}",
      JsonEscape(name).c_str(), JsonEscape(last->signature).c_str(),
      JsonNumber(estimate.step_seconds).c_str(),
      JsonNumber(estimate.simplified_seconds).c_str(),
      DoubleArrayJson(estimate.pipeline_seconds).c_str());
}

Result<std::string> Server::HandleLint(const JsonValue& params) {
  MALLEUS_ASSIGN_OR_RETURN(std::string text,
                           RequireString(params, "scenario"));
  MALLEUS_ASSIGN_OR_RETURN(bool with_plan,
                           OptionalBool(params, "with_plan", true));
  MALLEUS_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec,
                           scenario::ParseScenarioString(text));
  lint::DiagnosticSink sink;
  core::ScenarioLintOptions lint_options;
  lint_options.with_plan = with_plan;
  MALLEUS_RETURN_NOT_OK(core::LintScenarioSpec(spec, lint_options, &sink));
  return RenderDiagnosticsJson(sink);
}

Result<std::string> Server::HandleStatus() {
  size_t queue_depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth = queue_.size();
  }
  obs::Histogram* latency = metrics_.GetHistogram("serve.request_seconds");
  std::string out = StrFormat(
      "{\"protocol\":%d,\"workers\":%d,\"planner_threads\":%d,"
      "\"queue_depth\":%zu,\"max_queue\":%d,"
      "\"requests\":%.0f,\"rejected\":%.0f,\"deadline_exceeded\":%.0f,"
      "\"errors\":%.0f,\"parse_errors\":%.0f,"
      "\"latency_ms\":{\"p50\":%s,\"p95\":%s,\"p99\":%s},"
      "\"planner_solves\":%.0f,\"cache_hits\":%.0f,\"cache_misses\":%.0f,"
      "\"pending_cache_sections\":%lld,\"sessions\":[",
      kProtocolVersion, options_.num_workers, options_.planner_threads,
      queue_depth, options_.max_queue,
      metrics_.GetCounter("serve.requests")->Value(),
      metrics_.GetCounter("serve.rejected")->Value(),
      metrics_.GetCounter("serve.deadline_exceeded")->Value(),
      metrics_.GetCounter("serve.errors")->Value(),
      metrics_.GetCounter("serve.parse_errors")->Value(),
      JsonNumber(latency->Quantile(0.50) * 1e3, 4).c_str(),
      JsonNumber(latency->Quantile(0.95) * 1e3, 4).c_str(),
      JsonNumber(latency->Quantile(0.99) * 1e3, 4).c_str(),
      metrics_.GetCounter("serve.planner_solves")->Value(),
      metrics_.GetCounter("serve.planner_cache_hits")->Value(),
      metrics_.GetCounter("serve.planner_cache_misses")->Value(),
      static_cast<long long>(registry_.num_pending_sections()));
  const auto sessions = registry_.List();
  for (size_t i = 0; i < sessions.size(); ++i) {
    const auto& [name, session] = sessions[i];
    if (i > 0) out += ",";
    const core::PlannerCache::Stats stats =
        session->planner().solve_cache().stats();
    out += StrFormat(
        "{\"name\":\"%s\",\"fingerprint\":\"%016llx\",\"gpus\":%d,"
        "\"plans_served\":%lld,\"has_plan\":%s,\"cache_entries\":%zu,"
        "\"cache_hits\":%lld,\"cache_misses\":%lld}",
        JsonEscape(name).c_str(),
        static_cast<unsigned long long>(session->fingerprint()),
        session->cluster().num_gpus(),
        static_cast<long long>(session->plans_served()),
        session->last_plan() != nullptr ? "true" : "false",
        session->planner().solve_cache().size(),
        static_cast<long long>(stats.hits),
        static_cast<long long>(stats.misses));
  }
  out += "]}";
  return out;
}

Result<std::string> Server::HandleSaveCache(const JsonValue& params) {
  const JsonValue* path_param = params.Find("path");
  std::string path;
  if (path_param != nullptr) {
    if (!path_param->is_string()) {
      return Status::InvalidArgument("param 'path' must be a string");
    }
    path = path_param->string_value();
  } else {
    path = options_.cache_save_path;
  }
  if (path.empty()) {
    return Status::FailedPrecondition(
        "no 'path' given and the server has no --cache-save path");
  }
  const std::vector<solver::CacheFileSection> sections =
      registry_.SnapshotSections();
  MALLEUS_RETURN_NOT_OK(solver::WriteCacheFile(path, sections));
  return StrFormat("{\"path\":\"%s\",\"sections\":%zu}",
                   JsonEscape(path).c_str(), sections.size());
}

Result<std::string> Server::HandleShutdown() {
  shutdown_requested_.store(true);
  return std::string("{\"draining\":true}");
}

void Server::FoldRequestMetrics(obs::MetricsRegistry* request_metrics) {
  // Fold the request's planner activity into the serve.* aggregates. The
  // scoped registry creates these counters lazily, so absent series read
  // as zero.
  static constexpr const char* kFolded[][2] = {
      {"planner.solves", "serve.planner_solves"},
      {"planner.cache_hits", "serve.planner_cache_hits"},
      {"planner.cache_misses", "serve.planner_cache_misses"},
      {"planner.replan_fallbacks", "serve.planner_replan_fallbacks"},
      {"planner.replan_memo_hits", "serve.planner_replan_memo_hits"},
  };
  for (const auto& [from, to] : kFolded) {
    const double value = request_metrics->GetCounter(from)->Value();
    if (value > 0) metrics_.GetCounter(to)->Increment(value);
  }
}

void Server::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && in_flight_ == 0 && active_drainers_ == 0;
  });
}

Status Server::SaveCache(const std::string& path) {
  return solver::WriteCacheFile(path, registry_.SnapshotSections());
}

Status Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::OK();
    accepting_ = false;
  }
  Drain();
  Status saved = Status::OK();
  if (!options_.cache_save_path.empty()) {
    saved = SaveCache(options_.cache_save_path);
    if (saved.ok()) {
      MALLEUS_LOG(Info) << "saved solver cache to "
                        << options_.cache_save_path;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  pool_.reset();  // Joins the executor threads.
  return saved;
}

}  // namespace serve
}  // namespace malleus
