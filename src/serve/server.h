// The serving core: admission control, batched asynchronous execution and
// request dispatch, independent of any transport.
//
// Life of a request line:
//
//   Submit(line, done)
//     -> parse + validate envelope        (reject inline: typed error)
//     -> admission check                  (queue full -> RESOURCE_EXHAUSTED)
//     -> FIFO queue                       (bounded by options.max_queue)
//     -> drainer task on exec::ThreadPool (batches of up to max_batch)
//     -> deadline check at dequeue        (expired -> DEADLINE_EXCEEDED)
//     -> per-request MetricsScope         (re-entrant planner metrics)
//     -> method handler                   (plan/replan/estimate/lint/...)
//     -> done(response line)              (exactly once, any thread)
//
// Re-entrancy: every request runs under a MetricsScope over its own local
// registry, so two concurrent requests' planner/solver series never
// interleave; the scope-tagged series are folded into the server's own
// registry (serve.* metrics) after the handler returns. Planner state is
// per-session and internally synchronized; the server itself keeps no
// per-request mutable globals.
//
// Cache persistence: Start() warm-loads options.cache_load_path (a corrupt
// or missing file logs and cold-starts — never fails startup), sections
// are matched to sessions by fingerprint at register time, and Shutdown()
// (or the save_cache method) writes every session's cache back out,
// carrying still-unmatched sections forward.

#ifndef MALLEUS_SERVE_SERVER_H_
#define MALLEUS_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace malleus {
namespace serve {

struct ServerOptions {
  /// Concurrent request executors (drainer tasks on the pool).
  int num_workers = 2;
  /// Threads each planner sweep may use. 1 (inline) is the right default
  /// for a loaded server: cross-request parallelism beats intra-request.
  int planner_threads = 1;
  /// Admission bound: requests beyond this many queued are rejected with
  /// RESOURCE_EXHAUSTED instead of growing the queue without bound.
  int max_queue = 64;
  /// Requests one drainer claims per queue visit.
  int max_batch = 8;
  /// Warm-load source checked by Start(); empty = cold start.
  std::string cache_load_path;
  /// Save target for Shutdown() and the parameterless save_cache method;
  /// empty = don't persist.
  std::string cache_save_path;
};

/// \brief Transport-independent serving core.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the executor pool and warm-loads the cache file, if any.
  Status Start();

  /// Response consumer; invoked exactly once per Submit, possibly on an
  /// executor thread (inline on the caller for rejected requests).
  using DoneFn = std::function<void(std::string response)>;

  /// Admits one raw request line. Never blocks on execution.
  void Submit(std::string line, DoneFn done);

  /// Synchronous convenience for tests, benches and in-process clients:
  /// Submit + wait for the response.
  std::string Handle(std::string line);

  /// Blocks until every admitted request has been answered.
  void Drain();

  /// Drains, persists the cache (when configured), stops the executors.
  /// Idempotent.
  Status Shutdown();

  /// Set once a `shutdown` request was processed; transports stop
  /// accepting and unwind to their caller, which calls Shutdown().
  bool shutdown_requested() const { return shutdown_requested_.load(); }

  /// Serializes every session's solve cache (plus carried-forward
  /// sections) to `path` in the solver::cache_io format.
  Status SaveCache(const std::string& path);

  /// The server's own registry (serve.* series). Request-scoped planner
  /// metrics are folded in here after each request.
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  struct Pending {
    Request request;
    DoneFn done;
    std::chrono::steady_clock::time_point admitted;
  };

  /// Drains queued requests in batches until the queue is empty.
  void DrainerLoop();
  /// Executes one admitted request and returns the response line.
  std::string Process(Pending* pending);
  /// Routes a validated request to its method handler.
  std::string Dispatch(const Request& request);

  // Method handlers return the `result` JSON on success; a Status becomes
  // a typed error response.
  Result<std::string> HandleRegister(const JsonValue& params);
  Result<std::string> HandlePlan(const JsonValue& params, bool replan);
  Result<std::string> HandleEstimate(const JsonValue& params);
  Result<std::string> HandleLint(const JsonValue& params);
  Result<std::string> HandleStatus();
  Result<std::string> HandleSaveCache(const JsonValue& params);
  Result<std::string> HandleShutdown();

  /// Folds one finished request's scoped registry into metrics_.
  void FoldRequestMetrics(obs::MetricsRegistry* request_metrics);

  const ServerOptions options_;
  SessionRegistry registry_;
  obs::MetricsRegistry metrics_;

  std::unique_ptr<exec::ThreadPool> pool_;

  std::mutex mu_;
  std::condition_variable idle_cv_;
  std::deque<Pending> queue_;
  int active_drainers_ = 0;
  int64_t in_flight_ = 0;  ///< Dequeued, response not yet delivered.
  bool accepting_ = false;

  std::atomic<bool> shutdown_requested_{false};
  bool stopped_ = false;  // Shutdown() ran (guarded by mu_).
};

}  // namespace serve
}  // namespace malleus

#endif  // MALLEUS_SERVE_SERVER_H_
