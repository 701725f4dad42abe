// malleus_served: the planner-as-a-service daemon. Speaks the versioned
// JSONL protocol (serve/protocol.h) over TCP, or over stdin/stdout with
// --stdio for scripted sessions and tests.
//
//   $ ./tools/malleus_served --port=7077 --cache-save=/var/tmp/malleus.cache
//   listening on 127.0.0.1:7077
//
//   $ ./tools/malleus_served --stdio < session.jsonl
//
// The daemon serves register/plan/replan/estimate/lint/status/save_cache
// for any number of registered clusters concurrently and exits on a
// `shutdown` request (graceful drain: every admitted request is answered,
// the solver cache is persisted when --cache-save is set).
//
// Exit status: 0 = clean shutdown, 1 = startup or shutdown failure,
// 2 = bad usage. `--help` lists the flags.

#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "serve/server.h"
#include "serve/transport.h"

using namespace malleus;

int main(int argc, char** argv) {
  int port = 0;
  bool stdio = false;
  serve::ServerOptions options;
  FlagTable flags("malleus_served");
  flags.Define("port", &port, "N",
               "TCP listen port on 127.0.0.1 (0 = ephemeral; the\n"
               "chosen port is printed either way)",
               InRange(0, 1 << 20));
  flags.DefineSwitch("stdio", &stdio, "serve stdin/stdout instead of TCP");
  flags.Define("workers", &options.num_workers, "N",
               "concurrent request executors (default 2)",
               InRange(1, 1 << 20));
  flags.Define("planner-threads", &options.planner_threads, "N",
               "threads per planner sweep (default 1)", InRange(1, 1 << 20));
  flags.Define("max-queue", &options.max_queue, "N",
               "admission queue bound (default 64)", InRange(1, 1 << 20));
  flags.Define("cache-load", &options.cache_load_path, "FILE",
               "warm-load the solver cache at startup");
  flags.Define("cache-save", &options.cache_save_path, "FILE",
               "persist the solver cache at shutdown");
  if (!flags.ParseOrUsage(argc, argv)) return 2;

  serve::Server server(options);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }

  if (stdio) {
    status = serve::ServeStdio(&server, std::cin, std::cout);
  } else {
    serve::TcpServer tcp(&server);
    status = tcp.Listen(port);
    if (status.ok()) {
      // Parseable by scripts that passed --port=0.
      std::fprintf(stdout, "listening on 127.0.0.1:%d\n", tcp.port());
      std::fflush(stdout);
      status = tcp.Serve();
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
    // Best-effort drain on the error path; its own failure is secondary
    // to the transport error already being reported.
    const Status drain = server.Shutdown();
    if (!drain.ok()) {
      std::fprintf(stderr, "shutdown: %s\n", drain.ToString().c_str());
    }
    return 1;
  }

  status = server.Shutdown();
  if (!status.ok()) {
    std::fprintf(stderr, "shutdown: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
