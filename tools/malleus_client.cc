// malleus_client: command-line client for a running malleus_served.
//
//   $ ./tools/malleus_client --port=7077 register
//         '{"name":"c1","scenario":"model = 32b\nnodes = 8\nbatch = 64"}'
//   $ ./tools/malleus_client --port=7077 plan
//         '{"cluster":"c1","situation":"s3"}'
//   $ ./tools/malleus_client --port=7077 status
//   $ ./tools/malleus_client --port=7077 --scenario-file=run.scenario
//         register '{"name":"c1"}'
//
// The first positional argument is the method, the optional second one
// the params JSON object. --scenario-file=FILE reads the file and injects
// its contents as the params' "scenario" string (saving the caller the
// JSON escaping of a multi-line scenario).
//
// Prints the raw response line; exit 0 on an ok response, 1 on a wire
// error or transport failure, 2 on bad usage. `--help` lists the flags.

#include <cstdio>
#include <string>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "serve/client.h"
#include "serve/json.h"

using namespace malleus;

namespace {

struct Args {
  std::string host = "127.0.0.1";
  int port = 0;
  int64_t deadline_ms = -1;
  std::string scenario_file;
  std::string method;
  std::string params;
};

// Splices the scenario file's text into the params object as "scenario".
Result<std::string> InjectScenario(const std::string& params,
                                   const std::string& path) {
  const Result<std::string> text = ReadFileBytes(path);
  if (!text.ok()) {
    return Status::NotFound(
        StrFormat("cannot read scenario file %s", path.c_str()));
  }
  const std::string field =
      StrFormat("\"scenario\":%s", JsonQuote(*text).c_str());
  if (params.empty() || params == "{}") {
    return StrFormat("{%s}", field.c_str());
  }
  // Validate, then splice the field in after the opening brace.
  MALLEUS_ASSIGN_OR_RETURN(serve::JsonValue parsed,
                           serve::JsonValue::Parse(params));
  if (!parsed.is_object()) {
    return Status::InvalidArgument("PARAMS_JSON must be a JSON object");
  }
  const size_t brace = params.find('{');
  return params.substr(0, brace + 1) + field +
         (parsed.members().empty() ? "" : ",") + params.substr(brace + 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  FlagTable flags("malleus_client");
  flags.Define("port", &args.port, "N", "daemon port on --host (required)");
  flags.Define("host", &args.host, "H", "daemon address (default 127.0.0.1)");
  flags.Define("deadline-ms", &args.deadline_ms, "D",
               "request deadline in ms (default none)");
  flags.Define("scenario-file", &args.scenario_file, "FILE",
               "inject FILE's text as the params' \"scenario\" string");
  flags.DefinePositional("METHOD", &args.method, /*required=*/true);
  flags.DefinePositional("PARAMS_JSON", &args.params, /*required=*/false);
  if (!flags.ParseOrUsage(argc, argv)) return 2;
  if (args.port <= 0) {
    std::fprintf(stderr, "%s", flags.Usage().c_str());
    return 2;
  }
  std::string params = args.params;
  if (!args.scenario_file.empty()) {
    Result<std::string> injected =
        InjectScenario(params, args.scenario_file);
    if (!injected.ok()) {
      std::fprintf(stderr, "%s\n", injected.status().ToString().c_str());
      return 2;
    }
    params = *injected;
  }

  Result<std::unique_ptr<serve::Client>> client =
      serve::Client::ConnectTcp(args.host, args.port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  Result<std::string> response =
      (*client)->CallRaw(args.method, params, args.deadline_ms);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stdout, "%s\n", response->c_str());

  // Exit code reflects the wire-level outcome.
  Result<serve::JsonValue> doc = serve::JsonValue::Parse(*response);
  if (doc.ok()) {
    const serve::JsonValue* ok = doc->Find("ok");
    if (ok != nullptr && ok->is_bool() && ok->bool_value()) return 0;
  }
  return 1;
}
