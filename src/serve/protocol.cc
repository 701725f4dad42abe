#include "serve/protocol.h"

#include "common/string_util.h"

namespace malleus {
namespace serve {

Result<Request> ParseRequest(const std::string& line, int64_t* id_out) {
  *id_out = 0;
  MALLEUS_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  Request request;
  const JsonValue* id = doc.Find("id");
  if (id == nullptr || !id->IsInt64() || id->Int64() < 0) {
    return Status::InvalidArgument(
        "request 'id' must be a non-negative integer");
  }
  request.id = id->Int64();
  *id_out = request.id;

  const JsonValue* version = doc.Find("v");
  if (version == nullptr || !version->IsInt64()) {
    return Status::InvalidArgument("request 'v' must be an integer");
  }
  if (version->Int64() != kProtocolVersion) {
    return Status::FailedPrecondition(
        StrFormat("protocol version %lld unsupported (this server speaks %d)",
                  static_cast<long long>(version->Int64()),
                  kProtocolVersion));
  }

  const JsonValue* method = doc.Find("method");
  if (method == nullptr || !method->is_string() ||
      method->string_value().empty()) {
    return Status::InvalidArgument(
        "request 'method' must be a non-empty string");
  }
  request.method = method->string_value();

  const JsonValue* params = doc.Find("params");
  if (params != nullptr) {
    if (!params->is_object()) {
      return Status::InvalidArgument("request 'params' must be an object");
    }
    request.params = *params;
  } else {
    request.params = JsonValue::Object({});
  }

  const JsonValue* deadline = doc.Find("deadline_ms");
  if (deadline != nullptr) {
    if (!deadline->IsInt64() || deadline->Int64() < 0) {
      return Status::InvalidArgument(
          "request 'deadline_ms' must be a non-negative integer");
    }
    request.has_deadline = true;
    request.deadline_ms = deadline->Int64();
  }
  return request;
}

const char* WireErrorCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kInfeasible: return "INFEASIBLE";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kNotImplemented: return "NOT_IMPLEMENTED";
  }
  return "INTERNAL";
}

std::string OkResponse(int64_t id, const std::string& result_json) {
  JsonWriter w;
  w.BeginObject().Key("v").Int(kProtocolVersion).Key("id").Int(id);
  w.Key("ok").Bool(true).Key("result").Raw(result_json).EndObject();
  return w.str();
}

std::string ErrorResponse(int64_t id, const Status& status) {
  return ErrorResponseCode(id, WireErrorCode(status.code()),
                           status.message());
}

std::string ErrorResponseCode(int64_t id, const char* code,
                              const std::string& message) {
  JsonWriter w;
  w.BeginObject().Key("v").Int(kProtocolVersion).Key("id").Int(id);
  w.Key("ok").Bool(false).Key("error").BeginObject().Key("code").String(code);
  w.Key("message").String(message).EndObject().EndObject();
  return w.str();
}

std::string RequestLine(int64_t id, const std::string& method,
                        const std::string& params_json, int64_t deadline_ms) {
  JsonWriter w;
  w.BeginObject().Key("v").Int(kProtocolVersion).Key("id").Int(id);
  w.Key("method").String(method);
  if (!params_json.empty()) w.Key("params").Raw(params_json);
  if (deadline_ms >= 0) w.Key("deadline_ms").Int(deadline_ms);
  w.EndObject();
  return w.str();
}

}  // namespace serve
}  // namespace malleus
