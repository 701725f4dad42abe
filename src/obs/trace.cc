#include "obs/trace.h"

#include <cmath>

#include "common/string_util.h"

namespace malleus {
namespace obs {

namespace {

// Microseconds with fixed sub-ns precision: deterministic text for
// deterministic inputs, and fine-grained enough for any simulated span.
// Routed through the shared JSON helper so a non-finite timestamp (a bug
// upstream) degrades to `null` instead of invalid JSON.
std::string FormatMicros(double us) { return JsonFixed(us, 4); }

void AppendArgs(const std::vector<TraceArg>& args, std::string* out) {
  *out += "{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) *out += ",";
    *out += StrFormat("\"%s\":%s", JsonEscape(args[i].key).c_str(),
                      args[i].json_value.c_str());
  }
  *out += "}";
}

}  // namespace

TraceArg TraceArg::Str(std::string key, const std::string& value) {
  return {std::move(key), JsonQuote(value)};
}

TraceArg TraceArg::Num(std::string key, double value) {
  return {std::move(key), JsonNumber(value)};
}

TraceArg TraceArg::Int(std::string key, int64_t value) {
  return {std::move(key), StrFormat("%lld", static_cast<long long>(value))};
}

TrackId TraceRecorder::Track(const std::string& process,
                             const std::string& thread) {
  std::lock_guard<std::mutex> lock(mu_);
  TrackId id;
  for (size_t p = 0; p < processes_.size(); ++p) {
    if (processes_[p].name != process) continue;
    id.pid = static_cast<int>(p);
    for (size_t t = 0; t < processes_[p].threads.size(); ++t) {
      if (processes_[p].threads[t] == thread) {
        id.tid = static_cast<int>(t);
        return id;
      }
    }
    id.tid = static_cast<int>(processes_[p].threads.size());
    processes_[p].threads.push_back(thread);
    return id;
  }
  id.pid = static_cast<int>(processes_.size());
  id.tid = 0;
  processes_.push_back({process, {thread}});
  return id;
}

void TraceRecorder::AddSpan(std::string name, std::string category,
                            TrackId track, double start_seconds,
                            double duration_seconds,
                            std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.phase = 'X';
  e.track = track;
  e.start_us = start_seconds * 1e6;
  e.duration_us = duration_seconds * 1e6;
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::AddInstant(std::string name, std::string category,
                               TrackId track, double at_seconds,
                               std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.phase = 'i';
  e.track = track;
  e.start_us = at_seconds * 1e6;
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

std::string TraceRecorder::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&out, &first]() {
    if (!first) out += ",";
    first = false;
  };
  // Track-naming metadata. sort_index keeps the Perfetto track order equal
  // to the first-use order instead of alphabetical.
  for (size_t p = 0; p < processes_.size(); ++p) {
    sep();
    out += StrFormat(
        "{\"ph\":\"M\",\"pid\":%zu,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"%s\"}}",
        p, JsonEscape(processes_[p].name).c_str());
    sep();
    out += StrFormat(
        "{\"ph\":\"M\",\"pid\":%zu,\"tid\":0,\"name\":\"process_sort_index\","
        "\"args\":{\"sort_index\":%zu}}",
        p, p);
    for (size_t t = 0; t < processes_[p].threads.size(); ++t) {
      sep();
      out += StrFormat(
          "{\"ph\":\"M\",\"pid\":%zu,\"tid\":%zu,\"name\":\"thread_name\","
          "\"args\":{\"name\":\"%s\"}}",
          p, t, JsonEscape(processes_[p].threads[t]).c_str());
      sep();
      out += StrFormat(
          "{\"ph\":\"M\",\"pid\":%zu,\"tid\":%zu,"
          "\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%zu}}",
          p, t, t);
    }
  }
  for (const TraceEvent& e : events_) {
    sep();
    out += StrFormat(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":%d,"
        "\"tid\":%d,\"ts\":%s",
        JsonEscape(e.name).c_str(), JsonEscape(e.category).c_str(), e.phase,
        e.track.pid, e.track.tid, FormatMicros(e.start_us).c_str());
    if (e.phase == 'X') {
      out += StrFormat(",\"dur\":%s", FormatMicros(e.duration_us).c_str());
    }
    if (e.phase == 'i') {
      out += ",\"s\":\"t\"";  // Instant scope: thread.
    }
    if (!e.args.empty()) {
      out += ",\"args\":";
      AppendArgs(e.args, &out);
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

size_t TraceRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t TraceRecorder::CountCategory(const std::string& category) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const TraceEvent& e : events_) {
    if (e.category == category) ++n;
  }
  return n;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  processes_.clear();
  events_.clear();
}

}  // namespace obs
}  // namespace malleus
