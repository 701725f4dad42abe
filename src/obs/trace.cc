#include "obs/trace.h"

#include <cmath>

#include "common/string_util.h"

namespace malleus {
namespace obs {

namespace {

// Microseconds with fixed sub-ns precision: deterministic text for
// deterministic inputs, and fine-grained enough for any simulated span.
// The JsonFixed rule turns a non-finite timestamp (a bug upstream) into
// `null` instead of invalid JSON.
constexpr int kMicrosDecimals = 4;

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
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  // Track-naming metadata, each with one pre-rendered arg. sort_index
  // keeps the Perfetto track order equal to the first-use order instead of
  // alphabetical.
  auto metadata = [&w](size_t pid, size_t tid, const char* name,
                       const char* arg, const std::string& arg_json) {
    w.BeginObject().Key("ph").String("M").Key("pid").Uint(pid);
    w.Key("tid").Uint(tid).Key("name").String(name).Key("args").BeginObject();
    w.Key(arg).Raw(arg_json).EndObject().EndObject();
  };
  for (size_t p = 0; p < processes_.size(); ++p) {
    const Process& process = processes_[p];
    metadata(p, 0, "process_name", "name", JsonQuote(process.name));
    metadata(p, 0, "process_sort_index", "sort_index", std::to_string(p));
    for (size_t t = 0; t < process.threads.size(); ++t) {
      metadata(p, t, "thread_name", "name", JsonQuote(process.threads[t]));
      metadata(p, t, "thread_sort_index", "sort_index", std::to_string(t));
    }
  }
  for (const TraceEvent& e : events_) {
    w.BeginObject().Key("name").String(e.name).Key("cat").String(e.category);
    w.Key("ph").String(std::string_view(&e.phase, 1));
    w.Key("pid").Int(e.track.pid).Key("tid").Int(e.track.tid);
    w.Key("ts").Fixed(e.start_us, kMicrosDecimals);
    if (e.phase == 'X') w.Key("dur").Fixed(e.duration_us, kMicrosDecimals);
    if (e.phase == 'i') w.Key("s").String("t");  // Instant scope: thread.
    if (!e.args.empty()) {
      w.Key("args").BeginObject();
      for (const TraceArg& arg : e.args) w.Key(arg.key).Raw(arg.json_value);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray().Key("displayTimeUnit").String("ms").EndObject();
  return w.str();
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
