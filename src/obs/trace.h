// Typed span/instant event recording with a Chrome trace-event JSON
// exporter (loadable in Perfetto / chrome://tracing). This is the timeline
// half of the observability layer: the step simulator records every 1F1B
// stage task, P2P activation transfer and grad-sync phase, and the engine
// records re-planning / migration / recovery transitions, so pipeline
// bubbles and straggler stalls become visually inspectable per step.
//
// Tracks: Chrome traces group events by (pid, tid) pairs; Track() maps a
// (process name, thread name) pair - e.g. ("pipeline 0", "stage 2") - onto
// stable ids and the exporter emits the matching process_name/thread_name
// metadata. Timestamps are *simulated* seconds (converted to microseconds
// on export), never wall clock, so exports are deterministic for a fixed
// seed.

#ifndef MALLEUS_OBS_TRACE_H_
#define MALLEUS_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace malleus {
namespace obs {

/// One key plus a pre-rendered JSON literal value.
struct TraceArg {
  std::string key;
  std::string json_value;

  static TraceArg Str(std::string key, const std::string& value);
  static TraceArg Num(std::string key, double value);
  static TraceArg Int(std::string key, int64_t value);
};

/// A (pid, tid) pair identifying one horizontal track of the timeline.
struct TrackId {
  int pid = 0;
  int tid = 0;
};

/// One recorded event. `duration_us` is meaningful for spans only.
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';  ///< Chrome phase: 'X' complete span, 'i' instant.
  TrackId track;
  double start_us = 0.0;
  double duration_us = 0.0;
  std::vector<TraceArg> args;
};

/// \brief Collects spans/instants and exports Chrome trace-event JSON.
///
/// Thread-safe; events are exported in recording order (stable for a fixed
/// seed because the simulator's scheduling loops are deterministic).
class TraceRecorder {
 public:
  /// Maps a (process, thread) name pair onto a stable track id, creating
  /// the track on first use. Ids are assigned in first-use order.
  TrackId Track(const std::string& process, const std::string& thread);

  /// Records a complete span of `duration_seconds` starting at
  /// `start_seconds` (simulated time).
  void AddSpan(std::string name, std::string category, TrackId track,
               double start_seconds, double duration_seconds,
               std::vector<TraceArg> args = {});

  /// Records an instant event at `at_seconds` (simulated time).
  void AddInstant(std::string name, std::string category, TrackId track,
                  double at_seconds, std::vector<TraceArg> args = {});

  /// The full export: {"traceEvents":[...],"displayTimeUnit":"ms"} with
  /// process_name/thread_name metadata first, then events in order.
  std::string ToChromeTraceJson() const;

  size_t num_events() const;
  /// Copy of the recorded events.
  std::vector<TraceEvent> Events() const;

 private:
  struct Process {
    std::string name;
    std::vector<std::string> threads;
  };

  mutable std::mutex mu_;
  std::vector<Process> processes_;
  std::vector<TraceEvent> events_;
};

}  // namespace obs
}  // namespace malleus

#endif  // MALLEUS_OBS_TRACE_H_
