#include "obs/report.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/table.h"

namespace malleus {
namespace obs {

std::string RenderAttributionJson(const AttributionReport& report,
                                  int digits) {
  JsonWriter w;
  w.BeginObject().Key("title").String(report.title);
  w.Key("scenario").String(report.scenario).Key("phase").String(report.phase);
  w.Key("net_model").String(report.net_model).Key("baseline").BeginObject();
  w.Key("step_seconds").Number(report.baseline_step_seconds, digits);
  w.Key("compute_span_seconds").Number(report.baseline_compute_seconds, digits);
  w.Key("comm_span_seconds").Number(report.baseline_comm_seconds, digits);
  w.Key("sync_span_seconds").Number(report.baseline_sync_seconds, digits);
  w.EndObject();
  // Cache hit/miss counts are deliberately NOT rendered, here or in the
  // text: under a parallel sweep two workers can race on the same key and
  // both miss, so the counts vary run to run — like wall-clock, they are
  // provenance, not result. They stay in the struct for bench_whatif.
  w.Key("causes").BeginArray();
  for (size_t i = 0; i < report.rows.size(); ++i) {
    const AttributionRow& r = report.rows[i];
    w.BeginObject().Key("rank").Uint(i + 1).Key("cause").String(r.cause);
    w.Key("kind").String(r.kind);
    w.Key("attributed_seconds").Number(r.attributed_seconds, digits);
    w.Key("attributed_fraction").Number(r.attributed_fraction, digits);
    w.Key("replay_step_seconds").Number(r.replay_step_seconds, digits);
    w.Key("replan_step_seconds").Number(r.replan_step_seconds, digits);
    w.Key("compute_delta_seconds").Number(r.compute_delta_seconds, digits);
    w.Key("comm_delta_seconds").Number(r.comm_delta_seconds, digits);
    w.Key("sync_delta_seconds").Number(r.sync_delta_seconds, digits);
    w.Key("plan_signature").String(r.plan_signature);
    w.Key("plan_changed").Bool(r.plan_changed).Key("error").String(r.error);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string RenderAttributionCsv(const AttributionReport& report,
                                 int digits) {
  std::string out =
      "rank,cause,kind,attributed_seconds,attributed_pct,"
      "replay_step_seconds,replan_step_seconds,compute_delta_seconds,"
      "comm_delta_seconds,sync_delta_seconds,plan_changed,plan_signature,"
      "error\r\n";
  // CSV numbers reuse the JSON rendering (minus its `null` spelling):
  // fixed significant digits, empty cell for non-finite.
  auto num = [digits](double v) {
    const std::string s = JsonNumber(v, digits);
    return s == "null" ? std::string() : s;
  };
  for (size_t i = 0; i < report.rows.size(); ++i) {
    const AttributionRow& r = report.rows[i];
    std::vector<std::string> cells = {
        StrFormat("%zu", i + 1),
        CsvEscape(r.cause),
        CsvEscape(r.kind),
        num(r.attributed_seconds),
        num(r.attributed_fraction * 100.0),
        num(r.replay_step_seconds),
        num(r.replan_step_seconds),
        num(r.compute_delta_seconds),
        num(r.comm_delta_seconds),
        num(r.sync_delta_seconds),
        r.plan_changed ? "true" : "false",
        CsvEscape(r.plan_signature),
        CsvEscape(r.error),
    };
    out += Join(cells, ",") + "\r\n";
  }
  return out;
}

std::string RenderAttributionText(const AttributionReport& report,
                                  int top_n) {
  TablePrinter table(StrFormat(
      "%s — %s / %s (%s), baseline step %.4f s",
      report.title.c_str(), report.scenario.c_str(), report.phase.c_str(),
      report.net_model.c_str(), report.baseline_step_seconds));
  table.SetHeader({"#", "cause", "saved s/step", "% of step", "replay s",
                   "replan s", "plan"});
  const size_t n =
      top_n > 0 ? std::min<size_t>(report.rows.size(),
                                   static_cast<size_t>(top_n))
                : report.rows.size();
  for (size_t i = 0; i < n; ++i) {
    const AttributionRow& r = report.rows[i];
    if (!r.error.empty()) {
      table.AddRow({StrFormat("%zu", i + 1), r.cause, "-", "-", "-", "-",
                    "error: " + r.error});
      continue;
    }
    auto cell = [](double v) {
      return std::isfinite(v) ? StrFormat("%.4f", v) : std::string("-");
    };
    table.AddRow({StrFormat("%zu", i + 1), r.cause,
                  cell(r.attributed_seconds),
                  StrFormat("%.1f%%", r.attributed_fraction * 100.0),
                  cell(r.replay_step_seconds), cell(r.replan_step_seconds),
                  r.plan_changed ? "changed" : "kept"});
  }
  if (n < report.rows.size()) {
    table.AddRow({"...", StrFormat("(%zu more)", report.rows.size() - n),
                  "", "", "", "", ""});
  }
  return table.ToString();
}

}  // namespace obs
}  // namespace malleus
