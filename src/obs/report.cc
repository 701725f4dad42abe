#include "obs/report.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/table.h"

namespace malleus {
namespace obs {

std::string RenderAttributionJson(const AttributionReport& report,
                                  int digits) {
  std::string out = "{";
  out += "\"title\":" + JsonQuote(report.title);
  out += ",\"scenario\":" + JsonQuote(report.scenario);
  out += ",\"phase\":" + JsonQuote(report.phase);
  out += ",\"net_model\":" + JsonQuote(report.net_model);
  out += ",\"baseline\":{";
  out += "\"step_seconds\":" +
         JsonNumber(report.baseline_step_seconds, digits);
  out += ",\"compute_span_seconds\":" +
         JsonNumber(report.baseline_compute_seconds, digits);
  out += ",\"comm_span_seconds\":" +
         JsonNumber(report.baseline_comm_seconds, digits);
  out += ",\"sync_span_seconds\":" +
         JsonNumber(report.baseline_sync_seconds, digits);
  out += "}";
  // Cache hit/miss counts are deliberately NOT rendered: under a parallel
  // sweep two workers can race on the same key and both miss, so the
  // counts vary run to run — like wall-clock, they are provenance, not
  // result. They stay in the struct for the text render and the bench.
  out += ",\"causes\":[";
  for (size_t i = 0; i < report.rows.size(); ++i) {
    const AttributionRow& r = report.rows[i];
    if (i > 0) out += ",";
    out += "{";
    out += StrFormat("\"rank\":%zu", i + 1);
    out += ",\"cause\":" + JsonQuote(r.cause);
    out += ",\"kind\":" + JsonQuote(r.kind);
    out += ",\"attributed_seconds\":" +
           JsonNumber(r.attributed_seconds, digits);
    out += ",\"attributed_fraction\":" +
           JsonNumber(r.attributed_fraction, digits);
    out += ",\"replay_step_seconds\":" +
           JsonNumber(r.replay_step_seconds, digits);
    out += ",\"replan_step_seconds\":" +
           JsonNumber(r.replan_step_seconds, digits);
    out += ",\"compute_delta_seconds\":" +
           JsonNumber(r.compute_delta_seconds, digits);
    out += ",\"comm_delta_seconds\":" +
           JsonNumber(r.comm_delta_seconds, digits);
    out += ",\"sync_delta_seconds\":" +
           JsonNumber(r.sync_delta_seconds, digits);
    out += ",\"plan_signature\":" + JsonQuote(r.plan_signature);
    out += std::string(",\"plan_changed\":") +
           (r.plan_changed ? "true" : "false");
    out += ",\"error\":" + JsonQuote(r.error);
    out += "}";
  }
  out += "]}";
  return out;
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
  std::string out = table.ToString();
  const int64_t lookups = report.cache_hits + report.cache_misses;
  if (lookups > 0) {
    out += StrFormat("solve cache: %lld hits / %lld lookups (%.1f%%)\n",
                     static_cast<long long>(report.cache_hits),
                     static_cast<long long>(lookups),
                     100.0 * static_cast<double>(report.cache_hits) /
                         static_cast<double>(lookups));
  }
  return out;
}

}  // namespace obs
}  // namespace malleus
