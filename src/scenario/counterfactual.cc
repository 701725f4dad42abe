#include "scenario/counterfactual.h"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace malleus {
namespace scenario {

namespace {

// Splits on runs of spaces/tabs.
std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::string tok;
  for (char c : line) {
    if (c == ' ' || c == '\t') {
      if (!tok.empty()) out.push_back(std::move(tok));
      tok.clear();
    } else {
      tok += c;
    }
  }
  if (!tok.empty()) out.push_back(std::move(tok));
  return out;
}

// "key=value" tokens after the kind word; duplicate or unknown keys fail.
struct KeyValues {
  std::vector<std::pair<std::string, std::string>> pairs;

  const std::string* Find(const std::string& key) const {
    for (const auto& [k, v] : pairs) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

Result<KeyValues> ParseKeyValues(const std::vector<std::string>& tokens) {
  KeyValues out;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected key=value, got '" +
                                     tokens[i] + "'");
    }
    const std::string key = tokens[i].substr(0, eq);
    if (out.Find(key) != nullptr) {
      return Status::InvalidArgument("duplicate key '" + key + "'");
    }
    out.pairs.emplace_back(key, tokens[i].substr(eq + 1));
  }
  return out;
}

Result<int> ParseInt(const std::string& key, const KeyValues& kv) {
  const std::string* v = kv.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument("missing required key '" + key + "'");
  }
  char* end = nullptr;
  const long parsed = std::strtol(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    return Status::InvalidArgument("cannot parse " + key + "='" + *v +
                                   "' as an integer");
  }
  return static_cast<int>(parsed);
}

Result<double> ParseDouble(const std::string& key, const KeyValues& kv) {
  const std::string* v = kv.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument("missing required key '" + key + "'");
  }
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    return Status::InvalidArgument("cannot parse " + key + "='" + *v +
                                   "' as a number");
  }
  return parsed;
}

Status CheckKeys(const KeyValues& kv,
                 const std::vector<std::string>& allowed) {
  for (const auto& [k, v] : kv.pairs) {
    bool ok = false;
    for (const std::string& a : allowed) {
      if (k == a) ok = true;
    }
    if (!ok) return Status::InvalidArgument("unknown key '" + k + "'");
  }
  return Status::OK();
}

}  // namespace

const char* CounterfactualKindName(CounterfactualKind kind) {
  switch (kind) {
    case CounterfactualKind::kRemoveStraggler:
      return "remove_straggler";
    case CounterfactualKind::kDampenStraggler:
      return "dampen_straggler";
    case CounterfactualKind::kScaleNic:
      return "scale_nic";
    case CounterfactualKind::kScaleNvlink:
      return "scale_nvlink";
    case CounterfactualKind::kForceTp:
      return "force_tp";
    case CounterfactualKind::kAddStandbyNode:
      return "add_standby_node";
    case CounterfactualKind::kSwapNetModel:
      return "net_model";
  }
  return "unknown";
}

std::string Counterfactual::Label() const {
  switch (kind) {
    case CounterfactualKind::kRemoveStraggler:
      return StrFormat("remove_straggler gpu=%d", gpu);
    case CounterfactualKind::kDampenStraggler:
      return StrFormat("dampen_straggler gpu=%d factor=%s", gpu,
                       FormatDouble(factor, 6).c_str());
    case CounterfactualKind::kScaleNic:
      return StrFormat("scale_nic factor=%s",
                       FormatDouble(factor, 6).c_str());
    case CounterfactualKind::kScaleNvlink:
      return StrFormat("scale_nvlink factor=%s",
                       FormatDouble(factor, 6).c_str());
    case CounterfactualKind::kForceTp:
      return StrFormat("force_tp tp=%d", tp);
    case CounterfactualKind::kAddStandbyNode:
      return StrFormat("add_standby_node nodes=%d", nodes);
    case CounterfactualKind::kSwapNetModel:
      return StrFormat("net_model model=%s",
                       net::NetModelName(net_model));
  }
  return "unknown";
}

Result<Counterfactual> ParseCounterfactual(const std::string& text) {
  const std::vector<std::string> tokens = Tokens(text);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty counterfactual");
  }
  Result<KeyValues> kv = ParseKeyValues(tokens);
  if (!kv.ok()) return kv.status();

  Counterfactual cf;
  const std::string& kind = tokens[0];
  if (kind == "remove_straggler") {
    cf.kind = CounterfactualKind::kRemoveStraggler;
    if (Status s = CheckKeys(*kv, {"gpu"}); !s.ok()) return s;
    Result<int> gpu = ParseInt("gpu", *kv);
    if (!gpu.ok()) return gpu.status();
    if (*gpu < 0) return Status::InvalidArgument("gpu must be >= 0");
    cf.gpu = *gpu;
  } else if (kind == "dampen_straggler") {
    cf.kind = CounterfactualKind::kDampenStraggler;
    if (Status s = CheckKeys(*kv, {"gpu", "factor"}); !s.ok()) return s;
    Result<int> gpu = ParseInt("gpu", *kv);
    if (!gpu.ok()) return gpu.status();
    if (*gpu < 0) return Status::InvalidArgument("gpu must be >= 0");
    cf.gpu = *gpu;
    Result<double> factor = ParseDouble("factor", *kv);
    if (!factor.ok()) return factor.status();
    if (!(*factor >= 0.0) || *factor >= 1.0) {
      return Status::InvalidArgument(
          "dampen factor must be in [0, 1): 0 heals the GPU entirely, "
          "1 would change nothing");
    }
    cf.factor = *factor;
  } else if (kind == "scale_nic" || kind == "scale_nvlink") {
    cf.kind = kind == "scale_nic" ? CounterfactualKind::kScaleNic
                                  : CounterfactualKind::kScaleNvlink;
    if (Status s = CheckKeys(*kv, {"factor"}); !s.ok()) return s;
    Result<double> factor = ParseDouble("factor", *kv);
    if (!factor.ok()) return factor.status();
    if (!(*factor > 0.0)) {
      return Status::InvalidArgument("bandwidth factor must be > 0");
    }
    cf.factor = *factor;
  } else if (kind == "force_tp") {
    cf.kind = CounterfactualKind::kForceTp;
    if (Status s = CheckKeys(*kv, {"tp"}); !s.ok()) return s;
    Result<int> tp = ParseInt("tp", *kv);
    if (!tp.ok()) return tp.status();
    if (*tp != 1 && *tp != 2 && *tp != 4 && *tp != 8) {
      return Status::InvalidArgument("tp must be one of 1, 2, 4, 8");
    }
    cf.tp = *tp;
  } else if (kind == "add_standby_node") {
    cf.kind = CounterfactualKind::kAddStandbyNode;
    if (Status s = CheckKeys(*kv, {"nodes"}); !s.ok()) return s;
    Result<int> nodes = ParseInt("nodes", *kv);
    if (!nodes.ok()) return nodes.status();
    if (*nodes < 1) return Status::InvalidArgument("nodes must be >= 1");
    cf.nodes = *nodes;
  } else if (kind == "net_model") {
    cf.kind = CounterfactualKind::kSwapNetModel;
    if (Status s = CheckKeys(*kv, {"model"}); !s.ok()) return s;
    const std::string* model = kv->Find("model");
    if (model == nullptr) {
      return Status::InvalidArgument("missing required key 'model'");
    }
    Result<net::NetModel> parsed = net::ParseNetModel(*model);
    if (!parsed.ok()) return parsed.status();
    cf.net_model = *parsed;
  } else {
    return Status::InvalidArgument("unknown counterfactual kind '" + kind +
                                   "'");
  }
  return cf;
}

Result<std::vector<Counterfactual>> ParseCounterfactualGrid(
    const std::string& text) {
  std::vector<Counterfactual> out;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Strip comments (counterfactual lines contain no string literals).
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (Tokens(line).empty()) continue;
    Result<Counterfactual> cf = ParseCounterfactual(line);
    if (!cf.ok()) {
      return Status::InvalidArgument(
          StrFormat("grid line %d: %s", line_no,
                    cf.status().ToString().c_str()));
    }
    cf->line = line_no;
    out.push_back(std::move(*cf));
  }
  return out;
}

std::vector<Counterfactual> DefaultCounterfactualGrid(
    const topo::ClusterSpec& cluster,
    const straggler::Situation& situation, net::NetModel base_model,
    const DefaultGridOptions& options) {
  std::vector<Counterfactual> grid;
  auto add = [&grid](Counterfactual cf) { grid.push_back(std::move(cf)); };

  // Straggler removals: every GPU (scale + cross-check).
  for (topo::GpuId g = 0; g < cluster.num_gpus(); ++g) {
    Counterfactual cf;
    cf.kind = CounterfactualKind::kRemoveStraggler;
    cf.gpu = g;
    add(cf);
  }
  // Dampenings target actual stragglers by default: dampening a healthy
  // GPU is definitionally the identity (the full grid sweeps them anyway
  // as ~0-attribution cross-checks).
  const std::vector<topo::GpuId> dampen_targets =
      options.dampen_all_gpus ? cluster.AllGpus() : situation.Stragglers();
  for (topo::GpuId g : dampen_targets) {
    for (double f : {0.75, 0.5, 0.25}) {
      Counterfactual cf;
      cf.kind = CounterfactualKind::kDampenStraggler;
      cf.gpu = g;
      cf.factor = f;
      add(cf);
    }
  }
  for (double f : options.bandwidth_factors) {
    Counterfactual cf;
    cf.kind = CounterfactualKind::kScaleNic;
    cf.factor = f;
    add(cf);
    cf.kind = CounterfactualKind::kScaleNvlink;
    add(cf);
  }
  for (int tp : {1, 2, 4, 8}) {
    if (tp > cluster.gpus_per_node()) continue;
    Counterfactual cf;
    cf.kind = CounterfactualKind::kForceTp;
    cf.tp = tp;
    add(cf);
  }
  for (int n : options.standby_nodes) {
    Counterfactual cf;
    cf.kind = CounterfactualKind::kAddStandbyNode;
    cf.nodes = n;
    add(cf);
  }
  Counterfactual swap;
  swap.kind = CounterfactualKind::kSwapNetModel;
  swap.net_model = base_model == net::NetModel::kAnalytic
                       ? net::NetModel::kFlow
                       : net::NetModel::kAnalytic;
  add(swap);
  return grid;
}

}  // namespace scenario
}  // namespace malleus
