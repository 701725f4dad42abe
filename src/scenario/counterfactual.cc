#include "scenario/counterfactual.h"

#include <span>
#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace malleus {
namespace scenario {

namespace {

// Reads the required `key` into *out.
template <typename T>
Status ReadKey(const KeyValues& kv, const std::string& key, T* out) {
  const std::string* v = kv.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument("missing required key '" + key + "'");
  }
  if (Status read = ParseValue(*v, out); !read.ok()) {
    return Status::InvalidArgument("cannot parse " + key + "='" + *v +
                                   "': " + read.message());
  }
  return Status::OK();
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
  const std::vector<std::string> words = SplitWords(text);
  if (words.empty()) {
    return Status::InvalidArgument("empty counterfactual");
  }
  MALLEUS_ASSIGN_OR_RETURN(const KeyValues kv,
                           ParseKeyValues(std::span(words).subspan(1)));

  Counterfactual cf;
  const std::string& kind = words[0];
  if (kind == "remove_straggler") {
    cf.kind = CounterfactualKind::kRemoveStraggler;
    MALLEUS_RETURN_NOT_OK(CheckKeys(kv, {"gpu"}));
    MALLEUS_RETURN_NOT_OK(ReadKey(kv, "gpu", &cf.gpu));
    if (cf.gpu < 0) return Status::InvalidArgument("gpu must be >= 0");
  } else if (kind == "dampen_straggler") {
    cf.kind = CounterfactualKind::kDampenStraggler;
    MALLEUS_RETURN_NOT_OK(CheckKeys(kv, {"gpu", "factor"}));
    MALLEUS_RETURN_NOT_OK(ReadKey(kv, "gpu", &cf.gpu));
    if (cf.gpu < 0) return Status::InvalidArgument("gpu must be >= 0");
    MALLEUS_RETURN_NOT_OK(ReadKey(kv, "factor", &cf.factor));
    if (!(cf.factor >= 0.0) || cf.factor >= 1.0) {
      return Status::InvalidArgument(
          "dampen factor must be in [0, 1): 0 heals the GPU entirely, "
          "1 would change nothing");
    }
  } else if (kind == "scale_nic" || kind == "scale_nvlink") {
    cf.kind = kind == "scale_nic" ? CounterfactualKind::kScaleNic
                                  : CounterfactualKind::kScaleNvlink;
    MALLEUS_RETURN_NOT_OK(CheckKeys(kv, {"factor"}));
    MALLEUS_RETURN_NOT_OK(ReadKey(kv, "factor", &cf.factor));
    if (!(cf.factor > 0.0)) {
      return Status::InvalidArgument("bandwidth factor must be > 0");
    }
  } else if (kind == "force_tp") {
    cf.kind = CounterfactualKind::kForceTp;
    MALLEUS_RETURN_NOT_OK(CheckKeys(kv, {"tp"}));
    MALLEUS_RETURN_NOT_OK(ReadKey(kv, "tp", &cf.tp));
    if (cf.tp != 1 && cf.tp != 2 && cf.tp != 4 && cf.tp != 8) {
      return Status::InvalidArgument("tp must be one of 1, 2, 4, 8");
    }
  } else if (kind == "add_standby_node") {
    cf.kind = CounterfactualKind::kAddStandbyNode;
    MALLEUS_RETURN_NOT_OK(CheckKeys(kv, {"nodes"}));
    MALLEUS_RETURN_NOT_OK(ReadKey(kv, "nodes", &cf.nodes));
    if (cf.nodes < 1) return Status::InvalidArgument("nodes must be >= 1");
  } else if (kind == "net_model") {
    cf.kind = CounterfactualKind::kSwapNetModel;
    MALLEUS_RETURN_NOT_OK(CheckKeys(kv, {"model"}));
    std::string model;
    MALLEUS_RETURN_NOT_OK(ReadKey(kv, "model", &model));
    MALLEUS_ASSIGN_OR_RETURN(cf.net_model, net::ParseNetModel(model));
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
    if (SplitWords(line).empty()) continue;
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
