#include "core/planner_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"
#include "core/planner.h"
#include "solver/cache_key.h"

namespace malleus {
namespace core {

namespace {

using solver::wire::PutDouble;
using solver::wire::PutInts;
using solver::wire::PutString;
using solver::wire::PutU32;
using solver::wire::PutU64;
using solver::wire::Reader;

void EncodeStatus(const Status& status, std::string* out) {
  PutU32(out, static_cast<uint32_t>(status.code()));
  PutString(out, status.message());
}

bool DecodeStatus(Reader* reader, Status* status) {
  uint32_t code;
  std::string message;
  if (!reader->U32(&code) || !reader->String(&message)) return false;
  if (code > static_cast<uint32_t>(StatusCode::kNotImplemented)) return false;
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

void EncodeLayers(const CachedLayers& entry, std::string* out) {
  EncodeStatus(entry.status, out);
  PutInts(out, entry.assignment.layers);
  PutDouble(out, entry.assignment.bottleneck);
}

std::shared_ptr<const CachedLayers> DecodeLayers(const std::string& bytes) {
  Reader reader(bytes.data(), bytes.size());
  auto entry = std::make_shared<CachedLayers>();
  if (!DecodeStatus(&reader, &entry->status) ||
      !reader.Ints(&entry->assignment.layers) ||
      !reader.Double(&entry->assignment.bottleneck) ||
      !reader.AtEnd()) {
    return nullptr;
  }
  return entry;
}

void EncodeOrchestration(const CachedOrchestration& entry, std::string* out) {
  EncodeStatus(entry.status, out);
  const OrchestrationResult& r = entry.result;
  PutU32(out, static_cast<uint32_t>(r.pipelines.size()));
  for (const OrchestratedPipeline& p : r.pipelines) {
    PutInts(out, p.group_indices);
    PutInts(out, p.layers);
    PutDouble(out, p.bottleneck);
  }
  PutInts(out, r.removed_groups);
  PutU32(out, r.division_exact ? 1 : 0);
  PutU64(out, static_cast<uint64_t>(r.division_nodes));
  // Solver wall times are a property of the filling run, not the solution;
  // replays report zero anyway (see Orchestrate), so they are not stored.
}

std::shared_ptr<const CachedOrchestration> DecodeOrchestration(
    const std::string& bytes) {
  Reader reader(bytes.data(), bytes.size());
  auto entry = std::make_shared<CachedOrchestration>();
  if (!DecodeStatus(&reader, &entry->status)) return nullptr;
  OrchestrationResult& r = entry->result;
  uint32_t num_pipelines;
  if (!reader.U32(&num_pipelines)) return nullptr;
  for (uint32_t i = 0; i < num_pipelines; ++i) {
    OrchestratedPipeline p;
    if (!reader.Ints(&p.group_indices) || !reader.Ints(&p.layers) ||
        !reader.Double(&p.bottleneck)) {
      return nullptr;
    }
    r.pipelines.push_back(std::move(p));
  }
  uint32_t exact;
  uint64_t nodes;
  if (!reader.Ints(&r.removed_groups) || !reader.U32(&exact) ||
      !reader.U64(&nodes) || !reader.AtEnd()) {
    return nullptr;
  }
  if (exact > 1) return nullptr;
  r.division_exact = exact == 1;
  r.division_nodes = static_cast<int64_t>(nodes);
  r.division_seconds = 0.0;
  r.ordering_seconds = 0.0;
  return entry;
}

}  // namespace

std::shared_ptr<const Result<PlanResult>> PlannerCache::FindIsland(
    const std::string& key) {
  return Find(islands_, key);
}

void PlannerCache::Insert(const std::string& key,
                          std::shared_ptr<const Result<PlanResult>> value) {
  Put(&islands_, key, std::move(value));
}

PlannerCache::Stats PlannerCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_};
}

size_t PlannerCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SizeLocked();
}

std::string PlannerCache::Serialize() const {
  // Snapshot under the lock, encode and sort outside it.
  std::vector<std::pair<std::string, std::shared_ptr<const CachedLayers>>>
      layers;
  std::vector<
      std::pair<std::string, std::shared_ptr<const CachedOrchestration>>>
      orchestrations;
  {
    std::lock_guard<std::mutex> lock(mu_);
    layers.assign(layers_.begin(), layers_.end());
    orchestrations.assign(orchestrations_.begin(), orchestrations_.end());
  }
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(layers.size() + orchestrations.size());
  for (const auto& [key, value] : layers) {
    entries.emplace_back(key, std::string());
    EncodeLayers(*value, &entries.back().second);
  }
  for (const auto& [key, value] : orchestrations) {
    entries.emplace_back(key, std::string());
    EncodeOrchestration(*value, &entries.back().second);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string out;
  PutU64(&out, entries.size());
  for (const auto& [key, value_bytes] : entries) {
    PutString(&out, key);
    PutString(&out, value_bytes);
  }
  return out;
}

Status PlannerCache::Load(const std::string& blob) {
  Reader reader(blob.data(), blob.size());
  uint64_t count;
  if (!reader.U64(&count)) {
    return Status::InvalidArgument("cache blob truncated: no entry count");
  }
  // Decode everything before touching the cache, so corruption can never
  // leave a half-loaded state behind. One of the two values is set.
  struct Decoded {
    std::string key;
    std::shared_ptr<const CachedLayers> layers;
    std::shared_ptr<const CachedOrchestration> orchestration;
  };
  std::vector<Decoded> decoded;
  for (uint64_t i = 0; i < count; ++i) {
    Decoded entry;
    std::string value_bytes;
    if (!reader.String(&entry.key) || !reader.String(&value_bytes)) {
      return Status::InvalidArgument(
          StrFormat("cache blob truncated at entry %llu of %llu",
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(count)));
    }
    const char tag = solver::KeyTag(entry.key);
    if (tag == '\0') {
      return Status::InvalidArgument(
          StrFormat("cache blob entry %llu has an untagged key",
                    static_cast<unsigned long long>(i)));
    }
    if (tag == 'L') {
      entry.layers = DecodeLayers(value_bytes);
    } else if (tag == 'O') {
      entry.orchestration = DecodeOrchestration(value_bytes);
    } else {
      continue;  // Unknown domain: skip, not an error.
    }
    if (entry.layers == nullptr && entry.orchestration == nullptr) {
      return Status::InvalidArgument(
          StrFormat("cache blob entry %llu ('%c') failed to decode",
                    static_cast<unsigned long long>(i), tag));
    }
    decoded.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("cache blob has trailing bytes");
  }
  for (Decoded& entry : decoded) {
    if (entry.layers != nullptr) {
      Insert(entry.key, std::move(entry.layers));
    } else {
      Insert(entry.key, std::move(entry.orchestration));
    }
  }
  return Status::OK();
}

uint64_t PlannerCacheFingerprint(const topo::ClusterSpec& cluster,
                                 const model::CostModel& cost) {
  uint64_t h = Fnv1a64(cluster.ToString());
  h = Fnv1a64(cost.spec().ToString(), h);
  return h;
}

}  // namespace core
}  // namespace malleus
