// Persistent solve-cache files: the on-disk format behind malleus_served
// --cache-save/--cache-load and scenario_cli's matching flags.
//
// A file holds one section per planner cache. Sections are tagged with the
// producing planner's context fingerprint (cluster + cost model, see
// core::PlannerCacheFingerprint): a cache is only valid for the cost model
// it was filled under, so loaders match sections by fingerprint, hand the
// blob to core::PlannerCache::Load, and ignore the rest. The file ends in
// an FNV-1a hash over everything before it; any truncation or bit flip
// fails the load with a clean Status (the caller cold-starts), and a
// version bump is rejected before the hash is even checked so future
// formats fail with a version message instead of "corrupt".
//
// Layout (all integers little-endian, see solver::wire):
//   "MLSCACHE"                     8-byte magic
//   u32 version                    currently 1
//   u64 section_count
//   per section:
//     u64 fingerprint
//     u32 label_size, label        human-readable provenance
//     u32 blob_size, blob          a PlannerCache::Serialize() blob
//   u64 fnv1a64                    over every preceding byte

#ifndef MALLEUS_SOLVER_CACHE_IO_H_
#define MALLEUS_SOLVER_CACHE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace malleus {
namespace solver {

inline constexpr uint32_t kCacheFileVersion = 1;

/// One persisted cache: the owning planner context's fingerprint, a
/// human-readable label (session name, CLI invocation), and the entry blob.
struct CacheFileSection {
  uint64_t fingerprint = 0;
  std::string label;
  std::string blob;
};

/// Renders sections into the file format (the full file as bytes).
std::string EncodeCacheFile(const std::vector<CacheFileSection>& sections);

/// Parses a cache file image. Fails with FailedPrecondition on a version
/// mismatch and InvalidArgument on bad magic, truncation, or a hash
/// mismatch — never crashes on hostile bytes.
Result<std::vector<CacheFileSection>> DecodeCacheFile(
    const std::string& bytes);

/// The section rule of every save: `section` replaces the section with its
/// fingerprint in `sections` or joins them, every other section is kept,
/// and the result is ordered by fingerprint, so repeated saves of equal
/// state write identical bytes. scenario_cli merges into the file it
/// overwrites; malleus_served merges each live session into the sections
/// it loaded but has not matched (see serve::SessionRegistry).
std::vector<CacheFileSection> MergeCacheSection(
    std::vector<CacheFileSection> sections, CacheFileSection section);

/// Writes `sections` to `path` (atomic enough for our purposes: full
/// rewrite; partial writes are caught by the hash on the next load).
Status WriteCacheFile(const std::string& path,
                      const std::vector<CacheFileSection>& sections);

/// Reads and decodes `path`. NotFound when the file does not exist.
Result<std::vector<CacheFileSection>> ReadCacheFile(const std::string& path);

}  // namespace solver
}  // namespace malleus

#endif  // MALLEUS_SOLVER_CACHE_IO_H_
