#include "solver/cache_io.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "solver/cache_key.h"

namespace malleus {
namespace solver {

namespace {

constexpr char kMagic[] = "MLSCACHE";  // 8 bytes, NUL excluded.
constexpr size_t kMagicSize = 8;

}  // namespace

std::string EncodeCacheFile(const std::vector<CacheFileSection>& sections) {
  std::string out(kMagic, kMagicSize);
  wire::PutU32(&out, kCacheFileVersion);
  wire::PutU64(&out, sections.size());
  for (const CacheFileSection& section : sections) {
    wire::PutU64(&out, section.fingerprint);
    wire::PutString(&out, section.label);
    wire::PutString(&out, section.blob);
  }
  wire::PutU64(&out, Fnv1a64(out));
  return out;
}

Result<std::vector<CacheFileSection>> DecodeCacheFile(
    const std::string& bytes) {
  if (bytes.size() < kMagicSize + 4 + 8 + 8 ||
      bytes.compare(0, kMagicSize, kMagic, kMagicSize) != 0) {
    return Status::InvalidArgument("not a malleus cache file (bad magic)");
  }
  // Version before hash: a future format may move the hash, so the only
  // field this reader may interpret first is the version itself.
  wire::Reader header(bytes.data() + kMagicSize, bytes.size() - kMagicSize);
  uint32_t version;
  if (!header.U32(&version)) {
    return Status::InvalidArgument("cache file truncated in header");
  }
  if (version != kCacheFileVersion) {
    return Status::FailedPrecondition(
        StrFormat("cache file version %u unsupported (this build reads %u)",
                  version, kCacheFileVersion));
  }
  const size_t body_size = bytes.size() - 8;
  wire::Reader footer(bytes.data() + body_size, 8);
  uint64_t stored_hash;
  footer.U64(&stored_hash);
  const uint64_t actual_hash = Fnv1a64(bytes.data(), body_size);
  if (stored_hash != actual_hash) {
    return Status::InvalidArgument(
        "cache file corrupt: content hash mismatch");
  }

  wire::Reader reader(bytes.data() + kMagicSize + 4,
                      body_size - kMagicSize - 4);
  uint64_t count;
  if (!reader.U64(&count)) {
    return Status::InvalidArgument("cache file truncated: no section count");
  }
  std::vector<CacheFileSection> sections;
  for (uint64_t i = 0; i < count; ++i) {
    CacheFileSection section;
    if (!reader.U64(&section.fingerprint) ||
        !reader.String(&section.label) || !reader.String(&section.blob)) {
      return Status::InvalidArgument(
          StrFormat("cache file truncated in section %llu of %llu",
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(count)));
    }
    sections.push_back(std::move(section));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("cache file has trailing section bytes");
  }
  return sections;
}

std::vector<CacheFileSection> MergeCacheSection(
    std::vector<CacheFileSection> sections, CacheFileSection section) {
  sections.erase(std::remove_if(sections.begin(), sections.end(),
                                [&](const CacheFileSection& s) {
                                  return s.fingerprint == section.fingerprint;
                                }),
                 sections.end());
  sections.push_back(std::move(section));
  std::sort(sections.begin(), sections.end(),
            [](const CacheFileSection& a, const CacheFileSection& b) {
              return a.fingerprint < b.fingerprint;
            });
  return sections;
}

Status WriteCacheFile(const std::string& path,
                      const std::vector<CacheFileSection>& sections) {
  const std::string bytes = EncodeCacheFile(sections);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open cache file for write: " + path);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed_ok = std::fclose(f) == 0;
  if (written != bytes.size() || !closed_ok) {
    return Status::Unavailable("short write to cache file: " + path);
  }
  return Status::OK();
}

Result<std::vector<CacheFileSection>> ReadCacheFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cache file not found: " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Unavailable("read error on cache file: " + path);
  }
  Result<std::vector<CacheFileSection>> sections = DecodeCacheFile(bytes);
  if (!sections.ok()) {
    return Status(sections.status().code(),
                  path + ": " + sections.status().message());
  }
  return sections;
}

}  // namespace solver
}  // namespace malleus
