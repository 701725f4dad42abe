#include "obs/bundle.h"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <sstream>
#include <string_view>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace malleus {
namespace obs {

namespace {

std::string HashHex(uint64_t h) { return StrFormat("%016" PRIx64, h); }

bool ValidMemberName(const std::string& name) {
  if (name.empty() || name == kBundleManifestName) return false;
  return name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos;
}

// One "file = NAME size=N hash=H" manifest line, parsed back by the
// loader. NAME carries no spaces in practice (canonical members), but the
// parser still handles them by anchoring on the trailing two fields.
std::string ManifestLine(const BundleFile& f) {
  return StrFormat("file = %s size=%zu hash=%s\n", f.name.c_str(),
                   f.content.size(), HashHex(Fnv1a64(f.content)).c_str());
}

}  // namespace

const std::string* RunBundle::Find(const std::string& name) const {
  for (const BundleFile& f : files) {
    if (f.name == name) return &f.content;
  }
  return nullptr;
}

uint64_t BundleContentHash(const RunBundle& bundle) {
  std::vector<const BundleFile*> sorted;
  sorted.reserve(bundle.files.size());
  for (const BundleFile& f : bundle.files) sorted.push_back(&f);
  std::sort(sorted.begin(), sorted.end(),
            [](const BundleFile* a, const BundleFile* b) {
              return a->name < b->name;
            });
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis.
  for (const BundleFile* f : sorted) {
    const std::string line = f->name + ":" + HashHex(Fnv1a64(f->content)) +
                             "\n";
    h = Fnv1a64(line, h);
  }
  return h;
}

Status WriteRunBundle(const std::string& dir, const RunBundle& bundle) {
  for (const BundleFile& f : bundle.files) {
    if (!ValidMemberName(f.name)) {
      return Status::InvalidArgument("invalid bundle member name: '" +
                                     f.name + "'");
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create bundle directory " + dir +
                               ": " + ec.message());
  }

  RunBundle sorted = bundle;
  std::sort(sorted.files.begin(), sorted.files.end(),
            [](const BundleFile& a, const BundleFile& b) {
              return a.name < b.name;
            });

  std::string manifest;
  manifest += "# malleus recorded-run bundle\n";
  manifest += StrFormat("version = %d\n", sorted.version);
  manifest += StrFormat("producer = %s\n", sorted.producer.c_str());
  for (const BundleFile& f : sorted.files) manifest += ManifestLine(f);
  manifest += StrFormat("content_hash = %s\n",
                        HashHex(BundleContentHash(sorted)).c_str());

  for (const BundleFile& f : sorted.files) {
    Status s = WriteFileBytes(dir + "/" + f.name, f.content);
    if (!s.ok()) return s;
  }
  // Manifest last: a readable manifest implies complete members.
  return WriteFileBytes(dir + "/" + kBundleManifestName, manifest);
}

Result<RunBundle> LoadRunBundle(const std::string& dir) {
  Result<std::string> manifest =
      ReadFileBytes(dir + "/" + kBundleManifestName);
  if (!manifest.ok()) {
    return Status::NotFound("no bundle manifest at " + dir + "/" +
                            kBundleManifestName);
  }

  RunBundle bundle;
  bundle.version = -1;
  struct Listed {
    std::string name;
    size_t size = 0;
    std::string hash;
  };
  std::vector<Listed> listed;
  std::string declared_content_hash;

  std::istringstream lines(*manifest);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find(" = ");
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("bundle manifest line %d is not 'key = value': %s",
                    line_no, line.c_str()));
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 3);
    if (key == "version") {
      if (!ParseValue(value, &bundle.version).ok()) {
        return Status::InvalidArgument(
            StrFormat("bundle manifest line %d: bad version '%s'", line_no,
                      value.c_str()));
      }
    } else if (key == "producer") {
      bundle.producer = value;
    } else if (key == "content_hash") {
      declared_content_hash = value;
    } else if (key == "file") {
      // "NAME size=N hash=H" — anchor on the trailing fields so a name
      // containing spaces still parses.
      const size_t hash_pos = value.rfind(" hash=");
      const size_t size_pos = value.rfind(" size=", hash_pos);
      Listed f;
      if (hash_pos == std::string::npos || size_pos == std::string::npos ||
          size_pos >= hash_pos ||
          !ParseValue(std::string_view(value).substr(
                          size_pos + 6, hash_pos - size_pos - 6),
                      &f.size)
               .ok()) {
        return Status::InvalidArgument(
            StrFormat("bundle manifest line %d: malformed file entry: %s",
                      line_no, value.c_str()));
      }
      f.name = value.substr(0, size_pos);
      f.hash = value.substr(hash_pos + 6);
      if (!ValidMemberName(f.name) || f.hash.size() != 16) {
        return Status::InvalidArgument(
            StrFormat("bundle manifest line %d: invalid member '%s'",
                      line_no, f.name.c_str()));
      }
      listed.push_back(std::move(f));
    } else {
      return Status::InvalidArgument(
          StrFormat("bundle manifest line %d: unknown key '%s'", line_no,
                    key.c_str()));
    }
  }

  if (bundle.version != kBundleVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported bundle version %d (this build reads %d)",
                  bundle.version, kBundleVersion));
  }
  if (listed.empty()) {
    return Status::InvalidArgument("bundle manifest lists no files");
  }
  if (declared_content_hash.empty()) {
    return Status::InvalidArgument("bundle manifest has no content_hash");
  }

  for (const Listed& f : listed) {
    Result<std::string> content = ReadFileBytes(dir + "/" + f.name);
    if (!content.ok()) {
      return Status::NotFound("bundle member missing: " + f.name);
    }
    BundleFile member;
    member.name = f.name;
    member.content = std::move(*content);
    if (member.content.size() != f.size) {
      return Status::InvalidArgument(StrFormat(
          "bundle member %s truncated or grown: manifest says %zu bytes, "
          "file has %zu",
          f.name.c_str(), f.size, member.content.size()));
    }
    const std::string actual = HashHex(Fnv1a64(member.content));
    if (actual != f.hash) {
      return Status::InvalidArgument(StrFormat(
          "bundle member %s corrupt: manifest hash %s, content hash %s",
          f.name.c_str(), f.hash.c_str(), actual.c_str()));
    }
    bundle.files.push_back(std::move(member));
  }

  const std::string actual_content =
      HashHex(BundleContentHash(bundle));
  if (actual_content != declared_content_hash) {
    return Status::InvalidArgument(StrFormat(
        "bundle content hash mismatch: manifest %s, members %s",
        declared_content_hash.c_str(), actual_content.c_str()));
  }
  return bundle;
}

}  // namespace obs
}  // namespace malleus
