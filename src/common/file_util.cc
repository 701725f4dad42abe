#include "common/file_util.h"

#include <fstream>
#include <sstream>

namespace malleus {

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFileBytes(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Unavailable("cannot open " + path + " for write");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) return Status::Unavailable("short write to " + path);
  return Status::OK();
}

}  // namespace malleus
