// Whole-file byte I/O shared by the libraries and the command-line tools.

#ifndef MALLEUS_COMMON_FILE_UTIL_H_
#define MALLEUS_COMMON_FILE_UTIL_H_

#include <string>

#include "common/result.h"
#include "common/status.h"

namespace malleus {

/// The file's bytes, unmodified. NotFound when it cannot be opened.
Result<std::string> ReadFileBytes(const std::string& path);

/// Replaces the file's content with `content`, byte for byte. Unavailable
/// when the file cannot be opened or the write comes up short.
Status WriteFileBytes(const std::string& path, const std::string& content);

}  // namespace malleus

#endif  // MALLEUS_COMMON_FILE_UTIL_H_
