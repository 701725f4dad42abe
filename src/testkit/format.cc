#include "testkit/format.h"

#include "common/string_util.h"

namespace malleus {
namespace testkit {

std::string FormatSeconds(double seconds) {
  if (seconds < 0) {
    // Two statements: GCC 12's -Wrestrict misfires on `"-" + <temporary>`.
    std::string out = "-";
    out += FormatSeconds(-seconds);
    return out;
  }
  if (seconds < 1e-3) return StrFormat("%.1f us", seconds * 1e6);
  if (seconds < 1.0) return StrFormat("%.1f ms", seconds * 1e3);
  if (seconds < 120.0) return StrFormat("%.2f s", seconds);
  return StrFormat("%.1f min", seconds / 60.0);
}

}  // namespace testkit
}  // namespace malleus
