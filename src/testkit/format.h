// Human-readable renderings of values for test output.

#ifndef MALLEUS_TESTKIT_FORMAT_H_
#define MALLEUS_TESTKIT_FORMAT_H_

#include <string>

namespace malleus {
namespace testkit {

/// Human-readable duration from seconds, e.g. "1.25 s" or "320 ms".
std::string FormatSeconds(double seconds);

}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_FORMAT_H_
