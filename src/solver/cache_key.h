// Canonical byte-string keys for memoized solves, and the fixed-width
// wire primitives that persisted caches are written with.
//
// Keying contract: a key must encode EVERY input that affects the solved
// result, except inputs fixed for a cache's lifetime — the cost model,
// which core::Planner fixes per core::PlannerCache instance.

#ifndef MALLEUS_SOLVER_CACHE_KEY_H_
#define MALLEUS_SOLVER_CACHE_KEY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace malleus {
namespace solver {

/// Fixed-width little-endian primitives shared by the cache file format
/// and the planner cache's entry encodings. Everything is length-prefixed
/// and bounds-checked on the way back in, so a truncated or bit-flipped
/// blob fails decoding instead of reading out of range.
namespace wire {

void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutDouble(std::string* out, double v);          // By bit pattern.
void PutString(std::string* out, const std::string& s);
void PutInts(std::string* out, const std::vector<int>& v);

/// Bounds-checked sequential reader over a byte span. Every accessor
/// returns false (leaving the output untouched) once the span is
/// exhausted or a length prefix exceeds the remaining bytes.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool Double(double* v);
  bool String(std::string* s);
  bool Ints(std::vector<int>* v);

  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace wire

/// \brief Canonical, collision-free byte encoding of a subproblem.
///
/// Every appended field is prefixed with a one-byte type marker and vectors
/// additionally with their length, so distinct field sequences can never
/// encode to the same bytes (e.g. rates=[1,2],sizes=[3] differs from
/// rates=[1],sizes=[2,3]). Doubles are encoded by bit pattern: keys
/// distinguish values that compare equal but differ in representation
/// (-0.0 vs 0.0), which is the conservative direction for a cache.
class CacheKey {
 public:
  /// Domain tag separating key spaces (e.g. 'O' orchestration, 'L' layers).
  CacheKey& Tag(char tag);
  CacheKey& Bool(bool v);
  CacheKey& Int(int64_t v);
  CacheKey& Double(double v);
  CacheKey& Ints(const std::vector<int>& v);
  CacheKey& Doubles(const std::vector<double>& v);

  const std::string& str() const { return bytes_; }

 private:
  void AppendRaw64(uint64_t v);

  std::string bytes_;
};

/// Domain tag of a CacheKey-built key ('L', 'O', ...), or '\0' when the
/// key does not start with a Tag() field.
char KeyTag(const std::string& key);

}  // namespace solver
}  // namespace malleus

#endif  // MALLEUS_SOLVER_CACHE_KEY_H_
