#include "solver/cache_key.h"

#include <cstring>

namespace malleus {
namespace solver {

namespace wire {

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(buf, 8);
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutInts(std::string* out, const std::vector<int>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (int x : v) PutU64(out, static_cast<uint64_t>(static_cast<int64_t>(x)));
}

bool Reader::U32(uint32_t* v) {
  if (size_ - pos_ < 4) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *v = r;
  return true;
}

bool Reader::U64(uint64_t* v) {
  if (size_ - pos_ < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *v = r;
  return true;
}

bool Reader::Double(double* v) {
  uint64_t bits;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool Reader::String(std::string* s) {
  uint32_t size;
  if (!U32(&size)) return false;
  if (size_ - pos_ < size) return false;
  s->assign(data_ + pos_, size);
  pos_ += size;
  return true;
}

bool Reader::Ints(std::vector<int>* v) {
  uint32_t count;
  if (!U32(&count)) return false;
  if (size_ - pos_ < static_cast<size_t>(count) * 8) return false;
  v->clear();
  v->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t raw;
    if (!U64(&raw)) return false;
    v->push_back(static_cast<int>(static_cast<int64_t>(raw)));
  }
  return true;
}

}  // namespace wire

namespace {

// Field type markers; distinct from plausible Tag() characters is not
// required (Tag has its own marker byte), only mutual distinctness is.
enum : char {
  kMarkTag = 'T',
  kMarkBool = 'B',
  kMarkInt = 'I',
  kMarkIntVec = 'i',
  kMarkDoubleVec = 'd',
};

}  // namespace

void CacheKey::AppendRaw64(uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  bytes_.append(buf, 8);
}

CacheKey& CacheKey::Tag(char tag) {
  bytes_.push_back(kMarkTag);
  bytes_.push_back(tag);
  return *this;
}

CacheKey& CacheKey::Bool(bool v) {
  bytes_.push_back(kMarkBool);
  bytes_.push_back(v ? 1 : 0);
  return *this;
}

CacheKey& CacheKey::Int(int64_t v) {
  bytes_.push_back(kMarkInt);
  AppendRaw64(static_cast<uint64_t>(v));
  return *this;
}

CacheKey& CacheKey::Ints(const std::vector<int>& v) {
  bytes_.push_back(kMarkIntVec);
  AppendRaw64(v.size());
  for (int x : v) AppendRaw64(static_cast<uint64_t>(static_cast<int64_t>(x)));
  return *this;
}

CacheKey& CacheKey::Doubles(const std::vector<double>& v) {
  bytes_.push_back(kMarkDoubleVec);
  AppendRaw64(v.size());
  for (double x : v) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    AppendRaw64(bits);
  }
  return *this;
}

char KeyTag(const std::string& key) {
  if (key.size() < 2 || key[0] != kMarkTag) return '\0';
  return key[1];
}

}  // namespace solver
}  // namespace malleus
