// Indexed d-ary min-heap used as FlowSim's arrival queue.
//
// The seed FlowSim found the next pending arrival with an O(n) scan over
// every submitted flow at every event. Arrival times are known at submit
// and never change, so a plain min-heap retires that scan: peek is O(1),
// push/pop are O(log_d n). A 4-ary layout keeps the tree shallow and the
// children of a node in one cache line, which beats a binary heap on the
// flat sift-down-heavy workload of an event loop.
//
// Ties are broken by ascending id so the pop order is fully deterministic,
// independent of insertion order.

#ifndef MALLEUS_NET_EVENT_QUEUE_H_
#define MALLEUS_NET_EVENT_QUEUE_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace malleus {
namespace net {

/// Min-heap of (key, id) pairs with deterministic (key, id) ordering.
class EventQueue {
 public:
  void Reserve(size_t n) { heap_.reserve(n); }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  double top_key() const {
    MALLEUS_CHECK(!heap_.empty());
    return heap_[0].key;
  }

  void Push(double key, int id) {
    heap_.push_back({key, id});
    SiftUp(heap_.size() - 1);
  }

  /// Removes and returns the id with the smallest (key, id).
  int PopMin() {
    MALLEUS_CHECK(!heap_.empty());
    const int id = heap_[0].id;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
    return id;
  }

 private:
  static constexpr size_t kArity = 4;

  struct Entry {
    double key;
    int id;
  };

  static bool Less(const Entry& a, const Entry& b) {
    return a.key < b.key || (a.key == b.key && a.id < b.id);
  }

  void SiftUp(size_t i) {
    Entry e = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void SiftDown(size_t i) {
    Entry e = heap_[i];
    const size_t n = heap_.size();
    while (true) {
      const size_t first = kArity * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = first + kArity < n ? first + kArity : n;
      for (size_t c = first + 1; c < last; ++c) {
        if (Less(heap_[c], heap_[best])) best = c;
      }
      if (!Less(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
};

}  // namespace net
}  // namespace malleus

#endif  // MALLEUS_NET_EVENT_QUEUE_H_
