#ifndef SISG_COMMON_TOP_K_H_
#define SISG_COMMON_TOP_K_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace sisg {

/// A (score, id) pair returned by retrieval components.
struct ScoredId {
  float score = 0.0f;
  uint32_t id = 0;

  friend bool operator==(const ScoredId& a, const ScoredId& b) {
    return a.score == b.score && a.id == b.id;
  }
};

/// Bounded selector that keeps the k highest-scoring ids seen so far.
/// Push is O(log k) via a min-heap over the kept set; Take() returns the
/// survivors sorted by descending score (ties broken by ascending id so
/// results are deterministic).
///
/// The heap orders entries by a 64-bit key, (score, ~id) with -0 folded to
/// +0, so its root is the unique worst kept entry (lowest score, then
/// highest id) whatever the push order. A push into a full selector is
/// rejected when score <= root score; otherwise it replaces the root in one
/// sift: the hole descends to a leaf along the smaller child (chosen by
/// index arithmetic, not a branch) and the new entry rises from there. The
/// kept set after any push sequence of distinct ids and non-NaN scores is
/// therefore the one a pop_heap + push_heap selector keeps, and the stored
/// scores keep their exact bits.
class TopKSelector {
 public:
  explicit TopKSelector(size_t k) : k_(k) { heap_.reserve(k); }

  void Push(float score, uint32_t id) {
    if (k_ == 0) return;
    const Entry e{OrderKey(score, id), score};
    if (heap_.size() < k_) {
      heap_.push_back(e);
      SiftUp(heap_.size() - 1, e);
      return;
    }
    if (score <= heap_.front().score) return;
    ReplaceRoot(e);
  }

  bool Full() const { return heap_.size() >= k_; }
  /// Pruning threshold for scan kernels: a candidate scoring <= Threshold()
  /// can never enter the kept set. While the heap is not yet full every
  /// score must be admitted, so the threshold is -inf (NOT 0: a 0 here
  /// would drop negative-scored candidates before k results exist). With
  /// k == 0 nothing is ever kept and the threshold is +inf.
  float Threshold() const {
    if (!Full()) return -std::numeric_limits<float>::infinity();
    if (heap_.empty()) return std::numeric_limits<float>::infinity();
    return heap_.front().score;
  }
  size_t size() const { return heap_.size(); }

  /// Extracts results sorted best-first. The selector is emptied.
  std::vector<ScoredId> Take() {
    std::vector<ScoredId> out;
    out.reserve(heap_.size());
    for (const Entry& e : heap_) {
      out.push_back({e.score, ~static_cast<uint32_t>(e.key)});
    }
    heap_.clear();
    std::sort(out.begin(), out.end(), [](const ScoredId& a, const ScoredId& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    });
    return out;
  }

 private:
  struct Entry {
    uint64_t key;  // OrderKey(score, id): smaller is worse
    float score;   // the pushed bits, returned unchanged
  };

  /// Monotone map of (score, id) onto uint64: the float bits become an
  /// unsigned total order (sign-magnitude flip), -0 == +0 as float compares
  /// say, and among equal scores the larger id gets the smaller key.
  static uint64_t OrderKey(float score, uint32_t id) {
    uint32_t bits = std::bit_cast<uint32_t>(score);
    bits = (bits << 1) == 0 ? 0 : bits;
    bits ^= (0u - (bits >> 31)) | 0x80000000u;
    return (static_cast<uint64_t>(bits) << 32) | static_cast<uint32_t>(~id);
  }

  void SiftUp(size_t i, const Entry& e) {
    Entry* h = heap_.data();
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (h[parent].key <= e.key) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  void ReplaceRoot(const Entry& e) {
    Entry* h = heap_.data();
    const size_t n = heap_.size();
    size_t i = 0;
    for (size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n) c += h[c + 1].key < h[c].key;
      h[i] = h[c];
      i = c;
    }
    SiftUp(i, e);
  }

  size_t k_;
  std::vector<Entry> heap_;
};

/// Depth of an approximate shortlist (int8 scan, PQ ADC) that an exact fp32
/// rerank cuts to k: four times k, at least 32, capped at the `rows`
/// candidates, plus one slot for a query item excluded only at rerank.
inline uint32_t ShortlistDepth(uint32_t k, uint32_t rows) {
  return std::min(rows, std::max(4 * k, 32u)) + 1;
}

}  // namespace sisg

#endif  // SISG_COMMON_TOP_K_H_
