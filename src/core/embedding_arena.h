#ifndef SISG_CORE_EMBEDDING_ARENA_H_
#define SISG_CORE_EMBEDDING_ARENA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "common/simd.h"
#include "common/status.h"

namespace sisg {

/// The fp32 serving state of a MatchingEngine frozen into one artifact
/// (kind EMBARENA): the query-side rows, the compacted candidate block, the
/// row -> item-id map and the liveness bitmap — everything a query needs,
/// nothing training needs. Loading it skips model parsing and engine
/// normalization entirely, and with use_mmap the two float blocks (the only
/// O(items x dim) data) stay in the file mapping: serving a model larger
/// than RAM becomes a page-cache eviction problem, not an allocation. Both
/// blocks are stored padded to the 64-byte AlignedRowStride layout at
/// 64-byte-aligned file offsets, so mmap'd candidate rows have exactly the
/// alignment heap rows have and the SIMD scans run unchanged — and
/// bit-identically. It is also the engine's one in-memory form: a
/// model-built engine holds a FromRows arena.
class ServingArena {
 public:
  /// Borrowed description of the serving state (what Save writes and what
  /// Load reconstitutes). `mode` is the engine's SimilarityMode as a raw
  /// u32 so this header does not depend on matching_engine.h.
  struct View {
    uint32_t num_items = 0;
    uint32_t dim = 0;
    uint32_t num_cand = 0;
    uint32_t mode = 0;
    size_t query_stride = 0;        // floats between query-row starts
    size_t cand_stride = 0;         // floats between candidate-row starts
    const float* query_rows = nullptr;  // num_items x query_stride
    const float* cand_rows = nullptr;   // num_cand x cand_stride
    const uint32_t* cand_ids = nullptr; // num_cand (block row -> item id)
    const uint8_t* has_item = nullptr;  // num_items
  };

  ServingArena() = default;

  /// A heap arena like the one a heap Load returns, over `query_rows`
  /// (num_items x dim, dense: query rows are only read one at a time as
  /// query vectors, so the caller's matrix is adopted without a copy) and
  /// `cand_rows` (one row per entry of `cand_ids`, at AlignedRowStride(dim)).
  static ServingArena FromRows(uint32_t num_items, uint32_t dim, uint32_t mode,
                               std::vector<float> query_rows,
                               AlignedFloatVector cand_rows,
                               std::vector<uint32_t> cand_ids,
                               std::vector<uint8_t> has_item);

  static Status Save(const std::string& path, const View& v);

  /// Loads an arena saved by Save. One parse for both modes: ArtifactReader
  /// validates the artifact, the prologue and shape are checked once, and
  /// the id/liveness metadata is copied. `use_mmap` decides only where the
  /// two float blocks live: kept in the (fully validated) mapping, or copied
  /// to the heap (the mapping is released before Load returns). The
  /// returned view's strides are both AlignedRowStride(dim).
  static StatusOr<ServingArena> Load(const std::string& path, bool use_mmap);

  const View& view() const { return view_; }

 private:
  View view_;
  // Heap backing (empty in mmap mode, where floats live in map_).
  std::vector<float> own_query_;
  AlignedFloatVector own_cand_;
  // Metadata is always materialized (4-5 bytes per item — negligible next
  // to the float blocks, and queried on every lookup).
  std::vector<uint32_t> own_ids_;
  std::vector<uint8_t> own_has_;
  // Mmap backing: the reader whose mapping the float blocks point into.
  ArtifactReader map_;
};

}  // namespace sisg

#endif  // SISG_CORE_EMBEDDING_ARENA_H_
