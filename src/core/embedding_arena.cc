#include "core/embedding_arena.h"

#include <cstring>

namespace sisg {
namespace {

constexpr char kArenaKind[] = "EMBARENA";
constexpr uint32_t kArenaVersion = 1;

/// Fixed-size prologue of the EMBARENA payload:
///   u32 num_items, u32 dim, u32 num_cand, u32 mode,
///   u32 row stride (floats), u32 data_off
/// then cand_ids (num_cand u32), has_item (num_items u8), zero padding up to
/// data_off, the query block (num_items x stride f32) and the candidate
/// block (num_cand x stride f32). data_off 64-byte aligns the query block's
/// file offset; the candidate block follows at a 64-byte boundary too since
/// every padded row is a whole number of cache lines.
constexpr size_t kArenaPrologueBytes = 24;

uint64_t MetaBytes(uint32_t num_items, uint32_t num_cand) {
  return kArenaPrologueBytes +
         static_cast<uint64_t>(num_cand) * sizeof(uint32_t) + num_items;
}

uint64_t FloatBlockOffset(uint32_t num_items, uint32_t num_cand) {
  const uint64_t file_off =
      kArtifactHeaderBytes + MetaBytes(num_items, num_cand);
  return (file_off + 63) / 64 * 64 - kArtifactHeaderBytes;
}

}  // namespace

ServingArena ServingArena::FromRows(uint32_t num_items, uint32_t dim,
                                    uint32_t mode,
                                    std::vector<float> query_rows,
                                    AlignedFloatVector cand_rows,
                                    std::vector<uint32_t> cand_ids,
                                    std::vector<uint8_t> has_item) {
  ServingArena arena;
  arena.own_query_ = std::move(query_rows);
  arena.own_cand_ = std::move(cand_rows);
  arena.own_ids_ = std::move(cand_ids);
  arena.own_has_ = std::move(has_item);
  View& v = arena.view_;
  v.num_items = num_items;
  v.dim = dim;
  v.num_cand = static_cast<uint32_t>(arena.own_ids_.size());
  v.mode = mode;
  v.query_stride = dim;
  v.cand_stride = AlignedRowStride(dim);
  v.query_rows = arena.own_query_.data();
  v.cand_rows = arena.own_cand_.data();
  v.cand_ids = arena.own_ids_.data();
  v.has_item = arena.own_has_.data();
  return arena;
}

Status ServingArena::Save(const std::string& path, const View& v) {
  if (v.num_items == 0 || v.dim == 0 || v.query_rows == nullptr ||
      v.cand_ids == nullptr || v.has_item == nullptr ||
      (v.num_cand > 0 && v.cand_rows == nullptr) ||
      v.query_stride < v.dim || v.cand_stride < v.dim) {
    return Status::InvalidArgument("serving arena: inconsistent view");
  }
  SISG_ASSIGN_OR_RETURN(ArtifactWriter w,
                        ArtifactWriter::Open(path, kArenaKind, kArenaVersion));
  const uint32_t stride =
      static_cast<uint32_t>(AlignedRowStride(v.dim));
  const uint32_t data_off =
      static_cast<uint32_t>(FloatBlockOffset(v.num_items, v.num_cand));
  SISG_RETURN_IF_ERROR(w.WriteScalar(v.num_items));
  SISG_RETURN_IF_ERROR(w.WriteScalar(v.dim));
  SISG_RETURN_IF_ERROR(w.WriteScalar(v.num_cand));
  SISG_RETURN_IF_ERROR(w.WriteScalar(v.mode));
  SISG_RETURN_IF_ERROR(w.WriteScalar(stride));
  SISG_RETURN_IF_ERROR(w.WriteScalar(data_off));
  SISG_RETURN_IF_ERROR(
      w.Write(v.cand_ids, static_cast<size_t>(v.num_cand) * sizeof(uint32_t)));
  SISG_RETURN_IF_ERROR(w.Write(v.has_item, v.num_items));
  const char zeros[64] = {0};
  SISG_RETURN_IF_ERROR(
      w.Write(zeros, data_off - MetaBytes(v.num_items, v.num_cand)));
  // Rows are re-padded to the canonical stride on the way out, so the
  // artifact layout is identical whether the source rows were dense
  // (engine matrices) or already padded (another arena).
  std::vector<float> row(stride, 0.0f);
  for (uint32_t i = 0; i < v.num_items; ++i) {
    std::memcpy(row.data(),
                v.query_rows + static_cast<size_t>(i) * v.query_stride,
                v.dim * sizeof(float));
    SISG_RETURN_IF_ERROR(w.Write(row.data(), stride * sizeof(float)));
  }
  for (uint32_t i = 0; i < v.num_cand; ++i) {
    std::memcpy(row.data(),
                v.cand_rows + static_cast<size_t>(i) * v.cand_stride,
                v.dim * sizeof(float));
    SISG_RETURN_IF_ERROR(w.Write(row.data(), stride * sizeof(float)));
  }
  return w.Commit();
}

StatusOr<ServingArena> ServingArena::Load(const std::string& path,
                                          bool use_mmap) {
  SISG_ASSIGN_OR_RETURN(ArtifactReader r,
                        ArtifactReader::Open(path, kArenaKind));
  if (r.version() != kArenaVersion) {
    return Status::InvalidArgument("serving arena: unsupported version " +
                                   std::to_string(r.version()) + " in " +
                                   path);
  }
  uint32_t num_items = 0, dim = 0, num_cand = 0, mode = 0, stride = 0,
           data_off = 0;
  for (uint32_t* field : {&num_items, &dim, &num_cand, &mode, &stride,
                          &data_off}) {
    SISG_RETURN_IF_ERROR(r.ReadScalar(field));
  }
  if (num_items == 0 || dim == 0 || num_cand > num_items || mode > 1) {
    return Status::DataLoss("serving arena: corrupt shape in " + path);
  }
  if (stride != AlignedRowStride(dim)) {
    return Status::DataLoss("serving arena: row stride " +
                            std::to_string(stride) + " does not match dim " +
                            std::to_string(dim) + " in " + path);
  }
  const size_t query_floats = static_cast<size_t>(num_items) * stride;
  const size_t cand_floats = static_cast<size_t>(num_cand) * stride;
  if (data_off != FloatBlockOffset(num_items, num_cand) ||
      r.payload_bytes() !=
          data_off + (query_floats + cand_floats) * sizeof(float)) {
    return Status::DataLoss(
        "serving arena: artifact layout inconsistent with declared shape in " +
        path);
  }

  // The id map and liveness bitmap are always copied (4-5 bytes per item).
  // The shape check pinned both float blocks inside the payload: heap mode
  // copies them out and lets the mapping go with `r`; mmap mode keeps them
  // in the mapping the arena holds.
  ServingArena arena;
  arena.own_ids_.resize(num_cand);
  SISG_RETURN_IF_ERROR(r.Read(
      arena.own_ids_.data(), static_cast<size_t>(num_cand) * sizeof(uint32_t)));
  // Candidate ids ascend strictly and name items: every scan pushes rows in
  // ascending id order, which is what lets a chunked pass begun at any chunk
  // answer bit-identically (DESIGN.md §8).
  for (uint32_t r = 0; r < num_cand; ++r) {
    if (arena.own_ids_[r] >= num_items ||
        (r > 0 && arena.own_ids_[r] <= arena.own_ids_[r - 1])) {
      return Status::DataLoss("serving arena: candidate ids out of order in " +
                              path);
    }
  }
  arena.own_has_.resize(num_items);
  SISG_RETURN_IF_ERROR(r.Read(arena.own_has_.data(), num_items));
  const float* query = reinterpret_cast<const float*>(r.payload() + data_off);
  const float* cand = query + query_floats;
  if (use_mmap) {
    arena.map_ = std::move(r);
  } else {
    arena.own_query_.assign(query, cand);
    arena.own_cand_.assign(cand, cand + cand_floats);
    query = arena.own_query_.data();
    cand = arena.own_cand_.data();
  }
  arena.view_ = View{num_items, dim, num_cand, mode, stride, stride, query,
                     cand, arena.own_ids_.data(), arena.own_has_.data()};
  return arena;
}

}  // namespace sisg
