#include "sgns/embedding_model.h"

#include <cstring>

#include "common/io_util.h"
#include "common/rng.h"

namespace sisg {
namespace {

// Artifact kind/version of the serialized model. Version 2 is the
// atomic + checksummed layout (shared ArtifactWriter header followed by
// rows, dim and both dense matrices); version 1 was the bare-magic format
// of the seed, which offered no corruption detection and is gone.
constexpr char kEmbKind[] = "EMBMODEL";
constexpr uint32_t kEmbVersion = 2;

// Largest rows * dim we ever allocate: the same 8G-float guard the seed
// used, which also keeps rows * stride far from size_t overflow.
constexpr uint64_t kMaxCells = 1ull << 33;

/// Writes `rows` dense rows of `dim` floats out of a stride-padded matrix.
Status WriteRows(ArtifactWriter& w, const float* data, uint32_t rows,
                 uint32_t dim, size_t stride) {
  for (uint32_t r = 0; r < rows; ++r) {
    SISG_RETURN_IF_ERROR(
        w.Write(data + static_cast<size_t>(r) * stride, dim * sizeof(float)));
  }
  return Status::OK();
}

/// Reads `rows` dense rows of `dim` floats into a stride-padded matrix.
Status ReadRows(ArtifactReader& r, float* data, uint32_t rows, uint32_t dim,
                size_t stride) {
  for (uint32_t row = 0; row < rows; ++row) {
    SISG_RETURN_IF_ERROR(
        r.Read(data + static_cast<size_t>(row) * stride, dim * sizeof(float)));
  }
  return Status::OK();
}

}  // namespace

Status EmbeddingModel::Init(uint32_t rows, uint32_t dim, uint64_t seed) {
  if (rows == 0 || dim == 0) {
    return Status::InvalidArgument("embedding model: rows and dim must be > 0");
  }
  rows_ = rows;
  dim_ = dim;
  stride_ = AlignedRowStride(dim);
  const size_t n = static_cast<size_t>(rows) * stride_;
  input_.assign(n, 0.0f);  // padding floats stay zero
  output_.assign(n, 0.0f);
  Rng rng(seed);
  const float scale = 0.5f / static_cast<float>(dim);
  for (uint32_t r = 0; r < rows; ++r) {
    float* row = Input(r);
    for (uint32_t d = 0; d < dim; ++d) {
      row[d] = (rng.UniformFloat() * 2.0f - 1.0f) * scale;
    }
  }
  return Status::OK();
}

Status EmbeddingModel::Save(const std::string& path) const {
  SISG_ASSIGN_OR_RETURN(ArtifactWriter w,
                        ArtifactWriter::Open(path, kEmbKind, kEmbVersion));
  SISG_RETURN_IF_ERROR(w.WriteScalar(rows_));
  SISG_RETURN_IF_ERROR(w.WriteScalar(dim_));
  SISG_RETURN_IF_ERROR(WriteRows(w, input_.data(), rows_, dim_, stride_));
  SISG_RETURN_IF_ERROR(WriteRows(w, output_.data(), rows_, dim_, stride_));
  return w.Commit();
}

StatusOr<EmbeddingModel> EmbeddingModel::Load(const std::string& path) {
  SISG_ASSIGN_OR_RETURN(ArtifactReader r, ArtifactReader::Open(path, kEmbKind));
  if (r.version() != kEmbVersion) {
    return Status::InvalidArgument(
        "embedding model: unsupported format version " +
        std::to_string(r.version()) + " in " + path);
  }
  EmbeddingModel m;
  SISG_RETURN_IF_ERROR(r.ReadScalar(&m.rows_));
  SISG_RETURN_IF_ERROR(r.ReadScalar(&m.dim_));
  if (m.rows_ == 0 || m.dim_ == 0 ||
      static_cast<uint64_t>(m.rows_) * m.dim_ > kMaxCells) {
    return Status::InvalidArgument("embedding model: bad header (rows=" +
                                   std::to_string(m.rows_) + ", dim=" +
                                   std::to_string(m.dim_) + ") in " + path);
  }
  // The payload must hold exactly both dense matrices; anything else means
  // the header and the data disagree (a partial or doctored write).
  const uint64_t expected =
      2ull * m.rows_ * m.dim_ * sizeof(float);
  if (r.remaining() != expected) {
    return Status::DataLoss("embedding model: payload size mismatch in " + path);
  }
  m.stride_ = AlignedRowStride(m.dim_);
  const size_t n = static_cast<size_t>(m.rows_) * m.stride_;
  m.input_.assign(n, 0.0f);
  m.output_.assign(n, 0.0f);
  SISG_RETURN_IF_ERROR(ReadRows(r, m.input_.data(), m.rows_, m.dim_, m.stride_));
  SISG_RETURN_IF_ERROR(ReadRows(r, m.output_.data(), m.rows_, m.dim_, m.stride_));
  return m;
}

}  // namespace sisg
