#pragma once
/// \file tensor_io.hpp
/// \brief Binary serialization for tensors, matrices, and CP models, plus
/// CSV export for factor matrices. A real analysis pipeline (the paper's
/// Section 3 workflow) needs to persist decomposition results and load
/// preprocessed tensors; Matlab users get .mat files from Tensor Toolbox,
/// dmtk users get this module.
///
/// Format: little-endian, host doubles. Each file starts with an 8-byte
/// magic identifying the payload kind and version, followed by 64-bit
/// extents, followed by raw data in the container's natural layout, and
/// ends with a CRC-32 footer (see checked_io.hpp). Readers verify the
/// checksum and still accept footerless files from before the footer
/// existed; writers replace files atomically (temp + fsync + rename), so
/// a crash mid-write never corrupts the previous file.

#include <filesystem>
#include <stdexcept>

#include "core/cp_model.hpp"
#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "io/io_error.hpp"
#include "sparse/sparse_tensor.hpp"

namespace dmtk::io {

/// Scalar payload kind of a dense-tensor file. The magic's last byte tags
/// the payload ('1' = f64 v1, 'f' = f32 v1), so readers of either
/// precision can consume either file (converting entrywise).
enum class ScalarKind { F64, F32 };

/// Write a dense tensor (natural linearization) to `path`. The payload
/// scalar kind follows the tensor's scalar type: TensorF writes an fp32
/// payload (half the bytes of the double form).
template <typename T>
void write_tensor(const std::filesystem::path& path, const TensorT<T>& X);

extern template void write_tensor<double>(const std::filesystem::path&,
                                          const Tensor&);
extern template void write_tensor<float>(const std::filesystem::path&,
                                         const TensorF&);

/// Read a tensor written by write_tensor, converting the payload (f64 or
/// f32) to the requested scalar type entrywise. The tensor's storage is
/// never zero-filled: the reader writes every element, and a short read or
/// a failed checksum throws it away. Storage of 32 MiB or more is its own
/// huge-page-advised mapping (glibc maps buffers that big anyway; see
/// kLargeBufferBytes in util/aligned_alloc.hpp), so the read faults in
/// 2 MiB pages where THP allows it.
template <typename T>
TensorT<T> read_tensor_as(const std::filesystem::path& path);

extern template Tensor read_tensor_as<double>(const std::filesystem::path&);
extern template TensorF read_tensor_as<float>(const std::filesystem::path&);

/// Read a tensor written by write_tensor as double (accepts both payload
/// kinds) — the historical entry point.
Tensor read_tensor(const std::filesystem::path& path);

/// Payload scalar kind of a dense-tensor file (throws IoError when the
/// file is not a dmtk tensor file).
ScalarKind tensor_scalar_kind(const std::filesystem::path& path);

/// Extents of a dense-tensor file, read from the header alone (no payload
/// traffic) — what the CLI uses to pick plan options before committing to
/// a read precision.
std::vector<index_t> tensor_extents(const std::filesystem::path& path);

/// Write a column-major matrix to `path`.
void write_matrix(const std::filesystem::path& path, const Matrix& M);

/// Read a matrix written by write_matrix.
Matrix read_matrix(const std::filesystem::path& path);

/// Write a CP model (lambda + factors) to a single file. The payload
/// scalar kind follows the model's scalar type: a KtensorF writes an fp32
/// payload ('DMTKKTNf' magic) at half the bytes — fp32 runs round-trip
/// natively instead of widening through f64.
template <typename T>
void write_ktensor(const std::filesystem::path& path, const KtensorT<T>& K);

extern template void write_ktensor<double>(const std::filesystem::path&,
                                           const Ktensor&);
extern template void write_ktensor<float>(const std::filesystem::path&,
                                          const KtensorF&);

/// Read a CP model written by write_ktensor, converting the payload (f64
/// or f32) to the requested scalar type entrywise (lambda and factors).
template <typename T>
KtensorT<T> read_ktensor_as(const std::filesystem::path& path);

extern template Ktensor read_ktensor_as<double>(const std::filesystem::path&);
extern template KtensorF read_ktensor_as<float>(const std::filesystem::path&);

/// Read a CP model as double (accepts both payload kinds) — the
/// historical entry point.
Ktensor read_ktensor(const std::filesystem::path& path);

/// Payload scalar kind of a ktensor file (throws IoError when the file is
/// not a dmtk ktensor file).
ScalarKind ktensor_scalar_kind(const std::filesystem::path& path);

/// Export a matrix as CSV (one row per line, %.17g precision — lossless
/// for doubles), e.g. for plotting factor time courses.
void export_csv(const std::filesystem::path& path, const Matrix& M);

/// Read a FROSTT-style .tns sparse-tensor text file: '#'-comment and blank
/// lines are ignored; every data line holds N whitespace-separated 1-based
/// integer coordinates followed by one value. The order N is set by the
/// first data line; mode sizes are the per-mode coordinate maxima.
/// Duplicate coordinates are preserved (they act additively, matching
/// SparseTensor::push_back). Throws IoError (with the 1-based line number)
/// on malformed input: a field-count mismatch, a non-numeric field, a
/// coordinate < 1, or a file with no data lines.
sparse::SparseTensor read_tns(const std::filesystem::path& path);

/// Write the FROSTT-style .tns form of S: one "i_1 ... i_N value" line per
/// stored nonzero (1-based coordinates, %.17g values — lossless for
/// doubles). Duplicates are written as-is. Throws IoError for an empty
/// tensor: the headerless format infers the shape from the coordinates,
/// so a zero-line file could never be read back.
void write_tns(const std::filesystem::path& path,
               const sparse::SparseTensor& S);

}  // namespace dmtk::io
