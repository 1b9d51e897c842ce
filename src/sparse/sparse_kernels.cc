#include "sparse/sparse_kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/check.h"
#include "obs/log.h"

namespace ivmf::spk {

// -- Backend selection -------------------------------------------------------

bool Avx2Compiled() {
#ifdef IVMF_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool Avx2Supported() {
#if defined(IVMF_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool ParseBackend(std::string_view name, Backend* out) {
  if (name == "scalar") {
    *out = Backend::kScalar;
  } else if (name == "avx2") {
    *out = Backend::kAvx2;
  } else if (name == "sell") {
    *out = Backend::kSell;
  } else if (name == "auto") {
    *out = Backend::kAuto;
  } else {
    return false;
  }
  return true;
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kSell:
      return "sell";
  }
  return "unknown";
}

Backend EnvBackend() {
  static const Backend env = [] {
    const char* value = std::getenv("IVMF_SPARSE_KERNEL");
    if (value == nullptr || value[0] == '\0') return Backend::kAuto;
    Backend parsed = Backend::kAuto;
    if (!ParseBackend(value, &parsed)) {
      obs::LogWarn("sparse", "unknown IVMF_SPARSE_KERNEL value; using auto",
                   {{"value", value}, {"want", "scalar|avx2|sell|auto"}});
    }
    return parsed;
  }();
  return env;
}

Backend Resolve(Backend request) {
  if (request == Backend::kAuto) request = EnvBackend();
  switch (request) {
    case Backend::kScalar:
      return Backend::kScalar;
    case Backend::kSell:
      return Backend::kSell;
    case Backend::kAuto:
    case Backend::kAvx2:
      return Avx2Supported() ? Backend::kAvx2 : Backend::kScalar;
  }
  return Backend::kScalar;
}

Backend CsrVariant(Backend backend) {
  const Backend resolved = Resolve(backend);
  if (resolved == Backend::kSell) {
    return Avx2Supported() ? Backend::kAvx2 : Backend::kScalar;
  }
  return resolved;
}

Backend ChooseAutoBackend(double mean_row_nnz, double cv,
                          bool avx2_supported) {
  if (!avx2_supported) return Backend::kScalar;
  if (mean_row_nnz < kSellMeanRowThreshold) return Backend::kSell;
  if (mean_row_nnz < kSellIrregularMeanRowThreshold &&
      cv > kSellIrregularCvThreshold) {
    return Backend::kSell;
  }
  return Backend::kAvx2;
}

// -- CSR reference kernels ---------------------------------------------------

void MatVecScalar(const CsrView& a, const double* v, const double* x,
                  double* y, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double sum = 0.0;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      sum += v[k] * x[a.col_idx[k]];
    }
    y[i] = sum;
  }
}

void MatVecMidScalar(const CsrView& a, const double* lo, const double* hi,
                     const double* x, double* y, size_t row_begin,
                     size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double sum = 0.0;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      sum += 0.5 * (lo[k] + hi[k]) * x[a.col_idx[k]];
    }
    y[i] = sum;
  }
}

void MatVecTScalar(const CsrView& a, const double* v, const double* x,
                   double* y, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      y[a.col_idx[k]] += v[k] * xi;
    }
  }
}

void MatDenseScalar(const CsrView& a, const double* v, const double* b,
                    size_t bcols, double* c, size_t row_begin,
                    size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* out = c + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const double* brow = b + a.col_idx[k] * bcols;
      const double value = v[k];
      for (size_t j = 0; j < bcols; ++j) out[j] += value * brow[j];
    }
  }
}

void MatDenseBothScalar(const CsrView& a, const double* lo, const double* hi,
                        const double* b, size_t bcols, double* c_lo,
                        double* c_hi, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* out_lo = c_lo + i * bcols;
    double* out_hi = c_hi + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const double* brow = b + a.col_idx[k] * bcols;
      const double vlo = lo[k];
      const double vhi = hi[k];
      for (size_t j = 0; j < bcols; ++j) {
        out_lo[j] += vlo * brow[j];
        out_hi[j] += vhi * brow[j];
      }
    }
  }
}

// -- Fused Gram reference kernels --------------------------------------------
//
// One pass over the pattern per Gram apply: the row dot and the scaled
// scatter share the cached row data. The scalar form is the differential
// reference for the packed AVX2 kernels and the portable fallback for
// direct calls on no-AVX2 builds.

void GramFusedScalar(const CsrView& a, const double* v, const double* x,
                     double* y, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t begin = a.row_ptr[i];
    const size_t end = a.row_ptr[i + 1];
    double s = 0.0;
    for (size_t k = begin; k < end; ++k) s += v[k] * x[a.col_idx[k]];
    if (s == 0.0) continue;
    for (size_t k = begin; k < end; ++k) y[a.col_idx[k]] += s * v[k];
  }
}

// -- SELL reference (blocked-scalar) kernels ---------------------------------
//
// The portable fallback keeps the SELL blocking: four lane accumulators per
// chunk, vertical adds across slices. This is what a no-AVX2 build (or CPU)
// runs when the SELL backend is selected.

void SellMatVecScalar(const SellView& s, const double* v, const double* x,
                      double* y, size_t chunk_begin, size_t chunk_end) {
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    double acc[kSellC] = {0.0, 0.0, 0.0, 0.0};
    for (size_t k = s.chunk_ptr[c]; k < s.chunk_ptr[c + 1]; k += kSellC) {
      for (size_t l = 0; l < kSellC; ++l) {
        acc[l] += v[k + l] * x[s.col[k + l]];
      }
    }
    const size_t* perm = s.perm + kSellC * c;
    for (size_t l = 0; l < kSellC; ++l) {
      if (perm[l] != kSellPadRow) y[perm[l]] = acc[l];
    }
  }
}

void SellMatVecMidScalar(const SellView& s, const double* lo,
                         const double* hi, const double* x, double* y,
                         size_t chunk_begin, size_t chunk_end) {
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    double acc[kSellC] = {0.0, 0.0, 0.0, 0.0};
    for (size_t k = s.chunk_ptr[c]; k < s.chunk_ptr[c + 1]; k += kSellC) {
      for (size_t l = 0; l < kSellC; ++l) {
        acc[l] += 0.5 * (lo[k + l] + hi[k + l]) * x[s.col[k + l]];
      }
    }
    const size_t* perm = s.perm + kSellC * c;
    for (size_t l = 0; l < kSellC; ++l) {
      if (perm[l] != kSellPadRow) y[perm[l]] = acc[l];
    }
  }
}

namespace {

// x at the four rows of chunk c into xc (padded lanes read 0). Returns
// false when all four are zero: the chunk scatters nothing.
bool SellChunkX(const SellView& s, const double* x, size_t c,
                double xc[kSellC]) {
  const size_t* perm = s.perm + kSellC * c;
  bool any = false;
  for (size_t l = 0; l < kSellC; ++l) {
    xc[l] = perm[l] == kSellPadRow ? 0.0 : x[perm[l]];
    any |= xc[l] != 0.0;
  }
  return any;
}

}  // namespace

void SellMatVecTScalar(const SellView& s, const double* v, const double* x,
                       double* y, size_t chunk_begin, size_t chunk_end) {
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    double xc[kSellC];
    if (!SellChunkX(s, x, c, xc)) continue;
    for (size_t k = s.chunk_ptr[c]; k < s.chunk_ptr[c + 1]; k += kSellC) {
      for (size_t l = 0; l < kSellC; ++l) y[s.col[k + l]] += v[k + l] * xc[l];
    }
  }
}

void SellMatVecTMidScalar(const SellView& s, const double* lo,
                          const double* hi, const double* x, double* y,
                          size_t chunk_begin, size_t chunk_end) {
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    double xc[kSellC];
    if (!SellChunkX(s, x, c, xc)) continue;
    for (size_t k = s.chunk_ptr[c]; k < s.chunk_ptr[c + 1]; k += kSellC) {
      for (size_t l = 0; l < kSellC; ++l) {
        y[s.col[k + l]] += 0.5 * (lo[k + l] + hi[k + l]) * xc[l];
      }
    }
  }
}

void SellGramFusedScalar(const SellView& s, const double* v, const double* x,
                         double* y, size_t chunk_begin, size_t chunk_end) {
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    const size_t begin = s.chunk_ptr[c];
    const size_t end = s.chunk_ptr[c + 1];
    double acc[kSellC] = {0.0, 0.0, 0.0, 0.0};
    for (size_t k = begin; k < end; k += kSellC) {
      for (size_t l = 0; l < kSellC; ++l) acc[l] += v[k + l] * x[s.col[k + l]];
    }
    if (acc[0] == 0.0 && acc[1] == 0.0 && acc[2] == 0.0 && acc[3] == 0.0) {
      continue;
    }
    for (size_t k = begin; k < end; k += kSellC) {
      for (size_t l = 0; l < kSellC; ++l) y[s.col[k + l]] += acc[l] * v[k + l];
    }
  }
}

// -- Packed-index scalar kernels ---------------------------------------------
//
// One templated body per kernel, instantiated for the u16 and u32 sidecars.
// Per-row association is identical to the size_t-index scalar loops, so a
// caller that switches index width gets bit-identical results. Always
// compiled: sharded segments carry only packed indices, so these are the
// scalar reference for shard dispatch on every build, and the no-AVX2
// *PackedAvx2 stubs below forward here.

namespace {

template <typename IdxT>
void PackedMatVec(const PackedCsrView& a, const IdxT* idx, const double* v,
                  const double* x, double* y, size_t row_begin,
                  size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double sum = 0.0;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      sum += v[k] * x[idx[k]];
    }
    y[i] = sum;
  }
}

template <typename IdxT>
void PackedMatVecMid(const PackedCsrView& a, const IdxT* idx, const double* lo,
                     const double* hi, const double* x, double* y,
                     size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double sum = 0.0;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      sum += 0.5 * (lo[k] + hi[k]) * x[idx[k]];
    }
    y[i] = sum;
  }
}

template <typename IdxT>
void PackedMatVecT(const PackedCsrView& a, const IdxT* idx, const double* v,
                   const double* x, double* y, size_t row_begin,
                   size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      y[idx[k]] += v[k] * xi;
    }
  }
}

template <typename IdxT>
void PackedMatVecTMid(const PackedCsrView& a, const IdxT* idx,
                      const double* lo, const double* hi, const double* x,
                      double* y, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      y[idx[k]] += 0.5 * (lo[k] + hi[k]) * xi;
    }
  }
}

template <typename IdxT>
void PackedMatDenseTBoth(const PackedCsrView& a, const IdxT* idx,
                         const double* lo, const double* hi, const double* b,
                         size_t bcols, double* c_lo, double* c_hi,
                         size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* brow = b + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      double* out_lo = c_lo + idx[k] * bcols;
      double* out_hi = c_hi + idx[k] * bcols;
      const double vlo = lo[k];
      const double vhi = hi[k];
      for (size_t j = 0; j < bcols; ++j) {
        out_lo[j] += vlo * brow[j];
        out_hi[j] += vhi * brow[j];
      }
    }
  }
}

template <typename IdxT>
void PackedMatDenseT(const PackedCsrView& a, const IdxT* idx, const double* v,
                     const double* b, size_t bcols, double* c,
                     size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* brow = b + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      double* out = c + idx[k] * bcols;
      const double value = v[k];
      for (size_t j = 0; j < bcols; ++j) out[j] += value * brow[j];
    }
  }
}

template <typename IdxT>
void PackedMatDense(const PackedCsrView& a, const IdxT* idx, const double* v,
                    const double* b, size_t bcols, double* c, size_t row_begin,
                    size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* out = c + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const double* brow = b + idx[k] * bcols;
      const double value = v[k];
      for (size_t j = 0; j < bcols; ++j) out[j] += value * brow[j];
    }
  }
}

template <typename IdxT>
void PackedMatDenseBoth(const PackedCsrView& a, const IdxT* idx,
                        const double* lo, const double* hi, const double* b,
                        size_t bcols, double* c_lo, double* c_hi,
                        size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* out_lo = c_lo + i * bcols;
    double* out_hi = c_hi + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const double* brow = b + idx[k] * bcols;
      const double vlo = lo[k];
      const double vhi = hi[k];
      for (size_t j = 0; j < bcols; ++j) {
        out_lo[j] += vlo * brow[j];
        out_hi[j] += vhi * brow[j];
      }
    }
  }
}

template <typename IdxT>
void PackedGramFused(const PackedCsrView& a, const IdxT* idx, const double* v,
                     const double* x, double* y, size_t row_begin,
                     size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t begin = a.row_ptr[i];
    const size_t end = a.row_ptr[i + 1];
    double s = 0.0;
    for (size_t k = begin; k < end; ++k) s += v[k] * x[idx[k]];
    if (s == 0.0) continue;
    for (size_t k = begin; k < end; ++k) y[idx[k]] += s * v[k];
  }
}

}  // namespace

void MatVecPackedScalar(const PackedCsrView& a, const double* v,
                        const double* x, double* y, size_t row_begin,
                        size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatVec(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    PackedMatVec(a, a.col32, v, x, y, row_begin, row_end);
  }
}

void MatVecMidPackedScalar(const PackedCsrView& a, const double* lo,
                           const double* hi, const double* x, double* y,
                           size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatVecMid(a, a.col16, lo, hi, x, y, row_begin, row_end);
  } else {
    PackedMatVecMid(a, a.col32, lo, hi, x, y, row_begin, row_end);
  }
}

void MatVecTPackedScalar(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatVecT(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    PackedMatVecT(a, a.col32, v, x, y, row_begin, row_end);
  }
}

void MatVecTMidPackedScalar(const PackedCsrView& a, const double* lo,
                            const double* hi, const double* x, double* y,
                            size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatVecTMid(a, a.col16, lo, hi, x, y, row_begin, row_end);
  } else {
    PackedMatVecTMid(a, a.col32, lo, hi, x, y, row_begin, row_end);
  }
}

void MatDenseTBothPackedScalar(const PackedCsrView& a, const double* lo,
                               const double* hi, const double* b,
                               size_t bcols, double* c_lo, double* c_hi,
                               size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatDenseTBoth(a, a.col16, lo, hi, b, bcols, c_lo, c_hi, row_begin,
                        row_end);
  } else {
    PackedMatDenseTBoth(a, a.col32, lo, hi, b, bcols, c_lo, c_hi, row_begin,
                        row_end);
  }
}

void MatDenseTPackedScalar(const PackedCsrView& a, const double* v,
                           const double* b, size_t bcols, double* c,
                           size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatDenseT(a, a.col16, v, b, bcols, c, row_begin, row_end);
  } else {
    PackedMatDenseT(a, a.col32, v, b, bcols, c, row_begin, row_end);
  }
}

void MatDensePackedScalar(const PackedCsrView& a, const double* v,
                          const double* b, size_t bcols, double* c,
                          size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatDense(a, a.col16, v, b, bcols, c, row_begin, row_end);
  } else {
    PackedMatDense(a, a.col32, v, b, bcols, c, row_begin, row_end);
  }
}

void MatDenseBothPackedScalar(const PackedCsrView& a, const double* lo,
                              const double* hi, const double* b, size_t bcols,
                              double* c_lo, double* c_hi, size_t row_begin,
                              size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatDenseBoth(a, a.col16, lo, hi, b, bcols, c_lo, c_hi, row_begin,
                       row_end);
  } else {
    PackedMatDenseBoth(a, a.col32, lo, hi, b, bcols, c_lo, c_hi, row_begin,
                       row_end);
  }
}

void GramFusedPackedScalar(const PackedCsrView& a, const double* v,
                           const double* x, double* y, size_t row_begin,
                           size_t row_end) {
  if (a.col16 != nullptr) {
    PackedGramFused(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    PackedGramFused(a, a.col32, v, x, y, row_begin, row_end);
  }
}

// -- AVX2 forwarding stubs ---------------------------------------------------
//
// Without the AVX2 translation unit (non-x86 target or
// -DIVMF_DISABLE_AVX2=ON) the *Avx2 symbols still exist so call sites need
// no #ifdefs; Resolve() never selects them, but direct calls (the
// differential tests exercise every declared variant) behave as the
// reference.

#ifndef IVMF_HAVE_AVX2

void MatVecAvx2(const CsrView& a, const double* v, const double* x, double* y,
                size_t row_begin, size_t row_end) {
  MatVecScalar(a, v, x, y, row_begin, row_end);
}

void MatVecMidAvx2(const CsrView& a, const double* lo, const double* hi,
                   const double* x, double* y, size_t row_begin,
                   size_t row_end) {
  MatVecMidScalar(a, lo, hi, x, y, row_begin, row_end);
}

void MatDenseAvx2(const CsrView& a, const double* v, const double* b,
                  size_t bcols, double* c, size_t row_begin, size_t row_end) {
  MatDenseScalar(a, v, b, bcols, c, row_begin, row_end);
}

void MatDenseBothAvx2(const CsrView& a, const double* lo, const double* hi,
                      const double* b, size_t bcols, double* c_lo,
                      double* c_hi, size_t row_begin, size_t row_end) {
  MatDenseBothScalar(a, lo, hi, b, bcols, c_lo, c_hi, row_begin, row_end);
}

void SellMatVecAvx2(const SellView& s, const double* v, const double* x,
                    double* y, size_t chunk_begin, size_t chunk_end) {
  SellMatVecScalar(s, v, x, y, chunk_begin, chunk_end);
}

void SellMatVecMidAvx2(const SellView& s, const double* lo, const double* hi,
                       const double* x, double* y, size_t chunk_begin,
                       size_t chunk_end) {
  SellMatVecMidScalar(s, lo, hi, x, y, chunk_begin, chunk_end);
}

void SellGramFusedAvx2(const SellView& s, const double* v, const double* x,
                       double* y, size_t chunk_begin, size_t chunk_end) {
  SellGramFusedScalar(s, v, x, y, chunk_begin, chunk_end);
}

void MatVecPackedAvx2(const PackedCsrView& a, const double* v,
                      const double* x, double* y, size_t row_begin,
                      size_t row_end) {
  MatVecPackedScalar(a, v, x, y, row_begin, row_end);
}

void MatVecMidPackedAvx2(const PackedCsrView& a, const double* lo,
                         const double* hi, const double* x, double* y,
                         size_t row_begin, size_t row_end) {
  MatVecMidPackedScalar(a, lo, hi, x, y, row_begin, row_end);
}

void GramFusedPackedAvx2(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end) {
  GramFusedPackedScalar(a, v, x, y, row_begin, row_end);
}

void MatVecTPackedAvx2(const PackedCsrView& a, const double* v,
                       const double* x, double* y, size_t row_begin,
                       size_t row_end) {
  MatVecTPackedScalar(a, v, x, y, row_begin, row_end);
}

void MatDenseTBothPackedAvx2(const PackedCsrView& a, const double* lo,
                             const double* hi, const double* b, size_t bcols,
                             double* c_lo, double* c_hi, size_t row_begin,
                             size_t row_end) {
  MatDenseTBothPackedScalar(a, lo, hi, b, bcols, c_lo, c_hi, row_begin,
                            row_end);
}

// The pair kernels have no scalar form (see sparse_kernels.h): Resolve()
// never picks AVX2 here, so the pair routes run two single kernels.
void GramFusedPairPackedAvx2(const PackedCsrView&, const double*,
                             const double*, const double*, double*, size_t,
                             size_t) {
  IVMF_CHECK_MSG(false, "endpoint-pair kernels need the AVX2 build");
}

void MatVecPairPackedAvx2(const PackedCsrView&, const double*, const double*,
                          const double*, double*, size_t, size_t) {
  IVMF_CHECK_MSG(false, "endpoint-pair kernels need the AVX2 build");
}

void MatVecTPairPackedAvx2(const PackedCsrView&, const double*, const double*,
                           const double*, double*, size_t, size_t) {
  IVMF_CHECK_MSG(false, "endpoint-pair kernels need the AVX2 build");
}

#endif  // !IVMF_HAVE_AVX2

}  // namespace ivmf::spk
