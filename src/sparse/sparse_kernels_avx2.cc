// AVX2 definitions of the sparse kernels (see sparse_kernels.h).
//
// This is the only translation unit compiled with -mavx2 -mfma; everything
// here is reached exclusively through spk::Resolve()/Avx2Supported(), i.e.
// after a runtime cpuid check, so the rest of the library stays portable.
// Without IVMF_HAVE_AVX2 (non-x86 target or -DIVMF_DISABLE_AVX2=ON) the
// file compiles to nothing and sparse_kernels.cc provides scalar-forwarding
// definitions instead.
//
// Layout of the row kernels: two (or four, for the cheap single-stream
// matvec) independent 4-lane FMA accumulators per row hide the FMA latency
// the scalar loop's single `sum` chain serializes on; the dense operand is
// fetched with 64-bit index gathers (the CSR column array is size_t) or,
// in the packed family, 32-bit ones.
// Remainder entries (< 4 per row, plus the odd block) run scalar. Each
// output entry sums exactly the same terms as the reference kernel, just in
// blocked association order.

#ifdef IVMF_HAVE_AVX2

#include <immintrin.h>

#include "sparse/sparse_kernels.h"

namespace ivmf::spk {

namespace {

inline double HSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swap = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swap));
}

// x[idx[0..3]] for four 32-bit indices. Every 32-bit-index gather goes
// through here: _mm256_i32gather_pd passes an undefined source vector that
// GCC 12 reports as maybe-uninitialized, which breaks -Werror builds. The
// masked form with a zero source and an all-ones mask is the same
// vgatherdpd instruction and loads the same values.
inline __m256d Gather(const double* x, __m128i idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx, all, 8);
}

inline __m256i LoadIdx(const size_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

}  // namespace

void MatVecAvx2(const CsrView& a, const double* v, const double* x, double* y,
                size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t end = a.row_ptr[i + 1];
    size_t k = a.row_ptr[i];
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (; k + 8 <= end; k += 8) {
      const __m256d x0 = _mm256_i64gather_pd(x, LoadIdx(a.col_idx + k), 8);
      const __m256d x1 = _mm256_i64gather_pd(x, LoadIdx(a.col_idx + k + 4), 8);
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(v + k), x0, acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(v + k + 4), x1, acc1);
    }
    if (k + 4 <= end) {
      const __m256d x0 = _mm256_i64gather_pd(x, LoadIdx(a.col_idx + k), 8);
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(v + k), x0, acc0);
      k += 4;
    }
    double sum = HSum(_mm256_add_pd(acc0, acc1));
    for (; k < end; ++k) sum += v[k] * x[a.col_idx[k]];
    y[i] = sum;
  }
}

void MatVecMidAvx2(const CsrView& a, const double* lo, const double* hi,
                   const double* x, double* y, size_t row_begin,
                   size_t row_end) {
  const __m256d half = _mm256_set1_pd(0.5);
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t end = a.row_ptr[i + 1];
    size_t k = a.row_ptr[i];
    __m256d acc = _mm256_setzero_pd();
    for (; k + 4 <= end; k += 4) {
      const __m256d mid = _mm256_mul_pd(
          half, _mm256_add_pd(_mm256_loadu_pd(lo + k), _mm256_loadu_pd(hi + k)));
      const __m256d xv = _mm256_i64gather_pd(x, LoadIdx(a.col_idx + k), 8);
      acc = _mm256_fmadd_pd(mid, xv, acc);
    }
    double sum = HSum(acc);
    for (; k < end; ++k) sum += 0.5 * (lo[k] + hi[k]) * x[a.col_idx[k]];
    y[i] = sum;
  }
}

void MatDenseAvx2(const CsrView& a, const double* v, const double* b,
                  size_t bcols, double* c, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* out = c + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const double* brow = b + a.col_idx[k] * bcols;
      const __m256d vv = _mm256_set1_pd(v[k]);
      size_t j = 0;
      for (; j + 4 <= bcols; j += 4) {
        _mm256_storeu_pd(out + j,
                         _mm256_fmadd_pd(vv, _mm256_loadu_pd(brow + j),
                                         _mm256_loadu_pd(out + j)));
      }
      const double value = v[k];
      for (; j < bcols; ++j) out[j] += value * brow[j];
    }
  }
}

void MatDenseBothAvx2(const CsrView& a, const double* lo, const double* hi,
                      const double* b, size_t bcols, double* c_lo,
                      double* c_hi, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* out_lo = c_lo + i * bcols;
    double* out_hi = c_hi + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const double* brow = b + a.col_idx[k] * bcols;
      const __m256d vlo = _mm256_set1_pd(lo[k]);
      const __m256d vhi = _mm256_set1_pd(hi[k]);
      size_t j = 0;
      for (; j + 4 <= bcols; j += 4) {
        const __m256d bv = _mm256_loadu_pd(brow + j);
        _mm256_storeu_pd(
            out_lo + j, _mm256_fmadd_pd(vlo, bv, _mm256_loadu_pd(out_lo + j)));
        _mm256_storeu_pd(
            out_hi + j, _mm256_fmadd_pd(vhi, bv, _mm256_loadu_pd(out_hi + j)));
      }
      for (; j < bcols; ++j) {
        out_lo[j] += lo[k] * brow[j];
        out_hi[j] += hi[k] * brow[j];
      }
    }
  }
}

// -- Packed-index CSR kernels ------------------------------------------------
//
// The forward family over the 16/32-bit column sidecar. The matvec streams
// are prefetched explicitly: the value stream consumes two cache lines per
// 16-entry block, so it gets two prefetches ~3 KiB ahead; the narrower
// index stream gets one at the matching byte distance. The hardware
// prefetcher alone leaves ~20% of this machine's bandwidth on the table at
// 20k x 5k — measured, not speculative.

namespace {

// Type-specific pieces: how to widen 4/8 packed indices to the i32 lanes
// _mm256_i32gather_pd consumes, and how far ahead (in elements) the index
// stream prefetch should run to stay ~4 KiB in front.
template <typename IdxT>
struct IdxOps;

template <>
struct IdxOps<uint16_t> {
  static constexpr size_t kPrefetchAhead = 2048;
  static inline __m128i Load4(const uint16_t* p) {
    return _mm_cvtepu16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static inline __m256i Load8(const uint16_t* p) {
    return _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
};

template <>
struct IdxOps<uint32_t> {
  static constexpr size_t kPrefetchAhead = 1024;
  static inline __m128i Load4(const uint32_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static inline __m256i Load8(const uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
};

// Value-stream prefetch distance in doubles (4 KiB — tuned on the target
// box; shorter distances leave the line-fill buffers idle between row
// blocks and cost ~2x on the 20k x 5k CF shape).
constexpr size_t kValAhead = 512;

template <typename IdxT>
void MatVecPackedImpl(const PackedCsrView& a, const IdxT* idx, const double* v,
                      const double* x, double* y, size_t row_begin,
                      size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t end = a.row_ptr[i + 1];
    size_t k = a.row_ptr[i];
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    // Main loop covers 32 nnz per iteration so the value-stream prefetches
    // hit every cache line exactly once (4 lines of doubles + 1 line of
    // packed indices per trip).
    for (; k + 32 <= end; k += 32) {
      __builtin_prefetch(v + k + kValAhead);
      __builtin_prefetch(v + k + kValAhead + 8);
      __builtin_prefetch(v + k + kValAhead + 16);
      __builtin_prefetch(v + k + kValAhead + 24);
      __builtin_prefetch(idx + k + IdxOps<IdxT>::kPrefetchAhead);
      for (size_t u = 0; u < 32; u += 16) {
        const __m256i j0 = IdxOps<IdxT>::Load8(idx + k + u);
        const __m256i j1 = IdxOps<IdxT>::Load8(idx + k + u + 8);
        acc0 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u),
            Gather(x, _mm256_castsi256_si128(j0)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 4),
            Gather(x, _mm256_extracti128_si256(j0, 1)), acc1);
        acc2 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 8),
            Gather(x, _mm256_castsi256_si128(j1)), acc2);
        acc3 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 12),
            Gather(x, _mm256_extracti128_si256(j1, 1)), acc3);
      }
    }
    for (; k + 4 <= end; k += 4) {
      acc0 = _mm256_fmadd_pd(
          _mm256_loadu_pd(v + k),
          Gather(x, IdxOps<IdxT>::Load4(idx + k)), acc0);
    }
    double sum = HSum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3)));
    for (; k < end; ++k) sum += v[k] * x[idx[k]];
    y[i] = sum;
  }
}

template <typename IdxT>
void MatVecMidPackedImpl(const PackedCsrView& a, const IdxT* idx,
                         const double* lo, const double* hi, const double* x,
                         double* y, size_t row_begin, size_t row_end) {
  const __m256d half = _mm256_set1_pd(0.5);
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t end = a.row_ptr[i + 1];
    size_t k = a.row_ptr[i];
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (; k + 8 <= end; k += 8) {
      __builtin_prefetch(lo + k + kValAhead);
      __builtin_prefetch(hi + k + kValAhead);
      __builtin_prefetch(idx + k + IdxOps<IdxT>::kPrefetchAhead);
      const __m256i j = IdxOps<IdxT>::Load8(idx + k);
      const __m256d m0 = _mm256_mul_pd(
          half,
          _mm256_add_pd(_mm256_loadu_pd(lo + k), _mm256_loadu_pd(hi + k)));
      const __m256d m1 =
          _mm256_mul_pd(half, _mm256_add_pd(_mm256_loadu_pd(lo + k + 4),
                                            _mm256_loadu_pd(hi + k + 4)));
      acc0 = _mm256_fmadd_pd(
          m0, Gather(x, _mm256_castsi256_si128(j)), acc0);
      acc1 = _mm256_fmadd_pd(
          m1, Gather(x, _mm256_extracti128_si256(j, 1)), acc1);
    }
    for (; k + 4 <= end; k += 4) {
      const __m256d mid = _mm256_mul_pd(
          half,
          _mm256_add_pd(_mm256_loadu_pd(lo + k), _mm256_loadu_pd(hi + k)));
      acc0 = _mm256_fmadd_pd(
          mid, Gather(x, IdxOps<IdxT>::Load4(idx + k)), acc0);
    }
    double sum = HSum(_mm256_add_pd(acc0, acc1));
    for (; k < end; ++k) sum += 0.5 * (lo[k] + hi[k]) * x[idx[k]];
    y[i] = sum;
  }
}

template <typename IdxT>
void GramFusedPackedImpl(const PackedCsrView& a, const IdxT* idx,
                         const double* v, const double* x, double* y,
                         size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t end = a.row_ptr[i + 1];
    const size_t begin = a.row_ptr[i];
    size_t k = begin;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    // Same 32-wide dot structure as MatVecPackedImpl: one prefetch per
    // cache line of the value stream per trip.
    for (; k + 32 <= end; k += 32) {
      __builtin_prefetch(v + k + kValAhead);
      __builtin_prefetch(v + k + kValAhead + 8);
      __builtin_prefetch(v + k + kValAhead + 16);
      __builtin_prefetch(v + k + kValAhead + 24);
      __builtin_prefetch(idx + k + IdxOps<IdxT>::kPrefetchAhead);
      for (size_t u = 0; u < 32; u += 16) {
        const __m256i j0 = IdxOps<IdxT>::Load8(idx + k + u);
        const __m256i j1 = IdxOps<IdxT>::Load8(idx + k + u + 8);
        acc0 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u),
            Gather(x, _mm256_castsi256_si128(j0)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 4),
            Gather(x, _mm256_extracti128_si256(j0, 1)), acc1);
        acc2 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 8),
            Gather(x, _mm256_castsi256_si128(j1)), acc2);
        acc3 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 12),
            Gather(x, _mm256_extracti128_si256(j1, 1)), acc3);
      }
    }
    for (; k + 4 <= end; k += 4) {
      acc0 = _mm256_fmadd_pd(
          _mm256_loadu_pd(v + k),
          Gather(x, IdxOps<IdxT>::Load4(idx + k)), acc0);
    }
    double s = HSum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                  _mm256_add_pd(acc2, acc3)));
    for (; k < end; ++k) s += v[k] * x[idx[k]];
    if (s == 0.0) continue;  // empty rows (and exact cancellations) scatter 0
    // Scatter phase: the row's values/indices are L1-hot from the dot.
    const __m256d sv = _mm256_set1_pd(s);
    k = begin;
    for (; k + 4 <= end; k += 4) {
      alignas(32) double prod[4];
      _mm256_store_pd(prod, _mm256_mul_pd(sv, _mm256_loadu_pd(v + k)));
      y[idx[k]] += prod[0];
      y[idx[k + 1]] += prod[1];
      y[idx[k + 2]] += prod[2];
      y[idx[k + 3]] += prod[3];
    }
    for (; k < end; ++k) y[idx[k]] += s * v[k];
  }
}

// The transpose scatter forms a row's products four lanes at a time into
// `prod`, then adds them to y one lane at a time (AVX2 has no scatter).
// Columns are unique within a row, so the stores never collide. 16 entries
// per trip keep one value-stream prefetch per two cache lines, like the
// matvec.
template <typename IdxT>
inline void ScatterProducts16(const IdxT* idx, size_t k, const double* prod,
                              double* y) {
  for (size_t u = 0; u < 16; ++u) y[idx[k + u]] += prod[u];
}

template <typename IdxT>
void MatVecTPackedImpl(const PackedCsrView& a, const IdxT* idx,
                       const double* v, const double* x, double* y,
                       size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const __m256d xv = _mm256_set1_pd(xi);
    const size_t end = a.row_ptr[i + 1];
    size_t k = a.row_ptr[i];
    for (; k + 16 <= end; k += 16) {
      __builtin_prefetch(v + k + kValAhead);
      __builtin_prefetch(v + k + kValAhead + 8);
      __builtin_prefetch(idx + k + IdxOps<IdxT>::kPrefetchAhead);
      alignas(32) double prod[16];
      for (size_t u = 0; u < 16; u += 4) {
        _mm256_store_pd(prod + u,
                        _mm256_mul_pd(_mm256_loadu_pd(v + k + u), xv));
      }
      ScatterProducts16(idx, k, prod, y);
    }
    for (; k < end; ++k) y[idx[k]] += v[k] * xi;
  }
}

// The transposed dense product holds up to 16 columns of row i of B in
// eight 128-bit registers across the row's nonzeros, and updates the two
// output rows with 128-bit FMAs. 128 bits, not 256: at r = 10 the output
// rows are 80 bytes apart, so every other 256-bit read-modify-write would
// cross a cache line (that form measured ~1.5x slower than the scalar
// loop), while 16-byte accesses on the 16-byte-aligned rows never do.
template <typename IdxT>
void MatDenseTBothPackedImpl(const PackedCsrView& a, const IdxT* idx,
                             const double* lo, const double* hi,
                             const double* b, size_t bcols, double* c_lo,
                             double* c_hi, size_t row_begin, size_t row_end) {
  constexpr size_t kBlock = 16;
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* brow = b + i * bcols;
    const size_t begin = a.row_ptr[i];
    const size_t end = a.row_ptr[i + 1];
    for (size_t j0 = 0; j0 < bcols; j0 += kBlock) {
      const size_t width = bcols - j0 < kBlock ? bcols - j0 : kBlock;
      const size_t pairs = width / 2;
      __m128d bv[kBlock / 2];
      for (size_t p = 0; p < pairs; ++p) {
        bv[p] = _mm_loadu_pd(brow + j0 + 2 * p);
      }
      for (size_t k = begin; k < end; ++k) {
        double* out_lo = c_lo + idx[k] * bcols + j0;
        double* out_hi = c_hi + idx[k] * bcols + j0;
        const __m128d vlo = _mm_set1_pd(lo[k]);
        const __m128d vhi = _mm_set1_pd(hi[k]);
        for (size_t p = 0; p < pairs; ++p) {
          _mm_storeu_pd(out_lo + 2 * p,
                        _mm_fmadd_pd(vlo, bv[p], _mm_loadu_pd(out_lo + 2 * p)));
          _mm_storeu_pd(out_hi + 2 * p,
                        _mm_fmadd_pd(vhi, bv[p], _mm_loadu_pd(out_hi + 2 * p)));
        }
        if (width % 2 != 0) {
          out_lo[width - 1] += lo[k] * brow[j0 + width - 1];
          out_hi[width - 1] += hi[k] * brow[j0 + width - 1];
        }
      }
    }
  }
}

}  // namespace

void MatVecPackedAvx2(const PackedCsrView& a, const double* v,
                      const double* x, double* y, size_t row_begin,
                      size_t row_end) {
  if (a.col16 != nullptr) {
    MatVecPackedImpl(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    MatVecPackedImpl(a, a.col32, v, x, y, row_begin, row_end);
  }
}

void MatVecMidPackedAvx2(const PackedCsrView& a, const double* lo,
                         const double* hi, const double* x, double* y,
                         size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    MatVecMidPackedImpl(a, a.col16, lo, hi, x, y, row_begin, row_end);
  } else {
    MatVecMidPackedImpl(a, a.col32, lo, hi, x, y, row_begin, row_end);
  }
}

void GramFusedPackedAvx2(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end) {
  if (a.col16 != nullptr) {
    GramFusedPackedImpl(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    GramFusedPackedImpl(a, a.col32, v, x, y, row_begin, row_end);
  }
}

void MatVecTPackedAvx2(const PackedCsrView& a, const double* v,
                       const double* x, double* y, size_t row_begin,
                       size_t row_end) {
  if (a.col16 != nullptr) {
    MatVecTPackedImpl(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    MatVecTPackedImpl(a, a.col32, v, x, y, row_begin, row_end);
  }
}

void MatDenseTBothPackedAvx2(const PackedCsrView& a, const double* lo,
                             const double* hi, const double* b, size_t bcols,
                             double* c_lo, double* c_hi, size_t row_begin,
                             size_t row_end) {
  if (a.col16 != nullptr) {
    MatDenseTBothPackedImpl(a, a.col16, lo, hi, b, bcols, c_lo, c_hi,
                            row_begin, row_end);
  } else {
    MatDenseTBothPackedImpl(a, a.col32, lo, hi, b, bcols, c_lo, c_hi,
                            row_begin, row_end);
  }
}

// -- Endpoint-pair kernels ---------------------------------------------------
//
// Four nonzeros k..k+3 load as two 256-bit vectors of (lo, hi) pairs:
// unpacklo of the lo and hi quads holds entries k and k + 2, unpackhi
// entries k + 1 and k + 3. Each meets a vector of two (x_lo, x_hi) pairs
// made of two 128-bit loads from the interleaved x2, so one FMA advances
// both endpoints of two nonzeros. The row's dot ends as one 128-bit
// (s_lo, s_hi); the scatters multiply the same pair vectors by it and add
// each 128-bit half into its interleaved (y_lo, y_hi) slot. Columns are
// unique within a row, so those read-modify-writes never collide.

namespace {

struct PairQuad {
  __m256d even;  // (lo, hi) of entries k and k + 2
  __m256d odd;   // (lo, hi) of entries k + 1 and k + 3
};

inline PairQuad LoadPairQuad(const double* lo, const double* hi, size_t k) {
  const __m256d l = _mm256_loadu_pd(lo + k);
  const __m256d h = _mm256_loadu_pd(hi + k);
  return {_mm256_unpacklo_pd(l, h), _mm256_unpackhi_pd(l, h)};
}

// The (x_lo, x_hi) pairs of columns c0 (low half) and c1 (high half).
inline __m256d LoadXPairs(const double* x2, size_t c0, size_t c1) {
  return _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_loadu_pd(x2 + 2 * c0)),
      _mm_loadu_pd(x2 + 2 * c1), 1);
}

inline __m128d PairAt(const double* lo, const double* hi, size_t k) {
  return _mm_set_pd(hi[k], lo[k]);
}

inline void AddPair(double* y2, size_t c, __m128d p) {
  _mm_storeu_pd(y2 + 2 * c, _mm_add_pd(_mm_loadu_pd(y2 + 2 * c), p));
}

// (s_lo, s_hi) = the dots of the lo and hi rows over [begin, end) against
// the interleaved x2.
template <typename IdxT>
inline __m128d PairDot(const IdxT* idx, const double* lo, const double* hi,
                       const double* x2, size_t begin, size_t end) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t k = begin;
  for (; k + 8 <= end; k += 8) {
    __builtin_prefetch(lo + k + kValAhead);
    __builtin_prefetch(hi + k + kValAhead);
    __builtin_prefetch(idx + k + IdxOps<IdxT>::kPrefetchAhead);
    const PairQuad p0 = LoadPairQuad(lo, hi, k);
    const PairQuad p1 = LoadPairQuad(lo, hi, k + 4);
    acc0 = _mm256_fmadd_pd(p0.even, LoadXPairs(x2, idx[k], idx[k + 2]), acc0);
    acc1 = _mm256_fmadd_pd(p0.odd, LoadXPairs(x2, idx[k + 1], idx[k + 3]),
                           acc1);
    acc2 = _mm256_fmadd_pd(p1.even, LoadXPairs(x2, idx[k + 4], idx[k + 6]),
                           acc2);
    acc3 = _mm256_fmadd_pd(p1.odd, LoadXPairs(x2, idx[k + 5], idx[k + 7]),
                           acc3);
  }
  if (k + 4 <= end) {
    const PairQuad p = LoadPairQuad(lo, hi, k);
    acc0 = _mm256_fmadd_pd(p.even, LoadXPairs(x2, idx[k], idx[k + 2]), acc0);
    acc1 = _mm256_fmadd_pd(p.odd, LoadXPairs(x2, idx[k + 1], idx[k + 3]),
                           acc1);
    k += 4;
  }
  const __m256d acc =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  __m128d s = _mm_add_pd(_mm256_castpd256_pd128(acc),
                         _mm256_extractf128_pd(acc, 1));
  for (; k < end; ++k) {
    s = _mm_fmadd_pd(PairAt(lo, hi, k), _mm_loadu_pd(x2 + 2 * idx[k]), s);
  }
  return s;
}

// y2 pairs at the row's columns += (lo[k] * s_lo, hi[k] * s_hi) over
// [begin, end). `kPrefetch` for rows that are not already cache-hot: one
// prefetch per cache line of each value stream, 8 entries per trip.
template <bool kPrefetch, typename IdxT>
inline void PairScatter(const IdxT* idx, const double* lo, const double* hi,
                        __m128d s, double* y2, size_t begin, size_t end) {
  const __m256d s2 = _mm256_insertf128_pd(_mm256_castpd128_pd256(s), s, 1);
  const auto scatter4 = [&](size_t k) {
    const PairQuad p = LoadPairQuad(lo, hi, k);
    const __m256d even = _mm256_mul_pd(p.even, s2);
    const __m256d odd = _mm256_mul_pd(p.odd, s2);
    AddPair(y2, idx[k], _mm256_castpd256_pd128(even));
    AddPair(y2, idx[k + 1], _mm256_castpd256_pd128(odd));
    AddPair(y2, idx[k + 2], _mm256_extractf128_pd(even, 1));
    AddPair(y2, idx[k + 3], _mm256_extractf128_pd(odd, 1));
  };
  size_t k = begin;
  for (; k + 8 <= end; k += 8) {
    if (kPrefetch) {
      __builtin_prefetch(lo + k + kValAhead);
      __builtin_prefetch(hi + k + kValAhead);
      __builtin_prefetch(idx + k + IdxOps<IdxT>::kPrefetchAhead);
    }
    scatter4(k);
    scatter4(k + 4);
  }
  if (k + 4 <= end) {
    scatter4(k);
    k += 4;
  }
  for (; k < end; ++k) AddPair(y2, idx[k], _mm_mul_pd(PairAt(lo, hi, k), s));
}

inline bool BothZero(__m128d s) {
  return _mm_movemask_pd(_mm_cmpeq_pd(s, _mm_setzero_pd())) == 0x3;
}

template <typename IdxT>
void GramFusedPairImpl(const PackedCsrView& a, const IdxT* idx,
                       const double* lo, const double* hi, const double* x2,
                       double* y2, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t begin = a.row_ptr[i];
    const size_t end = a.row_ptr[i + 1];
    const __m128d s = PairDot(idx, lo, hi, x2, begin, end);
    // Empty rows (and exact cancellations on both sides) scatter 0.
    if (BothZero(s)) continue;
    PairScatter<false>(idx, lo, hi, s, y2, begin, end);
  }
}

template <typename IdxT>
void MatVecPairImpl(const PackedCsrView& a, const IdxT* idx, const double* lo,
                    const double* hi, const double* x2, double* y2,
                    size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    _mm_storeu_pd(y2 + 2 * i, PairDot(idx, lo, hi, x2, a.row_ptr[i],
                                      a.row_ptr[i + 1]));
  }
}

template <typename IdxT>
void MatVecTPairImpl(const PackedCsrView& a, const IdxT* idx,
                     const double* lo, const double* hi, const double* x2,
                     double* y2, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const __m128d xi = _mm_loadu_pd(x2 + 2 * i);
    if (BothZero(xi)) continue;
    PairScatter<true>(idx, lo, hi, xi, y2, a.row_ptr[i], a.row_ptr[i + 1]);
  }
}

}  // namespace

void GramFusedPairPackedAvx2(const PackedCsrView& a, const double* lo,
                             const double* hi, const double* x2, double* y2,
                             size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    GramFusedPairImpl(a, a.col16, lo, hi, x2, y2, row_begin, row_end);
  } else {
    GramFusedPairImpl(a, a.col32, lo, hi, x2, y2, row_begin, row_end);
  }
}

void MatVecPairPackedAvx2(const PackedCsrView& a, const double* lo,
                          const double* hi, const double* x2, double* y2,
                          size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    MatVecPairImpl(a, a.col16, lo, hi, x2, y2, row_begin, row_end);
  } else {
    MatVecPairImpl(a, a.col32, lo, hi, x2, y2, row_begin, row_end);
  }
}

void MatVecTPairPackedAvx2(const PackedCsrView& a, const double* lo,
                           const double* hi, const double* x2, double* y2,
                           size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    MatVecTPairImpl(a, a.col16, lo, hi, x2, y2, row_begin, row_end);
  } else {
    MatVecTPairImpl(a, a.col32, lo, hi, x2, y2, row_begin, row_end);
  }
}

// -- SELL-C-4 chunk kernels --------------------------------------------------
//
// One __m256d accumulator carries the four lane sums of a chunk; each slice
// is one 32-bit-index gather + FMA with no per-row remainder handling at
// all (padding was baked into the layout).

void SellMatVecAvx2(const SellView& s, const double* v, const double* x,
                    double* y, size_t chunk_begin, size_t chunk_end) {
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    const size_t end = s.chunk_ptr[c + 1];
    __m256d acc = _mm256_setzero_pd();
    for (size_t k = s.chunk_ptr[c]; k < end; k += kSellC) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.col + k));
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(v + k),
                            Gather(x, idx), acc);
    }
    alignas(32) double lanes[kSellC];
    _mm256_store_pd(lanes, acc);
    const size_t* perm = s.perm + kSellC * c;
    for (size_t l = 0; l < kSellC; ++l) {
      if (perm[l] != kSellPadRow) y[perm[l]] = lanes[l];
    }
  }
}

void SellMatVecMidAvx2(const SellView& s, const double* lo, const double* hi,
                       const double* x, double* y, size_t chunk_begin,
                       size_t chunk_end) {
  const __m256d half = _mm256_set1_pd(0.5);
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    const size_t end = s.chunk_ptr[c + 1];
    __m256d acc = _mm256_setzero_pd();
    for (size_t k = s.chunk_ptr[c]; k < end; k += kSellC) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.col + k));
      const __m256d mid = _mm256_mul_pd(
          half, _mm256_add_pd(_mm256_loadu_pd(lo + k), _mm256_loadu_pd(hi + k)));
      acc = _mm256_fmadd_pd(mid, Gather(x, idx), acc);
    }
    alignas(32) double lanes[kSellC];
    _mm256_store_pd(lanes, acc);
    const size_t* perm = s.perm + kSellC * c;
    for (size_t l = 0; l < kSellC; ++l) {
      if (perm[l] != kSellPadRow) y[perm[l]] = lanes[l];
    }
  }
}

namespace {

// The fused Gram's scatter half: one slice's four lane products, added to y
// one lane at a time (AVX2 has no scatter). Lanes of one slice are
// different rows, so their columns may coincide; the stores run in lane
// order, so a repeated column simply accumulates twice.
inline void ScatterSlice(const uint32_t* col, __m256d prod, double* y) {
  alignas(32) double p[kSellC];
  _mm256_store_pd(p, prod);
  y[col[0]] += p[0];
  y[col[1]] += p[1];
  y[col[2]] += p[2];
  y[col[3]] += p[3];
}

}  // namespace

void SellGramFusedAvx2(const SellView& s, const double* v, const double* x,
                       double* y, size_t chunk_begin, size_t chunk_end) {
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    const size_t begin = s.chunk_ptr[c];
    const size_t end = s.chunk_ptr[c + 1];
    __m256d acc = _mm256_setzero_pd();
    for (size_t k = begin; k < end; k += kSellC) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.col + k));
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(v + k), Gather(x, idx), acc);
    }
    // Empty rows (and exact cancellations) scatter 0.
    if (_mm256_movemask_pd(_mm256_cmp_pd(acc, _mm256_setzero_pd(),
                                         _CMP_EQ_OQ)) == 0xF) {
      continue;
    }
    for (size_t k = begin; k < end; k += kSellC) {
      ScatterSlice(s.col + k, _mm256_mul_pd(acc, _mm256_loadu_pd(v + k)), y);
    }
  }
}

}  // namespace ivmf::spk

#endif  // IVMF_HAVE_AVX2
