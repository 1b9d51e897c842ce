// Sparse-kernel backends: scalar reference, AVX2, and SELL-C-4 row-block
// kernels behind one dispatch point.
//
// The CSR loops in SparseIntervalMatrix dominate the Lanczos hot path of
// every matrix-free decomposition (bench_fig10_sparse_scale), so they are
// worth vectorizing — but vectorized kernels silently corrupt results when
// they are wrong, so every variant here is pinned against the scalar
// reference by tests/sparse_kernel_diff_test.cc and the fuzz suite, and
// bench --check refuses to time a kernel whose answers diverge.
//
// Three backends:
//   kScalar  the reference loops (also the portable fallback everywhere)
//   kAvx2    register-blocked CSR rows, 4-wide FMA gathers. The matvec
//            family and the fused Gram kernel run over a packed 16/32-bit
//            column-index sidecar (built lazily per matrix) with software
//            prefetch — the matvec is memory-bound, so halving index bytes
//            is worth more than any amount of ILP. The transpose scatter
//            reads the same sidecar (the stores stay scalar: no scatter
//            instruction).
//            Compiled in a dedicated -mavx2 translation unit and reached
//            only after a runtime cpuid check, so the same binary runs on
//            machines without AVX2
//   kSell    SELL-C-sigma padded storage (C = 4 rows per chunk, rows sorted
//            by length within a sigma-row window): the matvec becomes a
//            vertical 4-lane FMA per slice with no per-row remainder, using
//            32-bit column indices to halve index bandwidth. The layout also
//            covers the transpose scatter and the fused Gram: one 4-lane
//            vector per chunk, four scalar read-modify-writes per slice.
//            Dense products fall back to the dispatched CSR variant — the
//            CSR arrays stay resident either way.
//
// Selection: per-matrix SparseIntervalMatrix::set_kernel() wins, then the
// IVMF_SPARSE_KERNEL environment variable (scalar|avx2|sell|auto), then
// auto = AVX2 when the CPU has it, scalar otherwise. Requesting avx2 on a
// machine (or build) without it degrades to scalar, never aborts.
//
// Aliasing contract (checked with IVMF_CHECK at the public entry points):
// no output buffer may alias an input buffer, and distinct output buffers
// of one call (y_lo / y_hi) may not alias each other. The kernels read
// inputs while writing outputs in blocked order, so aliasing would return
// garbage rather than the in-place result a caller might hope for. Inputs
// must be finite: SELL padding multiplies 0 by x[0], which poisons lane
// sums if x carries an Inf/NaN into a padded slot.
//
// Numerical contract: every variant computes each output entry from exactly
// the same terms as the scalar loop; only the association order differs
// (lane/accumulator blocking). Results therefore agree with the reference
// to a few ULP per accumulated term — the differential suite pins
// |diff| <= 1e-12 * max(1, |ref|) — and each variant is bit-stable across
// calls on the same machine.

#ifndef IVMF_SPARSE_SPARSE_KERNELS_H_
#define IVMF_SPARSE_SPARSE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ivmf::spk {

// -- Backend selection -------------------------------------------------------

enum class Backend {
  kAuto,    // resolve from IVMF_SPARSE_KERNEL, then cpuid
  kScalar,  // reference CSR loops
  kAvx2,    // vectorized CSR rows (degrades to kScalar without AVX2)
  kSell,    // SELL-C-4 padded storage for matvec, scatter and Gram kernels
};

// True when the AVX2 translation unit was compiled into this binary
// (x86 toolchain, IVMF_DISABLE_AVX2 not set).
bool Avx2Compiled();

// True when the AVX2 kernels are both compiled in and supported by the
// running CPU (cpuid: AVX2 + FMA). Cached after the first call.
bool Avx2Supported();

// Parses "scalar" / "avx2" / "sell" / "auto". Returns false (and leaves
// *out untouched) for anything else.
bool ParseBackend(std::string_view name, Backend* out);

// Lower-case name of a backend, e.g. for bench JSON fields and log lines.
const char* BackendName(Backend backend);

// The process-wide default from IVMF_SPARSE_KERNEL (kAuto when unset; an
// unrecognized value warns once on stderr and acts as kAuto). Read once and
// cached.
Backend EnvBackend();

// Collapses a per-matrix request to the backend that will actually run:
// kAuto defers to EnvBackend(), then auto/avx2 resolve to kAvx2 iff
// Avx2Supported() (else kScalar). kSell is a storage choice and resolves to
// itself; its inner chunk kernel independently uses AVX2 when available.
Backend Resolve(Backend request);

// The CSR variant standing in for `backend` on kernels the SELL layout does
// not implement (the sparse x dense products): kSell maps to kAvx2/kScalar by
// cpuid, everything else resolves as usual.
Backend CsrVariant(Backend backend);

// Row-statistics auto-selection (the per-matrix refinement of kAuto): picks
// the storage backend from the matrix's row-length distribution.
// `mean_row_nnz` is nnz / rows, `cv` the coefficient of variation
// (stddev / mean) of row lengths. SELL-C-4 only pays off on
// short-row / irregular patterns — its padding and permutation overhead
// loses to packed CSR once rows are long enough to amortize the gather
// loop — so this returns kSell for short mean rows (or moderately short,
// highly irregular ones) when AVX2 is available, and the packed-CSR AVX2
// path (or scalar) otherwise. Pure function of its arguments, pinned by
// tests/sparse_kernel_heuristic_test.cc; thresholds chosen so the
// long-row CF bench matrices (mean >= ~12.5) keep the packed-CSR path
// that PR 8's baselines were recorded with.
inline constexpr double kSellMeanRowThreshold = 12.0;
inline constexpr double kSellIrregularMeanRowThreshold = 24.0;
inline constexpr double kSellIrregularCvThreshold = 1.5;
Backend ChooseAutoBackend(double mean_row_nnz, double cv,
                          bool avx2_supported);

// -- CSR kernels -------------------------------------------------------------
//
// All CSR kernels operate on rows [row_begin, row_end) of a shared view, so
// callers can partition row blocks across threads. Entry k of row i lives
// at row_ptr[i] <= k < row_ptr[i + 1] with column col_idx[k]. The *Avx2
// variants are always declared; without AVX2 in the build they forward to
// the scalar reference.

struct CsrView {
  size_t rows = 0;
  size_t cols = 0;
  const size_t* row_ptr = nullptr;
  const size_t* col_idx = nullptr;
};

// y[i] = sum_k v[k] * x[col_idx[k]] over row i.
void MatVecScalar(const CsrView& a, const double* v, const double* x,
                  double* y, size_t row_begin, size_t row_end);
void MatVecAvx2(const CsrView& a, const double* v, const double* x, double* y,
                size_t row_begin, size_t row_end);

// y[i] = sum_k 0.5 * (lo[k] + hi[k]) * x[col_idx[k]] — the fused midpoint
// action over the shared pattern.
void MatVecMidScalar(const CsrView& a, const double* lo, const double* hi,
                     const double* x, double* y, size_t row_begin,
                     size_t row_end);
void MatVecMidAvx2(const CsrView& a, const double* lo, const double* hi,
                   const double* x, double* y, size_t row_begin,
                   size_t row_end);

// y[col_idx[k]] += v[k] * x[i] over rows [row_begin, row_end): the
// transpose action as a scatter, and the scalar reference for the packed
// and SELL scatters below. Accumulates — the caller zero-fills y (or
// reduces per-thread partials).
void MatVecTScalar(const CsrView& a, const double* v, const double* x,
                   double* y, size_t row_begin, size_t row_end);

// C = A_e B for row-major dense b (a.cols x bcols); row i of C is
// accumulated in place (caller zero-fills). Vectorizes across the dense
// columns, so it needs no gathers at all.
void MatDenseScalar(const CsrView& a, const double* v, const double* b,
                    size_t bcols, double* c, size_t row_begin,
                    size_t row_end);
void MatDenseAvx2(const CsrView& a, const double* v, const double* b,
                  size_t bcols, double* c, size_t row_begin, size_t row_end);

// Both endpoints' dense products: c_lo = A_* B and c_hi = A^* B in one
// pattern pass (the kernel under IntervalMultiplyDense).
void MatDenseBothScalar(const CsrView& a, const double* lo, const double* hi,
                        const double* b, size_t bcols, double* c_lo,
                        double* c_hi, size_t row_begin, size_t row_end);
void MatDenseBothAvx2(const CsrView& a, const double* lo, const double* hi,
                      const double* b, size_t bcols, double* c_lo,
                      double* c_hi, size_t row_begin, size_t row_end);

// -- Packed-index CSR kernels (the AVX2 fast path) ---------------------------
//
// The 20k x 5k matvec is memory-bound: with size_t column indices the CSR
// stream costs 16 bytes per nonzero and the scalar loop already saturates a
// core's bandwidth, capping any same-layout speedup near 1.4x. The packed
// view replaces the index stream with 16-bit (cols < 2^16) or 32-bit
// (cols < 2^32) copies built once per matrix, cutting the stream to
// 10-12 bytes per nonzero; combined with software prefetch of both streams
// this is where the vectorized forward family gets its >= 2x. Exactly one
// of col16 / col32 is non-null. Row extents still come from row_ptr.

struct PackedCsrView {
  size_t rows = 0;
  size_t cols = 0;
  const size_t* row_ptr = nullptr;
  const uint16_t* col16 = nullptr;  // set when cols fits in 16 bits
  const uint32_t* col32 = nullptr;  // set otherwise (cols always < 2^32)
};

// Packed-index scalar kernels: the portable reference loops over the
// 16/32-bit sidecar, with the identical per-row association as the
// size_t-index scalar family (so a caller switching index width never
// changes results bitwise). These are the kernels a shard whose only
// column stream is packed (an mmap'd segment stores u32 indices, never
// size_t) runs when the resolved backend is kScalar — calling the
// *PackedAvx2 symbols there would execute real AVX2 code on AVX2 builds.
void MatVecPackedScalar(const PackedCsrView& a, const double* v,
                        const double* x, double* y, size_t row_begin,
                        size_t row_end);
void MatVecMidPackedScalar(const PackedCsrView& a, const double* lo,
                           const double* hi, const double* x, double* y,
                           size_t row_begin, size_t row_end);
// y[col[k]] += v[k] * x[i] scatter over the packed indices (accumulates;
// caller zero-fills or reduces partials), mirroring MatVecTScalar.
void MatVecTPackedScalar(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end);
// y[col[k]] += 0.5 * (lo[k] + hi[k]) * x[i] — the midpoint transpose
// scatter (the ApplyTranspose of the ISVD0 midpoint map).
void MatVecTMidPackedScalar(const PackedCsrView& a, const double* lo,
                            const double* hi, const double* x, double* y,
                            size_t row_begin, size_t row_end);
// c_lo += A_*ᵀ B and c_hi += A^*ᵀ B for row-major b (a.rows x bcols):
// the transposed dense product as a row-scatter, one pattern pass feeding
// both endpoint accumulations. c_lo/c_hi are a.cols x bcols, caller
// zero-fills (or reduces partials).
void MatDenseTBothPackedScalar(const PackedCsrView& a, const double* lo,
                               const double* hi, const double* b,
                               size_t bcols, double* c_lo, double* c_hi,
                               size_t row_begin, size_t row_end);
// c += A_eᵀ B, the single-endpoint form of MatDenseTBothPackedScalar (the
// kMMt left-factor recovery, off the hot path; it has no AVX2 form).
void MatDenseTPackedScalar(const PackedCsrView& a, const double* v,
                           const double* b, size_t bcols, double* c,
                           size_t row_begin, size_t row_end);
// Packed-index counterparts of MatDenseScalar / MatDenseBothScalar
// (accumulate into row-major c; caller zero-fills).
void MatDensePackedScalar(const PackedCsrView& a, const double* v,
                          const double* b, size_t bcols, double* c,
                          size_t row_begin, size_t row_end);
void MatDenseBothPackedScalar(const PackedCsrView& a, const double* lo,
                              const double* hi, const double* b, size_t bcols,
                              double* c_lo, double* c_hi, size_t row_begin,
                              size_t row_end);
void GramFusedPackedScalar(const PackedCsrView& a, const double* v,
                           const double* x, double* y, size_t row_begin,
                           size_t row_end);

// Packed-index counterparts of the CSR family above; same semantics, same
// aliasing and numerical contracts. Without AVX2 in the build they run the
// packed scalar loops. AVX2 has no scatter instruction: MatVecTPackedAvx2
// vectorizes the multiplies four lanes at a time and stores the lanes one
// by one (columns are unique within a row, so the stores never collide).
// The midpoint scatter has no AVX2 form; the AVX2 backend runs
// MatVecTMidPackedScalar over the narrow indices.
void MatVecPackedAvx2(const PackedCsrView& a, const double* v,
                      const double* x, double* y, size_t row_begin,
                      size_t row_end);
void MatVecMidPackedAvx2(const PackedCsrView& a, const double* lo,
                         const double* hi, const double* x, double* y,
                         size_t row_begin, size_t row_end);
void MatVecTPackedAvx2(const PackedCsrView& a, const double* v,
                       const double* x, double* y, size_t row_begin,
                       size_t row_end);
// MatDenseTBothPackedScalar vectorized across the bcols dense columns with
// 128-bit FMAs (the ISVD4 recompute V† = M†ᵀ S).
void MatDenseTBothPackedAvx2(const PackedCsrView& a, const double* lo,
                             const double* hi, const double* b, size_t bcols,
                             double* c_lo, double* c_hi, size_t row_begin,
                             size_t row_end);

// -- Fused normal-equations (Gram) kernels -----------------------------------
//
// y += A_eᵀ (A_e x) over rows [row_begin, row_end) in ONE pass over the
// pattern: per row, s = <row, x> (gather dot), then y[col] += s * v
// (scatter). The two-pass composition A_eᵀ(A_e x) streams the nonzeros
// twice (forward matrix, then the materialized transpose); the fused form
// streams them once, which roughly halves the memory traffic of a Lanczos
// Gram step. Accumulates into y — the caller zero-fills (or reduces
// per-thread partials). Summation order differs from the two-pass
// composition (per-row rank-1 updates instead of transpose-row dots), still
// within the 1e-12 differential bound.
void GramFusedScalar(const CsrView& a, const double* v, const double* x,
                     double* y, size_t row_begin, size_t row_end);
void GramFusedPackedAvx2(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end);

// -- SELL-C-4 chunk kernels --------------------------------------------------
//
// Chunk c covers four consecutive rows of the length-sorted permutation;
// slice s of chunk c stores lanes 0..3 contiguously at
// col[chunk_ptr[c] + 4 * s + lane]. Padded lanes carry column 0 / value 0,
// and their perm entry is kSellPadRow. Kernels run whole chunks
// [chunk_begin, chunk_end). The forward kernels write each real lane sum
// to y[perm[4 * c + lane]]; the scatters and the fused Gram accumulate
// into y (caller zero-fills or reduces partials), and padded slots add an
// exact zero to y[0].

inline constexpr size_t kSellC = 4;
inline constexpr size_t kSellPadRow = static_cast<size_t>(-1);

struct SellView {
  size_t chunks = 0;
  const size_t* chunk_ptr = nullptr;  // chunks + 1 offsets into col/values
  const uint32_t* col = nullptr;      // padded 32-bit column indices
  const size_t* perm = nullptr;       // 4 * chunks source rows (or pad)
};

void SellMatVecScalar(const SellView& s, const double* v, const double* x,
                      double* y, size_t chunk_begin, size_t chunk_end);
void SellMatVecAvx2(const SellView& s, const double* v, const double* x,
                    double* y, size_t chunk_begin, size_t chunk_end);

void SellMatVecMidScalar(const SellView& s, const double* lo,
                         const double* hi, const double* x, double* y,
                         size_t chunk_begin, size_t chunk_end);
void SellMatVecMidAvx2(const SellView& s, const double* lo, const double* hi,
                       const double* x, double* y, size_t chunk_begin,
                       size_t chunk_end);

// y[col] += v * x[row] over the chunks: the x values of a chunk's four
// rows are read once (padded lanes read 0), then each slice makes four
// read-modify-writes. The scatters have no AVX2 form (the stores are
// scalar either way); both SELL backends run these.
void SellMatVecTScalar(const SellView& s, const double* v, const double* x,
                       double* y, size_t chunk_begin, size_t chunk_end);

// y[col] += 0.5 * (lo + hi) * x[row], the midpoint scatter.
void SellMatVecTMidScalar(const SellView& s, const double* lo,
                          const double* hi, const double* x, double* y,
                          size_t chunk_begin, size_t chunk_end);

// y += A_eᵀ (A_e x) over the chunks in one pass: the vertical gather-dot
// of the forward kernel leaves the four row sums in one vector, which then
// scatters back over the same (cache-hot) slices.
void SellGramFusedScalar(const SellView& s, const double* v, const double* x,
                         double* y, size_t chunk_begin, size_t chunk_end);
void SellGramFusedAvx2(const SellView& s, const double* v, const double* x,
                       double* y, size_t chunk_begin, size_t chunk_end);

}  // namespace ivmf::spk

#endif  // IVMF_SPARSE_SPARSE_KERNELS_H_
