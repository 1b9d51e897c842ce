// Differential tests for the vectorized sparse-kernel backends.
//
// Every kernel entry point of SparseIntervalMatrix is pinned against an
// independently written naive dense reference, for every backend that can
// be selected per-matrix (scalar, avx2, sell). The shape grid deliberately
// covers the cases a register-blocked kernel gets wrong first: rows whose
// length is not a multiple of the 4/8-wide blocks, empty rows, a single
// row or column, fully dense rows, all nnz concentrated in one row, and
// the empty matrix. Both signed and non-negative value regimes run, since
// the midpoint and interval-product kernels read two value arrays off one
// pattern.
//
// Tolerance: the blocked kernels sum each row's terms in a fixed blocked
// order with FMA, which legitimately differs from the naive left-to-right
// sum by reassociation-level error. Differences are bounded by
// |diff| <= 1e-12 * max(1, |ref|), far below anything the solvers resolve,
// and exact zero stays exact (empty rows produce bitwise 0.0).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "interval/interval_matrix.h"
#include "linalg/matrix.h"
#include "sparse/block_matrix.h"
#include "sparse/sell_matrix.h"
#include "sparse/sparse_gram_operator.h"
#include "sparse/sparse_interval_matrix.h"
#include "sparse/sparse_kernels.h"

namespace ivmf {
namespace {

using Endpoint = SparseIntervalMatrix::Endpoint;

// |a - b| <= 1e-12 * max(1, |b|): absolute near zero, relative elsewhere.
void ExpectNear(double a, double b, const std::string& what) {
  const double tol = 1e-12 * std::max(1.0, std::fabs(b));
  EXPECT_LE(std::fabs(a - b), tol) << what << ": got " << a << " want " << b;
}

void ExpectVectorNear(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectNear(got[i], want[i], what + "[" + std::to_string(i) + "]");
  }
}

void ExpectMatrixNear(const Matrix& got, const Matrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.rows(); ++i) {
    for (size_t j = 0; j < got.cols(); ++j) {
      ExpectNear(got(i, j), want(i, j),
                 what + "(" + std::to_string(i) + "," + std::to_string(j) +
                     ")");
    }
  }
}

// A test shape: explicit triplets so the pattern is under direct control.
struct Shape {
  std::string name;
  size_t rows = 0;
  size_t cols = 0;
  std::vector<IntervalTriplet> entries;
};

Interval DrawValue(Rng& rng, bool non_negative) {
  const double a = non_negative ? rng.Uniform(0.0, 5.0) : rng.Uniform(-5.0, 5.0);
  const double b = a + rng.Uniform(0.0, 2.0);
  return Interval(a, b);
}

// The curated shape grid (see file comment for why each case exists).
std::vector<Shape> MakeShapes(bool non_negative) {
  Rng rng(non_negative ? 71u : 72u);
  std::vector<Shape> shapes;

  auto fill = [&](const std::string& name, size_t rows, size_t cols,
                  double density) {
    Shape s{name, rows, cols, {}};
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        if (rng.Bernoulli(density)) {
          s.entries.push_back({i, j, DrawValue(rng, non_negative)});
        }
      }
    }
    return s;
  };

  shapes.push_back({"empty_0x0", 0, 0, {}});
  shapes.push_back({"single_cell_1x1",
                    1,
                    1,
                    {{0, 0, DrawValue(rng, non_negative)}}});
  shapes.push_back(fill("single_row_1x17", 1, 17, 0.7));
  shapes.push_back(fill("single_col_17x1", 17, 1, 0.7));
  // Remainder lanes: neither dimension nor any row length is 4/8-aligned.
  shapes.push_back(fill("odd_9x13", 9, 13, 0.45));
  shapes.push_back(fill("odd_17x5", 17, 5, 0.6));
  // Row lengths straddling the 8-wide main loop + 4-wide + scalar tail.
  shapes.push_back(fill("dense_rows_7x23", 7, 23, 1.0));
  // Sparse with many empty rows (density low enough that several rows get
  // nothing at these sizes).
  shapes.push_back(fill("mostly_empty_31x19", 31, 19, 0.08));
  // Everything in one row: the adversarial row-length distribution.
  {
    Shape s{"one_hot_row_16x33", 16, 33, {}};
    for (size_t j = 0; j < 33; ++j) {
      s.entries.push_back({5, j, DrawValue(rng, non_negative)});
    }
    shapes.push_back(s);
  }
  // Large enough that ForRowBlocks could split it under more cores, and
  // that SELL sorting actually reorders rows.
  shapes.push_back(fill("bulk_70x41", 70, 41, 0.3));
  return shapes;
}

std::vector<double> RandomVector(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

Matrix RandomDense(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-2.0, 2.0);
  }
  return m;
}

// Naive references, written directly against the triplet list so they share
// no code with the CSR kernels under test.
struct Reference {
  const Shape& shape;

  double Value(const IntervalTriplet& t, Endpoint e) const {
    return e == Endpoint::kLower ? t.value.lo : t.value.hi;
  }

  std::vector<double> MatVec(Endpoint e, const std::vector<double>& x) const {
    std::vector<double> y(shape.rows, 0.0);
    for (const auto& t : shape.entries) y[t.row] += Value(t, e) * x[t.col];
    return y;
  }

  std::vector<double> MatVecMid(const std::vector<double>& x) const {
    std::vector<double> y(shape.rows, 0.0);
    for (const auto& t : shape.entries) {
      y[t.row] += 0.5 * (t.value.lo + t.value.hi) * x[t.col];
    }
    return y;
  }

  std::vector<double> MatVecT(Endpoint e, const std::vector<double>& x) const {
    std::vector<double> y(shape.cols, 0.0);
    for (const auto& t : shape.entries) y[t.col] += Value(t, e) * x[t.row];
    return y;
  }

  std::vector<double> MatVecTMid(const std::vector<double>& x) const {
    std::vector<double> y(shape.cols, 0.0);
    for (const auto& t : shape.entries) {
      y[t.col] += 0.5 * (t.value.lo + t.value.hi) * x[t.row];
    }
    return y;
  }

  Matrix MatDenseT(Endpoint e, const Matrix& b) const {
    Matrix c(shape.cols, b.cols());
    for (const auto& t : shape.entries) {
      for (size_t j = 0; j < b.cols(); ++j) {
        c(t.col, j) += Value(t, e) * b(t.row, j);
      }
    }
    return c;
  }

  Matrix MatDense(Endpoint e, const Matrix& b) const {
    Matrix c(shape.rows, b.cols());
    for (const auto& t : shape.entries) {
      for (size_t j = 0; j < b.cols(); ++j) {
        c(t.row, j) += Value(t, e) * b(t.col, j);
      }
    }
    return c;
  }
};

// Builds the matrix for one (shape, backend) pair. Duplicate policy is
// irrelevant: MakeShapes emits unique cells.
SparseIntervalMatrix Build(const Shape& s, spk::Backend backend) {
  SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(s.rows, s.cols, s.entries);
  m.set_kernel(backend);
  return m;
}

// The backends every test runs under. kAvx2 silently degrades to scalar on
// machines without AVX2 — the differential claim still holds there, it just
// collapses to scalar-vs-scalar.
const spk::Backend kBackends[] = {spk::Backend::kScalar, spk::Backend::kAvx2,
                                  spk::Backend::kSell};

std::string CaseName(const Shape& s, spk::Backend b, bool non_negative) {
  return s.name + "/" + spk::BackendName(b) +
         (non_negative ? "/nonneg" : "/signed");
}

class SparseKernelDiffTest : public ::testing::TestWithParam<bool> {};

TEST_P(SparseKernelDiffTest, MultiplyMatchesReference) {
  const bool non_negative = GetParam();
  Rng rng(11);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    const std::vector<double> x = RandomVector(rng, s.cols);
    for (spk::Backend b : kBackends) {
      const SparseIntervalMatrix m = Build(s, b);
      std::vector<double> y;
      for (Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
        m.Multiply(e, x, y);
        ExpectVectorNear(y, ref.MatVec(e, x),
                         "Multiply/" + CaseName(s, b, non_negative));
      }
      m.MultiplyMid(x, y);
      ExpectVectorNear(y, ref.MatVecMid(x),
                       "MultiplyMid/" + CaseName(s, b, non_negative));
    }
  }
}

TEST_P(SparseKernelDiffTest, MultiplyTransposeMatchesReference) {
  const bool non_negative = GetParam();
  Rng rng(13);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    const std::vector<double> x = RandomVector(rng, s.rows);
    for (spk::Backend b : kBackends) {
      const SparseIntervalMatrix m = Build(s, b);
      std::vector<double> y;
      for (Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
        m.MultiplyTranspose(e, x, y);
        ExpectVectorNear(y, ref.MatVecT(e, x),
                         "MultiplyTranspose/" + CaseName(s, b, non_negative));
      }
      m.MultiplyTransposeMid(x, y);
      ExpectVectorNear(y, ref.MatVecTMid(x),
                       "MultiplyTransposeMid/" + CaseName(s, b, non_negative));
      for (size_t bcols : {size_t{1}, size_t{3}, size_t{10}}) {
        const Matrix b_dense = RandomDense(rng, s.rows, bcols);
        ExpectMatrixNear(
            m.MultiplyDenseTranspose(Endpoint::kUpper, b_dense),
            ref.MatDenseT(Endpoint::kUpper, b_dense),
            "MultiplyDenseTranspose/" + CaseName(s, b, non_negative));
      }
    }
  }
}

TEST_P(SparseKernelDiffTest, MultiplyDenseMatchesReference) {
  const bool non_negative = GetParam();
  Rng rng(14);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    // Dense widths around the 4-wide register blocking, including 1.
    for (size_t bcols : {size_t{1}, size_t{3}, size_t{8}}) {
      const Matrix b_dense = RandomDense(rng, s.cols, bcols);
      for (spk::Backend b : kBackends) {
        const SparseIntervalMatrix m = Build(s, b);
        for (Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
          ExpectMatrixNear(m.MultiplyDense(e, b_dense), ref.MatDense(e, b_dense),
                           "MultiplyDense/" + CaseName(s, b, non_negative));
        }
        const IntervalMatrix prod = m.IntervalMultiplyDense(b_dense);
        // The interval product is the elementwise min/max of the two
        // endpoint products (b_dense is scalar, so those are the only
        // candidates).
        const Matrix p_lo = ref.MatDense(Endpoint::kLower, b_dense);
        const Matrix p_hi = ref.MatDense(Endpoint::kUpper, b_dense);
        Matrix want_lo(s.rows, bcols), want_hi(s.rows, bcols);
        for (size_t i = 0; i < s.rows; ++i) {
          for (size_t j = 0; j < bcols; ++j) {
            want_lo(i, j) = std::min(p_lo(i, j), p_hi(i, j));
            want_hi(i, j) = std::max(p_lo(i, j), p_hi(i, j));
          }
        }
        ExpectMatrixNear(prod.lower(), want_lo,
                         "IntervalMultiplyDense.lo/" +
                             CaseName(s, b, non_negative));
        ExpectMatrixNear(prod.upper(), want_hi,
                         "IntervalMultiplyDense.hi/" +
                             CaseName(s, b, non_negative));
      }
    }
  }
}

TEST_P(SparseKernelDiffTest, GramOperatorMatchesComposition) {
  const bool non_negative = GetParam();
  Rng rng(15);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    const std::vector<double> x = RandomVector(rng, s.cols);
    for (spk::Backend b : kBackends) {
      const SparseIntervalMatrix m = Build(s, b);
      const SparseIntervalMatrix mt = m.Transpose();
      EXPECT_EQ(mt.kernel(), b) << "Transpose must propagate the backend";
      const SparseGramOperator lower(m, mt, Endpoint::kLower);
      const SparseGramOperator upper(m, mt, Endpoint::kUpper);
      std::vector<double> y;
      lower.Apply(x, y);
      const std::vector<double> want_lo =
          ref.MatVecT(Endpoint::kLower, ref.MatVec(Endpoint::kLower, x));
      ExpectVectorNear(y, want_lo, "Gram.lo/" + CaseName(s, b, non_negative));
      upper.Apply(x, y);
      const std::vector<double> want_hi =
          ref.MatVecT(Endpoint::kUpper, ref.MatVec(Endpoint::kUpper, x));
      ExpectVectorNear(y, want_hi, "Gram.hi/" + CaseName(s, b, non_negative));
      // The transpose-free form works on every backend.
      SparseGramOperator(m, Endpoint::kLower).Apply(x, y);
      ExpectVectorNear(
          y, want_lo, "TransposeFreeGram.lo/" + CaseName(s, b, non_negative));
    }
  }
}

TEST_P(SparseKernelDiffTest, FusedGramMatchesReference) {
  // The one-pass fused Gram kernels, called directly on the matrix (the
  // operator only routes through them on the AVX2 backend — this pins every
  // backend's fused path against the naive composition).
  const bool non_negative = GetParam();
  Rng rng(16);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    const std::vector<double> x = RandomVector(rng, s.cols);
    const std::vector<double> want_lo =
        ref.MatVecT(Endpoint::kLower, ref.MatVec(Endpoint::kLower, x));
    const std::vector<double> want_hi =
        ref.MatVecT(Endpoint::kUpper, ref.MatVec(Endpoint::kUpper, x));
    for (spk::Backend b : kBackends) {
      const SparseIntervalMatrix m = Build(s, b);
      std::vector<double> y;
      m.GramMultiply(Endpoint::kLower, x, y);
      ExpectVectorNear(y, want_lo,
                       "GramMultiply.lo/" + CaseName(s, b, non_negative));
      m.GramMultiply(Endpoint::kUpper, x, y);
      ExpectVectorNear(y, want_hi,
                       "GramMultiply.hi/" + CaseName(s, b, non_negative));
    }
  }
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.rows() * a.cols() == 0 ||
          std::memcmp(a.data(), b.data(),
                      a.rows() * a.cols() * sizeof(double)) == 0);
}

// The row-scatter transposed interval product against its definition on
// the materialized transpose and against the sharded store's method of the
// same name (1e-12 relative); a repeat call must be bit-identical.
void ExpectTransposeProductMatches(const SparseIntervalMatrix& m,
                                   const Matrix& b, const std::string& what) {
  const IntervalMatrix got = m.IntervalMultiplyDenseTranspose(b);
  const IntervalMatrix want = m.Transpose().IntervalMultiplyDense(b);
  ExpectMatrixNear(got.lower(), want.lower(), what + "/vs_transpose.lo");
  ExpectMatrixNear(got.upper(), want.upper(), what + "/vs_transpose.hi");
  const IntervalMatrix sharded =
      ShardedSparseIntervalMatrix::FromCsr(m, 1024)
          .IntervalMultiplyDenseTranspose(b);
  ExpectMatrixNear(got.lower(), sharded.lower(), what + "/vs_sharded.lo");
  ExpectMatrixNear(got.upper(), sharded.upper(), what + "/vs_sharded.hi");
  const IntervalMatrix again = m.IntervalMultiplyDenseTranspose(b);
  EXPECT_TRUE(BitEqual(got.lower(), again.lower())) << what << " repeat.lo";
  EXPECT_TRUE(BitEqual(got.upper(), again.upper())) << what << " repeat.hi";
}

TEST_P(SparseKernelDiffTest, IntervalMultiplyDenseTransposeMatchesTranspose) {
  // The grid covers signed values, empty rows, a one-row matrix and the
  // empty shape; the zero-column operand must give a cols x 0 result.
  const bool non_negative = GetParam();
  Rng rng(17);
  for (const Shape& s : MakeShapes(non_negative)) {
    for (size_t bcols : {size_t{0}, size_t{1}, size_t{3}, size_t{10}}) {
      const Matrix b_dense = RandomDense(rng, s.rows, bcols);
      for (spk::Backend b : kBackends) {
        const SparseIntervalMatrix m = Build(s, b);
        const IntervalMatrix prod = m.IntervalMultiplyDenseTranspose(b_dense);
        EXPECT_EQ(prod.rows(), s.cols);
        EXPECT_EQ(prod.cols(), bcols);
        ExpectTransposeProductMatches(
            m, b_dense,
            "IntervalMultiplyDenseTranspose/" + CaseName(s, b, non_negative) +
                "/k" + std::to_string(bcols));
      }
    }
  }
}

// The packed 16/32-bit sidecar of a matrix, built independently of the
// matrix's own (lazily chosen) width so both widths run on every shape.
struct PackedIndices {
  std::vector<uint16_t> col16;
  std::vector<uint32_t> col32;

  explicit PackedIndices(const SparseIntervalMatrix& m) {
    for (size_t c : m.col_idx()) {
      col16.push_back(static_cast<uint16_t>(c));
      col32.push_back(static_cast<uint32_t>(c));
    }
  }

  spk::PackedCsrView View(const SparseIntervalMatrix& m, bool narrow) const {
    spk::PackedCsrView view;
    view.rows = m.rows();
    view.cols = m.cols();
    view.row_ptr = m.row_ptr().data();
    if (narrow) {
      view.col16 = col16.data();
    } else {
      view.col32 = col32.data();
    }
    return view;
  }
};

// True when the spk::*Avx2 symbols may be called directly: they run real
// AVX2 code when the AVX2 unit is compiled in, and forward to the scalar
// kernels when it is not.
bool CanCallAvx2Kernels() {
  return !spk::Avx2Compiled() || spk::Avx2Supported();
}

// Runs an accumulating kernel fn(y) twice on zero-filled outputs of `len`
// entries; the two results must be bit-identical. Returns the first.
template <typename Fn>
std::vector<double> RunTwiceBitEqual(size_t len, Fn&& fn,
                                     const std::string& what) {
  std::vector<double> first(len, 0.0), again(len, 0.0);
  fn(first.data());
  fn(again.data());
  EXPECT_TRUE(first.empty() ||
              std::memcmp(first.data(), again.data(),
                          len * sizeof(double)) == 0)
      << what << " repeat";
  return first;
}

TEST_P(SparseKernelDiffTest, PackedScattersMatchScalarKernels) {
  // The packed transpose scatters (scalar and AVX2) against the size_t
  // scalar kernel, the packed midpoint scatter across index widths, the
  // packed AVX2 transposed dense product against the packed scalar one, and
  // the single-endpoint transposed dense product against the two-endpoint
  // one, in both index widths. The grid has empty rows, rows shorter than
  // and straddling the 16-entry block, and signed values; the dense widths
  // cover odd counts and more than one 16-column register block.
  const bool avx2 = CanCallAvx2Kernels();
  const bool non_negative = GetParam();
  Rng rng(19);
  for (const Shape& s : MakeShapes(non_negative)) {
    const SparseIntervalMatrix m = Build(s, spk::Backend::kScalar);
    const spk::CsrView csr{m.rows(), m.cols(), m.row_ptr().data(),
                           m.col_idx().data()};
    const PackedIndices packed(m);
    const double* lo = m.lower_values().data();
    const double* hi = m.upper_values().data();
    const std::vector<double> x = RandomVector(rng, s.rows);
    const size_t rows = m.rows();
    const size_t cols = m.cols();
    std::vector<double> want_t(cols, 0.0), want_mid(cols, 0.0);
    spk::MatVecTScalar(csr, hi, x.data(), want_t.data(), 0, rows);
    for (bool narrow : {true, false}) {
      const spk::PackedCsrView view = packed.View(m, narrow);
      const std::string what =
          s.name + (narrow ? "/u16" : "/u32") +
          (non_negative ? "/nonneg" : "/signed");
      ExpectVectorNear(
          RunTwiceBitEqual(
              cols,
              [&](double* y) {
                spk::MatVecTPackedScalar(view, hi, x.data(), y, 0, rows);
              },
              "MatVecTPackedScalar/" + what),
          want_t, "MatVecTPackedScalar/" + what);
      if (avx2) {
        ExpectVectorNear(
            RunTwiceBitEqual(
                cols,
                [&](double* y) {
                  spk::MatVecTPackedAvx2(view, hi, x.data(), y, 0, rows);
                },
                "MatVecTPackedAvx2/" + what),
            want_t, "MatVecTPackedAvx2/" + what);
      }
      const std::vector<double> mid = RunTwiceBitEqual(
          cols,
          [&](double* y) {
            spk::MatVecTMidPackedScalar(view, lo, hi, x.data(), y, 0, rows);
          },
          "MatVecTMidPackedScalar/" + what);
      if (narrow) {
        want_mid = mid;
      } else {
        ExpectVectorNear(mid, want_mid, "MatVecTMidPackedScalar/" + what);
      }
      for (size_t bcols : {size_t{1}, size_t{3}, size_t{10}, size_t{37}}) {
        const Matrix b = RandomDense(rng, rows, bcols);
        const size_t len = cols * bcols;
        std::vector<double> want_lo(len, 0.0), want_hi(len, 0.0);
        spk::MatDenseTBothPackedScalar(view, lo, hi, b.data(), bcols,
                                       want_lo.data(), want_hi.data(), 0,
                                       rows);
        const std::string dense = what + "/r" + std::to_string(bcols);
        if (avx2) {
          // Both endpoints' outputs in one buffer: lo, then hi.
          const std::vector<double> got = RunTwiceBitEqual(
              2 * len,
              [&](double* c) {
                spk::MatDenseTBothPackedAvx2(view, lo, hi, b.data(), bcols, c,
                                             c + len, 0, rows);
              },
              "MatDenseTBothPackedAvx2/" + dense);
          ExpectVectorNear({got.begin(), got.begin() + len}, want_lo,
                           "MatDenseTBothPackedAvx2.lo/" + dense);
          ExpectVectorNear({got.begin() + len, got.end()}, want_hi,
                           "MatDenseTBothPackedAvx2.hi/" + dense);
        }
        std::vector<double> single(len, 0.0);
        spk::MatDenseTPackedScalar(view, hi, b.data(), bcols, single.data(),
                                   0, rows);
        ExpectVectorNear(single, want_hi, "MatDenseTPackedScalar/" + what);
      }
    }
  }
}

TEST_P(SparseKernelDiffTest, SellScattersAndGramMatchScalarKernels) {
  // The SELL scatter and midpoint scatter, and both variants of the SELL
  // fused Gram, against the CSR scalar kernels. The grid has row counts that are not a
  // multiple of 4 (padded lanes), empty rows, one long row that pads its
  // whole chunk, and signed values; sigma = 4 keeps the input row order,
  // the default sorts within the window.
  const bool non_negative = GetParam();
  Rng rng(20);
  for (const Shape& s : MakeShapes(non_negative)) {
    const SparseIntervalMatrix m = Build(s, spk::Backend::kScalar);
    const spk::CsrView csr{m.rows(), m.cols(), m.row_ptr().data(),
                           m.col_idx().data()};
    const PackedIndices packed(m);
    const spk::PackedCsrView view = packed.View(m, /*narrow=*/false);
    const std::vector<double> xr = RandomVector(rng, s.rows);
    const std::vector<double> xc = RandomVector(rng, s.cols);
    const size_t cols = m.cols();
    for (bool upper : {false, true}) {
      const double* v = upper ? m.upper_values().data()
                              : m.lower_values().data();
      std::vector<double> want_t(cols, 0.0), want_mid(cols, 0.0),
          want_gram(cols, 0.0);
      spk::MatVecTScalar(csr, v, xr.data(), want_t.data(), 0, m.rows());
      spk::MatVecTMidPackedScalar(view, m.lower_values().data(),
                                  m.upper_values().data(), xr.data(),
                                  want_mid.data(), 0, m.rows());
      spk::GramFusedScalar(csr, v, xc.data(), want_gram.data(), 0, m.rows());
      for (size_t sigma : {size_t{4}, size_t{4096}}) {
        const SellPack pack(m.rows(), m.cols(), m.row_ptr(), m.col_idx(),
                            m.lower_values(), m.upper_values(), sigma);
        const spk::SellView sv = pack.View();
        const double* sv_v = pack.values(upper).data();
        const double* sv_lo = pack.values(false).data();
        const double* sv_hi = pack.values(true).data();
        for (bool avx2 : {false, true}) {
          if (avx2 && !CanCallAvx2Kernels()) continue;
          const std::string what =
              s.name + (upper ? "/hi" : "/lo") + "/sigma" +
              std::to_string(sigma) + (avx2 ? "/avx2" : "/scalar") +
              (non_negative ? "/nonneg" : "/signed");
          const auto gram = avx2 ? spk::SellGramFusedAvx2
                                 : spk::SellGramFusedScalar;
          if (!avx2) {
            ExpectVectorNear(
                RunTwiceBitEqual(
                    cols,
                    [&](double* y) {
                      spk::SellMatVecTScalar(sv, sv_v, xr.data(), y, 0,
                                             sv.chunks);
                    },
                    "SellMatVecT/" + what),
                want_t, "SellMatVecT/" + what);
            ExpectVectorNear(
                RunTwiceBitEqual(
                    cols,
                    [&](double* y) {
                      spk::SellMatVecTMidScalar(sv, sv_lo, sv_hi, xr.data(),
                                                y, 0, sv.chunks);
                    },
                    "SellMatVecTMid/" + what),
                want_mid, "SellMatVecTMid/" + what);
          }
          ExpectVectorNear(
              RunTwiceBitEqual(
                  cols,
                  [&](double* y) {
                    gram(sv, sv_v, xc.data(), y, 0, sv.chunks);
                  },
                  "SellGramFused/" + what),
              want_gram, "SellGramFused/" + what);
        }
      }
    }
  }
}

TEST_P(SparseKernelDiffTest, PairKernelsMatchTwoScalarSingles) {
  // The AVX2 endpoint-pair kernels (forward, row scatter, fused Gram) on
  // interleaved vectors, in both index widths, against two scalar
  // single-endpoint applies with a different vector per side. The grid has
  // empty rows, row lengths with remainders 1-3 past the 4- and 8-entry
  // blocks, and signed values; every pair call repeats bit-identically.
  if (!spk::Avx2Compiled() || !spk::Avx2Supported()) {
    GTEST_SKIP() << "the pair kernels need AVX2";
  }
  const bool non_negative = GetParam();
  Rng rng(21);
  for (const Shape& s : MakeShapes(non_negative)) {
    const SparseIntervalMatrix m = Build(s, spk::Backend::kScalar);
    const spk::CsrView csr{m.rows(), m.cols(), m.row_ptr().data(),
                           m.col_idx().data()};
    const PackedIndices packed(m);
    const double* lo = m.lower_values().data();
    const double* hi = m.upper_values().data();
    const size_t rows = m.rows();
    const size_t cols = m.cols();
    const std::vector<double> xc_lo = RandomVector(rng, cols);
    const std::vector<double> xc_hi = RandomVector(rng, cols);
    const std::vector<double> xr_lo = RandomVector(rng, rows);
    const std::vector<double> xr_hi = RandomVector(rng, rows);
    std::vector<double> xc2(2 * cols), xr2(2 * rows);
    spk::Interleave(xc_lo.data(), xc_hi.data(), cols, xc2.data());
    spk::Interleave(xr_lo.data(), xr_hi.data(), rows, xr2.data());

    // The interleaved (lo, hi) pairs of two single-endpoint results.
    const auto interleaved = [](const std::vector<double>& a,
                                const std::vector<double>& b) {
      std::vector<double> out(2 * a.size());
      spk::Interleave(a.data(), b.data(), a.size(), out.data());
      return out;
    };
    std::vector<double> fwd_lo(rows), fwd_hi(rows), t_lo(cols, 0.0),
        t_hi(cols, 0.0), gram_lo(cols, 0.0), gram_hi(cols, 0.0);
    spk::MatVecScalar(csr, lo, xc_lo.data(), fwd_lo.data(), 0, rows);
    spk::MatVecScalar(csr, hi, xc_hi.data(), fwd_hi.data(), 0, rows);
    spk::MatVecTScalar(csr, lo, xr_lo.data(), t_lo.data(), 0, rows);
    spk::MatVecTScalar(csr, hi, xr_hi.data(), t_hi.data(), 0, rows);
    spk::GramFusedScalar(csr, lo, xc_lo.data(), gram_lo.data(), 0, rows);
    spk::GramFusedScalar(csr, hi, xc_hi.data(), gram_hi.data(), 0, rows);
    const std::vector<double> want_fwd = interleaved(fwd_lo, fwd_hi);
    const std::vector<double> want_t = interleaved(t_lo, t_hi);
    const std::vector<double> want_gram = interleaved(gram_lo, gram_hi);

    for (bool narrow : {true, false}) {
      const spk::PackedCsrView view = packed.View(m, narrow);
      const std::string what = s.name + (narrow ? "/u16" : "/u32") +
                               (non_negative ? "/nonneg" : "/signed");
      ExpectVectorNear(
          RunTwiceBitEqual(
              2 * rows,
              [&](double* y) {
                spk::MatVecPairPackedAvx2(view, lo, hi, xc2.data(), y, 0,
                                          rows);
              },
              "MatVecPairPackedAvx2/" + what),
          want_fwd, "MatVecPairPackedAvx2/" + what);
      ExpectVectorNear(
          RunTwiceBitEqual(
              2 * cols,
              [&](double* y) {
                spk::MatVecTPairPackedAvx2(view, lo, hi, xr2.data(), y, 0,
                                           rows);
              },
              "MatVecTPairPackedAvx2/" + what),
          want_t, "MatVecTPairPackedAvx2/" + what);
      ExpectVectorNear(
          RunTwiceBitEqual(
              2 * cols,
              [&](double* y) {
                spk::GramFusedPairPackedAvx2(view, lo, hi, xc2.data(), y, 0,
                                             rows);
              },
              "GramFusedPairPackedAvx2/" + what),
          want_gram, "GramFusedPairPackedAvx2/" + what);
    }
  }
}

TEST_P(SparseKernelDiffTest, PairMethodsMatchTwoSingleApplies) {
  // SparseIntervalMatrix's pair methods on every backend (the AVX2 pair
  // kernels, or two single kernels in one parallel region) against two
  // single-endpoint applies on the scalar backend.
  const bool non_negative = GetParam();
  Rng rng(22);
  for (const Shape& s : MakeShapes(non_negative)) {
    const SparseIntervalMatrix ref = Build(s, spk::Backend::kScalar);
    const std::vector<double> xc_lo = RandomVector(rng, s.cols);
    const std::vector<double> xc_hi = RandomVector(rng, s.cols);
    const std::vector<double> xr_lo = RandomVector(rng, s.rows);
    const std::vector<double> xr_hi = RandomVector(rng, s.rows);
    std::vector<double> want_lo, want_hi, got_lo, got_hi, again_lo, again_hi;
    for (spk::Backend backend : kBackends) {
      const SparseIntervalMatrix m = Build(s, backend);
      const std::string what = CaseName(s, backend, non_negative);
      const auto check = [&](const char* kernel) {
        ExpectVectorNear(got_lo, want_lo, what + "/" + kernel + ".lo");
        ExpectVectorNear(got_hi, want_hi, what + "/" + kernel + ".hi");
        EXPECT_EQ(got_lo, again_lo) << what << "/" << kernel << " repeat";
        EXPECT_EQ(got_hi, again_hi) << what << "/" << kernel << " repeat";
      };
      ref.Multiply(Endpoint::kLower, xc_lo, want_lo);
      ref.Multiply(Endpoint::kUpper, xc_hi, want_hi);
      m.MultiplyPair(xc_lo, xc_hi, got_lo, got_hi);
      m.MultiplyPair(xc_lo, xc_hi, again_lo, again_hi);
      check("multiply_pair");
      ref.MultiplyTranspose(Endpoint::kLower, xr_lo, want_lo);
      ref.MultiplyTranspose(Endpoint::kUpper, xr_hi, want_hi);
      m.MultiplyTransposePair(xr_lo, xr_hi, got_lo, got_hi);
      m.MultiplyTransposePair(xr_lo, xr_hi, again_lo, again_hi);
      check("multiply_transpose_pair");
      ref.GramMultiply(Endpoint::kLower, xc_lo, want_lo);
      ref.GramMultiply(Endpoint::kUpper, xc_hi, want_hi);
      m.GramMultiplyPair(xc_lo, xc_hi, got_lo, got_hi);
      m.GramMultiplyPair(xc_lo, xc_hi, again_lo, again_hi);
      check("gram_pair");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Regimes, SparseKernelDiffTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "NonNegative" : "Signed";
                         });

// --- Contract checks ------------------------------------------------------

TEST(SparseKernelContractTest, MultiplyDenseZeroColumns) {
  // A zero-column operand must yield a rows x 0 result, not walk null data.
  const SparseIntervalMatrix m = SparseIntervalMatrix::FromTriplets(
      3, 4, {{0, 1, Interval(1.0, 2.0)}, {2, 3, Interval(-1.0, 1.0)}});
  const Matrix b(4, 0);
  for (spk::Backend backend : kBackends) {
    SparseIntervalMatrix mm = m;
    mm.set_kernel(backend);
    const Matrix c = mm.MultiplyDense(Endpoint::kLower, b);
    EXPECT_EQ(c.rows(), 3u);
    EXPECT_EQ(c.cols(), 0u);
    const IntervalMatrix ci = mm.IntervalMultiplyDense(b);
    EXPECT_EQ(ci.rows(), 3u);
    EXPECT_EQ(ci.cols(), 0u);
  }
}

// Shapes large enough for the row scatter to split across workers (at
// least 2048 rows each), in both packed index widths, plus one whose
// accumulators would outgrow the transpose they replace.
TEST(SparseKernelScatterTest, IntervalMultiplyDenseTransposeLargeShapes) {
  struct Case {
    const char* name;
    size_t rows, cols, per_row, bcols;
  };
  const Case cases[] = {
      // u16 indices; per-worker accumulators 2 x 500 x 10 doubles.
      {"u16_8192x500", 8192, 500, 10, 10},
      // u32 indices (cols > 65536); 196k nnz x 24 B covers two workers'
      // 2 x 70000 x 2 doubles.
      {"u32_8192x70000", 8192, 70000, 24, 2},
      // The memory cap: 8192 nnz x 24 B is less than one worker's
      // 2 x 60000 x 10 doubles, so the scatter runs on one worker.
      {"capped_8192x60000", 8192, 60000, 1, 10},
  };
  Rng rng(18);
  for (const Case& c : cases) {
    std::vector<IntervalTriplet> entries;
    for (size_t i = 0; i < c.rows; ++i) {
      for (size_t k = 0; k < c.per_row; ++k) {
        entries.push_back({i, rng.UniformIndex(c.cols), DrawValue(rng, false)});
      }
    }
    SparseIntervalMatrix scalar =
        SparseIntervalMatrix::FromTriplets(c.rows, c.cols, std::move(entries));
    scalar.set_kernel(spk::Backend::kScalar);
    const Matrix b_dense = RandomDense(rng, c.rows, c.bcols);
    for (spk::Backend b : kBackends) {
      SparseIntervalMatrix m = scalar;
      m.set_kernel(b);
      ExpectTransposeProductMatches(
          m, b_dense, std::string(c.name) + "/" + spk::BackendName(b));
      // The vector scatters split across workers too.
      const std::vector<double> x = RandomVector(rng, c.rows);
      std::vector<double> want, got;
      scalar.MultiplyTranspose(Endpoint::kUpper, x, want);
      m.MultiplyTranspose(Endpoint::kUpper, x, got);
      ExpectVectorNear(got, want, std::string(c.name) + "/MultiplyTranspose/" +
                                      spk::BackendName(b));
      scalar.MultiplyTransposeMid(x, want);
      m.MultiplyTransposeMid(x, got);
      ExpectVectorNear(got, want, std::string(c.name) +
                                      "/MultiplyTransposeMid/" +
                                      spk::BackendName(b));
    }
  }
}

TEST(SparseKernelContractTest, BackendParsingAndResolution) {
  spk::Backend b;
  EXPECT_TRUE(spk::ParseBackend("scalar", &b));
  EXPECT_EQ(b, spk::Backend::kScalar);
  EXPECT_TRUE(spk::ParseBackend("avx2", &b));
  EXPECT_EQ(b, spk::Backend::kAvx2);
  EXPECT_TRUE(spk::ParseBackend("sell", &b));
  EXPECT_EQ(b, spk::Backend::kSell);
  EXPECT_TRUE(spk::ParseBackend("auto", &b));
  EXPECT_EQ(b, spk::Backend::kAuto);
  EXPECT_FALSE(spk::ParseBackend("mmx", &b));

  // Explicit scalar always resolves to scalar; avx2 degrades to scalar
  // when the CPU (or the build) lacks the ISA.
  EXPECT_EQ(spk::Resolve(spk::Backend::kScalar), spk::Backend::kScalar);
  const spk::Backend avx2 = spk::Resolve(spk::Backend::kAvx2);
  if (spk::Avx2Supported()) {
    EXPECT_EQ(avx2, spk::Backend::kAvx2);
  } else {
    EXPECT_EQ(avx2, spk::Backend::kScalar);
  }
  EXPECT_EQ(spk::Resolve(spk::Backend::kSell), spk::Backend::kSell);
  // SELL does not cover the dense products; they fall back to a CSR
  // variant.
  const spk::Backend csr = spk::CsrVariant(spk::Backend::kSell);
  EXPECT_NE(csr, spk::Backend::kSell);
}

// Death tests document the no-aliasing contract. GTest death tests fork,
// which ThreadSanitizer instrumentation does not support — skip them there.
#if defined(__SANITIZE_THREAD__)
#define IVMF_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IVMF_TSAN_BUILD 1
#endif
#endif

#ifndef IVMF_TSAN_BUILD
TEST(SparseKernelDeathTest, MultiplyRejectsAliasedOutput) {
  const SparseIntervalMatrix m = SparseIntervalMatrix::FromTriplets(
      2, 2, {{0, 0, Interval(1.0, 2.0)}, {1, 1, Interval(3.0, 4.0)}});
  std::vector<double> x = {1.0, 2.0};
  EXPECT_DEATH(m.Multiply(Endpoint::kLower, x, x), "alias");
  EXPECT_DEATH(m.MultiplyMid(x, x), "alias");
  EXPECT_DEATH(m.MultiplyTranspose(Endpoint::kLower, x, x), "alias");
  std::vector<double> x_hi = {3.0, 4.0}, y;
  EXPECT_DEATH(m.MultiplyPair(x, x_hi, x_hi, y), "alias");
  EXPECT_DEATH(m.GramMultiplyPair(x, x_hi, y, y), "alias");
}
#endif

}  // namespace
}  // namespace ivmf
