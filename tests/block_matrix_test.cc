// Shard-boundary and backing coverage for ShardedSparseIntervalMatrix:
// every sharded kernel against the monolithic CSR at the kernels' 1e-12
// differential bound across the partition shapes that exercise boundary
// arithmetic (unaligned last shard, single-row shards, shard_rows >= n,
// whole shards of empty rows), in both sign regimes; construction-route
// equivalence (FromTriplets / FromCsr / Builder / View); the dense-Gram
// statics' bit-identity promise; and the mmap story — kernel parity on a
// mapped store, the kAuto size cutover, and the crash-consistency smoke
// (persist a segment directory, drop the matrix, OpenStore from a clean
// object, re-verify).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "interval/interval_matrix.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "sparse/block_matrix.h"
#include "sparse/shard_store.h"
#include "sparse/sparse_gram_operator.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {
namespace {

using Endpoint = SparseIntervalMatrix::Endpoint;

// Fixture entries in ascending (row, col) order. `signed_values` flips the
// regime between entrywise non-negative and mixed-sign (the four-product
// Gram territory); rows in [empty_begin, empty_end) are left entirely
// empty so whole shards can come out empty.
std::vector<IntervalTriplet> MakeTriplets(size_t rows, size_t cols,
                                          double fill, bool signed_values,
                                          uint64_t seed, size_t empty_begin = 0,
                                          size_t empty_end = 0) {
  Rng rng(seed);
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < rows; ++i) {
    if (i >= empty_begin && i < empty_end) continue;
    for (size_t j = 0; j < cols; ++j) {
      if (rng.Uniform() >= fill) continue;
      const double a =
          signed_values ? rng.Uniform(-2.0, 2.0) : rng.Uniform(0.5, 4.0);
      triplets.push_back({i, j, Interval(a, a + rng.Uniform())});
    }
  }
  return triplets;
}

void ExpectVecNear(const std::vector<double>& got,
                   const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(want[i]));
    EXPECT_LE(std::fabs(got[i] - want[i]), tol) << what << "[" << i << "]";
  }
}

void ExpectMatNear(const Matrix& got, const Matrix& want,
                   const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      const double tol = 1e-12 * std::max(1.0, std::fabs(want(i, j)));
      EXPECT_LE(std::fabs(got(i, j) - want(i, j)), tol)
          << what << "(" << i << ", " << j << ")";
    }
  }
}

void ExpectIntervalMatNear(const IntervalMatrix& got,
                           const IntervalMatrix& want,
                           const std::string& what) {
  ExpectMatNear(got.lower(), want.lower(), what + " lower");
  ExpectMatNear(got.upper(), want.upper(), what + " upper");
}

Matrix RandomDense(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  return m;
}

// Every sharded kernel against its monolithic sibling. The two kernels
// MultiplyTransposeMid and IntervalMultiplyDenseTranspose have no
// monolithic namesake; their references are the endpoint-transpose average
// and the materialized-transpose interval product respectively.
void ExpectKernelsMatchMonolithic(const SparseIntervalMatrix& mono,
                                  const ShardedSparseIntervalMatrix& sharded,
                                  const std::string& what) {
  ASSERT_EQ(sharded.rows(), mono.rows()) << what;
  ASSERT_EQ(sharded.cols(), mono.cols()) << what;
  ASSERT_EQ(sharded.nnz(), mono.nnz()) << what;
  EXPECT_EQ(sharded.IsProper(), mono.IsProper()) << what;
  EXPECT_EQ(sharded.IsNonNegative(), mono.IsNonNegative()) << what;

  const size_t rows = mono.rows(), cols = mono.cols();
  Rng rng(5);
  std::vector<double> x(cols), xt(rows);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  for (double& v : xt) v = rng.Uniform(-1.0, 1.0);

  std::vector<double> got(rows), want(rows);
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    mono.Multiply(e, x, want);
    sharded.Multiply(e, x, got);
    ExpectVecNear(got, want, what + " Multiply");
  }
  mono.MultiplyMid(x, want);
  sharded.MultiplyMid(x, got);
  ExpectVecNear(got, want, what + " MultiplyMid");

  std::vector<double> t_got(cols), t_want(cols);
  std::vector<double> t_lo(cols), t_hi(cols);
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    mono.MultiplyTranspose(e, xt, t_want);
    sharded.MultiplyTranspose(e, xt, t_got);
    ExpectVecNear(t_got, t_want, what + " MultiplyTranspose");
  }
  mono.MultiplyTranspose(Endpoint::kLower, xt, t_lo);
  mono.MultiplyTranspose(Endpoint::kUpper, xt, t_hi);
  for (size_t j = 0; j < cols; ++j) t_want[j] = 0.5 * (t_lo[j] + t_hi[j]);
  sharded.MultiplyTransposeMid(xt, t_got);
  ExpectVecNear(t_got, t_want, what + " MultiplyTransposeMid");

  std::vector<double> g_got(cols), g_want(cols);
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    mono.GramMultiply(e, x, g_want);
    sharded.GramMultiply(e, x, g_got);
    ExpectVecNear(g_got, g_want, what + " GramMultiply");
  }
  // The Lanczos-facing adapter, per endpoint.
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    mono.GramMultiply(e, x, g_want);
    ShardedGramOperator(sharded, e).Apply(x, g_got);
    ExpectVecNear(g_got, g_want, what + " ShardedGramOperator");
  }

  const Matrix b = RandomDense(cols, 3, 31);
  const Matrix bt = RandomDense(rows, 3, 32);
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    ExpectMatNear(sharded.MultiplyDense(e, b), mono.MultiplyDense(e, b),
                  what + " MultiplyDense");
  }
  ExpectIntervalMatNear(sharded.IntervalMultiplyDense(b),
                        mono.IntervalMultiplyDense(b),
                        what + " IntervalMultiplyDense");
  ExpectIntervalMatNear(sharded.IntervalMultiplyDenseTranspose(bt),
                        mono.Transpose().IntervalMultiplyDense(bt),
                        what + " IntervalMultiplyDenseTranspose");

  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const Interval a = sharded.At(i, j);
      const Interval m = mono.At(i, j);
      EXPECT_EQ(a.lo, m.lo) << what << " At(" << i << ", " << j << ")";
      EXPECT_EQ(a.hi, m.hi) << what << " At(" << i << ", " << j << ")";
    }
  }
}

class ShardBoundaryTest : public ::testing::TestWithParam<bool> {};

// Partition shapes that stress the boundary arithmetic: single-row shards,
// an unaligned last shard (61 rows in shards of 7 leaves a 5-row tail),
// one exact-fit shard, and shard_rows past the row count.
TEST_P(ShardBoundaryTest, EveryKernelMatchesMonolithic) {
  const bool signed_values = GetParam();
  const size_t rows = 61, cols = 23;
  std::vector<IntervalTriplet> triplets =
      MakeTriplets(rows, cols, 0.15, signed_values, 77);
  const SparseIntervalMatrix mono =
      SparseIntervalMatrix::FromTriplets(rows, cols, triplets);
  ASSERT_EQ(mono.IsNonNegative(), !signed_values);

  const struct {
    size_t shard_rows;
    size_t want_shards;
  } configs[] = {{1, 61}, {7, 9}, {61, 1}, {100, 1}};
  for (const auto& config : configs) {
    const ShardedSparseIntervalMatrix sharded =
        ShardedSparseIntervalMatrix::FromTriplets(rows, cols, triplets,
                                                  config.shard_rows);
    EXPECT_EQ(sharded.num_shards(), config.want_shards);
    EXPECT_FALSE(sharded.mmap_backed());
    ExpectKernelsMatchMonolithic(
        mono, sharded,
        (signed_values ? "signed" : "nonneg") + std::string(" shard_rows=") +
            std::to_string(config.shard_rows));
  }
}

// Rows 16..40 carry no entries, so shards 2, 3, and 4 of the 8-row
// partition are entirely empty — the kernels must pass through them
// without perturbing the reduction order.
TEST_P(ShardBoundaryTest, WholeEmptyShards) {
  const bool signed_values = GetParam();
  const size_t rows = 64, cols = 19;
  std::vector<IntervalTriplet> triplets =
      MakeTriplets(rows, cols, 0.25, signed_values, 78, 16, 40);
  const SparseIntervalMatrix mono =
      SparseIntervalMatrix::FromTriplets(rows, cols, triplets);
  const ShardedSparseIntervalMatrix sharded =
      ShardedSparseIntervalMatrix::FromTriplets(rows, cols, triplets, 8);
  ASSERT_EQ(sharded.num_shards(), 8u);
  ExpectKernelsMatchMonolithic(mono, sharded, "empty-shards");
}

INSTANTIATE_TEST_SUITE_P(SignRegimes, ShardBoundaryTest, ::testing::Bool());

TEST(BlockMatrixConstructionTest, FromCsrMatchesFromTriplets) {
  std::vector<IntervalTriplet> triplets = MakeTriplets(40, 17, 0.2, true, 81);
  const SparseIntervalMatrix mono =
      SparseIntervalMatrix::FromTriplets(40, 17, triplets);
  const ShardedSparseIntervalMatrix from_csr =
      ShardedSparseIntervalMatrix::FromCsr(mono, 9);
  const ShardedSparseIntervalMatrix from_triplets =
      ShardedSparseIntervalMatrix::FromTriplets(40, 17, std::move(triplets),
                                                9);
  ExpectKernelsMatchMonolithic(mono, from_csr, "FromCsr");
  ExpectKernelsMatchMonolithic(mono, from_triplets, "FromTriplets");
  EXPECT_EQ(from_csr.shard_rows(), 9u);
  EXPECT_EQ(from_csr.num_shards(), 5u);
}

// Row-streaming construction must land byte-for-byte where the batch
// routes do — same CSR content shard by shard, checked through ToCsr.
TEST(BlockMatrixConstructionTest, BuilderMatchesBatchConstruction) {
  const size_t rows = 53, cols = 21;
  // Skip a row range so the builder pads empty rows (and one empty shard).
  std::vector<IntervalTriplet> triplets =
      MakeTriplets(rows, cols, 0.2, true, 82, 10, 22);
  const SparseIntervalMatrix mono =
      SparseIntervalMatrix::FromTriplets(rows, cols, triplets);

  ShardedSparseIntervalMatrix::Builder builder(rows, cols, 10,
                                               BackingPolicy::Memory());
  for (const IntervalTriplet& t : triplets) {
    builder.Append(t.row, t.col, t.value);
  }
  const ShardedSparseIntervalMatrix built = builder.Finish();
  EXPECT_EQ(built.num_shards(), 6u);
  ExpectKernelsMatchMonolithic(mono, built, "Builder");

  const SparseIntervalMatrix round_trip = built.ToCsr();
  ASSERT_EQ(round_trip.nnz(), mono.nnz());
  const IntervalMatrix dense = mono.ToDense();
  const IntervalMatrix dense_round_trip = round_trip.ToDense();
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      EXPECT_EQ(dense_round_trip.At(i, j).lo, dense.At(i, j).lo);
      EXPECT_EQ(dense_round_trip.At(i, j).hi, dense.At(i, j).hi);
    }
  }
}

// The zero-copy View partitions the base in place and must keep it alive
// through the shared_ptr even after the caller drops its reference.
TEST(BlockMatrixConstructionTest, ViewSharesTheBaseStore) {
  auto base = std::make_shared<const SparseIntervalMatrix>(
      SparseIntervalMatrix::FromTriplets(45, 18,
                                         MakeTriplets(45, 18, 0.2, false, 83)));
  ShardedSparseIntervalMatrix view =
      ShardedSparseIntervalMatrix::View(base, 11);
  EXPECT_EQ(view.num_shards(), 5u);
  EXPECT_FALSE(view.mmap_backed());

  const SparseIntervalMatrix mono = *base;  // keep a reference copy
  base.reset();
  ExpectKernelsMatchMonolithic(mono, view, "View");
}

// The doc promises the dense-Gram statics accumulate shard-sequentially in
// the identical addition order as the monolithic SparseGramOperator
// statics — bit-identical, not merely close.
TEST(BlockMatrixGramTest, DenseGramStaticsAreBitIdentical) {
  for (const bool signed_values : {false, true}) {
    const SparseIntervalMatrix mono = SparseIntervalMatrix::FromTriplets(
        37, 14, MakeTriplets(37, 14, 0.25, signed_values, 84));
    const ShardedSparseIntervalMatrix sharded =
        ShardedSparseIntervalMatrix::FromCsr(mono, 8);

    for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
      const Matrix want = SparseGramOperator::DenseGram(mono, e);
      const Matrix got = ShardedSparseIntervalMatrix::DenseGram(sharded, e);
      ASSERT_EQ(got.rows(), want.rows());
      for (size_t i = 0; i < want.rows(); ++i)
        for (size_t j = 0; j < want.cols(); ++j)
          EXPECT_EQ(got(i, j), want(i, j)) << "(" << i << ", " << j << ")";
    }
    const IntervalMatrix want = SparseGramOperator::DenseGramEndpoints(mono);
    const IntervalMatrix got =
        ShardedSparseIntervalMatrix::DenseGramEndpoints(sharded);
    for (size_t i = 0; i < want.rows(); ++i) {
      for (size_t j = 0; j < want.cols(); ++j) {
        EXPECT_EQ(got.At(i, j).lo, want.At(i, j).lo);
        EXPECT_EQ(got.At(i, j).hi, want.At(i, j).hi);
      }
    }
  }
}

TEST(BlockMatrixMmapTest, MappedStoreMatchesMonolithic) {
  const SparseIntervalMatrix mono = SparseIntervalMatrix::FromTriplets(
      57, 22, MakeTriplets(57, 22, 0.2, true, 85));
  const ShardedSparseIntervalMatrix sharded =
      ShardedSparseIntervalMatrix::FromCsr(mono, 12, BackingPolicy::Mmap());
  EXPECT_TRUE(sharded.mmap_backed());
  EXPECT_FALSE(sharded.store_dir().empty());
  ExpectKernelsMatchMonolithic(mono, sharded, "mmap");
}

// kAuto compares the estimated store bytes against the budget: a tiny
// budget must spill to segment files, a huge one must stay on the heap.
TEST(BlockMatrixMmapTest, AutoPolicySpillsOnBudget) {
  const SparseIntervalMatrix mono = SparseIntervalMatrix::FromTriplets(
      48, 16, MakeTriplets(48, 16, 0.25, false, 86));
  const ShardedSparseIntervalMatrix spilled =
      ShardedSparseIntervalMatrix::FromCsr(mono, 12, BackingPolicy::Auto(64));
  EXPECT_TRUE(spilled.mmap_backed());
  const ShardedSparseIntervalMatrix resident =
      ShardedSparseIntervalMatrix::FromCsr(mono, 12,
                                           BackingPolicy::Auto(1u << 30));
  EXPECT_FALSE(resident.mmap_backed());
  ExpectKernelsMatchMonolithic(mono, spilled, "auto-mmap");
  ExpectKernelsMatchMonolithic(mono, resident, "auto-memory");
}

// Crash-consistency smoke: persist a store to an explicit directory, let
// the writing matrix die, reopen the segment files from a clean object,
// and re-verify the kernels — what a restart after a crash does.
TEST(BlockMatrixMmapTest, OpenStoreReopensPersistedSegments) {
  const SparseIntervalMatrix mono = SparseIntervalMatrix::FromTriplets(
      44, 15, MakeTriplets(44, 15, 0.25, true, 87));

  char dir_template[] = "/tmp/ivmf_block_store_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  size_t num_shards = 0;
  {
    const ShardedSparseIntervalMatrix writer =
        ShardedSparseIntervalMatrix::FromCsr(mono, 10,
                                             BackingPolicy::Mmap(dir));
    ASSERT_TRUE(writer.mmap_backed());
    ASSERT_EQ(writer.store_dir(), dir);
    num_shards = writer.num_shards();
  }  // explicit directories persist past the matrix

  ShardedSparseIntervalMatrix reopened;
  std::string error;
  ASSERT_TRUE(ShardedSparseIntervalMatrix::OpenStore(dir, &reopened, &error))
      << error;
  EXPECT_EQ(reopened.num_shards(), num_shards);
  EXPECT_TRUE(reopened.mmap_backed());
  ExpectKernelsMatchMonolithic(mono, reopened, "OpenStore");

  // An empty directory is not a store.
  char empty_template[] = "/tmp/ivmf_block_empty_XXXXXX";
  ASSERT_NE(::mkdtemp(empty_template), nullptr);
  ShardedSparseIntervalMatrix none;
  EXPECT_FALSE(
      ShardedSparseIntervalMatrix::OpenStore(empty_template, &none, &error));
  EXPECT_FALSE(error.empty());
  ::rmdir(empty_template);

  for (size_t s = 0; s < num_shards; ++s) {
    std::remove((dir + "/shard_" + std::to_string(s) + ".ivsh").c_str());
  }
  ::rmdir(dir.c_str());
}

// -- Map-time validation of crafted .ivsh files ------------------------------
//
// Each file below is a shard_0.ivsh that OpenStore must refuse with an
// error and one count in sparse.shard.rejected{reason}, without reading
// outside the mapping.

struct RawShard {
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t nnz = 0;
  std::vector<uint64_t> row_ptr;
  std::vector<uint32_t> col;
  std::vector<double> lo;
  std::vector<double> hi;
};

// Writes the header and arrays exactly as given, in the segment layout
// (the column block padded to 8 bytes), whatever the header claims.
void WriteRawShard(const std::string& path, const RawShard& s) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // Empty arrays have no data pointer to hand to fwrite.
  const auto write = [f](const auto& array) {
    if (!array.empty()) {
      std::fwrite(array.data(), sizeof(array[0]), array.size(), f);
    }
  };
  const std::vector<char> magic = {'I', 'V', 'S', 'H', 'A', 'R', 'D', '1'};
  write(magic);
  write(std::vector<uint64_t>{s.rows, s.cols, s.nnz, 0});
  write(s.row_ptr);
  write(s.col);
  if (s.col.size() % 2 == 1) write(std::vector<uint32_t>{0});
  write(s.lo);
  write(s.hi);
  std::fclose(f);
}

uint64_t Rejected(const char* reason) {
  return obs::MetricsRegistry::Global()
      .GetCounter("sparse.shard.rejected", {{"reason", reason}})
      .value();
}

// Writes `s` as the only shard of a fresh directory and opens the store.
// Returns whether OpenStore accepted it; *error holds its message.
bool OpenRawStore(const RawShard& s, std::string* error) {
  char dir_template[] = "/tmp/ivmf_block_raw_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) return false;
  const std::string dir = dir_template;
  const std::string path = dir + "/shard_0.ivsh";
  WriteRawShard(path, s);
  ShardedSparseIntervalMatrix m;
  const bool ok = ShardedSparseIntervalMatrix::OpenStore(dir, &m, error);
  m = ShardedSparseIntervalMatrix();  // unmap before removing the file
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
  return ok;
}

// A valid 2 x 4 shard: row 0 holds columns 1 and 3, row 1 column 0.
RawShard ValidRawShard() {
  RawShard s;
  s.rows = 2;
  s.cols = 4;
  s.nnz = 3;
  s.row_ptr = {0, 2, 3};
  s.col = {1, 3, 0};
  s.lo = {1.0, 2.0, 3.0};
  s.hi = {1.5, 2.5, 3.5};
  return s;
}

void ExpectRejected(const RawShard& s, const char* reason) {
  const uint64_t before = Rejected(reason);
  std::string error;
  EXPECT_FALSE(OpenRawStore(s, &error)) << reason;
  EXPECT_FALSE(error.empty()) << reason;
  EXPECT_EQ(Rejected(reason) - before, 1u) << reason << ": " << error;
}

TEST(ShardFileValidationTest, ValidAndImproperShardsOpen) {
  std::string error;
  EXPECT_TRUE(OpenRawStore(ValidRawShard(), &error)) << error;
  // lo > hi is an improper interval, not corruption: Builder::Append accepts
  // it, so a store must reopen it.
  RawShard improper = ValidRawShard();
  std::swap(improper.lo, improper.hi);
  EXPECT_TRUE(OpenRawStore(improper, &error)) << error;
}

TEST(ShardFileValidationTest, ShapeThatWrapsTheLengthCheckIsRejected) {
  // 56 bytes: rows = 1, cols = 2^32 - 1, nnz = 2^62. The expected file
  // length 40 + 16 + 4·2^62 + 16·2^62 wraps to 56 in 64 bits.
  RawShard s;
  s.rows = 1;
  s.cols = 0xffffffffu;
  s.nnz = uint64_t{1} << 62;
  s.row_ptr = {0, uint64_t{1} << 62};
  ExpectRejected(s, "shape");
}

TEST(ShardFileValidationTest, ColumnCountPastThePackedRangeIsRejected) {
  RawShard s = ValidRawShard();
  s.cols = uint64_t{1} << 32;
  ExpectRejected(s, "shape");
}

TEST(ShardFileValidationTest, BadMagicAndLengthAreRejected) {
  RawShard truncated = ValidRawShard();
  truncated.hi.pop_back();  // the file ends 8 bytes early
  ExpectRejected(truncated, "length");

  char dir_template[] = "/tmp/ivmf_block_raw_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string path = std::string(dir_template) + "/shard_0.ivsh";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "not a shard segment";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  const uint64_t before = Rejected("magic");
  ShardedSparseIntervalMatrix m;
  std::string error;
  EXPECT_FALSE(ShardedSparseIntervalMatrix::OpenStore(dir_template, &m,
                                                      &error));
  EXPECT_EQ(Rejected("magic") - before, 1u) << error;
  std::remove(path.c_str());
  ::rmdir(dir_template);
}

TEST(ShardFileValidationTest, BadRowOffsetsAreRejected) {
  RawShard non_monotone = ValidRawShard();
  non_monotone.row_ptr = {0, 4, 3};  // row 0 runs past nnz
  ExpectRejected(non_monotone, "row_offsets");
  RawShard short_span = ValidRawShard();
  short_span.row_ptr = {0, 1, 2};  // entry 2 belongs to no row
  ExpectRejected(short_span, "row_offsets");
}

TEST(ShardFileValidationTest, ColumnDefectsAreRejected) {
  RawShard out_of_shape = ValidRawShard();
  out_of_shape.col[1] = 4;
  ExpectRejected(out_of_shape, "column_out_of_shape");
  RawShard descending = ValidRawShard();
  descending.col = {3, 1, 0};
  ExpectRejected(descending, "column_order");
  RawShard duplicate = ValidRawShard();
  duplicate.col = {1, 1, 0};
  ExpectRejected(duplicate, "column_order");
}

TEST(ShardFileValidationTest, NonFiniteValuesAreRejected) {
  RawShard nan_lo = ValidRawShard();
  nan_lo.lo[1] = std::nan("");
  ExpectRejected(nan_lo, "non_finite");
  RawShard inf_hi = ValidRawShard();
  inf_hi.hi[2] = std::numeric_limits<double>::infinity();
  ExpectRejected(inf_hi, "non_finite");
}

TEST(BlockMatrixEdgeTest, DefaultConstructedIsEmpty) {
  const ShardedSparseIntervalMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.num_shards(), 0u);
}

}  // namespace
}  // namespace ivmf
