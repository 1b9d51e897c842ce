// On-disk segment files for block-row shards, and their mmap'd views.
//
// One file per shard ("shard_<k>.ivsh") holds an independent CSR segment:
// a fixed header, the shard-local (base-0) row offsets, the packed 32-bit
// column indices, and the two endpoint value arrays. The layout is exactly
// what the packed-index kernels consume — after mmap, row_ptr/col/lo/hi
// point straight into the mapping and a shard matvec runs zero-copy off
// the page cache. That is the entire out-of-core story: the kernels never
// learn whether their arrays came from a vector or a file, and the OS
// (helped by madvise) decides which shard's pages are resident.
//
// Alignment: every array in the file starts on an 8-byte boundary (the
// column block is padded), so the mapped pointers satisfy the natural
// alignment of u64/f64 loads. The file is validated on open — magic,
// sizes, file length, offsets, column order, finite values — so a
// truncated, foreign or crafted file fails cleanly instead of faulting
// mid-decompose. The format carries no checksum.
//
// Residency accounting: file-backed pages count toward RSS while resident.
// MappedSegment::DropResidency (madvise MADV_DONTNEED) returns a shard's
// pages to the kernel after a streaming pass — the page cache may retain
// them, so a re-fault is cheap, but the process' RSS stays near the
// working-set budget instead of growing to the whole store. The global
// mapped-bytes gauge (sparse.shard.mapped.bytes, mirrored by
// MappedBytesTotal) is what the bench JSON reports next to peak RSS.

#ifndef IVMF_SPARSE_SHARD_STORE_H_
#define IVMF_SPARSE_SHARD_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ivmf {

// How a ShardedSparseIntervalMatrix backs its shard segments.
struct BackingPolicy {
  enum class Kind {
    kMemory,  // heap-owned segment buffers (the in-core default)
    kMmap,    // segment files under store_dir, mmap'd read-only
    kAuto,    // kMemory unless the estimated store exceeds budget_bytes
  };

  Kind kind = Kind::kMemory;
  // kAuto: switch to mmap when the estimated segment bytes exceed this.
  // kMmap: when > 0, drop shard residency after streaming passes so peak
  // RSS tracks the budget rather than the store size.
  size_t budget_bytes = 0;
  // Directory for segment files (kMmap/kAuto). Empty = a fresh mkdtemp
  // directory owned (and removed) by the matrix; non-empty directories
  // persist, which is what OpenStore and the crash-consistency smoke use.
  std::string store_dir;

  static BackingPolicy Memory() { return {}; }
  static BackingPolicy Mmap(std::string dir = {}) {
    BackingPolicy p;
    p.kind = Kind::kMmap;
    p.store_dir = std::move(dir);
    return p;
  }
  static BackingPolicy Auto(size_t budget_bytes, std::string dir = {}) {
    BackingPolicy p;
    p.kind = Kind::kAuto;
    p.budget_bytes = budget_bytes;
    p.store_dir = std::move(dir);
    return p;
  }
};

// A read-only mmap of one shard segment file. Movable; unmaps on
// destruction. All pointers reference the mapping and die with it.
class MappedSegment {
 public:
  MappedSegment() = default;
  ~MappedSegment();
  MappedSegment(MappedSegment&& other) noexcept;
  MappedSegment& operator=(MappedSegment&& other) noexcept;
  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  bool valid() const { return base_ != nullptr; }
  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return nnz_; }
  size_t bytes() const { return bytes_; }

  // Shard-local (base-0) offsets, rows() + 1 entries. Stored as u64 and
  // exposed as size_t (static_asserted 64-bit) for the kernel views.
  const size_t* row_ptr() const { return row_ptr_; }
  const uint32_t* col() const { return col_; }
  const double* lo() const { return lo_; }
  const double* hi() const { return hi_; }

  // Hints the kernel that the mapping will be read front to back (streaming
  // matvec passes); readahead then keeps the faulting thread fed.
  void AdviseSequential() const;
  // Returns the mapping's resident pages to the kernel (MADV_DONTNEED on a
  // file-backed read-only mapping drops them without I/O; re-access
  // re-faults from the page cache or disk).
  void DropResidency() const;

 private:
  friend bool MapShardFile(const std::string& path, MappedSegment* out,
                           std::string* error);

  void Release();

  void* base_ = nullptr;
  size_t bytes_ = 0;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t nnz_ = 0;
  const size_t* row_ptr_ = nullptr;
  const uint32_t* col_ = nullptr;
  const double* lo_ = nullptr;
  const double* hi_ = nullptr;
};

// "shard_<index>.ivsh".
std::string ShardFileName(size_t index);

// Exact on-disk size of a segment with the given shape (header + aligned
// arrays) — what BackingPolicy::kAuto sums to compare against its budget.
size_t ShardFileBytes(size_t rows, size_t nnz);

// Writes one segment file atomically (temp file + rename). `row_ptr` is
// shard-local base-0 with rows + 1 entries; nnz = row_ptr[rows]. Returns
// false and sets *error on I/O failure.
bool WriteShardFile(const std::string& path, size_t rows, size_t cols,
                    const size_t* row_ptr, const uint32_t* col,
                    const double* lo, const double* hi, std::string* error);

// Maps a segment file read-only and validates it before any kernel reads
// it: the magic; the header shape against the file length (bounded before
// any size arithmetic, so no crafted shape can wrap it) and the 32-bit
// column range; then, in one pass over the rows, offsets inside the entry
// arrays, in-shape columns strictly ascending within each row, and finite
// endpoint values. lo > hi is accepted (Builder::Append takes improper
// intervals). Returns false and sets *error on open/validate failure; *out
// is untouched on failure. Each validation rejection counts in
// sparse.shard.rejected{reason}: length, magic, shape, row_offsets,
// column_out_of_shape, column_order or non_finite.
bool MapShardFile(const std::string& path, MappedSegment* out,
                  std::string* error);

// Creates a fresh private directory for a temporary shard store (mkdtemp
// under TMPDIR or /tmp). Empty string on failure.
std::string CreateTempStoreDir(std::string* error);

// Removes a store directory and the shard files inside it (temp-store
// cleanup). Non-shard files are left alone and keep the directory alive.
void RemoveStoreDir(const std::string& dir);

// Total bytes currently mmap'd across all live MappedSegments — the
// "bytes_mapped" half of the bench memory record.
size_t MappedBytesTotal();

}  // namespace ivmf

#endif  // IVMF_SPARSE_SHARD_STORE_H_
