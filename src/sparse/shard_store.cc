#include "sparse/shard_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "base/check.h"
#include "obs/metrics.h"

namespace ivmf {

// The mapped u64 offset array is reinterpreted as size_t for the kernel
// views; both must be 8 bytes for the file format to be host-compatible.
static_assert(sizeof(size_t) == 8, "shard store requires a 64-bit host");

namespace {

constexpr char kMagic[8] = {'I', 'V', 'S', 'H', 'A', 'R', 'D', '1'};

struct ShardHeader {
  char magic[8];
  uint64_t rows;
  uint64_t cols;
  uint64_t nnz;
  uint64_t reserved;
};
static_assert(sizeof(ShardHeader) == 40, "header layout is part of the format");

size_t AlignUp8(size_t n) { return (n + 7) & ~size_t{7}; }

struct StoreInstruments {
  obs::Counter& files_written;
  obs::Counter& bytes_written;
  obs::Counter& files_mapped;
  obs::Counter& residency_drops;
  obs::Gauge& mapped_bytes;

  static StoreInstruments& Get() {
    static StoreInstruments* instruments = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return new StoreInstruments{
          registry.GetCounter("sparse.shard.files.written"),
          registry.GetCounter("sparse.shard.bytes.written"),
          registry.GetCounter("sparse.shard.files.mapped"),
          registry.GetCounter("sparse.shard.residency.drops"),
          registry.GetGauge("sparse.shard.mapped.bytes"),
      };
    }();
    return *instruments;
  }
};

std::atomic<size_t> g_mapped_bytes{0};

void AddMappedBytes(size_t bytes) {
  const size_t now =
      g_mapped_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  StoreInstruments::Get().mapped_bytes.Set(static_cast<double>(now));
}

void SubMappedBytes(size_t bytes) {
  const size_t now =
      g_mapped_bytes.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
  StoreInstruments::Get().mapped_bytes.Set(static_cast<double>(now));
}

bool WriteAll(int fd, const void* data, size_t bytes, std::string* error) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("write failed: ") + std::strerror(errno);
      return false;
    }
    p += n;
    bytes -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

MappedSegment::~MappedSegment() { Release(); }

MappedSegment::MappedSegment(MappedSegment&& other) noexcept {
  *this = std::move(other);
}

MappedSegment& MappedSegment::operator=(MappedSegment&& other) noexcept {
  if (this == &other) return *this;
  Release();
  base_ = other.base_;
  bytes_ = other.bytes_;
  rows_ = other.rows_;
  cols_ = other.cols_;
  nnz_ = other.nnz_;
  row_ptr_ = other.row_ptr_;
  col_ = other.col_;
  lo_ = other.lo_;
  hi_ = other.hi_;
  other.base_ = nullptr;
  other.bytes_ = 0;
  other.row_ptr_ = nullptr;
  other.col_ = nullptr;
  other.lo_ = nullptr;
  other.hi_ = nullptr;
  return *this;
}

void MappedSegment::Release() {
  if (base_ == nullptr) return;
  ::munmap(base_, bytes_);
  SubMappedBytes(bytes_);
  base_ = nullptr;
  bytes_ = 0;
}

void MappedSegment::AdviseSequential() const {
  if (base_ != nullptr) ::madvise(base_, bytes_, MADV_SEQUENTIAL);
}

void MappedSegment::DropResidency() const {
  if (base_ == nullptr) return;
  ::madvise(base_, bytes_, MADV_DONTNEED);
  StoreInstruments::Get().residency_drops.Add();
}

std::string ShardFileName(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%zu.ivsh", index);
  return buf;
}

size_t ShardFileBytes(size_t rows, size_t nnz) {
  return sizeof(ShardHeader) + (rows + 1) * sizeof(uint64_t) +
         AlignUp8(nnz * sizeof(uint32_t)) + 2 * nnz * sizeof(double);
}

bool WriteShardFile(const std::string& path, size_t rows, size_t cols,
                    const size_t* row_ptr, const uint32_t* col,
                    const double* lo, const double* hi, std::string* error) {
  IVMF_CHECK(error != nullptr);
  const size_t nnz = row_ptr[rows];
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    *error = "open(" + tmp + ") failed: " + std::strerror(errno);
    return false;
  }

  ShardHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.rows = rows;
  header.cols = cols;
  header.nnz = nnz;

  const uint64_t pad = 0;
  const size_t col_bytes = nnz * sizeof(uint32_t);
  const size_t col_pad = AlignUp8(col_bytes) - col_bytes;
  bool ok = WriteAll(fd, &header, sizeof(header), error) &&
            WriteAll(fd, row_ptr, (rows + 1) * sizeof(uint64_t), error) &&
            WriteAll(fd, col, col_bytes, error) &&
            (col_pad == 0 || WriteAll(fd, &pad, col_pad, error)) &&
            WriteAll(fd, lo, nnz * sizeof(double), error) &&
            WriteAll(fd, hi, nnz * sizeof(double), error);
  if (ok && ::fsync(fd) != 0) {
    *error = "fsync failed: " + std::string(std::strerror(errno));
    ok = false;
  }
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "rename to " + path + " failed: " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  auto& instruments = StoreInstruments::Get();
  instruments.files_written.Add();
  instruments.bytes_written.Add(ShardFileBytes(rows, nnz));
  return true;
}

bool MapShardFile(const std::string& path, MappedSegment* out,
                  std::string* error) {
  IVMF_CHECK(out != nullptr && error != nullptr);
  const auto reject = [&](const char* reason, const std::string& why) {
    obs::MetricsRegistry::Global()
        .GetCounter("sparse.shard.rejected", {{"reason", reason}})
        .Add();
    *error = path + ": " + why;
    return false;
  };
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *error = "open(" + path + ") failed: " + std::strerror(errno);
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    *error = "fstat(" + path + ") failed: " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  if (file_bytes < sizeof(ShardHeader)) {
    ::close(fd);
    return reject("length", "file shorter than the shard header");
  }
  void* base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    *error = "mmap(" + path + ") failed: " + std::strerror(errno);
    return false;
  }

  const auto fail = [&](const char* reason, const std::string& why) {
    ::munmap(base, file_bytes);
    return reject(reason, why);
  };

  ShardHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return fail("magic", "bad magic (not a shard segment file)");
  }
  // Bound the header's shape by the file before any size arithmetic: a row
  // costs at least its 8-byte offset and an entry its 20 bytes (index and
  // two endpoints), so ShardFileBytes below cannot wrap. Packed indices
  // are 32-bit, so no column count past their range can be addressed.
  const size_t body = file_bytes - sizeof(ShardHeader);
  if (header.rows >= body / sizeof(uint64_t) ||
      header.nnz > body / (sizeof(uint32_t) + 2 * sizeof(double))) {
    return fail("shape", "header shape exceeds the file length");
  }
  if (header.cols > uint64_t{0xffffffff}) {
    return fail("shape", "column count exceeds the packed-index range");
  }
  const size_t rows = header.rows;
  const size_t cols = header.cols;
  const size_t nnz = header.nnz;
  if (file_bytes != ShardFileBytes(rows, nnz)) {
    return fail("length",
                "file length does not match the header shape (truncated?)");
  }

  const char* p = static_cast<const char*>(base) + sizeof(ShardHeader);
  const auto* row_ptr = reinterpret_cast<const uint64_t*>(p);
  p += (rows + 1) * sizeof(uint64_t);
  const auto* col = reinterpret_cast<const uint32_t*>(p);
  p += AlignUp8(nnz * sizeof(uint32_t));
  const auto* lo = reinterpret_cast<const double*>(p);
  p += nnz * sizeof(double);
  const auto* hi = reinterpret_cast<const double*>(p);

  // One pass over the rows checks everything the kernels and At() rely on:
  // offsets that stay inside the entry arrays, in-shape columns strictly
  // ascending within a row (At() binary-searches them), finite endpoints.
  // lo > hi stays accepted: Builder::Append and FromCsr take improper
  // intervals, and a store must round-trip what they wrote.
  if (row_ptr[0] != 0 || row_ptr[rows] != nnz) {
    return fail("row_offsets", "row offsets do not span the entry arrays");
  }
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t begin = row_ptr[i];
    const uint64_t end = row_ptr[i + 1];
    if (begin > end || end > nnz) {
      return fail("row_offsets", "row offsets not monotone within the entries");
    }
    for (uint64_t k = begin; k < end; ++k) {
      if (col[k] >= cols) {
        return fail("column_out_of_shape", "column index outside the shape");
      }
      if (k > begin && col[k - 1] >= col[k]) {
        return fail("column_order",
                    "columns not strictly ascending within a row");
      }
      if (!std::isfinite(lo[k]) || !std::isfinite(hi[k])) {
        return fail("non_finite", "non-finite endpoint value");
      }
    }
  }

  out->Release();
  out->base_ = base;
  out->bytes_ = file_bytes;
  out->rows_ = rows;
  out->cols_ = cols;
  out->nnz_ = nnz;
  out->row_ptr_ = reinterpret_cast<const size_t*>(row_ptr);
  out->col_ = col;
  out->lo_ = lo;
  out->hi_ = hi;
  AddMappedBytes(file_bytes);
  StoreInstruments::Get().files_mapped.Add();
  return true;
}

std::string CreateTempStoreDir(std::string* error) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string pattern =
      std::string(tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp") +
      "/ivmf_shards_XXXXXX";
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    if (error != nullptr) {
      *error = "mkdtemp(" + pattern + ") failed: " + std::strerror(errno);
    }
    return {};
  }
  return buf.data();
}

void RemoveStoreDir(const std::string& dir) {
  if (dir.empty()) return;
  // Shard files are dense-numbered from 0; stop at the first gap and let
  // rmdir fail harmlessly if anything else lives in the directory.
  for (size_t k = 0;; ++k) {
    const std::string path = dir + "/" + ShardFileName(k);
    if (::unlink(path.c_str()) != 0) break;
  }
  ::rmdir(dir.c_str());
}

size_t MappedBytesTotal() {
  return g_mapped_bytes.load(std::memory_order_relaxed);
}

}  // namespace ivmf
