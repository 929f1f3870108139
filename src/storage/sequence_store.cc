#include "storage/sequence_store.h"

#include <cstring>

#include "diag/validate.h"
#include "io/durable.h"
#include "simd/simd.h"

namespace s2::storage {

namespace {
constexpr char kMagic[8] = {'S', '2', 'S', 'E', 'Q', '0', '0', '1'};
constexpr size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(uint64_t);
}  // namespace

Status SequenceSource::GetBatch(ts::SeriesId first, size_t count,
                                std::vector<double>* flat) {
  const size_t len = series_length();
  flat->resize(count * len);
  for (size_t r = 0; r < count; ++r) {
    S2_ASSIGN_OR_RETURN(std::vector<double> row,
                        Get(first + static_cast<ts::SeriesId>(r)));
    std::memcpy(flat->data() + r * len, row.data(), len * sizeof(double));
  }
  return Status::OK();
}

Result<std::unique_ptr<InMemorySequenceSource>> InMemorySequenceSource::Create(
    std::vector<std::vector<double>> rows) {
  size_t length = rows.empty() ? 0 : rows.front().size();
  for (const auto& row : rows) {
    if (row.size() != length) {
      return Status::InvalidArgument(
          "InMemorySequenceSource: all rows must have equal length");
    }
  }
  return std::unique_ptr<InMemorySequenceSource>(
      new InMemorySequenceSource(std::move(rows), length));
}

Result<std::vector<double>> InMemorySequenceSource::Get(ts::SeriesId id) {
  if (id >= rows_.size()) {
    return Status::NotFound("InMemorySequenceSource: id out of range");
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  return rows_[id];
}

Status InMemorySequenceSource::GetBatch(ts::SeriesId first, size_t count,
                                        std::vector<double>* flat) {
  if (count > rows_.size() || first > rows_.size() - count) {
    return Status::NotFound("InMemorySequenceSource: batch out of range");
  }
  flat->resize(count * length_);
  for (size_t r = 0; r < count; ++r) {
    if (r + 1 < count) simd::PrefetchRead(rows_[first + r + 1].data());
    std::memcpy(flat->data() + r * length_, rows_[first + r].data(),
                length_ * sizeof(double));
  }
  reads_.fetch_add(count, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::unique_ptr<DiskSequenceStore>> DiskSequenceStore::Create(
    const std::string& path, const std::vector<std::vector<double>>& rows,
    io::Env* env) {
  if (env == nullptr) env = io::Env::Default();
  const size_t length = rows.empty() ? 0 : rows.front().size();
  for (const auto& row : rows) {
    if (row.size() != length) {
      return Status::InvalidArgument(
          "DiskSequenceStore: all rows must have equal length");
    }
  }
  // Serialize the whole image, then commit it as one generation: the bytes
  // only become visible at `path` after they are complete, checksummed and
  // fsynced (write-temp -> fsync -> atomic rename).
  const uint64_t count = rows.size();
  const uint64_t len = length;
  std::vector<char> payload(kHeaderBytes + count * len * sizeof(double));
  char* out = payload.data();
  std::memcpy(out, kMagic, sizeof(kMagic));
  out += sizeof(kMagic);
  std::memcpy(out, &count, sizeof(count));
  out += sizeof(count);
  std::memcpy(out, &len, sizeof(len));
  out += sizeof(len);
  for (const auto& row : rows) {
    if (row.empty()) continue;
    std::memcpy(out, row.data(), row.size() * sizeof(double));
    out += row.size() * sizeof(double);
  }
  S2_RETURN_NOT_OK(io::durable::CommitNext(env, path, payload));
  return Open(path, env);
}

Result<std::unique_ptr<DiskSequenceStore>> DiskSequenceStore::Open(
    const std::string& path, io::Env* env) {
  if (env == nullptr) env = io::Env::Default();
  S2_ASSIGN_OR_RETURN(io::durable::OpenInfo info,
                      io::durable::OpenLatest(env, path));
  if (info.payload_size < kHeaderBytes) {
    return Status::Corruption("DiskSequenceStore: truncated header in " + path);
  }
  char header[kHeaderBytes];
  S2_RETURN_NOT_OK(io::ReadExactAt(info.file.get(), header, kHeaderBytes,
                                   info.payload_offset));
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("DiskSequenceStore: bad magic in " + path);
  }
  uint64_t count = 0;
  uint64_t length = 0;
  std::memcpy(&count, header + sizeof(kMagic), sizeof(count));
  std::memcpy(&length, header + sizeof(kMagic) + sizeof(count), sizeof(length));
  // The declared geometry must match the bytes actually on disk: a corrupt
  // count or length would otherwise surface later as short reads (or worse,
  // a gigantic allocation per Get).
  if (count != 0 &&
      (length > (UINT64_MAX - kHeaderBytes) / sizeof(double) / count)) {
    return Status::Corruption(
        "DiskSequenceStore: count x length overflows in " + path);
  }
  const uint64_t expected = kHeaderBytes + count * length * sizeof(double);
  if (info.payload_size != expected) {
    return Status::Corruption(
        "DiskSequenceStore: file size " + std::to_string(info.payload_size) +
        " != expected " + std::to_string(expected) + " in " + path);
  }
  return std::unique_ptr<DiskSequenceStore>(new DiskSequenceStore(
      path, std::move(info.resolved_path), env, std::move(info.file),
      info.payload_offset, info.generation, static_cast<size_t>(count),
      static_cast<size_t>(length)));
}

Status DiskSequenceStore::UpdateRecord(ts::SeriesId id,
                                       const std::vector<double>& row) {
  if (id >= count_) {
    return Status::NotFound("DiskSequenceStore: id out of range");
  }
  if (row.size() != length_) {
    return Status::InvalidArgument("DiskSequenceStore: row length mismatch");
  }
  if (write_file_ == nullptr) {
    // Open lazily reopens the *resolved* physical file read-write: read-only
    // deployments never pay for (or require) write access, and the reopen
    // targets the exact generation file the read handle serves from.
    S2_ASSIGN_OR_RETURN(write_file_,
                        env_->Open(resolved_path_, io::OpenMode::kReadWrite));
  }
  const uint64_t offset =
      payload_offset_ + kHeaderBytes +
      static_cast<uint64_t>(id) * length_ * sizeof(double);
  S2_RETURN_NOT_OK(io::WriteExactAt(write_file_.get(), row.data(),
                                    row.size() * sizeof(double), offset));
  return write_file_->Sync();
}

Status DiskSequenceStore::Validate() const {
  diag::Validator v("DiskSequenceStore");
  char header[kHeaderBytes] = {};
  Status read = io::ReadExactAt(file_.get(), header, kHeaderBytes,
                                payload_offset_);
  if (!read.ok()) {
    v.AddViolation("cannot re-read the on-disk header: " + read.message());
  } else {
    uint64_t count = 0;
    uint64_t length = 0;
    std::memcpy(&count, header + sizeof(kMagic), sizeof(count));
    std::memcpy(&length, header + sizeof(kMagic) + sizeof(count),
                sizeof(length));
    v.Check(std::memcmp(header, kMagic, sizeof(kMagic)) == 0)
        << "bad magic in the on-disk header";
    v.Check(count == count_) << "on-disk count " << count
                             << " != in-memory count " << count_;
    v.Check(length == length_)
        << "on-disk length " << length << " != in-memory length " << length_;
  }
  Result<uint64_t> size = file_->Size();
  if (!size.ok()) {
    v.AddViolation("cannot stat the backing file: " + size.status().message());
  } else {
    const uint64_t expected =
        payload_offset_ + kHeaderBytes +
        static_cast<uint64_t>(count_) * length_ * sizeof(double);
    v.Check(*size == expected)
        << "file size " << *size << " != " << expected << " (" << count_
        << " records of " << length_ << " doubles)";
  }
  return v.ToStatus();
}

Result<std::vector<double>> DiskSequenceStore::Get(ts::SeriesId id) {
  if (id >= count_) return Status::NotFound("DiskSequenceStore: id out of range");
  const uint64_t offset =
      payload_offset_ + kHeaderBytes +
      static_cast<uint64_t>(id) * length_ * sizeof(double);
  std::vector<double> row(length_);
  const size_t want = length_ * sizeof(double);
  // Positioned read: concurrent Gets never interleave seek/read pairs.
  // ReadExactAt loops over short reads (an EINTR-interrupted transfer is
  // not corruption) and keeps transient fault codes intact so callers can
  // retry; only EOF inside a record is reported as Corruption.
  Status s = io::ReadExactAt(file_.get(), row.data(), want, offset);
  if (!s.ok()) {
    return Status(s.code(), "DiskSequenceStore: record " + std::to_string(id) +
                                ": " + s.message());
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(want, std::memory_order_relaxed);
  return row;
}

Status DiskSequenceStore::GetBatch(ts::SeriesId first, size_t count,
                                   std::vector<double>* flat) {
  if (count > count_ || first > count_ - count) {
    return Status::NotFound("DiskSequenceStore: batch out of range");
  }
  // Records are contiguous on disk, so a batch is one spanning positioned
  // read — the sequential-scan I/O pattern the paper's "Linear Scan" bar
  // measures — instead of `count` seeks. Accounting stays per record.
  const uint64_t offset =
      payload_offset_ + kHeaderBytes +
      static_cast<uint64_t>(first) * length_ * sizeof(double);
  flat->resize(count * length_);
  const size_t want = count * length_ * sizeof(double);
  Status s = io::ReadExactAt(file_.get(), flat->data(), want, offset);
  if (!s.ok()) {
    return Status(s.code(), "DiskSequenceStore: records [" +
                                std::to_string(first) + ", " +
                                std::to_string(first + count) + "): " +
                                s.message());
  }
  reads_.fetch_add(count, std::memory_order_relaxed);
  bytes_read_.fetch_add(want, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace s2::storage
