#ifndef S2_STORAGE_SEQUENCE_STORE_H_
#define S2_STORAGE_SEQUENCE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "io/env.h"
#include "timeseries/time_series.h"

namespace s2::storage {

/// Abstract provider of full (uncompressed) sequences by id.
///
/// Index search verifies candidates against the full representation; the
/// paper retrieves those "from the disk, in the order suggested by their
/// lower bounds". This interface lets the same search code run against an
/// on-disk store (Fig. 23 "Index on Disk" / "Linear Scan") or RAM-resident
/// data, while exposing read counters for I/O accounting.
///
/// Thread safety: `Get` may be called concurrently from multiple threads as
/// long as no thread is mutating the store (e.g. `UpdateRecord`); read
/// counters are atomic. `ResetCounters` is safe but racy against in-flight
/// reads (counts may be slightly off — acceptable for instrumentation).
class SequenceSource {
 public:
  virtual ~SequenceSource() = default;

  /// Fetches the sequence with the given id.
  virtual Result<std::vector<double>> Get(ts::SeriesId id) = 0;

  /// Fetches `count` consecutive sequences starting at `first` into a flat
  /// row-major buffer (`flat` is resized to `count * series_length()`; row
  /// r starts at `flat->data() + r * series_length()`). Serves batched
  /// leaf/scan evaluation over a contiguous layout. Counts as `count`
  /// record reads. The default loops over `Get` (so wrappers keep their
  /// semantics, e.g. retry); RAM and disk stores override with straight
  /// copies / one spanning positioned read.
  virtual Status GetBatch(ts::SeriesId first, size_t count,
                          std::vector<double>* flat);

  /// Number of sequences available.
  virtual size_t num_series() const = 0;

  /// Length (number of samples) of every sequence.
  virtual size_t series_length() const = 0;

  /// Number of `Get` calls since construction or the last reset.
  virtual uint64_t read_count() const = 0;
  virtual void ResetCounters() = 0;
};

/// RAM-resident sequence source.
class InMemorySequenceSource : public SequenceSource {
 public:
  /// All rows must share one length; returns InvalidArgument otherwise.
  static Result<std::unique_ptr<InMemorySequenceSource>> Create(
      std::vector<std::vector<double>> rows);

  Result<std::vector<double>> Get(ts::SeriesId id) override;
  Status GetBatch(ts::SeriesId first, size_t count,
                  std::vector<double>* flat) override;
  size_t num_series() const override { return rows_.size(); }
  size_t series_length() const override { return length_; }
  uint64_t read_count() const override {
    return reads_.load(std::memory_order_relaxed);
  }
  void ResetCounters() override { reads_.store(0, std::memory_order_relaxed); }

 private:
  InMemorySequenceSource(std::vector<std::vector<double>> rows, size_t length)
      : rows_(std::move(rows)), length_(length) {}
  std::vector<std::vector<double>> rows_;
  size_t length_;
  std::atomic<uint64_t> reads_ = 0;
};

/// A fixed-record binary file of sequences, fetched with positioned reads.
///
/// Record layout: 8-byte magic, u64 count, u64 length, then `count` records
/// of `length` doubles in native byte order. Random `Get` performs one
/// positioned read of a whole record, mirroring the random I/O of the
/// paper's verification phase; positioned reads carry their own offset, so
/// concurrent `Get` calls never race on a shared file position.
///
/// Persistence is crash-safe: `Create` commits the image through the
/// generation container (`io::durable` — write-temp, fsync, atomic rename,
/// checksummed header) and `Open` loads the newest valid generation,
/// falling back to the previous one after a torn write. Legacy headerless
/// files still open (treated as generation 0).
class DiskSequenceStore : public SequenceSource {
 public:
  /// Writes `rows` to `path` (crash-safely) and opens the resulting store.
  /// `env` defaults to the POSIX filesystem.
  static Result<std::unique_ptr<DiskSequenceStore>> Create(
      const std::string& path, const std::vector<std::vector<double>>& rows,
      io::Env* env = nullptr);

  /// Opens an existing store file (newest valid generation).
  static Result<std::unique_ptr<DiskSequenceStore>> Open(
      const std::string& path, io::Env* env = nullptr);

  ~DiskSequenceStore() override = default;

  DiskSequenceStore(const DiskSequenceStore&) = delete;
  DiskSequenceStore& operator=(const DiskSequenceStore&) = delete;

  Result<std::vector<double>> Get(ts::SeriesId id) override;
  Status GetBatch(ts::SeriesId first, size_t count,
                  std::vector<double>* flat) override;
  size_t num_series() const override { return count_; }
  size_t series_length() const override { return length_; }
  uint64_t read_count() const override {
    return reads_.load(std::memory_order_relaxed);
  }
  void ResetCounters() override {
    reads_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
  }

  /// Bytes fetched from disk since the last reset.
  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }

  const std::string& path() const { return path_; }

  /// The generation this store was loaded from (0 for legacy images).
  uint64_t generation() const { return generation_; }

  /// Overwrites record `id` in place with `row` (one positioned write at
  /// the record's offset, then fsync). Serves the streaming append path,
  /// which must update a row without rewriting the whole image.
  ///
  /// Deliberate trade-off: the in-place write goes *behind* the generation
  /// container's whole-payload checksum, so after the first update the
  /// checksum recorded at commit time is stale — a subsequent `Open` of this
  /// same generation would report a checksum mismatch. That is acceptable
  /// because streamed state is never recovered from this file: crash
  /// recovery rebuilds the store from the base image and replays the WAL,
  /// which recreates the file through a fresh `Create`. Not safe against
  /// concurrent `Get`s of the same id; callers hold the engine writer lock.
  Status UpdateRecord(ts::SeriesId id, const std::vector<double>& row);

  /// Structural self-check: re-reads the header from disk (magic, count,
  /// length must match the in-memory view) and verifies the file size equals
  /// header + count * length records. Reports the exact violations as
  /// `Status::Corruption`.
  Status Validate() const;

 private:
  DiskSequenceStore(std::string path, std::string resolved_path, io::Env* env,
                    std::unique_ptr<io::File> file, uint64_t payload_offset,
                    uint64_t generation, size_t count, size_t length)
      : path_(std::move(path)),
        resolved_path_(std::move(resolved_path)),
        env_(env),
        file_(std::move(file)),
        payload_offset_(payload_offset),
        generation_(generation),
        count_(count),
        length_(length) {}

  std::string path_;
  std::string resolved_path_;  // Physical file backing this generation.
  io::Env* env_;               // For the lazy read-write reopen below.
  std::unique_ptr<io::File> file_;
  std::unique_ptr<io::File> write_file_;  // Lazily opened by UpdateRecord.
  uint64_t payload_offset_;
  uint64_t generation_;
  size_t count_;
  size_t length_;
  std::atomic<uint64_t> reads_ = 0;
  std::atomic<uint64_t> bytes_read_ = 0;
};

}  // namespace s2::storage

#endif  // S2_STORAGE_SEQUENCE_STORE_H_
