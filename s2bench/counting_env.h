// An io::Env that forwards to another (the POSIX one) and counts what the
// server writes through it: bytes, syncs, files created and renames.
#ifndef S2BENCH_COUNTING_ENV_H_
#define S2BENCH_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"

namespace s2bench {

struct IoCounts {
  uint64_t bytes_written = 0;
  uint64_t syncs = 0;
  uint64_t files_created = 0;
  uint64_t renames = 0;
};

class CountingEnv : public s2::io::Env {
 public:
  explicit CountingEnv(s2::io::Env* base) : base_(base) {}

  IoCounts counts() const {
    return {bytes_.load(), syncs_.load(), created_.load(), renames_.load()};
  }

  s2::Result<std::unique_ptr<s2::io::File>> Open(const std::string& path,
                                                 s2::io::OpenMode mode) override {
    const bool creates = mode != s2::io::OpenMode::kRead && !base_->FileExists(path);
    auto file = base_->Open(path, mode);
    if (!file.ok()) return file.status();
    if (creates) ++created_;
    return std::unique_ptr<s2::io::File>(
        new CountingFile(std::move(file).value(), this));
  }
  s2::Status Rename(const std::string& from, const std::string& to) override {
    ++renames_;
    return base_->Rename(from, to);
  }
  s2::Status Remove(const std::string& path) override { return base_->Remove(path); }
  s2::Status SyncDir(const std::string& path) override {
    ++syncs_;
    return base_->SyncDir(path);
  }
  bool FileExists(const std::string& path) override { return base_->FileExists(path); }
  s2::Result<std::vector<std::string>> ListPrefix(const std::string& prefix) override {
    return base_->ListPrefix(prefix);
  }

 private:
  class CountingFile : public s2::io::File {
   public:
    CountingFile(std::unique_ptr<s2::io::File> f, CountingEnv* env)
        : f_(std::move(f)), env_(env) {}
    s2::Result<size_t> Read(void* buf, size_t n) override { return f_->Read(buf, n); }
    s2::Result<size_t> Write(const void* buf, size_t n) override {
      return Count(f_->Write(buf, n));
    }
    s2::Result<size_t> ReadAt(void* buf, size_t n, uint64_t off) override {
      return f_->ReadAt(buf, n, off);
    }
    s2::Result<size_t> WriteAt(const void* buf, size_t n, uint64_t off) override {
      return Count(f_->WriteAt(buf, n, off));
    }
    s2::Status Seek(uint64_t off) override { return f_->Seek(off); }
    s2::Result<uint64_t> Size() override { return f_->Size(); }
    s2::Status Sync() override {
      ++env_->syncs_;
      return f_->Sync();
    }

   private:
    s2::Result<size_t> Count(s2::Result<size_t> written) {
      if (written.ok()) env_->bytes_ += written.value();
      return written;
    }
    std::unique_ptr<s2::io::File> f_;
    CountingEnv* env_;
  };

  s2::io::Env* base_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> created_{0};
  std::atomic<uint64_t> renames_{0};
};

}  // namespace s2bench

#endif  // S2BENCH_COUNTING_ENV_H_
