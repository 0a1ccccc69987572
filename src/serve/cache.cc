#include "serve/cache.h"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgpip::serve {

namespace {

constexpr char kEntryMagic[] = "KGCACHE1";

/// Incremental FNV-1a, bit-compatible with util::Fnv1a64 over the same
/// byte sequence.
struct Fnv1a {
  uint64_t h = 0xCBF29CE484222325ULL;
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ULL;
    }
  }
  void Str(const std::string& s) {
    Bytes(s.data(), s.size());
    Byte(0);  // terminator so "ab","c" != "a","bc"
  }
  void Byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
};

}  // namespace

uint64_t TableDigest(const Table& table) {
  Fnv1a fnv;
  fnv.U64(table.num_rows());
  fnv.U64(table.num_columns());
  fnv.Str(table.target_name());
  for (const Column& col : table.columns()) {
    fnv.Str(col.name());
    fnv.Byte(static_cast<unsigned char>(col.type()));
    const size_t rows = col.size();
    for (size_t r = 0; r < rows; ++r) {
      const bool missing = col.IsMissing(r);
      fnv.Byte(missing ? 1 : 0);
      if (missing) continue;
      if (col.type() == ColumnType::kNumeric) {
        fnv.F64(col.NumericAt(r));
      } else {
        fnv.Str(col.StringAt(r));
      }
    }
  }
  return fnv.h;
}

ArtifactCache::ArtifactCache(Options options)
    : options_(std::move(options)) {}

std::string ArtifactCache::PathForKey(const std::string& key) const {
  if (options_.dir.empty()) return "";
  // Sanitized key keeps entries human-inspectable; the appended FNV of
  // the raw key guarantees distinct keys never share a file.
  std::string safe;
  safe.reserve(key.size());
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    safe.push_back(ok ? c : '_');
  }
  if (safe.size() > 80) safe.resize(80);
  return options_.dir + "/" + safe + "-" +
         StrFormat("%016llx", static_cast<unsigned long long>(Fnv1a64(key))) +
         ".kgc";
}

Result<Json> ArtifactCache::LoadEntryFile(const std::string& path) {
  KGPIP_ASSIGN_OR_RETURN(
      util::ChecksummedPayload entry,
      util::ReadChecksummedFile(path, kEntryMagic, "cache entry"));
  auto json = Json::Parse(entry.payload);
  if (!json.ok()) {
    return Status::ParseError(StrFormat(
        "cache entry '%s': payload (at byte offset %llu) is not valid "
        "JSON: %s",
        path.c_str(), static_cast<unsigned long long>(entry.offset),
        json.status().message().c_str()));
  }
  return std::move(*json);
}

Status ArtifactCache::WriteEntryFile(const std::string& path,
                                     const std::string& payload) {
  return util::WriteChecksummedFile(path, kEntryMagic, payload);
}

void ArtifactCache::PutMemoryLocked(const std::string& key, Json value) {
  auto it = memory_.find(key);
  if (it != memory_.end()) {
    lru_.erase(it->second);
    memory_.erase(it);
  }
  lru_.emplace_front(key, std::move(value));
  memory_[key] = lru_.begin();
  while (memory_.size() > options_.max_memory_entries && !lru_.empty()) {
    memory_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

Result<Json> ArtifactCache::Get(const std::string& key) {
  KGPIP_TRACE_SPAN("serve.cache_lookup");
  static obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("serve.cache.entry_hits");
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("serve.cache.entry_misses");
  static obs::Counter* corrupt = obs::MetricsRegistry::Global().GetCounter(
      "serve.cache.corrupt_evictions");
  {
    util::MutexLock lock(mu_);
    auto it = memory_.find(key);
    if (it != memory_.end()) {
      // Touch: move to the LRU front.
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      hits->Increment();
      return Json(it->second->second);
    }
  }
  const std::string path = PathForKey(key);
  if (!path.empty()) {
    Result<Json> loaded = LoadEntryFile(path);
    if (loaded.ok()) {
      util::MutexLock lock(mu_);
      PutMemoryLocked(key, Json(*loaded));
      ++stats_.hits;
      hits->Increment();
      return loaded;
    }
    if (loaded.status().code() == StatusCode::kParseError) {
      // Corrupt on disk: evict so the rebuild below re-Puts a good
      // entry; a damaged entry is never served.
      KGPIP_LOG(Warning) << "evicting corrupt cache entry: "
                         << loaded.status().ToString();
      std::remove(path.c_str());
      util::MutexLock lock(mu_);
      ++stats_.corrupt_evictions;
      corrupt->Increment();
    }
  }
  {
    util::MutexLock lock(mu_);
    ++stats_.misses;
  }
  misses->Increment();
  return Status::NotFound("no cache entry for key '" + key + "'");
}

Status ArtifactCache::Put(const std::string& key, const Json& value) {
  static obs::Counter* writes =
      obs::MetricsRegistry::Global().GetCounter("serve.cache.writes");
  {
    util::MutexLock lock(mu_);
    PutMemoryLocked(key, Json(value));
    ++stats_.writes;
  }
  writes->Increment();
  const std::string path = PathForKey(key);
  if (path.empty()) return Status::Ok();
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  Status written = WriteEntryFile(path, value.Dump());
  if (!written.ok()) {
    // Disk tier is best-effort: a failed write degrades to memory-only.
    KGPIP_LOG(Warning) << "cache disk write failed: " << written.ToString();
  }
  return written;
}

void ArtifactCache::Evict(const std::string& key) {
  {
    util::MutexLock lock(mu_);
    auto it = memory_.find(key);
    if (it != memory_.end()) {
      lru_.erase(it->second);
      memory_.erase(it);
    }
  }
  const std::string path = PathForKey(key);
  if (!path.empty()) std::remove(path.c_str());
}

}  // namespace kgpip::serve
