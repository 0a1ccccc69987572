#ifndef KGPIP_SERVE_CACHE_H_
#define KGPIP_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <utility>

#include "data/table.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"

namespace kgpip::serve {

/// FNV-1a content digest of a table: column names, declared types,
/// missing masks, and cell values (numeric cells hash their raw IEEE-754
/// bits, so two tables digest equal iff their contents are bit-equal).
/// This is the daemon's cache key: a repeated fit over the same dataset
/// digests identically and is answered from the result cache.
uint64_t TableDigest(const Table& table);

/// Crash-safe content-addressed cache for serving artifacts: completed
/// fit results, keyed by dataset digest, task and trial budget. Two
/// tiers:
///
///   * an in-memory LRU map (bounded by `max_memory_entries`) absorbing
///     the steady-state hit path without touching disk;
///   * an on-disk entry-per-file store under `dir` surviving restarts.
///
/// Disk entries are util::WriteChecksummedFile envelopes with the magic
/// `KGCACHE1`: replaced atomically, and checksummed so a torn write,
/// truncation, or bit flip is *detected at read time* — the corrupt
/// entry is evicted (unlinked) and reported as a miss, never served. All
/// methods are thread-safe; serve workers share one cache.
class ArtifactCache {
 public:
  struct Options {
    /// On-disk directory; empty = memory-only cache. Created on first
    /// Put if missing.
    std::string dir;
    size_t max_memory_entries = 256;
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t writes = 0;
    int64_t corrupt_evictions = 0;
  };

  explicit ArtifactCache(Options options);

  /// Looks `key` up (memory tier first, then disk). A corrupt disk entry
  /// is evicted and the lookup reports kNotFound; the caller rebuilds
  /// and re-Puts, healing the cache.
  Result<Json> Get(const std::string& key);

  /// Stores `value` under `key` in both tiers. Disk failures degrade to
  /// memory-only (logged, counted) — the daemon never fails a request
  /// because its cache directory did.
  Status Put(const std::string& key, const Json& value);

  /// Drops `key` from both tiers (used when a cached entry parses but
  /// cannot be served, e.g. an unreadable pipeline spec).
  void Evict(const std::string& key);

  /// The on-disk path `key` maps to ("" for a memory-only cache). Keys
  /// are sanitized into filenames with an appended digest so distinct
  /// keys never collide.
  std::string PathForKey(const std::string& key) const;

  Stats stats() const {
    util::MutexLock lock(mu_);
    return stats_;
  }
  const Options& options() const { return options_; }

  /// Parses + verifies one entry file. Exposed for tests and repair
  /// tooling: truncation, header damage, and payload corruption all
  /// return kParseError with a byte-offset diagnostic; a missing file is
  /// kIoError.
  static Result<Json> LoadEntryFile(const std::string& path);

  /// Atomically replaces `path` with `payload` (already serialized) in
  /// the checksummed `KGCACHE1` envelope.
  static Status WriteEntryFile(const std::string& path,
                               const std::string& payload);

 private:
  /// Memory-tier insert; caller holds `mu_`.
  void PutMemoryLocked(const std::string& key, Json value)
      KGPIP_REQUIRES(mu_);

  Options options_;
  /// Guards the memory tier + stats only; disk I/O runs outside it so a
  /// slow filesystem never blocks the steady-state hit path.
  mutable util::Mutex mu_{util::LockRank::kServeCache, "serve.cache"};
  Stats stats_ KGPIP_GUARDED_BY(mu_);
  /// LRU list front = most recent; map points into the list.
  std::list<std::pair<std::string, Json>> lru_ KGPIP_GUARDED_BY(mu_);
  std::map<std::string, std::list<std::pair<std::string, Json>>::iterator>
      memory_ KGPIP_GUARDED_BY(mu_);
};

}  // namespace kgpip::serve

#endif  // KGPIP_SERVE_CACHE_H_
