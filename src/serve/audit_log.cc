#include "serve/audit_log.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "nn/simd_kernels.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgpip::serve {

Json AuditRecord::ToJson() const {
  Json out = Json::Object();
  out.Set("request_id", static_cast<int64_t>(request_id));
  out.Set("tenant", tenant);
  out.Set("table_digest",
          StrFormat("%016llx", static_cast<unsigned long long>(table_digest)));
  out.Set("queue_wait_micros", queue_wait_micros);
  out.Set("run_micros", run_micros);
  out.Set("total_micros", total_micros);
  out.Set("degradation_level", degradation_level);
  out.Set("cache_tier", cache_tier);
  out.Set("breaker_half_open", breaker_half_open);
  out.Set("bucket_tokens", bucket_tokens);
  out.Set("retries", retries);
  out.Set("outcome", StatusCodeName(outcome));
  if (!detail.empty()) out.Set("detail", detail);
  return out;
}

AuditLog::AuditLog(Options options) : options_(std::move(options)) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  util::MutexLock lock(mu_);
  OpenLocked();
}

AuditLog::~AuditLog() {
  util::MutexLock lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

void AuditLog::OpenLocked() {
  if (options_.path.empty()) return;
  file_ = std::fopen(options_.path.c_str(), "ab");
  if (file_ == nullptr) {
    if (!error_logged_) {
      error_logged_ = true;
      KGPIP_LOG(Warning) << "audit log: cannot open '" << options_.path
                         << "' for append; records go to the ring only";
    }
    ++errors_;
    return;
  }
  const long at = std::ftell(file_);
  bytes_ = at > 0 ? static_cast<size_t>(at) : 0;
  if (bytes_ == 0) WriteHeaderLocked();
}

void AuditLog::WriteHeaderLocked() {
  // One self-describing line at the top of every fresh file (initial
  // open and each post-rotate generation). It pins the serving
  // environment the records were produced under — today the dispatched
  // SIMD level, which decides which kernel paths executed — so a log
  // can be attributed to a kernel configuration after the fact. The
  // header is metadata, not a wide event: it stays out of the ring and
  // out of records_written, and readers skip lines with
  // "type":"header".
  const nn::simd::Isa isa = nn::simd::ActiveIsa();
  Json header = Json::Object();
  header.Set("type", "header");
  header.Set("isa_level", nn::simd::IsaName(isa));
  header.Set("isa_level_value", static_cast<int64_t>(isa));
  // Similarity-index size at open time (the gauge is set when the model
  // trains or loads): how many rows each retrieval-backed record in this
  // file scanned.
  header.Set("embed_index_size",
             static_cast<int64_t>(obs::MetricsRegistry::Global()
                                      .GetGauge("embed.index.size")
                                      ->value()));
  std::string line = header.Dump();
  line.push_back('\n');
  const size_t wrote = std::fwrite(line.data(), 1, line.size(), file_);
  if (wrote != line.size() || std::fflush(file_) != 0) {
    ++errors_;
    return;
  }
  bytes_ += line.size();
}

void AuditLog::RotateLocked() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  const std::string previous = options_.path + ".1";
  // One rotated generation; an older .1 is superseded. Failure to rename
  // is tolerated — OpenLocked reopens and the file just keeps growing.
  std::remove(previous.c_str());
  if (std::rename(options_.path.c_str(), previous.c_str()) != 0) {
    KGPIP_LOG(Warning) << "audit log: rotate rename to '" << previous
                       << "' failed; continuing in place";
  }
  bytes_ = 0;
  OpenLocked();
}

void AuditLog::Append(AuditRecord record) {
  // The line is fully built before any I/O: one fwrite of a complete
  // "...}\n" per record means a crash tears at most the last line and
  // concurrent appends (stdio locks per call) never interleave.
  std::string line = record.ToJson().Dump();
  line.push_back('\n');
  util::MutexLock lock(mu_);
  ring_.push_back({std::chrono::steady_clock::now(), std::move(record)});
  while (ring_.size() > options_.ring_capacity) ring_.pop_front();
  ++written_;
  if (options_.path.empty()) return;
  if (file_ != nullptr && bytes_ + line.size() > options_.max_bytes) {
    RotateLocked();
  }
  if (file_ == nullptr) {
    OpenLocked();  // retry after an earlier failure
    if (file_ == nullptr) return;
  }
  const size_t wrote = std::fwrite(line.data(), 1, line.size(), file_);
  if (wrote != line.size() || std::fflush(file_) != 0) {
    ++errors_;
    if (!error_logged_) {
      error_logged_ = true;
      KGPIP_LOG(Warning) << "audit log: write to '" << options_.path
                         << "' failed; later failures counted silently";
    }
    return;
  }
  bytes_ += line.size();
}

std::vector<Json> AuditLog::Tail(size_t n) const {
  util::MutexLock lock(mu_);
  const size_t have = ring_.size();
  const size_t take = n < have ? n : have;
  std::vector<Json> out;
  out.reserve(take);
  for (size_t i = have - take; i < have; ++i) {
    out.push_back(ring_[i].record.ToJson());
  }
  return out;
}

std::vector<AuditRecord> AuditLog::Recent(double seconds) const {
  const auto now = std::chrono::steady_clock::now();
  util::MutexLock lock(mu_);
  // Ages compare in double seconds, so no `seconds` can overflow the
  // clock's integer ticks.
  const auto first = std::partition_point(
      ring_.begin(), ring_.end(), [now, seconds](const RingEntry& entry) {
        return std::chrono::duration<double>(now - entry.appended).count() >
               seconds;
      });
  std::vector<AuditRecord> out;
  out.reserve(static_cast<size_t>(ring_.end() - first));
  for (auto it = first; it != ring_.end(); ++it) out.push_back(it->record);
  return out;
}

int64_t AuditLog::records_written() const {
  util::MutexLock lock(mu_);
  return written_;
}

int64_t AuditLog::write_errors() const {
  util::MutexLock lock(mu_);
  return errors_;
}

}  // namespace kgpip::serve
