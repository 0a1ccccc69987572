#include "util/file_io.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/fault.h"
#include "util/string_util.h"

namespace kgpip::util {

namespace {

/// Checksum digits in the header: exactly what "%016llx" prints.
constexpr size_t kChecksumDigits = 16;

bool IsLowerHex(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

/// Parses the header fields after "<magic> ": exactly 16 lowercase hex
/// digits, one space, and the size in decimal without leading zeros,
/// running to the end of `fields` — the only form the writer emits.
bool ParseHeaderFields(std::string_view fields, uint64_t* checksum,
                       uint64_t* size) {
  if (fields.size() < kChecksumDigits + 2 || fields[kChecksumDigits] != ' ') {
    return false;
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < kChecksumDigits; ++i) {
    const char c = fields[i];
    if (!IsLowerHex(c)) return false;
    sum = (sum << 4) |
          static_cast<uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  const std::string_view digits = fields.substr(kChecksumDigits + 1);
  if (digits.size() > 1 && digits[0] == '0') return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - d) / 10) return false;
    value = value * 10 + d;
  }
  *checksum = sum;
  *size = value;
  return true;
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed for '" + path + "'");
  return std::move(buffer).str();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  std::ostringstream name;
  name << path << ".tmp." << ::getpid() << "." << std::this_thread::get_id();
  const std::string tmp = name.str();
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + tmp + "' for write");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();  // flushes
  if (!out) {
    std::remove(tmp.c_str());
    return Status::IoError("write failed for '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename '" + tmp + "' -> '" + path + "' failed");
  }
  return Status::Ok();
}

Status WriteChecksummedFile(const std::string& path, std::string_view magic,
                            std::string payload) {
  std::string file =
      StrFormat("%.*s %016llx %llu\n", static_cast<int>(magic.size()),
                magic.data(),
                static_cast<unsigned long long>(Fnv1a64(payload)),
                static_cast<unsigned long long>(payload.size()));
  if (FaultInjector* inject = FaultInjector::Active()) {
    inject->CorruptArtifact(&payload);
  }
  file += payload;
  return WriteFileAtomic(path, file);
}

Result<ChecksummedPayload> ReadChecksummedFile(const std::string& path,
                                               std::string_view magic,
                                               std::string_view what) {
  KGPIP_ASSIGN_OR_RETURN(std::string contents, ReadFile(path));
  const std::string where = std::string(what) + " '" + path + "'";
  const std::string prefix = std::string(magic) + " ";
  if (!StartsWith(contents, prefix)) {
    return Status::ParseError(StrFormat(
        "%s: bad magic in bytes [0, %llu), expected '%s'", where.c_str(),
        static_cast<unsigned long long>(
            std::min(contents.size(), prefix.size())),
        std::string(magic).c_str()));
  }
  const size_t eol = contents.find('\n');
  if (eol == std::string::npos) {
    return Status::ParseError(StrFormat(
        "%s: unterminated header in the first %llu bytes", where.c_str(),
        static_cast<unsigned long long>(contents.size())));
  }
  uint64_t checksum = 0;
  uint64_t declared = 0;
  if (!ParseHeaderFields(std::string_view(contents).substr(
                             prefix.size(), eol - prefix.size()),
                         &checksum, &declared)) {
    return Status::ParseError(
        StrFormat("%s: malformed header in bytes [0, %llu)", where.c_str(),
                  static_cast<unsigned long long>(eol)));
  }
  ChecksummedPayload out;
  out.offset = eol + 1;
  contents.erase(0, out.offset);
  out.payload = std::move(contents);
  if (out.payload.size() != declared) {
    return Status::ParseError(StrFormat(
        "%s: truncated or padded payload — header declares %llu bytes but "
        "%llu are present after byte offset %llu",
        where.c_str(), static_cast<unsigned long long>(declared),
        static_cast<unsigned long long>(out.payload.size()),
        static_cast<unsigned long long>(out.offset)));
  }
  const uint64_t actual = Fnv1a64(out.payload);
  if (actual != checksum) {
    return Status::ParseError(StrFormat(
        "%s: checksum mismatch over payload bytes [%llu, %llu) — expected "
        "%016llx, got %016llx",
        where.c_str(), static_cast<unsigned long long>(out.offset),
        static_cast<unsigned long long>(out.offset + out.payload.size()),
        static_cast<unsigned long long>(checksum),
        static_cast<unsigned long long>(actual)));
  }
  return out;
}

}  // namespace kgpip::util
