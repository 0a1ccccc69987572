#ifndef KGPIP_UTIL_FILE_IO_H_
#define KGPIP_UTIL_FILE_IO_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace kgpip::util {

/// The whole file at `path`, or kIoError when it cannot be opened or
/// read.
Result<std::string> ReadFile(const std::string& path);

/// Replaces `path` with `bytes`: writes a temp file in the same directory
/// (named for the process and thread, so concurrent writers of one path
/// never share it), flushes it, then renames it over `path`. A reader
/// sees the old file or the complete new one, never a torn write, and a
/// reader holding the old file keeps reading the old bytes. On any
/// failure the temp file is removed and kIoError returned.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// Writes `"<magic> <fnv1a %016llx> <size>\n"` plus `payload` through
/// WriteFileAtomic. An active util::FaultInjector corrupts the payload
/// after the checksum is taken, so the read side must catch it.
Status WriteChecksummedFile(const std::string& path, std::string_view magic,
                            std::string payload);

/// A checksummed file's payload and its byte offset in the file.
struct ChecksummedPayload {
  std::string payload;
  size_t offset = 0;
};

/// Reads a file WriteChecksummedFile wrote with `magic`, verifying the
/// header, the payload size and the checksum. kIoError when the file
/// cannot be opened; every other failure is kParseError naming `what`,
/// the path, and the byte offsets involved. The header must be exactly
/// what the writer emits: lowercase hex, no prefix, no leading zeros, no
/// trailing bytes.
Result<ChecksummedPayload> ReadChecksummedFile(const std::string& path,
                                               std::string_view magic,
                                               std::string_view what);

}  // namespace kgpip::util

#endif  // KGPIP_UTIL_FILE_IO_H_
