// Output files the tools write (results, --stats-json): a path, or "-"
// for stdout.
//
// stdio buffers writes, so a full disk often surfaces only when the buffer
// is flushed at close. CloseOutput checks the stream's error flag and the
// flush or close, so a truncated file is an IOError that names its path
// and never passes for a complete one.

#ifndef QCM_UTIL_OUTPUT_H_
#define QCM_UTIL_OUTPUT_H_

#include <cstdio>
#include <string>

#include "util/status.h"

namespace qcm {

/// Opens `path` for writing ("-" = stdout).
StatusOr<FILE*> OpenOutput(const std::string& path);

/// Finishes writing `f`, which OpenOutput(path) returned: flushes stdout
/// or closes the file. IOError naming `path` when a write, the flush or
/// the close failed.
Status CloseOutput(FILE* f, const std::string& path);

/// Writes `text` to `path` ("-" = stdout) with OpenOutput and CloseOutput.
Status WriteOutput(const std::string& path, const std::string& text);

}  // namespace qcm

#endif  // QCM_UTIL_OUTPUT_H_
