#include "util/output.h"

#include <cerrno>
#include <cstring>

namespace qcm {

StatusOr<FILE*> OpenOutput(const std::string& path) {
  if (path == "-") return stdout;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing: " +
                           std::strerror(errno));
  }
  return f;
}

Status CloseOutput(FILE* f, const std::string& path) {
  const bool write_failed = std::ferror(f) != 0;
  const bool close_failed =
      (f == stdout ? std::fflush(f) : std::fclose(f)) != 0;
  if (write_failed || close_failed) {
    return Status::IOError("error writing " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status WriteOutput(const std::string& path, const std::string& text) {
  auto f = OpenOutput(path);
  QCM_RETURN_IF_ERROR(f.status());
  std::fputs(text.c_str(), f.value());
  return CloseOutput(f.value(), path);
}

}  // namespace qcm
