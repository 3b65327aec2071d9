#include "graph/edge_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

namespace qcm {

namespace {

/// "file:line: why: 'offending text'" -- the offending line (`len` bytes,
/// newline excluded) is cut at its first NUL and clipped so the message
/// stays one line.
Status MalformedLine(const std::string& path, size_t lineno,
                     const std::string& why, const char* line, size_t len) {
  std::string excerpt(line, strnlen(line, len));
  constexpr size_t kMaxExcerpt = 60;
  if (excerpt.size() > kMaxExcerpt) {
    excerpt.resize(kMaxExcerpt);
    excerpt += "...";
  }
  return Status::Corruption(path + ":" + std::to_string(lineno) + ": " +
                            why + ": '" + excerpt + "'");
}

/// Parses a non-negative decimal id at *p (advancing past it). False on a
/// missing digit or uint64 overflow. Explicit so that signs, hex and other
/// sscanf leniencies are rejected instead of silently misread.
bool ParseId(const char** p, uint64_t* out) {
  const char* q = *p;
  if (*q < '0' || *q > '9') return false;
  uint64_t value = 0;
  while (*q >= '0' && *q <= '9') {
    const uint64_t digit = static_cast<uint64_t>(*q - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
    ++q;
  }
  *p = q;
  *out = value;
  return true;
}

/// Parses one line, which ends at its first '\n', '\r' or NUL. Returns why
/// it is malformed, or nullptr with `*has_edge` false for a blank or
/// comment line and true for an edge "u v".
const char* ParseLine(const char* p, bool* has_edge, uint64_t* u,
                      uint64_t* v) {
  *has_edge = false;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p == '#' || *p == '%' || *p == '\n' || *p == '\r' || *p == '\0') {
    return nullptr;
  }
  if (!ParseId(&p, u)) return "malformed edge line (expected source id)";
  if (*p != ' ' && *p != '\t') {
    return "malformed edge line (expected \"u v\")";
  }
  while (*p == ' ' || *p == '\t') ++p;
  if (!ParseId(&p, v)) return "malformed edge line (expected target id)";
  while (*p == ' ' || *p == '\t') ++p;
  if (*p != '\n' && *p != '\r' && *p != '\0') {
    return "malformed edge line (trailing characters after edge)";
  }
  *has_edge = true;
  return nullptr;
}

/// Edge endpoints as read, in file order, and the range of their ids. The
/// endpoints are held as 32-bit pairs until the first id that does not fit,
/// which widens them all to 64 bits once.
struct RawEdges {
  std::vector<Edge> narrow;
  std::vector<std::pair<uint64_t, uint64_t>> wide;
  uint64_t min_id = UINT64_MAX;
  uint64_t max_id = 0;

  void Add(uint64_t u, uint64_t v) {
    min_id = std::min({min_id, u, v});
    max_id = std::max({max_id, u, v});
    if (max_id <= UINT32_MAX) {
      narrow.emplace_back(static_cast<VertexId>(u), static_cast<VertexId>(v));
      return;
    }
    if (!narrow.empty()) {
      wide.assign(narrow.begin(), narrow.end());
      std::vector<Edge>().swap(narrow);
    }
    wide.emplace_back(u, v);
  }
};

struct FileCloser {
  void operator()(FILE* f) const { std::fclose(f); }
};

/// One buffered pass over the file: checks every line and collects its
/// edge, if any, into `*raw`.
Status ReadEdges(const std::string& path, RawEdges* raw) {
  std::unique_ptr<FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  // buf[begin, end) holds unparsed bytes; the spare byte terminates a last
  // line that has no newline.
  std::vector<char> buf(kEdgeListReadBuffer + 1);
  size_t begin = 0;
  size_t end = 0;
  bool eof = false;
  size_t lineno = 0;
  for (;;) {
    char* line = buf.data() + begin;
    const size_t avail = end - begin;
    char* nl = static_cast<char*>(std::memchr(line, '\n', avail));
    const bool terminated = nl != nullptr;
    if (!terminated) {
      if (avail > kEdgeListMaxLine) {
        return MalformedLine(path, lineno + 1, "edge line too long", line,
                             avail);
      }
      if (!eof) {
        // Carry the partial line to the front and refill behind it.
        std::memmove(buf.data(), line, avail);
        begin = 0;
        end = avail + std::fread(buf.data() + avail, 1,
                                 kEdgeListReadBuffer - avail, file.get());
        if (std::ferror(file.get())) {
          return Status::IOError("error reading " + path);
        }
        eof = end < kEdgeListReadBuffer;
        continue;
      }
      if (avail == 0) return Status::OK();
      nl = line + avail;
      *nl = '\0';
    }
    ++lineno;
    const size_t len = static_cast<size_t>(nl - line);
    // The limit of the fgets-based reader this replaces, which also failed
    // a NUL byte before the newline as an over-long line.
    if (len > kEdgeListMaxLine ||
        (terminated && std::memchr(line, '\0', len) != nullptr)) {
      return MalformedLine(path, lineno, "edge line too long", line, len);
    }
    bool has_edge = false;
    uint64_t u = 0, v = 0;
    if (const char* why = ParseLine(line, &has_edge, &u, &v)) {
      return MalformedLine(path, lineno, why, line, len);
    }
    if (has_edge) raw->Add(u, v);
    if (!terminated) return Status::OK();
    begin += len + 1;
  }
}

/// Compacts ids by sorted rank into `*ids` (dense id -> original id) and
/// relabels `*edges` in place: every rank fits in an Id.
template <typename Id>
Status CompactIds(std::vector<std::pair<Id, Id>>* edges, uint64_t min_id,
                  uint64_t max_id, const std::string& path,
                  std::vector<uint64_t>* ids) {
  const uint64_t endpoints = 2 * static_cast<uint64_t>(edges->size());
  // Dense ids get a rank table indexed by id - min_id. Its span is below
  // the endpoint count, so it is never bigger than the endpoints held.
  std::vector<VertexId> table;
  if (endpoints > 0 && max_id - min_id < endpoints) {
    table.assign(max_id - min_id + 1, 0);
    for (const auto& [u, v] : *edges) {
      table[u - min_id] = 1;
      table[v - min_id] = 1;
    }
    for (size_t i = 0; i < table.size(); ++i) {
      if (table[i] == 0) continue;
      table[i] = static_cast<VertexId>(ids->size());
      ids->push_back(min_id + i);
    }
  } else {
    // Sparse ids: sort them all and binary-search each endpoint.
    ids->reserve(endpoints);
    for (const auto& [u, v] : *edges) {
      ids->push_back(u);
      ids->push_back(v);
    }
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }
  if (ids->size() > static_cast<size_t>(UINT32_MAX)) {
    return Status::OutOfRange(path + ": too many distinct vertex ids");
  }
  const auto rank = [&](uint64_t id) -> Id {
    if (!table.empty()) return table[id - min_id];
    return static_cast<Id>(std::lower_bound(ids->begin(), ids->end(), id) -
                           ids->begin());
  };
  for (auto& [u, v] : *edges) {
    u = rank(u);
    v = rank(v);
  }
  return Status::OK();
}

}  // namespace

StatusOr<LoadedGraph> LoadEdgeList(const std::string& path) {
  RawEdges raw;
  QCM_RETURN_IF_ERROR(ReadEdges(path, &raw));
  LoadedGraph out;
  std::vector<Edge> edges;
  if (raw.wide.empty()) {
    QCM_RETURN_IF_ERROR(CompactIds(&raw.narrow, raw.min_id, raw.max_id, path,
                                   &out.original_ids));
    edges = std::move(raw.narrow);
  } else {
    QCM_RETURN_IF_ERROR(CompactIds(&raw.wide, raw.min_id, raw.max_id, path,
                                   &out.original_ids));
    edges.assign(raw.wide.begin(), raw.wide.end());
    std::vector<std::pair<uint64_t, uint64_t>>().swap(raw.wide);
  }
  auto graph =
      Graph::FromEdges(static_cast<uint32_t>(out.original_ids.size()),
                       std::move(edges));
  QCM_RETURN_IF_ERROR(graph.status());
  out.graph = std::move(graph).value();
  return out;
}

Status SaveEdgeList(const Graph& g, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing: " +
                           std::strerror(errno));
  }
  std::fprintf(f, "# qcm edge list: %u vertices, %lu edges\n",
               g.NumVertices(), static_cast<unsigned long>(g.NumEdges()));
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) std::fprintf(f, "%u %u\n", u, v);
    }
  }
  if (std::fclose(f) != 0) {
    return Status::IOError("error closing " + path);
  }
  return Status::OK();
}

}  // namespace qcm
