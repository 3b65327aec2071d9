#include "graph/edge_io.h"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "util/trace.h"

namespace qcm {

namespace {

// The load's trace spans. Their names are interned before main, so no
// load allocates for them, not even the first.
const uint16_t kReadSpan = trace::InternName("edge_read");
const uint16_t kIdsSpan = trace::InternName("edge_ids");
const uint16_t kPrefilterSpan = trace::InternName("edge_prefilter");
const uint16_t kBuildSpan = trace::InternName("csr_build");

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

/// Edge endpoints as read, in file order, as flat pairs {u0, v0, u1, v1,
/// ...}, and the range of their ids. They are held as 32-bit ids until the
/// first id that does not fit, which widens them all to 64 bits once.
struct RawEdges {
  std::vector<VertexId> narrow;
  std::vector<uint64_t> wide;
  uint64_t min_id = UINT64_MAX;
  uint64_t max_id = 0;
  /// Endpoints the file can hold at most, if known (0 if not): each
  /// buffer is reserved to it once, so it never grows.
  size_t capacity = 0;

  void Add(uint64_t u, uint64_t v) {
    min_id = std::min({min_id, u, v});
    max_id = std::max({max_id, u, v});
    if (max_id <= UINT32_MAX) {
      narrow.push_back(static_cast<VertexId>(u));
      narrow.push_back(static_cast<VertexId>(v));
      return;
    }
    if (wide.empty()) {
      wide.reserve(capacity);
      wide.assign(narrow.begin(), narrow.end());
      std::vector<VertexId>().swap(narrow);
    }
    wide.push_back(u);
    wide.push_back(v);
  }
};

struct FileCloser {
  void operator()(FILE* f) const { std::fclose(f); }
};

/// One buffered pass over the file: checks every line and collects its
/// edge, if any, into `*raw`. With `reserve`, the endpoint buffer of a
/// regular file is reserved once from its size.
Status ReadEdges(const std::string& path, bool reserve, RawEdges* raw) {
  std::unique_ptr<FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  if (reserve && ::fstat(::fileno(file.get()), &st) == 0 &&
      S_ISREG(st.st_mode)) {
    // An edge line takes at least 4 bytes ("u v\n"), a last one without
    // its newline 3.
    raw->capacity = static_cast<size_t>(st.st_size) / 2 + 2;
    raw->narrow.reserve(raw->capacity);
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

/// Compacts ids by sorted rank: relabels `*endpoints` in place (every
/// rank fits in an Id) and fills `*map` (dense id -> file id). Returns the
/// number of distinct ids.
template <typename Id>
StatusOr<uint32_t> CompactIds(std::vector<Id>* endpoints, uint64_t min_id,
                              uint64_t max_id, const std::string& path,
                              IdMap* map) {
  const uint64_t count = endpoints->size();
  const auto too_many = [&] {
    return Status::OutOfRange(path + ": too many distinct vertex ids");
  };
  std::vector<uint64_t>& ids = map->ids;
  // A span below the endpoint count is dense: one bit per id of it marks
  // the ids present. Gap-free, they need no table at all; otherwise they
  // get a rank table indexed by id - min_id, never bigger than the
  // endpoints held.
  std::vector<VertexId> table;
  if (count > 0 && max_id - min_id < count) {
    const uint64_t span = max_id - min_id + 1;
    std::vector<uint64_t> present((span + 63) / 64, 0);
    for (const Id x : *endpoints) {
      const uint64_t i = x - min_id;
      present[i / 64] |= uint64_t{1} << (i % 64);
    }
    uint64_t distinct = 0;
    for (const uint64_t word : present) distinct += std::popcount(word);
    if (distinct > UINT32_MAX) return too_many();
    if (distinct == span) {
      map->first = min_id;
      if (min_id != 0) {
        for (Id& x : *endpoints) x -= static_cast<Id>(min_id);
      }
      return static_cast<uint32_t>(distinct);
    }
    table.resize(span);
    ids.reserve(distinct);
    for (uint64_t i = 0; i < span; ++i) {
      if ((present[i / 64] >> (i % 64) & 1) == 0) continue;
      table[i] = static_cast<VertexId>(ids.size());
      ids.push_back(min_id + i);
    }
  } else {
    // Sparse ids: sort a copy of them all, keep each once, and
    // binary-search each endpoint.
    std::vector<uint64_t> sorted(endpoints->begin(), endpoints->end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    if (sorted.size() > static_cast<size_t>(UINT32_MAX)) return too_many();
    ids.assign(sorted.begin(), sorted.end());
  }
  const auto rank = [&](uint64_t id) -> Id {
    if (!table.empty()) return table[id - min_id];
    return static_cast<Id>(std::lower_bound(ids.begin(), ids.end(), id) -
                           ids.begin());
  };
  for (Id& x : *endpoints) x = rank(x);
  return static_cast<uint32_t>(ids.size());
}

/// The prefilter of LoadEdgeList(path, k): keeps the pairs of
/// `endpoints` (dense ids below n) that may be k-core edges, in file
/// order, in an exactly sized buffer, and frees `endpoints`. Sets
/// `*passes` to the passes it made.
std::vector<VertexId> KeepCoreCandidates(uint32_t n, uint32_t k,
                                         std::vector<VertexId> endpoints,
                                         uint32_t* passes) {
  VertexId* const e = endpoints.data();
  size_t pairs = endpoints.size() / 2;
  // One byte per count: a count below min(k, 255) is below k.
  const uint8_t cap = static_cast<uint8_t>(std::min<uint32_t>(k, UINT8_MAX));
  std::vector<uint8_t> count(n);
  for (*passes = 1;; ++*passes) {
    const size_t read = pairs;
    std::fill(count.begin(), count.end(), 0);
    for (size_t i = 0; i < 2 * read; i += 2) {
      const VertexId u = e[i], v = e[i + 1];
      if (u == v) continue;
      count[u] += count[u] < cap;
      count[v] += count[v] < cap;
    }
    pairs = 0;
    for (size_t i = 0; i < 2 * read; i += 2) {
      const VertexId u = e[i], v = e[i + 1];
      if (u == v || count[u] < cap || count[v] < cap) continue;
      e[2 * pairs] = u;
      e[2 * pairs + 1] = v;
      ++pairs;
    }
    if (8 * (read - pairs) <= read) break;
  }
  std::vector<uint8_t>().swap(count);
  return std::vector<VertexId>(e, e + 2 * pairs);
}

}  // namespace

StatusOr<LoadedGraph> LoadEdgeList(const std::string& path,
                                   uint32_t min_degree) {
  RawEdges raw;
  {
    trace::Span span(trace::kLifecycle, kReadSpan);
    QCM_RETURN_IF_ERROR(ReadEdges(path, min_degree > 0, &raw));
  }
  LoadedGraph out;
  out.edge_lines = (raw.narrow.size() + raw.wide.size()) / 2;
  uint32_t n = 0;
  {
    trace::Span span(trace::kLifecycle, kIdsSpan);
    if (raw.wide.empty()) {
      QCM_ASSIGN_OR_RETURN(n, CompactIds(&raw.narrow, raw.min_id, raw.max_id,
                                         path, &out.original_ids));
    } else {
      QCM_ASSIGN_OR_RETURN(n, CompactIds(&raw.wide, raw.min_id, raw.max_id,
                                         path, &out.original_ids));
      raw.narrow.assign(raw.wide.begin(), raw.wide.end());
      std::vector<uint64_t>().swap(raw.wide);
    }
  }
  if (min_degree > 0) {
    trace::Span span(trace::kLifecycle, kPrefilterSpan);
    uint32_t passes = 0;
    raw.narrow =
        KeepCoreCandidates(n, min_degree, std::move(raw.narrow), &passes);
    span.set_arg(passes);
    out.prefilter_k = min_degree;
  }
  trace::Span span(trace::kLifecycle, kBuildSpan, n);
  QCM_ASSIGN_OR_RETURN(out.graph,
                       Graph::FromEndpoints(n, std::move(raw.narrow)));
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
