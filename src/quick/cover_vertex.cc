#include "quick/cover_vertex.h"

#include <algorithm>
#include <bit>

namespace qcm {

namespace {

/// Word-parallel twin of the scalar search below: same candidate order,
/// same early skips/breaks (popcounted sizes equal the scalar list sizes at
/// every decision point), so it selects the same winning cover SET -- only
/// the element order of the result differs, which callers never observe.
void FindBestCoverSetDense(MiningContext& ctx, const std::vector<LocalId>& s,
                           const std::vector<LocalId>& ext, int64_t thresh,
                           std::vector<LocalId>* best) {
  const uint32_t words = ctx.words();
  uint64_t* s_mask = ctx.WordBuf(1);
  uint64_t* ext_mask = ctx.WordBuf(2);
  uint64_t* cover = ctx.WordBuf(3);
  std::fill(s_mask, s_mask + words, 0);
  std::fill(ext_mask, ext_mask + words, 0);
  for (LocalId v : s) s_mask[v >> 6] |= uint64_t{1} << (v & 63);
  for (LocalId w : ext) ext_mask[w >> 6] |= uint64_t{1} << (w & 63);
  uint64_t touched = 2 * static_cast<uint64_t>(words);

  auto ds_of = [&](LocalId x) {
    const uint64_t* row = ctx.Row(x);
    int64_t d = 0;
    for (uint32_t w = 0; w < words; ++w) {
      d += std::popcount(row[w] & s_mask[w]);
    }
    touched += words;
    return d;
  };
  std::vector<int64_t>& ds_s = ctx.buffers().ds_s;
  std::vector<int64_t>& ds_ext = ctx.buffers().ds_ext;
  ds_s.resize(s.size());
  for (size_t i = 0; i < s.size(); ++i) ds_s[i] = ds_of(s[i]);
  ds_ext.resize(ext.size());
  for (size_t i = 0; i < ext.size(); ++i) ds_ext[i] = ds_of(ext[i]);

  for (size_t ui = 0; ui < ext.size(); ++ui) {
    const LocalId u = ext[ui];
    if (ds_ext[ui] < thresh) continue;
    const uint64_t* row_u = ctx.Row(u);

    // All v in S not adjacent to u must satisfy dS(v) >= thresh.
    bool ok = true;
    for (size_t i = 0; i < s.size(); ++i) {
      const LocalId v = s[i];
      if (!((row_u[v >> 6] >> (v & 63)) & 1) && ds_s[i] < thresh) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    // Candidate cover = ext ∩ Gamma(u); no self-loops, so bit u is absent.
    int64_t csize = 0;
    for (uint32_t w = 0; w < words; ++w) {
      cover[w] = row_u[w] & ext_mask[w];
      csize += std::popcount(cover[w]);
    }
    touched += words;
    if (csize <= static_cast<int64_t>(best->size())) continue;

    // Intersect with Gamma(v) of every non-neighbor v in S (Eq. 9).
    for (LocalId v : s) {
      if ((row_u[v >> 6] >> (v & 63)) & 1) continue;  // v adjacent to u
      const uint64_t* row_v = ctx.Row(v);
      csize = 0;
      for (uint32_t w = 0; w < words; ++w) {
        cover[w] &= row_v[w];
        csize += std::popcount(cover[w]);
      }
      touched += words;
      if (csize <= static_cast<int64_t>(best->size())) break;
    }
    if (csize > static_cast<int64_t>(best->size())) {
      best->clear();
      for (uint32_t w = 0; w < words; ++w) {
        uint64_t bits = cover[w];
        while (bits) {
          const int b = std::countr_zero(bits);
          best->push_back((w << 6) + static_cast<LocalId>(b));
          bits &= bits - 1;
        }
      }
    }
  }
  ctx.stats.bitset_words_touched += touched;
}

}  // namespace

void FindBestCoverSet(MiningContext& ctx, const std::vector<LocalId>& s,
                      const std::vector<LocalId>& ext,
                      std::vector<LocalId>* best) {
  best->clear();
  if (!ctx.opts().use_cover_vertex || ext.empty() || s.empty()) return;
  const LocalGraph& g = ctx.g();
  const int64_t thresh = ctx.CeilGamma(static_cast<int64_t>(s.size()));
  if (ctx.dense()) {
    FindBestCoverSetDense(ctx, s, ext, thresh, best);
    return;
  }

  // Precompute dS for all members of S and ext while the S-membership mark
  // is pristine (mark array 1 is reused later for neighbor intersections).
  const uint32_t s_tag = ctx.NewMark();
  for (LocalId v : s) ctx.Mark(v, s_tag);
  auto ds_of = [&](LocalId x) {
    int64_t d = 0;
    for (LocalId w : g.Neighbors(x)) {
      if (ctx.Marked(w, s_tag)) ++d;
    }
    return d;
  };
  std::vector<int64_t>& ds_s = ctx.buffers().ds_s;
  std::vector<int64_t>& ds_ext = ctx.buffers().ds_ext;
  ds_s.resize(s.size());
  for (size_t i = 0; i < s.size(); ++i) ds_s[i] = ds_of(s[i]);
  ds_ext.resize(ext.size());
  for (size_t i = 0; i < ext.size(); ++i) ds_ext[i] = ds_of(ext[i]);

  std::vector<LocalId>& cover = ctx.buffers().cover;
  for (size_t ui = 0; ui < ext.size(); ++ui) {
    const LocalId u = ext[ui];
    if (ds_ext[ui] < thresh) continue;

    // Mark Gamma(u).
    const uint32_t u_tag = ctx.NewMark2();
    for (LocalId w : g.Neighbors(u)) ctx.Mark2(w, u_tag);

    // All v in S not adjacent to u must satisfy dS(v) >= thresh.
    bool ok = true;
    for (size_t i = 0; i < s.size(); ++i) {
      if (!ctx.Marked2(s[i], u_tag) && ds_s[i] < thresh) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    // Candidate cover starts as Gamma_ext(u) = ext ∩ Gamma(u). If it is
    // already no bigger than the best cover, u cannot win (the paper's
    // early-skip in Alg. 2 line 2 commentary).
    cover.clear();
    for (LocalId w : ext) {
      if (w != u && ctx.Marked2(w, u_tag)) cover.push_back(w);
    }
    if (cover.size() <= best->size()) continue;

    // Intersect with Gamma(v) of every non-neighbor v in S (Eq. 9).
    for (LocalId v : s) {
      if (ctx.Marked2(v, u_tag)) continue;  // v adjacent to u
      const uint32_t v_tag = ctx.NewMark();
      for (LocalId w : g.Neighbors(v)) ctx.Mark(w, v_tag);
      size_t kept = 0;
      for (LocalId w : cover) {
        if (ctx.Marked(w, v_tag)) cover[kept++] = w;
      }
      cover.resize(kept);
      if (cover.size() <= best->size()) break;
    }
    if (cover.size() > best->size()) best->assign(cover.begin(), cover.end());
  }
}

}  // namespace qcm
