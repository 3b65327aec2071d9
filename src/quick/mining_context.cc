#include "quick/mining_context.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"
#include "util/trace.h"

namespace qcm {

void MiningStats::Add(const MiningStats& other) {
  VisitMiningStats([](const char*, uint64_t& sum, uint64_t v) { sum += v; },
                   *this, other);
}

namespace {

template <typename T>
uint64_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

uint64_t MiningScratch::MemoryBytes() const {
  uint64_t bytes = CapacityBytes(state_) + CapacityBytes(ds_) +
                   CapacityBytes(dext_) + CapacityBytes(mark1_) +
                   CapacityBytes(mark2_) + CapacityBytes(in_s_mask_) +
                   CapacityBytes(in_ext_mask_) + CapacityBytes(word_buf_) +
                   CapacityBytes(rows_);
  for (const SearchFrame& f : frames_) {
    bytes += sizeof(SearchFrame) + CapacityBytes(f.s) +
             CapacityBytes(f.ext) + CapacityBytes(f.cover);
  }
  const KernelBuffers& b = buffers_;
  return bytes + CapacityBytes(b.ds_s) + CapacityBytes(b.ds_ext) +
         CapacityBytes(b.cover) + CapacityBytes(b.sorted_ds) +
         CapacityBytes(b.prefix) + CapacityBytes(b.tail);
}

MiningContext::MiningContext(const LocalGraph* graph,
                             const MiningOptions& options, ResultSink* sink,
                             MiningScratch* scratch)
    : graph_(graph),
      options_(options),
      gamma_(*Gamma::Create(options.gamma)),
      sink_(sink),
      scratch_(scratch) {
  QCM_CHECK(options.Validate().ok()) << options.Validate().ToString();
  if (scratch_ == nullptr) {
    owned_scratch_ = std::make_unique<MiningScratch>();
    scratch_ = owned_scratch_.get();
  }
  const uint32_t n = graph->n();
  MiningScratch& sc = *scratch_;
  sc.state_.assign(n, static_cast<uint8_t>(VState::kOut));
  if (sc.ds_.size() < n) sc.ds_.resize(n, 0);
  if (sc.dext_.size() < n) sc.dext_.resize(n, 0);
  // Mark arrays keep their epochs across tasks: stale tags from earlier
  // (possibly larger) tasks are strictly smaller than any fresh tag.
  if (sc.mark1_.size() < n) sc.mark1_.resize(n, 0);
  if (sc.mark2_.size() < n) sc.mark2_.resize(n, 0);

  dense_ = options_.dense_threshold > 0 && n > 0 &&
           static_cast<int64_t>(n) <= options_.dense_threshold;
  if (dense_) {
    words_ = (n + 63) / 64;
    sc.in_s_mask_.assign(words_, 0);
    sc.in_ext_mask_.assign(words_, 0);
    const size_t buf_words = static_cast<size_t>(kNumWordBufs) * words_;
    if (sc.word_buf_.size() < buf_words) sc.word_buf_.resize(buf_words);
    if (graph->has_dense()) {
      rows_ = graph->DenseRow(0);
    } else {
      // Decoded spilled/stolen tasks arrive CSR-only; build rows into the
      // pooled arena so they still take the dense path.
      sc.rows_.assign(static_cast<size_t>(n) * words_, 0);
      for (LocalId v = 0; v < n; ++v) {
        uint64_t* row = sc.rows_.data() + static_cast<size_t>(v) * words_;
        for (LocalId w : graph->Neighbors(v)) {
          row[w >> 6] |= uint64_t{1} << (w & 63);
        }
      }
      rows_ = sc.rows_.data();
    }
    ++stats.dense_tasks;
    QCM_TRACE_INSTANT(trace::kKernel, "kernel_dense", n);
  } else {
    ++stats.sparse_tasks;
    QCM_TRACE_INSTANT(trace::kKernel, "kernel_sparse", n);
  }
}

void MiningContext::HandleMarkWrap(std::vector<uint32_t>* marks) {
  // Epoch wrapped to 0 (never expected in practice): clear every stale tag
  // and restart tags at 1 so "tag != entry" stays a valid freshness test.
  std::fill(marks->begin(), marks->end(), 0);
  if (marks == &scratch_->mark1_) {
    scratch_->epoch1_ = 1;
  } else {
    scratch_->epoch2_ = 1;
  }
}

void MiningContext::ArmTimeout(double tau_time_seconds, SubtaskSink sink) {
  deadline_micros_ =
      NowMicros() + static_cast<int64_t>(tau_time_seconds * 1e6);
  subtask_sink_ = std::move(sink);
}

bool MiningContext::IsQuasiCliqueUnion(std::span<const LocalId> a,
                                       std::span<const LocalId> b) {
  const size_t size = a.size() + b.size();
  if (size == 0) return false;
  if (size == 1) return true;
  const int64_t need = CeilGamma(static_cast<int64_t>(size) - 1);
  if (dense_) {
    // Word-parallel twin: membership mask of A ∪ B, then one masked
    // popcount per member. Same a-then-b early-exit order as the scalar
    // path, so counters and control flow stay identical.
    uint64_t* member = WordBuf(0);
    std::fill(member, member + words_, 0);
    for (LocalId v : a) member[v >> 6] |= uint64_t{1} << (v & 63);
    for (LocalId v : b) member[v >> 6] |= uint64_t{1} << (v & 63);
    uint64_t touched = words_;
    auto degree_ok = [&](LocalId v) {
      const uint64_t* row = Row(v);
      int64_t deg = 0;
      for (uint32_t w = 0; w < words_; ++w) {
        deg += std::popcount(row[w] & member[w]);
      }
      touched += words_;
      return deg >= need;
    };
    for (LocalId v : a) {
      if (!degree_ok(v)) {
        stats.bitset_words_touched += touched;
        return false;
      }
    }
    for (LocalId v : b) {
      if (!degree_ok(v)) {
        stats.bitset_words_touched += touched;
        return false;
      }
    }
    stats.bitset_words_touched += touched;
    return true;
  }
  const uint32_t tag = NewMark2();
  for (LocalId v : a) Mark2(v, tag);
  for (LocalId v : b) Mark2(v, tag);
  auto degree_ok = [&](LocalId v) {
    int64_t deg = 0;
    for (LocalId u : graph_->Neighbors(v)) {
      if (Marked2(u, tag)) ++deg;
    }
    return deg >= need;
  };
  for (LocalId v : a) {
    if (!degree_ok(v)) return false;
  }
  for (LocalId v : b) {
    if (!degree_ok(v)) return false;
  }
  // gamma >= 0.5 (enforced by MiningOptions::Validate) makes the minimum
  // induced degree >= (|S|-1)/2, which implies connectivity: two
  // non-adjacent members must share a neighbor inside S by pigeonhole.
  return true;
}

bool MiningContext::CheckAndEmit(std::span<const LocalId> s) {
  if (s.size() < options_.min_size) return false;
  if (!IsQuasiClique(s)) return false;
  EmitVerified(s);
  return true;
}

void MiningContext::EmitVerified(std::span<const LocalId> s) {
  VertexSet out;
  out.reserve(s.size());
  for (LocalId v : s) out.push_back(graph_->GlobalId(v));
  std::sort(out.begin(), out.end());
  ++stats.emitted;
  sink_->Emit(std::move(out));
}

void ComputeDegrees(MiningContext& ctx, const std::vector<LocalId>& s,
                    const std::vector<LocalId>& ext) {
  auto& ds = ctx.ds();
  auto& dext = ctx.dext();
  if (ctx.dense()) {
    // Word-parallel twin: the incremental membership bitsets SetVState()
    // maintains turn both degree counts into masked popcounts.
    const uint32_t words = ctx.words();
    const uint64_t* s_mask = ctx.in_s_mask();
    const uint64_t* e_mask = ctx.in_ext_mask();
    auto count = [&](LocalId x) {
      const uint64_t* row = ctx.Row(x);
      uint32_t in_s = 0, in_ext = 0;
      for (uint32_t w = 0; w < words; ++w) {
        in_s += static_cast<uint32_t>(std::popcount(row[w] & s_mask[w]));
        in_ext += static_cast<uint32_t>(std::popcount(row[w] & e_mask[w]));
      }
      ds[x] = in_s;
      dext[x] = in_ext;
    };
    for (LocalId v : s) count(v);
    for (LocalId u : ext) count(u);
    ctx.stats.bitset_words_touched +=
        static_cast<uint64_t>(words) * (s.size() + ext.size());
    return;
  }
  const LocalGraph& g = ctx.g();
  auto& state = ctx.state();
  auto count = [&](LocalId x) {
    uint32_t in_s = 0, in_ext = 0;
    for (LocalId w : g.Neighbors(x)) {
      VState st = static_cast<VState>(state[w]);
      if (st == VState::kInS) {
        ++in_s;
      } else if (st == VState::kInExt) {
        ++in_ext;
      }
    }
    ds[x] = in_s;
    dext[x] = in_ext;
  };
  for (LocalId v : s) count(v);
  for (LocalId u : ext) count(u);
}

}  // namespace qcm
