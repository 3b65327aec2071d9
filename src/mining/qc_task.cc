#include "mining/qc_task.h"

namespace qcm {

namespace {

/// The mining state MineTask hands to the kernel, which indexes it without
/// checks: S and ext(S) strictly increasing, disjoint, and inside the
/// subgraph. MakeSubtask and PromoteToMining produce nothing else.
Status CheckMiningState(const std::vector<VertexId>& s,
                        const std::vector<VertexId>& ext,
                        const LocalGraph& g) {
  for (const std::vector<VertexId>* ids : {&s, &ext}) {
    for (size_t i = 0; i < ids->size(); ++i) {
      if (i > 0 && (*ids)[i] <= (*ids)[i - 1]) {
        return Status::Corruption(
            "QCTask: S or ext(S) not strictly increasing");
      }
      if (g.FindLocal((*ids)[i]) == g.n()) {
        return Status::Corruption(
            "QCTask: S or ext(S) names a vertex outside the subgraph");
      }
    }
  }
  // Both lists are sorted, so one merge walk finds any shared member.
  for (size_t i = 0, j = 0; i < s.size() && j < ext.size();) {
    if (s[i] == ext[j]) {
      return Status::Corruption("QCTask: S and ext(S) overlap");
    }
    if (s[i] < ext[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return Status::OK();
}

}  // namespace

TaskPtr QCTask::MakeSpawn(VertexId root, uint64_t size_hint) {
  auto t = std::make_unique<QCTask>();
  t->root_ = root;
  t->iteration_ = 1;
  t->size_hint_ = size_hint;
  return t;
}

TaskPtr QCTask::MakeSubtask(VertexId root, std::vector<VertexId> s,
                            std::vector<VertexId> ext, LocalGraph g) {
  auto t = std::make_unique<QCTask>();
  t->root_ = root;
  t->iteration_ = 3;
  t->size_hint_ = ext.size();
  t->s_ = std::move(s);
  t->ext_ = std::move(ext);
  t->g_ = std::move(g);
  return t;
}

void QCTask::PromoteToMining(std::vector<VertexId> s,
                             std::vector<VertexId> ext, LocalGraph g) {
  iteration_ = 3;
  size_hint_ = ext.size();
  s_ = std::move(s);
  ext_ = std::move(ext);
  g_ = std::move(g);
  // Mining reads only t.g from here on: drop the pulled-adjacency pins so
  // that memory is reclaimable while the (possibly long) mining phase runs.
  pulls().Clear();
}

void QCTask::Encode(Encoder* enc) const {
  enc->PutU32(root_);
  enc->PutU8(iteration_);
  enc->PutU64(size_hint_);
  enc->PutU32Vector(s_);
  enc->PutU32Vector(ext_);
  g_.Encode(enc);
}

StatusOr<TaskPtr> QCTask::Decode(Decoder* dec) {
  auto t = std::make_unique<QCTask>();
  QCM_RETURN_IF_ERROR(dec->GetU32(&t->root_));
  QCM_RETURN_IF_ERROR(dec->GetU8(&t->iteration_));
  QCM_RETURN_IF_ERROR(dec->GetU64(&t->size_hint_));
  QCM_RETURN_IF_ERROR(dec->GetU32Vector(&t->s_));
  QCM_RETURN_IF_ERROR(dec->GetU32Vector(&t->ext_));
  auto g = LocalGraph::Decode(dec);
  QCM_RETURN_IF_ERROR(g.status());
  t->g_ = std::move(g).value();
  if (t->iteration_ < 1 || t->iteration_ > 3) {
    return Status::Corruption("QCTask: bad iteration tag");
  }
  if (!t->s_.empty()) {
    QCM_RETURN_IF_ERROR(CheckMiningState(t->s_, t->ext_, t->g_));
  }
  // Pull pins are transient (never serialized): a spawn task that crossed
  // a spill file or a steal transfer mid-build lost every adjacency it had
  // pulled, so restart its pull protocol from iteration 1. Requests for
  // still-cached vertices are answered without a transfer, and the rebuild
  // is deterministic -- the result set cannot change. Without this reset
  // the task would fall back to synchronous remote fetches, which do not
  // exist.
  if (t->NeedsBuild()) t->iteration_ = 1;
  return TaskPtr(std::move(t));
}

}  // namespace qcm
