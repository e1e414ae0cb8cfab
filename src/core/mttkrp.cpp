#include "core/mttkrp.hpp"

#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"
#include "util/common.hpp"

namespace dmtk {

std::string_view to_string(MttkrpMethod m) {
  switch (m) {
    case MttkrpMethod::Reference: return "reference";
    case MttkrpMethod::Reorder: return "reorder";
    case MttkrpMethod::OneStepSeq: return "1-step-seq";
    case MttkrpMethod::OneStep: return "1-step";
    case MttkrpMethod::TwoStep: return "2-step";
    case MttkrpMethod::Auto: return "auto";
    case MttkrpMethod::Acc64: return "acc64";
  }
  return "?";
}

std::optional<MttkrpMethod> parse_mttkrp_method(std::string_view name) {
  for (MttkrpMethod m :
       {MttkrpMethod::Reference, MttkrpMethod::Reorder,
        MttkrpMethod::OneStepSeq, MttkrpMethod::OneStep, MttkrpMethod::TwoStep,
        MttkrpMethod::Auto, MttkrpMethod::Acc64}) {
    if (name == to_string(m)) return m;
  }
  // Friendly aliases used in earlier CLIs and papers' prose.
  if (name == "onestep" || name == "1step") return MttkrpMethod::OneStep;
  if (name == "twostep" || name == "2step") return MttkrpMethod::TwoStep;
  if (name == "onestep-seq" || name == "seq") return MttkrpMethod::OneStepSeq;
  return std::nullopt;
}

MttkrpTimings& MttkrpTimings::operator+=(const MttkrpTimings& o) {
  krp += o.krp;
  krp_lr += o.krp_lr;
  gemm += o.gemm;
  gemv += o.gemv;
  reduce += o.reduce;
  reorder += o.reorder;
  total += o.total;
  return *this;
}

bool twostep_is_defined(index_t order, index_t mode) {
  return mode > 0 && mode < order - 1;
}

template <typename T>
void mttkrp(const TensorT<T>& X,
            std::span<const MatrixT<std::type_identity_t<T>>> factors,
            index_t mode, MatrixT<T>& M, MttkrpMethod method, int threads,
            MttkrpTimings* timings) {
  // One-shot path: a transient context + plan. The plan validates shape,
  // mode, and rank; it reads the rank off the first factor, so check the
  // factor count here first. The transient plan also carves the BLAS
  // packing workspace out of the transient arena, so even one-shot calls
  // run the blocked GEMM/batched-GEMM paths heap-free past this point —
  // callers in ALS loops should still prefer a persistent plan, which
  // amortizes this arena (and the dispatch/partition planning) across
  // sweeps.
  DMTK_CHECK(static_cast<index_t>(factors.size()) == X.order(),
             "mttkrp: need one factor matrix per mode");
  DMTK_CHECK(!factors.empty(), "mttkrp: empty factor list");
  ExecContext ctx(threads);
  MttkrpPlanT<T> plan(ctx, X.dims(), factors[0].cols(), mode, method);
  plan.execute(X, factors, M);
  if (timings != nullptr) *timings += plan.timings();
}

template <typename T>
MatrixT<T> mttkrp(const TensorT<T>& X,
                  std::span<const MatrixT<std::type_identity_t<T>>> factors,
                  index_t mode, MttkrpMethod method, int threads,
                  MttkrpTimings* timings) {
  MatrixT<T> M;
  mttkrp(X, factors, mode, M, method, threads, timings);
  return M;
}

void mttkrp_acc64(const TensorF& X, std::span<const MatrixF> factors,
                  index_t mode, MatrixF& M, int threads) {
  mttkrp(X, factors, mode, M, MttkrpMethod::Acc64, threads);
}

template void mttkrp<double>(const Tensor&, std::span<const Matrix>, index_t,
                             Matrix&, MttkrpMethod, int, MttkrpTimings*);
template void mttkrp<float>(const TensorF&, std::span<const MatrixF>, index_t,
                            MatrixF&, MttkrpMethod, int, MttkrpTimings*);
template Matrix mttkrp<double>(const Tensor&, std::span<const Matrix>, index_t,
                               MttkrpMethod, int, MttkrpTimings*);
template MatrixF mttkrp<float>(const TensorF&, std::span<const MatrixF>,
                               index_t, MttkrpMethod, int, MttkrpTimings*);

}  // namespace dmtk
