#include "core/mttkrp.hpp"

#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"
#include "util/common.hpp"

namespace dmtk {

std::string_view to_string(MttkrpMethod m) {
  switch (m) {
    case MttkrpMethod::Reference: return "reference";
    case MttkrpMethod::Reorder: return "reorder";
    case MttkrpMethod::OneStep: return "1-step";
    case MttkrpMethod::TwoStep: return "2-step";
    case MttkrpMethod::Auto: return "auto";
    case MttkrpMethod::Acc64: return "acc64";
  }
  return "?";
}

std::optional<MttkrpMethod> parse_mttkrp_method(std::string_view name) {
  for (MttkrpMethod m :
       {MttkrpMethod::Reference, MttkrpMethod::Reorder, MttkrpMethod::OneStep,
        MttkrpMethod::TwoStep, MttkrpMethod::Auto, MttkrpMethod::Acc64}) {
    if (name == to_string(m)) return m;
  }
  return std::nullopt;
}

bool twostep_is_defined(index_t order, index_t mode) {
  return mode > 0 && mode < order - 1;
}

template <typename T>
void mttkrp(const TensorT<T>& X,
            std::span<const MatrixT<std::type_identity_t<T>>> factors,
            index_t mode, MatrixT<T>& M, MttkrpMethod method, int threads) {
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
}

template <typename T>
MatrixT<T> mttkrp(const TensorT<T>& X,
                  std::span<const MatrixT<std::type_identity_t<T>>> factors,
                  index_t mode, MttkrpMethod method, int threads) {
  MatrixT<T> M;
  mttkrp(X, factors, mode, M, method, threads);
  return M;
}

void mttkrp_acc64(const TensorF& X, std::span<const MatrixF> factors,
                  index_t mode, MatrixF& M, int threads) {
  mttkrp(X, factors, mode, M, MttkrpMethod::Acc64, threads);
}

template void mttkrp<double>(const Tensor&, std::span<const Matrix>, index_t,
                             Matrix&, MttkrpMethod, int);
template void mttkrp<float>(const TensorF&, std::span<const MatrixF>, index_t,
                            MatrixF&, MttkrpMethod, int);
template Matrix mttkrp<double>(const Tensor&, std::span<const Matrix>, index_t,
                               MttkrpMethod, int);
template MatrixF mttkrp<float>(const TensorF&, std::span<const MatrixF>,
                               index_t, MttkrpMethod, int);

}  // namespace dmtk
