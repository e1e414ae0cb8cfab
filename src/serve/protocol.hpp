#pragma once
/// \file protocol.hpp
/// \brief The serve wire protocol: newline-delimited JSON requests and
/// responses over a Unix domain socket.
///
/// One request object per line, one response object per line. Responses
/// are written as their requests COMPLETE, not necessarily in request
/// order (compute requests run on worker threads while cheap ones are
/// answered inline), so every request may carry an "id" (any JSON value)
/// that the response echoes back verbatim for correlation. Requests
/// carry a "type" of "decompose", "mttkrp", "info", "stats", "health",
/// or "shutdown", plus type-specific fields. "health" is the liveness/
/// degradation probe: uptime, live workers, queue depth, worker-failure
/// and accept-fault counters, and armed fault-site trigger counts.
///
/// Validation is STRICT and happens on the reader thread, before a job
/// can occupy a queue slot: unknown fields, wrong JSON kinds,
/// non-integral counts, and out-of-range values are all rejected with a
/// structured error naming the offending field. The rationale is the
/// same as the CLI's strict flag parsing — a typo that would silently
/// fall back to a default ("itters": 1000) is worse than an error — but
/// sharper here because a served request may be generated by another
/// program that never sees stderr.
///
/// Error responses have the shape
///   {"ok": false, "error": {"code": c, "message": m}, "id": ...}
/// with codes: "invalid_request" (malformed JSON or bad fields),
/// "busy" (queue full — admission control), "timeout" (job exceeded the
/// oldest-job age bound while queued), "io_error" (tensor/model file
/// problems), "internal" (anything else). Success responses set
/// "ok": true and carry per-request "timings_ms": "queue" (enqueue to
/// dequeue), "read", "plan", "exec" and "total". A dense "read" is the
/// tensor-cache lookup: a stat() and the lookup on a hit, the checked
/// read on a miss (or on a cold or sparse request, which skip the cache).
/// A checked read includes summing ‖X‖² over each chunk as it lands,
/// which the tensor then carries into CP-ALS. For a decompose, "plan" is
/// the CpAlsSweepPlanT construction (paid by the first member of a batch
/// only; 0 for cold and sparse requests, whose plan is built inside
/// "exec") and "exec" the CP-ALS run. For an mttkrp, "plan" is the factor
/// draw plus the MttkrpPlanT construction (paid by the first member of a
/// batch only) and "exec" that request's own execute() of the plan.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/cp_model.hpp"
#include "core/mttkrp.hpp"
#include "job/decompose_job.hpp"
#include "serve/json.hpp"
#include "util/common.hpp"

namespace dmtk::serve {

/// Raised by parse_request (and by handlers) to produce a structured
/// error response; `code` is one of the wire codes above.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const { return code_; }

 private:
  std::string code_;
};

enum class RequestType { Decompose, Mttkrp, Info, Stats, Shutdown, Health };

[[nodiscard]] std::string_view to_string(RequestType t);

/// A validated request. A decompose request's fields are exactly a
/// DecomposeSpec's (same defaults as `dmtk decompose`); serve never sets
/// nn or the checkpoint fields. An mttkrp request reuses the
/// spec's tensor, precision, rank and seed (seed 7 by default for the
/// factor draws).
struct Request {
  RequestType type = RequestType::Info;
  Json id;  ///< echoed verbatim; null when the request had none

  DecomposeSpec spec;  ///< tensor path + decompose/mttkrp parameters
  std::string out;           ///< model/matrix output path ("" = none)
  bool inline_model = true;  ///< include the model payload in the response
  /// Emulate the batch CLI's one-shot cost: read the file and run on a
  /// fresh ExecContext with its own plan, bypassing the tensor cache and
  /// batching. The warm-vs-cold benchmark is this flag flipped.
  bool cold = false;

  // mttkrp
  index_t mode = 0;
};

/// Parse + validate one request line (already JSON-parsed). Throws
/// ProtocolError("invalid_request", ...) naming the offending field;
/// unknown fields are errors.
[[nodiscard]] Request parse_request(const Json& j);

/// Structured error response (id echoed when non-null).
[[nodiscard]] Json make_error(const std::string& code,
                              const std::string& message, const Json& id);

/// Model payload: {"dims": [...], "rank": C, "lambda": [...],
/// "factors": [[col-major entries]...]}. Numbers print with %.17g, so a
/// double payload round-trips bit-exactly (the golden tests compare
/// these with EXPECT_EQ); float factors widen losslessly.
template <typename T>
[[nodiscard]] Json ktensor_to_json(const KtensorT<T>& K);

extern template Json ktensor_to_json<double>(const Ktensor&);
extern template Json ktensor_to_json<float>(const KtensorF&);

}  // namespace dmtk::serve
