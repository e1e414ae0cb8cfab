#!/usr/bin/env bash
# End-to-end serve round trip, registered as a ctest (see CMakeLists.txt).
#
#   usage: serve_smoke.sh <path-to-dmtk-binary>
#
# Starts `dmtk serve` on a temp-dir Unix socket, drives it through `dmtk
# client` — generate -> info -> decompose (both precisions, warm repeat)
# -> CLI-vs-served model byte identity (dense f64, dense f32, dense f32
# acc64, sparse) -> mttkrp -> stats (tensor cache hits) ->
# shutdown — and requires a clean
# server exit. The sed filter drops the conda activation warning some
# login shells print on stderr, which would otherwise pollute captured
# JSON checks.

set -u
dmtk="$1"
work="$(mktemp -d /tmp/dmtk_smoke_XXXXXX)"
sock="${work}/dmtk.sock"
fails=0

cleanup() {
  if [[ -n "${serve_pid:-}" ]] && kill -0 "${serve_pid}" 2> /dev/null; then
    kill "${serve_pid}" 2> /dev/null
    wait "${serve_pid}" 2> /dev/null
  fi
  rm -rf "${work}"
}
trap cleanup EXIT

denoise() { sed '/^WARNING conda/d'; }

# check <desc> <expected-exit-code> <grep-pattern> <cmd...>
# Runs the command exactly once (requests are stateful — a repeat would
# re-warm caches or double-send shutdown), comparing both the exit code
# and the denoised output.
check() {
  local desc="$1"
  local expect_code="$2"
  local pattern="$3"
  shift 3
  "$@" > "${work}/out.raw" 2>&1
  local code=$?
  local out
  out="$(denoise < "${work}/out.raw")"
  if [[ ${code} -ne ${expect_code} ]]; then
    echo "FAIL (${desc}): expected exit ${expect_code}, got ${code}"
    echo "  cmd: $*"
    echo "  out: ${out}"
    fails=$((fails + 1))
    return
  fi
  if [[ -n "${pattern}" ]] && ! grep -q "${pattern}" <<< "${out}"; then
    echo "FAIL (${desc}): output does not match '${pattern}'"
    echo "  out: ${out}"
    fails=$((fails + 1))
  fi
}

"${dmtk}" generate --dims 16x14x12 --rank 3 --seed 7 \
  --out "${work}/cube.dten" > /dev/null

"${dmtk}" serve --socket "${sock}" --workers 1 --threads 1 \
  > "${work}/serve.log" 2>&1 &
serve_pid=$!

# Wait for the listening line (the server prints + flushes it when ready).
for _ in $(seq 1 100); do
  grep -q "listening" "${work}/serve.log" 2> /dev/null && break
  sleep 0.05
done
if ! grep -q "listening" "${work}/serve.log"; then
  echo "FAIL: server never reported listening"
  cat "${work}/serve.log"
  exit 1
fi

check "info" 0 '"kind":"dense"' \
  "${dmtk}" client --socket "${sock}" info "${work}/cube.dten"
check "decompose f64 (cold cache)" 0 '"precision":"double"' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --no-inline
check "decompose f64 (warm repeat)" 0 '"ok":true' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --no-inline
check "warm repeat: tensor cache hit" 0 '"tensors":{[^}]*"hits":1' \
  "${dmtk}" client --socket "${sock}" stats
check "decompose f32" 0 '"precision":"float"' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --precision float --no-inline
check "decompose to file" 0 '"ok":true' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --out "${work}/model.dktn" --no-inline
[[ -f "${work}/model.dktn" ]] \
  || { echo "FAIL: served model file missing"; fails=$((fails + 1)); }
# CLI vs server, byte for byte: both front ends run the same DecomposeJob,
# so at one thread and a fixed sweep count the model files must be equal
# for dense f64, dense f32 (plain and fp64-accumulate) and sparse input.
"${dmtk}" generate --dims 20x18x16 --nnz 300 --seed 5 \
  --out "${work}/s.tns" > /dev/null
same_model() {
  local desc="$1"
  local tensor="$2"
  shift 2
  "${dmtk}" decompose "${tensor}" --rank 3 --iters 6 --tol 0 --seed 11 \
    --threads 1 "$@" --out "${work}/cli.dktn" > "${work}/cli.log" 2>&1 \
    || { echo "FAIL (${desc}): CLI decompose"; cat "${work}/cli.log";
         fails=$((fails + 1)); return; }
  check "${desc} (served)" 0 '"ok":true' \
    "${dmtk}" client --socket "${sock}" decompose "${tensor}" --rank 3 \
    --iters 6 --tol 0 --seed 11 "$@" --out "${work}/served.dktn"
  cmp -s "${work}/cli.dktn" "${work}/served.dktn" \
    || { echo "FAIL (${desc}): CLI and served models differ";
         fails=$((fails + 1)); }
}
same_model "cli == served, dense f64" "${work}/cube.dten"
same_model "cli == served, dense f32" "${work}/cube.dten" --precision float
same_model "cli == served, dense f32 acc64" "${work}/cube.dten" \
  --precision float --method acc64
same_model "cli == served, sparse" "${work}/s.tns"

check "mttkrp" 0 '"type":"mttkrp"' \
  "${dmtk}" client --socket "${sock}" mttkrp "${work}/cube.dten" --mode 1 \
  --rank 4
check "stats" 0 '"hits":' \
  "${dmtk}" client --socket "${sock}" stats
# The repeated decomposes of cube.dten read it once: the shared tensor
# cache reports hits.
check "stats: tensor cache hits" 0 '"tensors":{[^}]*"hits":[1-9]' \
  "${dmtk}" client --socket "${sock}" stats
check "bad request exits 3" 3 '"code":"invalid_request"' \
  "${dmtk}" client --socket "${sock}" --json '{"type":"nope"}'

# Shutdown must ack, and the server process must then exit cleanly.
check "shutdown" 0 '"type":"shutdown"' \
  "${dmtk}" client --socket "${sock}" shutdown
server_exit=0
for _ in $(seq 1 100); do
  kill -0 "${serve_pid}" 2> /dev/null || break
  sleep 0.05
done
if kill -0 "${serve_pid}" 2> /dev/null; then
  echo "FAIL: server still running after shutdown request"
  fails=$((fails + 1))
else
  wait "${serve_pid}"
  server_exit=$?
  if [[ ${server_exit} -ne 0 ]]; then
    echo "FAIL: server exited with ${server_exit}"
    cat "${work}/serve.log"
    fails=$((fails + 1))
  fi
fi
serve_pid=""

if [[ ${fails} -ne 0 ]]; then
  echo "${fails} serve smoke check(s) failed"
  exit 1
fi
echo "serve smoke OK"
