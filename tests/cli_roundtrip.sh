#!/usr/bin/env bash
# End-to-end CLI round trip, registered as a ctest (see CMakeLists.txt).
#
#   usage: cli_roundtrip.sh <path-to-dmtk-binary>
#
# Covers: generate -> info -> decompose -> export in both precisions (dense
# AND sparse), fp32 HALS, the fp64-accumulate fp32 path, the fp32 payload
# surfacing in `info`, the strict-argument audit (every malformed numeric
# flag must exit 1 with a usage message, never an uncaught exception,
# which exits 2), unknown flags and commands, decompose's value-based
# rules (a spelled-out default passes, a real conflict exits 1), and
# `info --cpu`'s start-up SIMD level (DMTK_SIMD, else the hardware level).

set -u
dmtk="$1"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
fails=0

# Drop the conda activation warning some login shells emit on stderr, so
# output-matching checks see only the tool's own output.
denoise() { sed '/^WARNING conda/d'; }

expect_ok() {
  if ! "$@" > "${work}/out.log" 2>&1; then
    echo "FAIL (expected success): $*"
    cat "${work}/out.log"
    fails=$((fails + 1))
  fi
}

# Usage errors must exit with code 1 exactly: 0 means the bad value was
# silently accepted, 2 means it leaked through as a runtime exception.
expect_usage_error() {
  "$@" > "${work}/out.log" 2>&1
  local code=$?
  if [[ ${code} -ne 1 ]]; then
    echo "FAIL (expected exit 1, got ${code}): $*"
    cat "${work}/out.log"
    fails=$((fails + 1))
  fi
}

expect_grep() {
  local pattern="$1"
  shift
  if ! "$@" 2>&1 | denoise | grep -q "${pattern}"; then
    echo "FAIL (expected output matching '${pattern}'): $*"
    fails=$((fails + 1))
  fi
}

# --- double round trip -----------------------------------------------------
expect_ok "${dmtk}" generate --dims 12x10x8 --rank 3 --seed 5 \
  --out "${work}/x64.dten"
expect_grep "f64" "${dmtk}" info "${work}/x64.dten"
expect_ok "${dmtk}" decompose "${work}/x64.dten" --rank 3 --iters 10 \
  --tol 1e-7 --out "${work}/m64.dktn"
expect_ok "${dmtk}" export "${work}/m64.dktn" --out-prefix "${work}/f64"
[[ -f "${work}/f64_mode0.csv" ]] || { echo "FAIL: missing f64 CSV"; fails=$((fails + 1)); }

# --- float round trip ------------------------------------------------------
expect_ok "${dmtk}" generate --dims 12x10x8 --rank 3 --seed 5 \
  --precision float --out "${work}/x32.dten"
expect_grep "f32" "${dmtk}" info "${work}/x32.dten"
expect_grep "fp32" "${dmtk}" decompose "${work}/x32.dten" --rank 3 \
  --iters 10 --precision float --out "${work}/m32.dktn"
expect_ok "${dmtk}" export "${work}/m32.dktn" --out-prefix "${work}/f32"
# Cross-precision: an f32 payload decomposes fine in double too.
expect_ok "${dmtk}" decompose "${work}/x32.dten" --rank 3 --iters 5
# fp32 HALS: the nonnegative driver runs in float too.
expect_grep "cp_nnhals\[.*fp32" "${dmtk}" decompose "${work}/x32.dten" \
  --rank 3 --iters 5 --precision float --nn
# Mixed-precision accumulate: fp32 storage, fp64 MTTKRP sums.
expect_grep "fp32+acc64" "${dmtk}" decompose "${work}/x32.dten" --rank 3 \
  --iters 5 --precision float --method acc64 --out "${work}/macc.dktn"
expect_ok "${dmtk}" export "${work}/macc.dktn" --out-prefix "${work}/facc"
# ... but it is an fp32-only method: the double pipeline already sums in
# fp64.
expect_grep "method:" "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --iters 5 --method acc64
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 --iters 5 \
  --method acc64
# acc64 is a per-mode kernel: on a 4-way tensor (where auto picks the
# dimension tree) it pins the per-mode sweep and says so, and an explicit
# dimtree sweep is a conflict rather than a silently ignored flag.
expect_ok "${dmtk}" generate --dims 6x5x4x3 --rank 2 --seed 5 \
  --precision float --out "${work}/x4.dten"
expect_grep "permode sweep, fp32+acc64" "${dmtk}" decompose \
  "${work}/x4.dten" --rank 2 --iters 3 --precision float --method acc64
expect_usage_error "${dmtk}" decompose "${work}/x4.dten" --rank 2 \
  --iters 3 --precision float --sweep dimtree --method acc64
expect_grep "method:" "${dmtk}" decompose "${work}/x4.dten" --rank 2 \
  --iters 3 --precision float --sweep dimtree --method acc64

# The f32 payload should be roughly half the f64 size.
s64=$(stat -c %s "${work}/x64.dten")
s32=$(stat -c %s "${work}/x32.dten")
if [[ ${s32} -ge ${s64} ]]; then
  echo "FAIL: f32 payload (${s32}) not smaller than f64 (${s64})"
  fails=$((fails + 1))
fi

# --- sparse precision handling ---------------------------------------------
expect_ok "${dmtk}" generate --dims 20x18x16 --nnz 200 --seed 5 \
  --out "${work}/s.tns"
# Sparse fp32 runs through both plan-layer kernels and writes a native f32
# model (the kernels keep fp64 accumulators either way).
expect_grep "fp32" "${dmtk}" decompose "${work}/s.tns" --rank 2 --iters 3 \
  --precision float --sweep csf --out "${work}/ms32.dktn"
expect_grep "coo sweep, fp32" "${dmtk}" decompose "${work}/s.tns" --rank 2 \
  --iters 3 --precision float --sweep coo
expect_ok "${dmtk}" export "${work}/ms32.dktn" --out-prefix "${work}/s32"
[[ -f "${work}/s32_mode0.csv" ]] || { echo "FAIL: missing sparse f32 CSV"; fails=$((fails + 1)); }
# Spelling out the default is harmless.
expect_ok "${dmtk}" decompose "${work}/s.tns" --rank 2 --iters 3 \
  --precision double
# The sparse kernels accumulate in fp64 unconditionally, so the dense
# acc64 method is refused rather than silently accepted.
expect_usage_error "${dmtk}" decompose "${work}/s.tns" --rank 2 --iters 3 \
  --precision float --method acc64
expect_grep "method:" "${dmtk}" decompose "${work}/s.tns" --rank 2 \
  --iters 3 --precision float --method acc64

# --- info --cpu: the start-up SIMD level ------------------------------------
expect_grep "^cpu: " "${dmtk}" info --cpu
expect_grep "simd ladder: scalar" "${dmtk}" info --cpu
# DMTK_SIMD picks the start-up level, clamped to the hardware ladder (a
# narrower runner falls back down the ladder, so accept those names too).
DMTK_SIMD=avx2 expect_grep '^active level: \(avx2-8x8\|scalar\) (DMTK_SIMD)$' \
  "${dmtk}" info --cpu
DMTK_SIMD=avx512 \
  expect_grep '^active level: \(avx512-16x16\|avx2-8x8\|scalar\) (DMTK_SIMD)$' \
  "${dmtk}" info --cpu
# Unset, every kernel starts at the hardware level.
cpu="$(env -u DMTK_SIMD "${dmtk}" info --cpu 2>&1)"
hw="$(sed -n 's/^hardware level: //p' <<< "${cpu}")"
if [[ -z "${hw}" ]] || ! grep -qx "active level: ${hw} (hardware)" <<< "${cpu}"; then
  echo "FAIL (unset DMTK_SIMD should start at the hardware level)"
  echo "${cpu}"
  fails=$((fails + 1))
fi

# --- strict numeric argument audit ----------------------------------------
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank abc
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 0
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank -3
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 --iters 1.5
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 --tol abc
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --precision quad
expect_usage_error "${dmtk}" generate --dims 10x-3x7 --out "${work}/bad.dten"
expect_usage_error "${dmtk}" generate --dims 10xx7 --out "${work}/bad.dten"
expect_usage_error "${dmtk}" generate --dims abc --out "${work}/bad.dten"
expect_usage_error "${dmtk}" generate --dims 8x8 --noise abc \
  --out "${work}/bad.dten"
expect_usage_error "${dmtk}" generate --dims 8x8 --density 2 \
  --out "${work}/bad.tns"
expect_usage_error "${dmtk}" generate --dims 8x8 --nnz abc \
  --out "${work}/bad.tns"
expect_usage_error "${dmtk}" tucker "${work}/x64.dten" --ranks 4xqx4
# Out-of-range integers are usage errors, never a silent wrap: 2^32 + 1
# sweeps would wrap to 1 in an int, and 2^44 + 1 MiB to 1 MiB of bytes.
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --iters 4294967297
expect_grep "must be <=" "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --iters 4294967297
# A regression here would start a server, so bound its lifetime.
expect_usage_error timeout 10 "${dmtk}" serve --socket "${work}/never.sock" \
  --cache-mb 17592186044417

# --- unknown flags ----------------------------------------------------------
# A misspelled flag is a usage error naming it, never a silently defaulted
# run.
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --itters 1000 --thredas 2
expect_grep "unknown flag '--itters'" "${dmtk}" decompose "${work}/x64.dten" \
  --rank 3 --itters 1000
expect_usage_error "${dmtk}" generate --dims 8x8 --rnak 3 \
  --out "${work}/bad.dten"
expect_usage_error "${dmtk}" serve --sockett "${work}/never.sock"
expect_usage_error "${dmtk}" client --socket "${work}/never.sock" \
  decompose "${work}/x64.dten" --rnak 3
# Plan constants are built in: there is no tune command.
expect_usage_error "${dmtk}" tune
# The legacy --dimtree alias is gone; --sweep dimtree is the one spelling.
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 --dimtree
# Likewise --accumulate: --method acc64 is the one spelling.
expect_grep "unknown flag '--accumulate'" "${dmtk}" decompose \
  "${work}/x32.dten" --rank 3 --precision float --accumulate double
expect_usage_error "${dmtk}" decompose "${work}/x32.dten" --rank 3 \
  --precision float --accumulate double
# One precision spelling each (double|float), no sequential 1-step method
# (1-step on one thread is that algorithm), and no tree-depth cap.
for p in single fp32 f64; do
  expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
    --precision "${p}"
done
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --method 1-step-seq
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --levels 1
expect_usage_error "${dmtk}" client --socket "${work}/never.sock" \
  decompose "${work}/x64.dten" --levels 1

# --- value-based decompose rules (DecomposeJob) -----------------------------
# Spelling out a default is never an error ...
expect_ok "${dmtk}" decompose "${work}/x64.dten" --rank 3 --iters 2 \
  --sweep permode --method auto
expect_ok "${dmtk}" decompose "${work}/x64.dten" --rank 3 --iters 2 \
  --sweep dimtree --method auto
expect_ok "${dmtk}" decompose "${work}/x64.dten" --rank 3 --iters 2 \
  --precision double --method auto
expect_ok "${dmtk}" decompose "${work}/s.tns" --rank 2 --iters 2 \
  --sweep auto --method auto
# ... while a real conflict is a usage error naming the field.
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --method acc64
expect_grep "method:" "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --method acc64
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --sweep dimtree --method 2-step
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 \
  --sweep csf
expect_usage_error "${dmtk}" decompose "${work}/s.tns" --rank 2 --nn
expect_usage_error "${dmtk}" decompose "${work}/s.tns" --rank 2 \
  --sweep dimtree
expect_usage_error "${dmtk}" decompose "${work}/x64.dten" --rank 3 --resume

if [[ ${fails} -ne 0 ]]; then
  echo "${fails} CLI round-trip check(s) failed"
  exit 1
fi
echo "CLI round trip OK"
