#!/usr/bin/env bash
# End-to-end tune/wisdom round trip, registered as a ctest.
#
#   usage: tune_smoke.sh <path-to-dmtk-binary>
#
# Covers: `dmtk tune --quick` writing a CRC'd per-CPU profile, `dmtk info
# --cpu` reporting it loaded, a dense decompose running under --wisdom and
# under the DMTK_WISDOM env autoload, the strictness contract (corrupt
# profile aborts an explicit --wisdom run but only warns on the env path),
# DMTK_SIMD setting the start-up level (the hardware level when unset) and
# beating the profile's level preference, and quick mode's 3-trial probes.

set -u
dmtk="$1"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
fails=0

denoise() { sed '/^WARNING conda/d'; }

expect_ok() {
  if ! "$@" > "${work}/out.log" 2>&1; then
    echo "FAIL (expected success): $*"
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

wisdom="${work}/wisdom.json"

# --- tune writes a profile this machine can load back ----------------------
expect_ok "${dmtk}" tune --quick --out "${wisdom}"
[[ -f "${wisdom}" ]] || { echo "FAIL: no profile written"; fails=$((fails + 1)); }
# Quick mode keeps the median of 3 probe trials: one stall must not pick
# the recorded level.
grep -q "stage 1/5: .*, 3 trials)" "${work}/out.log" || {
  echo "FAIL (quick tune should probe each level with 3 trials)"
  cat "${work}/out.log"
  fails=$((fails + 1))
}
expect_grep "best f64" "${dmtk}" tune --quick --out "${wisdom}" --json
expect_grep '"profile"' "${dmtk}" tune --quick --out "${wisdom}" --json

# --- info --cpu reports the ladder and the loaded profile ------------------
expect_grep "simd ladder: scalar" "${dmtk}" info --cpu
expect_grep "wisdom: none" "${dmtk}" info --cpu
expect_grep "wisdom: loaded" "${dmtk}" info --cpu --wisdom "${wisdom}"
expect_grep "blocking MCxKCxNC" "${dmtk}" info --cpu --wisdom "${wisdom}"

# --- DMTK_SIMD picks the start-up level, clamped to the hardware ladder ----
# (a narrower runner falls back down the ladder, so accept those names too)
DMTK_SIMD=avx2 expect_grep '^active level: \(avx2-8x8\|scalar\) (DMTK_SIMD)$' \
  "${dmtk}" info --cpu
DMTK_SIMD=avx512 \
  expect_grep '^active level: \(avx512-16x16\|avx2-8x8\|scalar\) (DMTK_SIMD)$' \
  "${dmtk}" info --cpu
# Unset, every kernel starts at the hardware level.
cpu="$(env -u DMTK_SIMD -u DMTK_WISDOM "${dmtk}" info --cpu 2>&1)"
hw="$(sed -n 's/^hardware level: //p' <<< "${cpu}")"
if [[ -z "${hw}" ]] || ! grep -qx "active level: ${hw} (hardware)" <<< "${cpu}"; then
  echo "FAIL (unset DMTK_SIMD should start at the hardware level)"
  echo "${cpu}"
  fails=$((fails + 1))
fi

# --- decompose under the profile (flag and env paths) ----------------------
expect_ok "${dmtk}" generate --dims 10x8x6 --rank 3 --seed 5 \
  --out "${work}/x.dten"
expect_ok "${dmtk}" decompose "${work}/x.dten" --rank 3 --iters 5 \
  --wisdom "${wisdom}" --out "${work}/m.dktn"
DMTK_WISDOM="${wisdom}" expect_ok "${dmtk}" decompose "${work}/x.dten" \
  --rank 3 --iters 5

# The profile's tuned level must not beat an explicit DMTK_SIMD override.
DMTK_SIMD=scalar expect_grep "active level: scalar (DMTK_SIMD)" \
  "${dmtk}" info --cpu --wisdom "${wisdom}"

# --- strict flag vs lenient env on a corrupt profile -----------------------
cp "${wisdom}" "${work}/bad.json"
printf 'X' | dd of="${work}/bad.json" bs=1 seek=12 conv=notrunc 2>/dev/null
"${dmtk}" decompose "${work}/x.dten" --rank 3 --iters 2 \
  --wisdom "${work}/bad.json" > "${work}/out.log" 2>&1
code=$?
if [[ ${code} -ne 2 ]]; then
  echo "FAIL (corrupt --wisdom should exit 2, got ${code})"
  cat "${work}/out.log"
  fails=$((fails + 1))
fi
# Env autoload is lenient: warn on stderr, run untuned, exit 0.
if ! DMTK_WISDOM="${work}/bad.json" "${dmtk}" decompose "${work}/x.dten" \
    --rank 3 --iters 2 > "${work}/out.log" 2>&1; then
  echo "FAIL (corrupt DMTK_WISDOM should be ignored, not fatal)"
  cat "${work}/out.log"
  fails=$((fails + 1))
fi
grep -q "DMTK_WISDOM" "${work}/out.log" || {
  echo "FAIL (lenient env path should warn about the ignored profile)"
  fails=$((fails + 1))
}

if [[ ${fails} -ne 0 ]]; then
  echo "tune_smoke: ${fails} failure(s)"
  exit 1
fi
echo "tune_smoke: all checks passed"
