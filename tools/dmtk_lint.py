#!/usr/bin/env python3
"""dmtk invariant linter: machine-checks the repo conventions that the
compiler cannot.

Rules (each waivable per line with
`// dmtk-lint: allow(<rule>): <justification>` on the offending line or
the line directly above it; an empty justification is itself an error):

  hot-alloc           Heap-allocating constructs (``new``/``malloc``
                      family / ``std::vector`` object construction) in
                      the hot files -- the kernels whose allocation-free
                      execute guarantee the arena exists for. Plan-
                      construction allocations are fine but must say so
                      in a waiver, so every allocation in a hot file is
                      either absent or justified.
  hot-clock           A clock read (any ``*Timer`` stopwatch such as
                      ``WallTimer``, ``std::chrono``, ``omp_get_wtime``)
                      in the hot files. The kernels compute and nothing
                      else; a caller that wants a time wraps the call
                      from outside.
  reinterpret-cast    ``reinterpret_cast`` anywhere in src/ or tools/.
                      The arena's byte->T carve-outs and checked_io's
                      memcpy footer made every cast removable; the POSIX
                      sockaddr idiom is the known waived exception.
  fault-site          Every ``DMTK_FAULT_POINT("x")`` / ``should_fail("x")``
                      literal in src/ must appear in the compiled-in
                      kKnownSites table of src/util/fault.cpp, so the
                      table (and the fault.hpp site docs) cannot drift
                      from the code.
  instantiation       Any explicit instantiation line mentioning
                      ``<double>`` must have a ``<float>`` twin in the
                      same file -- the fp32 surface stays complete.
  crc-footer          Raw file output (``std::ofstream`` / ``fopen``)
                      outside io/checked_io.cpp. Binary artifacts go
                      through FileWriter so they get the CRC32 footer
                      and atomic rename.
  omp-reduction       An OpenMP ``reduction(`` clause in src/. The runtime
                      combines the partial results in whatever order the
                      threads arrive, so a floating-point sum changes in
                      its last bits from run to run; combine per-thread
                      block_range partials in thread order instead.
  raw-mmap            ``mmap(`` / ``munmap(`` / ``madvise(`` in src/
                      outside util/aligned_alloc.cpp. Big buffers have one
                      path (buffer_alloc), so the cut, the huge-page
                      advice and the unmap all live in one file.
  float-atomic        ``std::atomic<float|double>`` or an
                      ``std::atomic_ref`` over a floating type in src/.
                      Threads adding into one float atomic sum in arrival
                      order, so the result changes in its last bits from
                      run to run, as with ``omp-reduction``.
  layering            An ``#include`` that points up the layer stack.
                      ``src/job/`` (the decompose job) may not include
                      ``serve/``; the layers below it
                      (``src/{baseline,blas,core,exec,io,linalg,sim,sparse,
                      util}``) may include neither ``job/`` nor
                      ``serve/``. The front ends (serve/, tools/) build on
                      the job, never the other way round.

Exit status: 0 clean, 1 violations, 2 usage/self-test failure.
`--self-test` seeds one violation of every rule class in a temp tree and
asserts the engine catches each -- CI runs it before the real pass, so a
rule that silently stops firing fails the build.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

HOT_FILES = (
    "src/core/mttkrp.cpp",
    "src/exec/dim_tree.cpp",
    "src/exec/mttkrp_plan.cpp",
    "src/exec/onestep_external.cpp",
    "src/exec/sweep_plan.cpp",
    "src/exec/sparse_mttkrp_plan.cpp",
    "src/blas/gemm.cpp",
    "src/blas/rank_panel.cpp",
    "src/util/crc32.cpp",
    "src/util/sumsq.cpp",
)

SCAN_DIRS = ("src", "tools")
FAULT_TABLE_FILE = "src/util/fault.cpp"
CHECKED_IO_FILE = "src/io/checked_io.cpp"
LARGE_BUFFER_FILE = "src/util/aligned_alloc.cpp"

WAIVER_RE = re.compile(r"//\s*dmtk-lint:\s*allow\(([a-z-]+)\):\s*(.*)")

# A vector OBJECT construction allocates; a reference/pointer binding does
# not. `std::vector<T>& x` / `const std::vector<T>* p` are skipped.
VECTOR_DECL_RE = re.compile(r"std::vector<[^;]*>(?!\s*[&*])\s+[A-Za-z_]")
NEW_RE = re.compile(r"\bnew\b(?!\w)")
MALLOC_RE = re.compile(r"\b(?:malloc|calloc|realloc)\s*\(")
CLOCK_RE = re.compile(r"\b\w*Timer\b|\bstd::chrono\b|\bomp_get_wtime\b")

FAULT_LITERAL_RE = re.compile(
    r"(?:DMTK_FAULT_POINT|should_fail|fail_point)\s*\(\s*\"([^\"]+)\"")
KNOWN_SITES_RE = re.compile(
    r"kKnownSites\[\]\s*=\s*\{(.*?)\};", re.DOTALL)

# An explicit-instantiation line names the entity right before its
# template argument list: `template class FooT<double>;`,
# `template CpAlsResult cp_als<double>(...)`. The <float> twin check is
# by NAME (cp_als<float> must appear somewhere in the file), because twin
# signatures legitimately differ through the fp32 type aliases
# (Ktensor vs KtensorF, Tensor vs TensorF, ...).
INSTANTIATION_RE = re.compile(r"^\s*template\s+[^<=]*\b([A-Za-z_]\w*)<double")

OFSTREAM_RE = re.compile(r"\bstd::ofstream\b|\bfopen\s*\(")

OMP_REDUCTION_RE = re.compile(r"#\s*pragma\s+omp\b.*\breduction\s*\(")

RAW_MMAP_RE = re.compile(r"\b(?:mmap|munmap|madvise)\s*\(")

FLOAT_ATOMIC_RE = re.compile(
    r"\bstd::atomic(?:_ref)?\s*<\s*(?:const\s+|volatile\s+)*"
    r"(?:float|double|long\s+double)\s*>")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([a-z_]+)/')
# Layer -> the src/ directories it must not include.
JOB_LAYER = "job"
BELOW_JOB = ("baseline", "blas", "core", "exec", "io", "linalg", "sim",
             "sparse", "util")
FORBIDDEN_INCLUDES = {JOB_LAYER: ("serve",)}
FORBIDDEN_INCLUDES.update({d: (JOB_LAYER, "serve") for d in BELOW_JOB})


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_line_comment(line: str) -> str:
    """Code part of a line (drops // comments; good enough for this tree,
    which has no multi-line /* */ blocks around the linted constructs)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def waiver_for(lines: list[str], i: int, rule: str):
    """Waiver covering line i (0-based): on the line itself, or anywhere
    in the contiguous block of comment-only lines directly above it (so a
    waiver whose justification wraps across comment lines still counts).
    Returns (waived, problem) -- problem set when a waiver matches the
    rule but carries no justification."""
    candidates = [lines[i]]
    j = i - 1
    while j >= 0 and lines[j].strip().startswith("//"):
        candidates.append(lines[j])
        j -= 1
    for cand in candidates:
        m = WAIVER_RE.search(cand)
        if m and m.group(1) == rule:
            if not m.group(2).strip():
                return False, "waiver without justification"
            return True, None
    return False, None


def iter_source_files(root: str):
    for d in SCAN_DIRS:
        base = os.path.join(root, d)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    yield os.path.join(dirpath, name)


def relpath(root: str, path: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def load_known_sites(root: str) -> set[str]:
    path = os.path.join(root, FAULT_TABLE_FILE)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return set()
    m = KNOWN_SITES_RE.search(text)
    if not m:
        return set()
    return set(re.findall(r"\"([^\"]+)\"", m.group(1)))


def check_file(root: str, path: str, known_sites: set[str],
               out: list[Violation]) -> None:
    rel = relpath(root, path)
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()

    is_hot = rel in HOT_FILES

    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        lineno = i + 1

        def emit(rule: str, message: str) -> None:
            waived, problem = waiver_for(lines, i, rule)
            if problem:
                out.append(Violation(rel, lineno, rule, problem))
            elif not waived:
                out.append(Violation(rel, lineno, rule, message))

        if is_hot:
            if (VECTOR_DECL_RE.search(code) or NEW_RE.search(code)
                    or MALLOC_RE.search(code)):
                emit("hot-alloc",
                     "heap allocation in a hot file (plans execute "
                     "allocation-free; waive with a justification if this "
                     "is construction-time)")
            if CLOCK_RE.search(code):
                emit("hot-clock",
                     "clock read in a hot file (kernels are not "
                     "instrumented; time the call from outside)")

        if "reinterpret_cast" in code:
            emit("reinterpret-cast",
                 "reinterpret_cast (use memcpy / typed carve-outs; waive "
                 "only for OS API idioms)")

        if rel.startswith("src/"):
            fm = FAULT_LITERAL_RE.search(code)
            if fm and fm.group(1) not in known_sites:
                emit("fault-site",
                     f"fault site \"{fm.group(1)}\" is not in "
                     f"{FAULT_TABLE_FILE}'s kKnownSites table")

        im = INSTANTIATION_RE.match(code)
        if im:
            name = im.group(1)
            if not any(f"{name}<float" in strip_line_comment(other)
                       for other in lines):
                emit("instantiation",
                     f"explicit {name}<double> instantiation without a "
                     f"{name}<float> twin in the same file")

        if rel.startswith("src/") and OMP_REDUCTION_RE.search(code):
            emit("omp-reduction",
                 "OpenMP reduction clause (its combine order is up to the "
                 "runtime; sum block_range partials in thread order)")

        if (rel.startswith("src/") and rel != LARGE_BUFFER_FILE
                and RAW_MMAP_RE.search(code)):
            emit("raw-mmap",
                 "raw mapping call outside util/aligned_alloc.cpp (big "
                 "buffers go through buffer_alloc)")

        if rel.startswith("src/") and FLOAT_ATOMIC_RE.search(code):
            emit("float-atomic",
                 "floating-point atomic (its sum depends on thread arrival "
                 "order; sum block_range partials in thread order)")

        inc = INCLUDE_RE.match(raw)
        if inc and rel.startswith("src/"):
            layer = rel.split("/")[1]
            if inc.group(1) in FORBIDDEN_INCLUDES.get(layer, ()):
                emit("layering",
                     f"src/{layer}/ includes {inc.group(1)}/ (a lower "
                     f"layer may not depend on the job or server layers)")

        if rel != CHECKED_IO_FILE and OFSTREAM_RE.search(code):
            emit("crc-footer",
                 "raw file output outside checked_io (FileWriter gives "
                 "the CRC32 footer + atomic rename)")


def run(root: str) -> list[Violation]:
    known_sites = load_known_sites(root)
    out: list[Violation] = []
    if not known_sites:
        out.append(Violation(FAULT_TABLE_FILE, 1, "fault-site",
                             "kKnownSites table missing or empty"))
    for path in iter_source_files(root):
        check_file(root, path, known_sites, out)
    return out


# --- self-test -------------------------------------------------------------

SELF_TEST_SEEDS = {
    # rule -> (relative path, file content that must trip exactly it)
    "hot-alloc": (
        "src/core/mttkrp.cpp",
        "void f() { std::vector<double> tmp(100); }\n",
    ),
    "hot-clock": (
        "src/exec/mttkrp_plan.cpp",
        "void f() { WallTimer t; }\n",
    ),
    "reinterpret-cast": (
        "src/core/bad_cast.cpp",
        "int g(char* p) { return *reinterpret_cast<int*>(p); }\n",
    ),
    "fault-site": (
        "src/core/bad_site.cpp",
        "void h() { DMTK_FAULT_POINT(\"no.such.site\"); }\n",
    ),
    "instantiation": (
        "src/core/bad_inst.cpp",
        "template class FooT<double>;\n",
    ),
    "crc-footer": (
        "src/core/bad_io.cpp",
        "std::ofstream out(\"x.bin\");\n",
    ),
    "omp-reduction": (
        "src/core/bad_reduce.cpp",
        "#pragma omp parallel for reduction(+ : total)\n",
    ),
    "raw-mmap": (
        "src/core/bad_map.cpp",
        "void* m() { return ::mmap(nullptr, 1 << 21, 3, 0x22, -1, 0); }\n",
    ),
    "float-atomic": (
        "src/core/bad_atomic.cpp",
        "std::atomic<double> total{0.0};\n",
    ),
    "layering": (
        "src/core/bad_layer.cpp",
        "#include \"job/decompose_job.hpp\"\n",
    ),
}

SELF_TEST_TABLE = (
    "constexpr std::string_view kKnownSites[] = {\n"
    "    \"io.write\",\n"
    "};\n"
)


def self_test() -> int:
    failures = []
    for rule, (rel, content) in SELF_TEST_SEEDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, os.path.dirname(rel)))
            os.makedirs(os.path.join(tmp, "src/util"), exist_ok=True)
            os.makedirs(os.path.join(tmp, "tools"), exist_ok=True)
            with open(os.path.join(tmp, FAULT_TABLE_FILE), "w",
                      encoding="utf-8") as f:
                f.write(SELF_TEST_TABLE)
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
            hits = [v for v in run(tmp) if v.rule == rule]
            if not hits:
                failures.append(rule)
            # A justified waiver must silence the same seed.
            waived = ("// dmtk-lint: allow(%s): self-test waiver\n" % rule
                      ) + content
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(waived)
            if any(v.rule == rule for v in run(tmp)):
                failures.append(rule + " (waiver ignored)")
    if failures:
        print("dmtk_lint self-test FAILED for: " + ", ".join(failures),
              file=sys.stderr)
        return 2
    print("dmtk_lint self-test: every rule fires on its seed and honors "
          "its waiver")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repo root (default: current directory)")
    ap.add_argument("--self-test", action="store_true",
                    help="seed one violation per rule and require the "
                         "engine to catch each")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    violations = run(os.path.abspath(args.root))
    for v in violations:
        print(v)
    if violations:
        print(f"dmtk_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("dmtk_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
