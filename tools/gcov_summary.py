#!/usr/bin/env python3
"""Print a per-file gcov line-coverage summary of src/ for one build.

Stdlib-only, and needs only `gcov` (no lcov or gcovr). Build with
`-DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage`,
run whatever should count (ctest, benches, examples), then:

    python3 tools/gcov_summary.py BUILD_DIR

Each src/**/*.cc is reported once, from its own object's coverage data;
headers are left out (every includer reports them). Files whose object
never ran report 0 lines hit. g++ 12's gcov attributes no line inside a
coroutine body (only the function's first and last lines count), so a
file of coroutines reads as better covered than it is. Output is one line per file, sorted by
path: `<percent> <hit>/<total> <path>`, then a TOTAL line. Coverage is
reported, not gated: the exit status is nonzero only when gcov fails or
no src/ object with coverage notes is found.
"""

import argparse
import os
import re
import subprocess
import sys

FILE_RE = re.compile(r"^File '(.+)'$")
LINES_RE = re.compile(r"^Lines executed:([0-9.]+)% of (\d+)$")


def gcov_lines(gcno):
    """{source path: (hit, total)} that gcov reports for one object."""
    out = subprocess.run(
        ["gcov", "-n", "-o", os.path.dirname(gcno), gcno],
        capture_output=True, text=True, check=True).stdout
    result = {}
    current = None
    for line in out.splitlines():
        m = FILE_RE.match(line)
        if m:
            current = m.group(1)
            continue
        m = LINES_RE.match(line)
        if m and current is not None:
            total = int(m.group(2))
            hit = round(float(m.group(1)) * total / 100.0)
            result[current] = (hit, total)
            current = None
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir")
    opts = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
    src = os.path.join(root, "src") + os.sep

    rows = {}
    for root, _, files in os.walk(opts.build_dir):
        for name in files:
            if not name.endswith(".cc.gcno"):
                continue
            # gcov finds the .gcda beside the notes file; without one (the
            # object never ran) it reports every line unexecuted.
            gcno = os.path.join(root, name)
            cc = name[:-len(".gcno")]
            for path, (hit, total) in gcov_lines(gcno).items():
                real = os.path.realpath(path)
                if real.startswith(src) and os.path.basename(real) == cc:
                    rows[real[len(src) - len("src/"):]] = (hit, total)
    if not rows:
        sys.exit(f"gcov_summary: no src/ objects with coverage notes under "
                 f"{opts.build_dir}")
    hit_all = total_all = 0
    for path in sorted(rows):
        hit, total = rows[path]
        hit_all += hit
        total_all += total
        pct = 100.0 * hit / total if total else 100.0
        print(f"{pct:6.2f}% {hit:5d}/{total:<5d} {path}")
    pct = 100.0 * hit_all / total_all if total_all else 100.0
    print(f"{pct:6.2f}% {hit_all:5d}/{total_all:<5d} TOTAL")


if __name__ == "__main__":
    main()
