"""Self-test of the benchmark at small sizes.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It checks, without timing anything, that:

- every small input of every workload, including each planted defect kind,
  and of the conjugated complexes with known homology that validate-large's
  blocks are made of, gets from ``nmshom.cli.main`` exactly the exit code
  and stdout that ``gen.py`` predicts;
- the Seifert torsion reference and the unimodularity test give known
  answers;
- the u, s, v that ``snf --witness`` prints satisfy s = u.M.v with s the
  predicted diagonal and u, v unimodular, by ``witness.py``'s exact
  arithmetic;
- conjugated complexes have every boundary nonzero;
- ``run.py`` prints exactly the metric names and units that BENCHMARK.json
  lists, with ``--trace 0`` and ``--trace 1``, and exits nonzero without a
  result where nmshom's sources are missing.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import gen
import run
import witness

sys.path.insert(0, str(run.SOURCE))
from nmshom import cli  # noqa: E402  (importable once the line above ran)

# (inputs, smallest size, largest size) per pool; every fifth
# validate-large input from the third on carries a defect, so 25 inputs
# cover all five kinds
SMALL = {
    "seifert-torsion": (12, 2, 30),
    "conjugated-homology": (8, 3, 9),
    "validate-large": (25, 40, 200),
    "snf-witness": (12, 2, 14),
}


def check_pools(seed: int) -> list[str]:
    problems = []
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, (count, lo, hi) in SMALL.items():
            pool = gen.make_pool(name, seed, count, lo, hi)
            for case in pool:
                path = work / "input.txt"
                path.write_text(case.text, encoding="utf-8")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([str(path) if a == "{path}" else a for a in case.argv])
                label = f"{name} input {case.id} {case.size}"
                if (code, out.getvalue()) != (case.expected_exit, case.expected_stdout):
                    problems.append(
                        f"{label}: got {code} {out.getvalue()!r}, "
                        f"expected {case.expected_exit} {case.expected_stdout!r}"
                    )
                if name == "snf-witness":
                    found = witness.check(case.text, case.divisors, err.getvalue(), exact=True)
                    problems += [f"{label}: {p}" for p in found]
                if name == "conjugated-homology":
                    levels = {
                        int(line.split()[1].split("_")[0][1:])
                        for line in case.text.splitlines()
                        if line.startswith("incidence")
                    }
                    dim = int(case.text.splitlines()[1].split()[1])
                    if levels != set(range(1, dim)):
                        problems.append(f"{label}: some boundary is zero")
            missing = set(gen.DEFECT_KINDS) - {case.size.get("defect") for case in pool}
            if name == "validate-large" and missing:
                problems.append(f"validate-large pool misses defect kinds {missing}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def check_seifert_reference() -> list[str]:
    known = {(6, 10, 15): [30], (2, 4): [2], (2, 3): [], (4, 4, 4): [4, 4], (1, 12, 18): [6]}
    return [
        f"seifert_torsion{alphas} = {gen.seifert_torsion(list(alphas))}, expected {torsion}"
        for alphas, torsion in known.items()
        if gen.seifert_torsion(list(alphas)) != torsion
    ]


def check_witness_arithmetic() -> list[str]:
    """The unimodularity test, exact and modular, on matrices of known determinant."""
    known = {((1, 1), (0, 1)): True, ((2, 1), (1, 1)): True, ((2, 0), (0, 1)): False,
             ((3, 5), (1, 2)): True, ((0, 0), (0, 1)): False, ((4, 2), (2, 2)): False}
    return [
        f"unimodular({m}, exact={exact}) is not {expected}"
        for m, expected in known.items()
        for exact in (True, False)
        if witness.unimodular([list(row) for row in m], exact) != expected
    ]


def _run(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_metric_names() -> list[str]:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        expected = {m["name"]: m["unit"] for m in declared[key]}
        for name in run.WORKLOADS:
            done = _run(run.ROOT, "--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", trace)
            if done.returncode != 0:
                problems.append(f"{name} --trace {trace} exited {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected:
                problems.append(f"{name} --trace {trace} printed {printed}, BENCHMARK.json has {expected}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
                problems.append(f"{name} --trace {trace}: bad result {result}")
    return problems


def check_bare_directory() -> list[str]:
    bare = run.WORK / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(bare, "--workload", "seifert-torsion", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = check_seifert_reference() + check_witness_arithmetic() + check_pools(seed=3)
    problems += check_metric_names() + check_bare_directory()
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
