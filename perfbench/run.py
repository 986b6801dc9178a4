"""Fixed-seed benchmark of the nmshom pipeline, end to end and by layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn

NAME is one of :data:`WORKLOADS`.  The benchmark makes the workload's inputs
from the seed, writes them as files under ``.perfbench/`` in the checkout,
and starts ``worker.py`` in a fresh interpreter that feeds them one at a
time to ``nmshom.cli.main([..., "--porcelain", ...])`` for S seconds: a
closed loop with one client and no threads.  Every exit code and stdout is
checked against the reference ``gen.py`` computed without nmshom, and the
``snf`` witnesses of each input's first run by ``witness.py``, after the
timed loop.

The loop goes over a small input pool pass after pass, so each input runs
ten times or more, seconds apart.  An input's latency is its fastest run:
the shared two-vCPU host this was built on slows every process by up to 1.8x
in phases lasting from a tenth of a second to minutes, and the fastest of
several spaced runs filters the short phases out where a median over runs
does not.  Latency percentiles are then taken over the distinct inputs;
throughput is the untraced runs completed over the run's elapsed time.
Set-up time is the median of import-time samples spread over the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans recorded around nmshom's public calls, plus the
tracing overhead, and writes the spans to ``.perfbench/spans-NAME-seedN.jsonl``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
figures for people, with sample counts and ``failed_ratio``.  Without
nmshom's sources the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import witness

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"

# pool: distinct inputs, few enough that a baseline run makes ten passes or more;
# lo..hi: size range (fibers, orbits per index, orbits in all, matrix rows)
WORKLOADS = {
    "seifert-torsion": {"pool": 40, "lo": 40, "hi": 100},
    "validate-large": {"pool": 40, "lo": 500, "hi": 1500},
    "snf-witness": {"pool": 60, "lo": 20, "hi": 60},
}
# Conjugated complexes (gen.conjugated_case) are checked by selftest.py but
# not timed: a fourth workload would shorten every run, and on a noisy host
# the spread between runs grows as runs get shorter.
# set-up samples taken during an untraced run, spread evenly over it
SETUP_SAMPLES = 30
# input_tail_s leaves at least this many of the pool's inputs beyond it
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "input_p50_s": "s",
    "input_tail_s": "s",
    "inputs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "flow.parse_s": "s",
    "flow.parse_mb_per_s": "MB/s",
    "flow.validate_s": "s",
    "flow.validate_calls": "count",
    "flow.violations": "count",
    "flow.assemble_s": "s",
    "flow.dense_entries": "count",
    "flow.fill_ratio": "ratio",
    "chain.dd_s": "s",
    "chain.dd_calls": "count",
    "chain.homology_s": "s",
    "chain.homology_self_s": "s",
    "linalg.smith_s": "s",
    "linalg.smith_rows": "count",
    "linalg.smith_cols": "count",
    "linalg.smith_nnz": "count",
    "linalg.rank": "count",
    "linalg.divisor_max_bits": "bits",
    "linalg.witness_max_bits": "bits",
    "linalg.parse_matrix_s": "s",
    "linalg.format_matrix_s": "s",
    "seifert.closed_form_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(RuntimeError):
    """The run could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SOURCE) + (os.pathsep + path if path else "")
    return env


def run_worker(cases: list[gen.Case], seconds: float, trace: bool, tag: str) -> dict:
    """Write the inputs, run worker.py over them, and return its result.

    The result's ``stderr`` maps each input id to the stderr of its first run.
    """
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = []
        for case in cases:
            path = work / f"in-{case.id:04d}.txt"
            path.write_text(case.text, encoding="utf-8")
            argv = [str(path) if a == "{path}" else a for a in case.argv]
            inputs.append({"id": case.id, "argv": argv, "seifert": case.seifert})
        manifest, result = work / "manifest.json", work / "result.json"
        manifest.write_text(
            json.dumps(
                {
                    "inputs": inputs,
                    "seconds": seconds,
                    "trace": trace,
                    "setup_samples": 0 if trace else SETUP_SAMPLES,
                }
            )
        )
        try:
            done = subprocess.run(
                [sys.executable, str(WORKER), str(manifest), str(result)],
                env=_env(),
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
        if done.returncode != 0 or not result.exists():
            raise BenchmarkError(f"worker failed with exit {done.returncode}:\n{done.stderr.strip()}")
        found = json.loads(result.read_text())
        found["stderr"] = {
            i: (work / f"stderr-{i:04d}.txt").read_text(encoding="utf-8")
            for i in {record["input"] for record in found["records"]}
        }
        return found
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check(cases: list[gen.Case], result: dict) -> list[str]:
    """One line per run whose exit code, stdout, closed form or witnesses are wrong.

    Witnesses are checked on each input's first run, whose stderr was kept.
    """
    by_id = {case.id: case for case in cases}
    problems = []
    seen = set()
    for record in result["records"]:
        case = by_id[record["input"]]
        expected = (case.expected_exit, case.expected_stdout, case.expected_stdout)
        got = (record["exit"], record["stdout"], record.get("closed_form", case.expected_stdout))
        wrong = []
        if got != expected:
            wrong.append(
                f"got exit {got[0]!r} stdout {got[1][:200]!r} closed form {got[2][:200]!r}; "
                f"expected exit {expected[0]} stdout {expected[1][:200]!r}"
            )
        if case.divisors is not None and case.id not in seen:
            wrong += witness.check(case.text, case.divisors, result["stderr"][case.id])
        seen.add(case.id)
        if wrong:
            problems.append(f"input {case.id} {case.size}: " + "; ".join(wrong))
    return problems


def tail_percentile(count: int) -> int:
    """The highest whole percentile that leaves TAIL_BEYOND of ``count`` samples
    beyond its nearest rank (the median when there are too few samples)."""
    fits = [p for p in range(50, 100) if count - -(-p * count // 100) >= TAIL_BEYOND]
    return max(fits, default=50)


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond its rank."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def fastest(records: list[dict], traced: bool) -> dict[int, dict]:
    """Each input's fastest run among the untraced or the traced ones."""
    best: dict[int, dict] = {}
    for record in records:
        if record["traced"] == traced:
            held = best.get(record["input"])
            if held is None or record["seconds"] < held["seconds"]:
                best[record["input"]] = record
    return best


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    best = [r["seconds"] for r in fastest(result["records"], traced=False).values()]
    runs = len(result["records"])
    pct = tail_percentile(len(best))
    tail, beyond = percentile(best, pct)
    setup = result["setup"]
    values = {
        "setup_s": statistics.median(setup),
        "input_p50_s": statistics.median(best),
        "input_tail_s": tail,
        "inputs_per_s": runs / result["elapsed"],
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters spread over the run",
        "input_p50_s": f"n={len(best)} inputs, fastest of {runs / len(best):.1f} runs each",
        "input_tail_s": f"p{pct}, n={len(best)}, {beyond} beyond",
        "inputs_per_s": f"{runs} runs in {result['elapsed']:.2f} s",
        "peak_rss_mb": "worker process, this workload only",
    }
    lines = [f"{n:<14} {values[n]:<12.6g} {u:<4} {notes[n]}" for n, u in END_TO_END_UNITS.items()]
    return values, lines


def per_layer(result: dict) -> dict:
    """Per-layer figures from the spans of each input's fastest traced run.

    Times are that run's total in the layer, median over inputs; a layer the
    workload never calls reads 0.  Self time is a span's duration minus its
    child spans'.  Only the outermost of nested linalg.smith spans counts.
    """
    spans = result["spans"]
    by_id = {span["id"]: span for span in spans}
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    traced = fastest(result["records"], traced=True)
    plain = fastest(result["records"], traced=False)
    chosen = {(r["input"], r["execution"]) for r in traced.values()}
    groups: dict[int, list[dict]] = {}
    for span in spans:
        if (span["input"], span["execution"]) in chosen:
            groups.setdefault(span["input"], []).append(span)

    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def self_time(span: dict) -> float:
        return duration(span) - sum(duration(c) for c in children.get(span["id"], ()))

    def root(span: dict) -> dict:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span

    rows: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}
    parse_bytes = parse_seconds = nnz = dense = violations = 0
    divisor_bits = witness_bits = 0
    for input_id, group in groups.items():
        main = next(s for s in group if s["name"] == "cli.main")
        inside = [s for s in group if root(s) is main]
        named: dict[str, list[dict]] = {}
        for span in inside:
            named.setdefault(span["name"], []).append(span)
        smiths = [
            s for s in named.get("linalg.smith", ())
            if by_id[s["parent"]]["name"] != "linalg.smith"
        ]
        assembled = [
            s for s in named.get("flow.to_chain_complex", ())
            if any(c["name"] == "chain.dd" for c in children.get(s["id"], ()))
        ]
        biggest = max(smiths, key=lambda s: s["sizes"]["rows"] * s["sizes"]["cols"], default=None)

        def total(name: str) -> float:
            return sum(duration(s) for s in named.get(name, ()))

        rows["cli.main_s"].append(duration(main))
        rows["cli.self_s"].append(self_time(main))
        rows["cli.stdout_bytes"].append(len(traced[input_id]["stdout"]))
        rows["flow.parse_s"].append(total("flow.parse"))
        rows["flow.validate_s"].append(total("flow.validate"))
        rows["flow.validate_calls"].append(len(named.get("flow.validate", ())))
        rows["flow.assemble_s"].append(
            sum(self_time(s) for s in named.get("flow.to_chain_complex", ()))
        )
        rows["flow.dense_entries"].append(sum(s["sizes"]["dense_entries"] for s in assembled))
        rows["chain.dd_s"].append(total("chain.dd"))
        rows["chain.dd_calls"].append(len(named.get("chain.dd", ())))
        rows["chain.homology_s"].append(total("chain.homology"))
        rows["chain.homology_self_s"].append(
            sum(self_time(s) for s in named.get("chain.homology", ()))
        )
        rows["linalg.smith_s"].append(sum(duration(s) for s in smiths))
        for key in ("rows", "cols", "nnz"):
            rows[f"linalg.smith_{key}"].append(biggest["sizes"][key] if biggest else 0)
        rows["linalg.rank"].append(sum(s["sizes"].get("rank", 0) for s in smiths))
        rows["linalg.parse_matrix_s"].append(total("linalg.parse_matrix"))
        rows["linalg.format_matrix_s"].append(total("linalg.format_matrix"))
        rows["seifert.closed_form_s"].append(
            sum(duration(s) for s in group if s["name"] == "seifert.closed_form")
        )
        rows["trace.overhead_s"].append(traced[input_id]["seconds"] - plain[input_id]["seconds"])
        for s in named.get("flow.parse", ()):
            parse_bytes += s["sizes"]["bytes"]
            parse_seconds += duration(s)
        for s in named.get("flow.validate", ()):
            violations += s["sizes"].get("violations", 0)
        for s in named.get("linalg.smith", ()):
            divisor_bits = max(divisor_bits, s["sizes"].get("divisor_max_bits", 0))
            witness_bits = max(witness_bits, s["sizes"].get("witness_max_bits", 0))
        for s in assembled:
            nnz += s["sizes"]["nnz"]
            dense += s["sizes"]["dense_entries"]

    values = {name: statistics.median(found) for name, found in rows.items() if found}
    plain_total = sum(plain[i]["seconds"] for i in groups)
    values.update(
        {
            "flow.parse_mb_per_s": parse_bytes / parse_seconds / 1e6 if parse_seconds else 0.0,
            "flow.violations": violations / len(groups),
            "flow.fill_ratio": nnz / dense if dense else 0.0,
            "linalg.divisor_max_bits": divisor_bits,
            "linalg.witness_max_bits": witness_bits,
            "trace.overhead_ratio": sum(traced[i]["seconds"] for i in groups) / plain_total - 1,
        }
    )
    return {name: values[name] for name in PER_LAYER_UNITS}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """One run: set-up time, inputs, the timed loop, checks and metrics.

    Returns the result object printed as the last line, and the human lines.
    """
    params = WORKLOADS[name]
    cases = gen.make_pool(name, seed, params["pool"], params["lo"], params["hi"])
    result = run_worker(cases, seconds, trace, f"{name}-seed{seed}")
    problems = check(cases, result)
    attempted, failed = len(result["records"]), len(problems)
    lines = [
        f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
        f"python {sys.version.split()[0]}  nproc {os.cpu_count()}",
        f"{'failed_ratio':<14} {failed / attempted:<12.6g} {'':<4} "
        f"{failed} of {attempted} runs wrong or raised",
    ]
    lines += [f"  {p}" for p in problems[:5]]
    if trace:
        values, units = per_layer(result), PER_LAYER_UNITS
        lines += [f"{key:<26} {values[key]:<12.6g} {units[key]}" for key in units]
        spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
        WORK.mkdir(exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in result["spans"]:
                handle.write(json.dumps(span) + "\n")
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values, e2e_lines = end_to_end(result)
        units = END_TO_END_UNITS
        lines += e2e_lines
    output = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    return output, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "nmshom" / "cli.py").is_file():
        print(f"error: no nmshom sources under {SOURCE}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outputs = {}
    try:
        for name in names:
            outputs[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(outputs[names[0]] if len(names) == 1 else outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
