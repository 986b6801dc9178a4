"""Feed one workload's inputs to ``nmshom.cli.main`` and time each call.

Run as ``python3 perfbench/worker.py MANIFEST RESULT`` with ``nmshom`` on the
path; ``run.py`` writes the manifest and reads the result.  The process runs
only that workload, so its peak RSS belongs to the workload.  Inputs go in
one at a time (a closed loop with one client) in pool order, pass after
pass, until the manifest's seconds are used up.

The stderr of each input's first run is written to ``stderr-ID.txt`` next to
the manifest, so ``run.py`` can check what goes there (the ``snf`` witnesses)
without this process holding it.  When the manifest asks for set-up samples,
the loop stops every ``seconds / setup_samples`` seconds, between inputs, to
time the import of ``nmshom.cli`` in a fresh interpreter; the samples are
spread over the run like the inputs, and their time is not counted in the
run's elapsed time.

With tracing on, every input runs twice in a row, untraced and traced, so
the difference between the pair is the tracing overhead.  Spans are
recorded by wrapping nmshom's public calls from outside the package; each
span keeps its name, start, end, parent span and input, and the size of the
data the call handled.  Sizes are read after the input finishes, so reading
them costs no traced time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from nmshom import chain, cli, flow, linalg, seifert

# (owner, attribute, span name).  elementary_divisors is wrapped where chain
# and seifert call it, and smith_normal_form where cli and linalg call it, so
# Smith work is caught whichever of the two a caller uses; only the
# outermost linalg.smith span of a nest counts as Smith time.
TRACED_CALLS = (
    (cli, "parse_flow_complex", "flow.parse"),
    (flow.FlowComplex, "validate", "flow.validate"),
    (flow.FlowComplex, "to_chain_complex", "flow.to_chain_complex"),
    (chain.ChainComplex, "check_boundary_condition", "chain.dd"),
    (chain.ChainComplex, "homology", "chain.homology"),
    (chain, "elementary_divisors", "linalg.smith"),
    (seifert, "elementary_divisors", "linalg.smith"),
    (linalg, "smith_normal_form", "linalg.smith"),
    (cli, "smith_normal_form", "linalg.smith"),
    (cli, "parse_matrix", "linalg.parse_matrix"),
    (cli, "format_matrix", "linalg.format_matrix"),
    (seifert.SeifertInvariant, "homology_closed_form", "seifert.closed_form"),
)


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _matrix_entries(m):
    return (e for i in range(m.rows) for e in m.row(i))


def _flow_sizes(complex_) -> dict:
    ranks: dict[int, int] = {}
    for orbit in complex_.orbits:
        ranks[orbit.index] = ranks.get(orbit.index, 0) + 1
    dense = sum(ranks.get(k - 1, 0) * ranks.get(k, 0) for k in range(1, complex_.dimension))
    return {
        "orbits": len(complex_.orbits),
        "incidences": len(complex_.incidences),
        "nnz": sum(1 for inc in complex_.incidences if inc.coefficient),
        "dense_entries": dense,
    }


def _sizes(name: str, args, result) -> dict:
    """Size attributes of one call, from its arguments and result."""
    if name == "flow.parse":
        return {"bytes": len(args[0])}
    if name == "flow.validate":
        sizes = _flow_sizes(args[0])
        if result is not None:
            sizes["violations"] = len(result.violations)
        return sizes
    if name == "flow.to_chain_complex":
        return _flow_sizes(args[0])
    if name in ("chain.dd", "chain.homology"):
        sizes = {"ranks": list(args[0].ranks)}
        if name == "chain.dd" and result is not None:
            sizes["violations"] = len(result.violations)
        return sizes
    if name == "linalg.smith":
        m = args[0]
        sizes = {"rows": m.rows, "cols": m.cols, "nnz": sum(1 for e in _matrix_entries(m) if e)}
        if result is not None:
            divisors = result if isinstance(result, list) else result.divisors
            sizes["rank"] = len(divisors)
            sizes["divisor_max_bits"] = _bits(divisors)
            if not isinstance(result, list):
                sizes["witness_max_bits"] = max(
                    _bits(_matrix_entries(result.u)), _bits(_matrix_entries(result.v))
                )
        return sizes
    if name == "linalg.parse_matrix":
        return {"bytes": len(args[0])}
    if name == "linalg.format_matrix":
        return {"bytes": len(result) if result is not None else 0}
    if name == "seifert.closed_form":
        return {"fibers": len(args[0].pairs)}
    return {}


class Tracer:
    """In-memory span recorder installed by wrapping nmshom's public calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pending: list[tuple[dict, tuple, object]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.execution = -1
        self.input_id = -1

    def install(self) -> None:
        for owner, attribute, name in TRACED_CALLS:
            original = getattr(owner, attribute, None)
            if original is None:
                continue
            setattr(owner, attribute, self._wrap(original, name))
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap(self, original, name):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.close(span, args, result)

        return traced

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "input": self.input_id,
            "execution": self.execution,
            "start": 0.0,
            "end": 0.0,
            "sizes": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict, args=(), result=None) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self._pending.append((span, args, result))

    def settle(self) -> None:
        """Read the sizes of the spans closed since the last call."""
        for span, args, result in self._pending:
            span["sizes"] = _sizes(span["name"], args, result)
        self._pending.clear()


def _closed_form_records(groups) -> str:
    lines = []
    for group in groups:
        line = f"homology {group.degree} {group.betti}"
        if group.torsion:
            line += " " + ",".join(str(d) for d in group.torsion)
        lines.append(line + "\n")
    return "porcelain 1\n" + "".join(lines)


SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import nmshom.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)


def measure_setup() -> float:
    """Import time of nmshom.cli in a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing nmshom.cli failed:\n{done.stderr.strip()}")
    return float(done.stdout)


def run_one(item: dict, execution: int, tracer: Tracer | None) -> tuple[dict, str]:
    """One call of cli.main on one input; returns its record and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    span = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.execution, tracer.input_id = execution, item["id"]
            span = tracer.open("cli.main")
        start = time.perf_counter()
        try:
            code = cli.main(item["argv"])
        except SystemExit as exc:
            code = f"SystemExit {exc.code}"
        except Exception as exc:  # a raise is a failed input, not a stopped run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
    record = {
        "input": item["id"],
        "execution": execution,
        "traced": tracer is not None,
        "seconds": seconds,
        "exit": code,
        "stdout": out.getvalue(),
    }
    if tracer is not None and item.get("seifert"):
        try:
            groups = seifert.parse_invariant(item["seifert"]).homology_closed_form()
            record["closed_form"] = _closed_form_records(groups)
        except Exception as exc:  # checked against the reference like stdout
            record["closed_form"] = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.settle()
    return record, err.getvalue()


def main(argv: list[str]) -> int:
    manifest_path, result_path = argv
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    inputs, seconds = manifest["inputs"], manifest["seconds"]
    folder = Path(manifest_path).parent
    tracer = Tracer() if manifest["trace"] else None
    probe_every = seconds / manifest["setup_samples"] if manifest["setup_samples"] else None
    records, setup, seen = [], [], set()
    execution = 0
    paused = 0.0  # seconds spent on set-up samples, not on inputs
    next_probe = 0.0
    start = time.perf_counter()

    def run(item: dict, traced: bool) -> None:
        if traced:
            tracer.install()
        try:
            record, stderr = run_one(item, execution, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        records.append(record)
        if item["id"] not in seen:
            seen.add(item["id"])
            (folder / f"stderr-{item['id']:04d}.txt").write_text(stderr, encoding="utf-8")

    while not records or time.perf_counter() - start < seconds:
        for item in inputs:
            now = time.perf_counter() - start
            if records and now >= seconds:
                break
            if probe_every is not None and now >= next_probe:
                began = time.perf_counter()
                setup.append(measure_setup())
                paused += time.perf_counter() - began
                next_probe = now + probe_every
            if tracer is None:
                run(item, traced=False)
            else:
                # alternate which of the pair goes first, so warm caches
                # favour neither side of the overhead
                for traced in (execution % 2 == 1, execution % 2 == 0):
                    run(item, traced)
            execution += 1
    elapsed = time.perf_counter() - start - paused
    result = {
        "records": records,
        "elapsed": elapsed,
        "setup": setup,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
