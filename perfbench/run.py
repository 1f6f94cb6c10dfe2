"""Benchmark of lgwigner, run from the repository root.

    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see ``workloads.py``): ``verify_full``, ``cli_export`` and
``library_grid``; ``all`` runs each in a fresh process and prints one
table. The package is imported from ``src/`` without installing it. BLAS
uses at most as many threads as the process may run on CPUs.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no wrapper installed:

- ``setup_s``: median over fresh processes of ``import lgwigner`` plus
  input generation;
- ``run_s``: median wall time of the workload's body, repeated until
  ``--seconds`` have passed (at least once);
- ``peak_rss_mb``: the process's peak resident set after the timed loop;
- ``worst_margin``: the largest ``error / tolerance`` over the gates;
- ``pass_ratio``: operations that passed over operations attempted, that
  is one minus the failed ratio (a metric must never read 0, so the
  failed ratio itself is printed but not reported).

With ``--trace 1`` it times the body untraced for ``--seconds``, then once
more with every public function wrapped by ``tracer.Tracer`` (verify_full
then runs one ``run_suite`` call per suite, timed from outside), and
reports the per-layer metrics, the traced ``run_s`` and the tracing
overhead. The spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("verify_full", "cli_export", "library_grid")
SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "worst_margin": ("ratio", "lower", 0.1),
    "pass_ratio": ("ratio", "higher", 0.01),
}


def per_layer_catalog() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every per-layer metric."""
    from lgwigner.verify import SUITE_CHECKS

    from perfbench.tracer import LAYERS, ORACLE_LAYERS
    from perfbench.workloads import INVOCATIONS

    out = {}
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.calls"] = ("count", "lower")
            out[f"{layer}.self_s"] = ("s", "lower")
    for layer in ORACLE_LAYERS:
        out[f"{layer}.nodes"] = ("count", "lower")
        out[f"{layer}.useful_node_ratio"] = ("ratio", "higher")
    out["wigner.rotfft.max_err"] = ("abs", "lower")
    for suite in SUITE_CHECKS:
        out[f"verify.{suite}.s"] = ("s", "lower")
    for names in SUITE_CHECKS.values():
        for check in names:
            out[f"verify.{check}.margin"] = ("ratio", "lower")
    for name in INVOCATIONS:
        out[f"cli.{name}.s"] = ("s", "lower")
    out["cli.self_s"] = ("s", "lower")
    out["cli.bytes_written"] = ("bytes", "lower")
    out["trace.run_s"] = ("s", "lower")
    out["trace.overhead_ratio"] = ("ratio", "lower")
    return out


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; return that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    import lgwigner

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lgwigner": lgwigner.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(ROOT),
    }


def _workdir(workload: str) -> Path:
    path = OUT / workload
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(workload: str, seed: int) -> None:
    """Body of one set-up process: import the package, build the inputs."""
    t0 = time.perf_counter()
    from perfbench.workloads import WORKLOADS as registry

    registry[workload].setup(seed, _workdir(workload))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def timed_loop(body, inputs, seconds: float):
    """Run ``body`` until ``seconds`` have passed; return outcomes and times."""
    outcomes, times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if outcomes:
            outcomes[-1].results.clear()
        t0 = time.perf_counter()
        outcomes.append(body(inputs))
        times.append(time.perf_counter() - t0)
    return outcomes, times


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; return the result line and the full record."""
    setup_s = measure_setup(workload, seed) if not trace else None

    import lgwigner

    from perfbench.workloads import WORKLOADS as registry

    wl = registry[workload]
    inputs = wl.setup(seed, _workdir(workload))
    outcomes, times = timed_loop(wl.body, inputs, seconds)
    run_s = statistics.median(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        from perfbench import tracer as tracing

        outcomes[-1].results.clear()
        spans = tracing.Tracer()
        spans.install_package(lgwigner)
        try:
            t0 = time.perf_counter()
            traced = wl.body(inputs, split=True)
            traced_run_s = time.perf_counter() - t0
        finally:
            spans.restore()
        spans.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
        outcomes.append(traced)

    gate = wl.gate(inputs, outcomes)
    record = {
        "environment": environment(workload, seed, trace),
        "iterations": len(times),
        "times_s": times,
        "parts_s": [o.parts for o in outcomes],
        "checks": [c.__dict__ | {"margin": c.margin} for c in gate.checks],
        "outputs": gate.outputs,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_ratio": gate.failed / gate.attempted,
    }
    if not trace:
        metrics = end_to_end(gate, setup_s, run_s, peak_rss_mb)
    else:
        metrics = _per_layer(workload, spans.spans, traced, gate, run_s, traced_run_s, tracing)
        record["untraced_run_s"] = run_s
        record["spans"] = len(spans.spans)
    record["metrics"] = metrics
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    return result, record


def end_to_end(gate, setup_s: float, run_s: float, peak_rss_mb: float) -> dict:
    margins = [c.margin for c in gate.checks if c.margin is not None]
    values = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "worst_margin": max(margins, default=0.0),
        "pass_ratio": 1.0 - gate.failed / gate.attempted,
    }
    return {name: _metric(values[name], unit) for name, (unit, _, _) in END_TO_END.items()}


def _per_layer(workload, spans, traced, gate, run_s, traced_run_s, tracing) -> dict:
    catalog = per_layer_catalog()
    totals = tracing.layer_totals(spans)
    values = dict.fromkeys(catalog, 0.0)
    for layer, entry in totals.items():
        if layer == tracing.OVERHEAD_LAYER:
            continue
        values[f"{layer}.self_s"] = entry["self_s"]
        if layer != "cli":
            values[f"{layer}.calls"] = entry["calls"]
        if layer in tracing.ORACLE_LAYERS:
            values[f"{layer}.nodes"] = entry["nodes"]
            values[f"{layer}.useful_node_ratio"] = entry["useful_node_ratio"]
    values["wigner.rotfft.max_err"] = gate.rotfft_max_err
    # verify_full's parts are suites, cli_export's are invocations
    prefix = {"verify_full": "verify", "cli_export": "cli"}.get(workload)
    for part, seconds in traced.parts.items():
        if f"{prefix}.{part}.s" in catalog:
            values[f"{prefix}.{part}.s"] = seconds
    for check in gate.checks:
        key = f"verify.{check.name}.margin"
        if key in catalog and check.margin is not None:
            values[key] = check.margin
    values["cli.bytes_written"] = gate.bytes_written
    values["trace.run_s"] = traced_run_s
    values["trace.overhead_ratio"] = traced_run_s / run_s - 1.0
    return {name: _metric(values[name], unit) for name, (unit, _) in catalog.items()}


def _print_report(result: dict, record: dict) -> None:
    print("environment " + json.dumps(record["environment"]))
    for c in record["checks"]:
        margin = "" if c["margin"] is None else f" tol={c['tol']:.0e} margin={c['margin']:.3e}"
        status = "ok" if c["passed"] else "FAIL " + c["detail"]
        print(f"check {c['name']} err={c['err']:.3e}{margin} {status}")
    for name, out in record["outputs"].items():
        print(f"output {name} sha256={out['sha256']} bytes={out['bytes']}")
    print(f"failed_ratio {record['failed_ratio']:.6g} ratio ({record['failed']} of {record['attempted']} operations)")
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    if "untraced_run_s" in record:
        overhead = result["metrics"]["trace.overhead_ratio"]["value"]
        print(
            f"tracing overhead: traced run {result['metrics']['trace.run_s']['value']:.4g} s "
            f"against untraced {record['untraced_run_s']:.4g} s ({overhead:+.1%}, {record['spans']} spans)"
        )


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of its metrics."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            rows.append((workload, name, metric["value"], metric["unit"]))
        ratio = result["failed"] / result["attempted"]
        rows.append((workload, "failed_ratio", ratio, "ratio"))
    for workload, name, value, unit in rows:
        print(f"{workload:14s} {name:40s} {value:14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark lgwigner.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lgwigner" / "__init__.py").is_file():
        print(f"error: no lgwigner package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    _print_report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
