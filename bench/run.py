#!/usr/bin/env python3
"""Closed-loop benchmark of the ``qfnn`` command, run in-process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload all                        # every workload, a table
    python3 bench/run.py --workload run --seed 1 --seconds 36 --trace 0

One client thread calls ``qfnn.cli.main(argv)`` op after op, each op on
fresh seeded input files, checks every output against the independent
oracles in ``oracles.py``, and prints, as its last line, one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  See README.md in this directory for what each workload
and metric is for.
"""

import os

# Pinned before numpy loads: OpenBLAS otherwise picks its own thread count,
# and the eigensolver that dominates ``average`` would follow the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("run", "average", "scenario")
#: Set-up (fresh-interpreter import plus input generation) is repeated this
#: often per run and its median reported.
SETUP_REPEATS = 5
#: Ops whose inputs are generated during set-up; later ops are generated
#: between timed ops.
POOL = 32
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Traced functions and the measures reported for each, per traced op.
FUNCTIONS = {
    "cli.main": ("calls", "self_s"),
    "cli.parse_network_config": ("self_s",),
    "analysis.table1_check": ("self_s",),
    "analysis.table2_check": ("self_s",),
    "analysis.boolean_mn_check": ("self_s",),
    "analysis.xor_reflexivity_check": ("self_s",),
    "analysis.hadamard_variant_check": ("self_s",),
    "analysis.complementarity_check": ("self_s",),
    "analysis.averaged_dynamics_check": ("self_s",),
    "environment.averaged_density": ("self_s",),
    "environment.packet_grid_values": ("calls", "self_s", "nodes"),
    "environment.purity": ("self_s",),
    "environment.parse_packet": ("self_s",),
    "network.run_history": ("self_s",),
    "network.branch_amplitudes": ("self_s", "kept_ratio"),
    "network.verify_truth_table": ("self_s",),
    "boolfn.synaptic_permutation": ("calls", "self_s", "indices"),
    "boolfn.apply_synaptic": ("self_s",),
    "gates.apply_single": ("calls", "self_s"),
    "gates.u2_from_params": ("self_s",),
    "qstate.StateVector": ("calls", "self_s", "amps_validated"),
    "qstate.DensityMatrix": ("calls", "self_s", "entries_validated"),
    "qstate.von_neumann_entropy": ("self_s",),
    "qstate.reduced_density": ("self_s",),
}
MEASURE_UNITS = {"self_s": "s/op", "kept_ratio": "ratio"}  # the rest count per op


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s/op" for layer in tracing.LAYERS}
    for name, measures in FUNCTIONS.items():
        for measure in measures:
            units[f"{name}.{measure}"] = MEASURE_UNITS.get(measure, "1/op")
    units["environment.quad_err_max"] = "1"
    units["trace.coverage"] = "ratio"
    units["trace.traced_ops_per_s"] = "1/s"
    units["trace.untraced_ops_per_s"] = "1/s"
    return units


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def import_seconds() -> float:
    """Time ``import qfnn`` (numpy included) in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import qfnn; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def setup(workload: str, seed: int, tmp_dir: Path):
    """Set up ``SETUP_REPEATS`` times; return the median time and the last op pool."""
    times = []
    for k in range(SETUP_REPEATS):
        pool_dir = tmp_dir / f"pool{k}"
        t_import = import_seconds()
        start = perf_counter()
        pool = [workloads.make_op(workload, seed, i, pool_dir) for i in range(POOL)]
        times.append(t_import + perf_counter() - start)
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(pool_dir)
    return statistics.median(times), pool, pool_dir


def run_calls(cli, calls) -> bool:
    """Run an op's calls in order; False on a non-zero exit or an exception."""
    for argv in calls:
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:  # the op failed; report it and keep measuring
            traceback.print_exc()
            return False
        if status != 0:
            return False
    return True


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond.

    Below 2 * TAIL_BEYOND samples that percentile would sit under the median,
    so the maximum is reported instead, as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload: str, seed: int, seconds: float, traced_run: bool) -> dict:
    from qfnn import cli

    env = _environment()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"inputs-{workload}-") as tmp:
        setup_s, pool, pool_dir = setup(workload, seed, Path(tmp))
        tracer = tracing.Tracer() if traced_run else None
        latencies = {False: [], True: []}
        attempted = failed = 0
        quad_err = 0.0
        i = 0
        start = perf_counter()
        # Two ops at least, so a traced run has an untraced one too.
        while i < 2 or perf_counter() - start < seconds:
            op = pool[i] if i < len(pool) else workloads.make_op(workload, seed, i, pool_dir)
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install(op_id=i)
            t0 = perf_counter()
            ran = run_calls(cli, op.calls)
            latency = perf_counter() - t0
            if traced:
                tracer.uninstall()
            gap, tol = op.check() if ran else (math.inf, 0.0)
            attempted += 1
            if not (gap <= tol):
                failed += 1
                print(f"# op {i} failed: deviation {gap:g} > tolerance {tol:g}",
                      file=sys.stderr)
            elif workload == "average":
                quad_err = max(quad_err, gap)
            latencies[traced].append(latency)
            shutil.rmtree(op.directory)
            i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = latencies[False]
    tail_s, tail_pct = tail(plain)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced_run),
        "environment": env, "attempted": attempted, "failed": failed,
        "timed_ops": len(plain), "tail_percentile": tail_pct, "quad_err_max": quad_err,
        "latencies_s": plain,
        "end_to_end": {
            "ops_per_s": len(plain) / sum(plain),
            "latency_p50_s": statistics.median(plain),
            "latency_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        },
    }
    if traced_run:
        result["per_layer"] = layer_metrics(tracer, latencies, quad_err)
        tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return result


def layer_metrics(tracer, latencies, quad_err: float) -> dict:
    """Per-layer metrics from the traced ops, normalised per traced op."""
    ops = len(latencies[True])
    metrics = {f"{layer}.self_s": v / ops for layer, v in tracer.layer_self_s().items()}
    for name, measures in FUNCTIONS.items():
        row = tracer.stats.get(name, {})
        for measure in measures:
            if measure == "kept_ratio":
                scanned = row.get("scanned", 0.0)
                value = row.get("kept", 0.0) / scanned if scanned else 0.0
            else:
                value = row.get(measure, 0.0) / ops
            metrics[f"{name}.{measure}"] = value
    metrics["environment.quad_err_max"] = quad_err
    total_self = sum(row["self_s"] for row in tracer.stats.values())
    metrics["trace.coverage"] = total_self / sum(latencies[True])
    metrics["trace.traced_ops_per_s"] = ops / sum(latencies[True])
    metrics["trace.untraced_ops_per_s"] = len(latencies[False]) / sum(latencies[False])
    return metrics


def report(result: dict) -> dict:
    """Print the human-readable lines and return the JSON result object."""
    env = result["environment"]
    print(f"# workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("# " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}" for k, v in env.items()))
    print(f"# ops attempted={result['attempted']} failed={result['failed']} "
          f"timed={result['timed_ops']} "
          f"tail=p{result['tail_percentile']:.1f} quad_err_max={result['quad_err_max']:.3g}")
    if result["trace"]:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in result["end_to_end"].items()}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Run every workload, each in its own process, and print one table."""
    status = 0
    print(f"{'workload':<9} {'metric':<28} {'value':>12}  unit")
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + 600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload:<9} exited with status {done.returncode}")
            status = 1
            continue
        for line in lines[:-1]:
            if line.startswith("# ops attempted"):
                print(f"{workload:<9} {line[2:]}")
        out = json.loads(lines[-1])
        for name, m in out["metrics"].items():
            print(f"{workload:<9} {name:<28} {m['value']:>12.6g}  {m['unit']}")
        print(f"{workload:<9} {'failed_frac':<28} {out['failed'] / out['attempted']:>12.6g}  1")
        status |= 0 if out["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfnn" / "__init__.py").is_file():
        print(f"error: qfnn sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import qfnn

    if Path(qfnn.__file__).resolve().parent != SRC / "qfnn":
        print(f"error: imported qfnn from {qfnn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
