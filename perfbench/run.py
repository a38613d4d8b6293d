"""Benchmark for metricgraph: end-to-end and per-layer metrics on three
seeded workloads (see workloads.py for what each one stresses).

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-ensemble --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run times passes of the workload with tracing off,
for as many passes as fit in ``--seconds`` (at least one), and prints
setup_s, pass_cost, cpu_s and wall_s (median pass), peak_rss_mb,
error_rate and bound_width_rel. pass_cost is a pass's CPU time in
multiples of a fixed reference computation timed every half CPU-second
during the pass (see reference.py). With ``--trace 1`` it runs one
untraced pass and one traced pass and prints the per-layer metrics; the
difference between the two passes' costs is the tracing overhead, and the
reference's samples are taken out of the spans. Every pass's outputs are
checked afterwards, outside the timed region. Each operation is counted
once in attempted and failed, with its worst outcome over the run's
passes, so the counts do not depend on how many passes fit. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. Spans and
the run record are written under .perfbench/<workload>/.
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
from importlib import metadata
from pathlib import Path

import tracer as tr
from reference import Reference, SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# End-to-end metrics put in the result. The benchmark runs on a few cores
# of a shared host. There wall time measures the scheduler (a second busy
# process made a verify-ensemble pass take 22 s of wall time for 15 s of CPU
# time), and CPU time moves with the host's speed (see reference.py), so a
# pass is gated on its cost in reference units; cpu_s and wall_s are printed
# and recorded only. So are error_rate, which is 0 on a healthy workload
# (the result's attempted and failed counts carry it), and peak_rss_mb and
# bound_width_rel, which vary with the seed by more than any usable bound on
# gh-nets (VR memory grows with the cube of the net size; gh-nets and
# cli-large produce one interval a pass).
GATED = ("setup_s", "pass_cost")

# setup_s is given in seconds at a fixed reference speed: set-up CPU time
# in reference units (see reference.py) times REF_SECONDS, about the
# reference's CPU time on the 2-core x86 host the bounds were set on. Raw
# set-up CPU time moved by a quarter between two sets of ten runs there.
REF_SECONDS = 0.05
# CPU time of the import, then of the reference run in the same process
_IMPORT_PROBE = ("import time; t = time.process_time(); import metricgraph, "
                 "metricgraph.cli; t = time.process_time() - t; "
                 "from reference import Reference; print(t, Reference().cpu_s())")

CERT_KEYS = {
    "diameter gap / 2": "diameter",
    "persistence sequence gap / 4": "sequence",
    "hyperbolicity gap / 4": "hyperbolicity",
    "net barcode bottleneck / 2": "barcode",
    "linear formula in the sequence entry": "linear",
    "smoothing quotient correspondence": "quotient",
    "merge tree distortion / 2": "merge_tree",
}


def _import_cost() -> float:
    """CPU time of `import metricgraph` in a fresh interpreter, in units of
    the reference timed in that interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(Path(__file__).resolve().parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    seconds, ref = map(float, res.stdout.split()[-2:])
    return seconds / ref


def _setup(workload, seed: int, workdir: Path, reference):
    """setup_s: import, generate the seeded graphs, write and read their
    JSON, in CPU seconds at the reference speed; repeated, median
    reported."""
    samples, inputs = [], None
    for _ in range(SETUP_REPEATS):
        import_cost = _import_cost()
        r0 = reference.cpu_s()
        c0 = time.process_time()
        inputs = workload.make_inputs(seed, workdir)
        cpu = time.process_time() - c0
        make_cost = cpu / (0.5 * (r0 + reference.cpu_s()))
        samples.append((import_cost + make_cost) * REF_SECONDS)
    return statistics.median(samples), inputs


def _timed_pass(workload, inputs, sampler, tracer=None):
    """One pass under the sampler. Returns the ops and a dict of the sums
    of the ops' wall and CPU seconds, less the sampler's own time, and of
    their cost in reference units. The cost leaves out ops stopped at their
    deadline: their CPU time is the deadline, not the work, and they are
    counted as failed."""
    ops, cost = [], 0.0
    with sampler:
        pending = iter(workload.run_pass(inputs, tracer))
        while True:
            cost0, cpu0, wall0 = sampler.cost(), sampler.ref_cpu_s, sampler.ref_wall_s
            op = next(pending, None)
            if op is None:
                break
            ops.append(op)
            op.cpu_s -= sampler.ref_cpu_s - cpu0
            op.wall_s -= sampler.ref_wall_s - wall0
            op.cost = sampler.cost() - cost0
            if not op.timed_out:
                cost += op.cost
    return ops, {"wall_s": sum(op.wall_s for op in ops),
                 "cpu_s": sum(op.cpu_s for op in ops), "cost": cost}


def _counts(passes):
    """attempted and failed, each operation counted once with its worst
    outcome over the passes (passes run the same operations in order)."""
    per_op = list(zip(*passes))
    return (sum(max(op.attempted for op in runs) for runs in per_op),
            sum(max(op.failed for op in runs) for runs in per_op))


def _bound_width_rel(passes) -> float:
    widths = [0.0 if hi == 0 else (hi - lo) / hi
              for op in passes[0] for lo, hi in op.intervals]
    return statistics.fmean(widths) if widths else 0.0


def _cert_ratios(tracer) -> dict:
    attempts = dict.fromkeys(CERT_KEYS.values(), 0)
    wins = dict.fromkeys(CERT_KEYS.values(), 0)
    # lower certificates: the selected bound is the largest; one equal to a
    # positive selected bound wins
    for certs in tracer.lower_certs:
        best = max(v for _, v in certs)
        for name, v in certs:
            key = CERT_KEYS[name]
            attempts[key] += 1
            wins[key] += int(best > 0 and v == best)
    # upper certificates of delta_n_bounds: one equal to the upper bound wins
    for rep in tracer.delta_reports:
        for name, v in rep.certificates:
            key = CERT_KEYS.get(name)
            if key in ("linear", "quotient", "merge_tree"):
                attempts[key] += 1
                wins[key] += int(v == rep.upper)
    return {f"gh_bounds.cert.{k}.win_ratio": (wins[k] / attempts[k] if attempts[k] else 0.0)
            for k in attempts}


def _layer_metrics(tracer, untraced: dict, traced: dict, exclude) -> dict:
    stats = tracer.layer_stats(exclude)
    units = {"calls": "count", "total_s": "s", "self_s": "s"}
    metrics = {}
    for name in tr.SPAN_NAMES:
        for stat in tr.SPAN_STATS:
            metrics[f"{name}.{stat}"] = (stats[name][stat], units[stat])
    for name in tr.COUNT_NAMES:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    for name, value in _cert_ratios(tracer).items():
        metrics[name] = (value, "ratio")
    metrics["trace.overhead_ratio"] = (traced["cost"] / untraced["cost"] - 1.0, "ratio")
    metrics["trace.coverage"] = (stats["top_level_s"] / traced["wall_s"], "ratio")
    return metrics


def _git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _record(args, passes, times) -> dict:
    import metricgraph
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "git_sha": _git_sha(),
        "backend": metricgraph.BACKEND,
        "nproc": os.cpu_count(),
        "passes": times,
        "op_cpu_s": {op.name: [ops[i].cpu_s for ops in passes]
                     for i, op in enumerate(passes[0])},
        "op_cost": {op.name: [ops[i].cost for ops in passes]
                    for i, op in enumerate(passes[0])},
        "sha256": {op.name: op.digest for op in passes[0]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "metricgraph" / "__init__.py").is_file():
        print(f"no metricgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = OUT / workload.name
    workdir = outdir / "inputs"
    workdir.mkdir(parents=True, exist_ok=True)

    reference = Reference()
    setup_s, inputs = _setup(workload, args.seed, workdir, reference)
    workload.plan(inputs)

    passes, times = [], []
    if args.trace:
        ops, untraced = _timed_pass(workload, inputs, SpeedSampler(reference))
        passes.append(ops)
        tracer = tr.Tracer()
        sampler = SpeedSampler(reference)
        tracer.install()
        try:
            ops, traced = _timed_pass(workload, inputs, sampler, tracer)
        finally:
            tracer.uninstall()
        passes.append(ops)
        times = [untraced, traced]
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            ops, t = _timed_pass(workload, inputs, SpeedSampler(reference))
            passes.append(ops)
            times.append(t)
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    violations = [why for ops in passes for why in workload.check(inputs, ops)]
    attempted, failed = _counts(passes)
    for ops in passes:
        for op in ops:
            if op.failed:
                print(f"failed: {op.name}: {op.note}", file=sys.stderr)
    for why in violations:
        print(f"check: {why}", file=sys.stderr)

    timed = times[:1] if args.trace else times
    e2e = {
        "setup_s": (setup_s, "s"),
        "pass_cost": (statistics.median(t["cost"] for t in timed), "ref"),
        "cpu_s": (statistics.median(t["cpu_s"] for t in timed), "s"),
        "wall_s": (statistics.median(t["wall_s"] for t in timed), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / attempted, "ratio"),
        "bound_width_rel": (_bound_width_rel(passes), "ratio"),
    }
    record = _record(args, passes, times)
    record["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
    if args.trace:
        reported = _layer_metrics(tracer, untraced, traced, sampler.intervals)
        tracer.write(outdir / "spans.npz", sampler.intervals)
    else:
        reported = {k: e2e[k] for k in GATED}
    (outdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in {**e2e, **reported}.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
