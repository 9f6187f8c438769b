#!/usr/bin/env python3
"""eulergram benchmark: seeded CLI jobs timed end to end, or traced per layer.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload digital --seed 0 --seconds 34 --trace 0

Each workload (see ``workloads.py``) is a fixed list of ``eulergram``
subcommand jobs whose configs are generated from ``--seed``.  The jobs run
in-process through ``eulergram.cli.main([... , "--no-timestamp"])``, one after
another in a closed loop, pinned to one BLAS/OpenMP thread.  After one
untimed warm-up pass the loop repeats whole passes while the next one is
expected to end within ``--seconds`` (at least three passes).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median normalised CPU time of a fresh interpreter importing
  ``eulergram.cli``, which every CLI invocation pays;
* ``peak_rss_mb``: peak resident memory of this process;
* ``job1_norm_s`` .. ``job3_norm_s``: median normalised CPU time of the
  workload's first, second and third job over the timed passes.

Times are CPU times (user + system), normalised to the host's speed of the
moment.  The jobs run on one thread and wait on nothing, so on an idle
machine CPU and wall time agree within a few per cent.  On a shared virtual
machine they do not: wall time also counts the time other tenants hold the
core, and even CPU time swings by up to 1.9x within seconds as neighbours
contend for the physical core, so a run's median moves with the share of
its time spent in the slow state.  Each timed execution is therefore
bracketed by a fixed pure-Python reference loop (``reference_kernel``), and
its CPU time is scaled by ``REF_KERNEL_S`` over the mean of the two
reference times: a normalised second is a CPU second on a host where the
reference loop takes ``REF_KERNEL_S``.  The loop tracks the jobs closely
but not exactly (log-log slopes of job time on loop time from 0.9 to 1.4
were seen), so normalised times still move a few per cent with the host's
state.  The loop is the benchmark's own code, so a change to
eulergram moves the normalised time as it moves the CPU time.  The process
and its set-up children are pinned to one CPU so that loop and job share it.
Raw CPU and wall times are kept in the full record.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics of one pass (counts, and each layer's self time as a share of the
traced wall time), after checking that tracing leaves outputs unchanged,
that self times add up to the traced wall time and that counts repeat.

Every job execution is gated: exit code 0, seed-independent invariants,
byte-identical outputs across passes and, for seeds in ``expected.json``,
estimator outputs equal to the recorded ones.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
provenance, per-job sizes, per-layer detail and the closed-form comparison,
goes to ``perfbench/out/``.  ``--record`` stores the estimator outputs of
the given seed in ``expected.json`` instead of measuring.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

MIN_PASSES = 3
SETUP_REPEATS = 9   # at least this many set-ups
SETUP_EVERY = 2     # passes per set-up
REF_LOOPS = 100_000
REF_KERNEL_S = 0.010  # nominal CPU time of the reference loop: the normalised second
HARD_LIMIT_S = 120.0  # no new pass starts past this, whatever --seconds says
SELF_SUM_TOL = 0.02

LAYER_METRICS = [
    ("cli.main.calls", "count"), ("cli.self_pct", "%"),
    ("lattice.digitize.calls", "count"), ("lattice.digitize.points", "count"),
    ("lattice.digitize.self_pct", "%"),
    ("lattice.write_pgm.bytes", "count"), ("lattice.write_pgm.self_pct", "%"),
    ("shapes.contains.calls", "count"), ("shapes.contains.points", "count"),
    ("shapes.contains.self_pct", "%"),
    ("variogram.chi_bicovariogram.calls", "count"),
    ("variogram.chi_bicovariogram.self_pct", "%"),
    ("variogram.estimate_perimeter.calls", "count"),
    ("variogram.estimate_perimeter.self_pct", "%"),
    ("variogram.perimeter_variational.calls", "count"),
    ("variogram.perimeter_variational.self_pct", "%"),
    ("variogram.quad_points", "count"), ("variogram.evals_per_quad_point", "ratio"),
    ("topology.config_counts.calls", "count"), ("topology.config_counts.pixels", "count"),
    ("topology.config_counts.self_pct", "%"),
    ("topology.chi_vef.calls", "count"), ("topology.chi_vef.pixels", "count"),
    ("topology.chi_vef.self_pct", "%"),
    ("topology.label_components.calls", "count"),
    ("topology.label_components.pixels", "count"),
    ("topology.label_components.self_pct", "%"),
    ("entanglement.verify_bounds.calls", "count"),
    ("entanglement.verify_bounds.self_pct", "%"),
    ("entanglement.detect_interior_pairs.calls", "count"),
    ("entanglement.detect_interior_pairs.self_pct", "%"),
    ("entanglement.detect_boundary_pairs.calls", "count"),
    ("entanglement.detect_boundary_pairs.self_pct", "%"),
    ("entanglement.interior_pairs", "count"), ("entanglement.boundary_pairs", "count"),
    ("entanglement.candidates", "count"),
    ("randomsets.sample_realization.calls", "count"),
    ("randomsets.sample_realization.germs", "count"),
    ("randomsets.sample_realization.self_pct", "%"),
    ("randomsets.level_set_features_exact.calls", "count"),
    ("randomsets.level_set_features_exact.self_pct", "%"),
    ("randomsets.estimate_stationary_densities.calls", "count"),
    ("randomsets.estimate_stationary_densities.self_pct", "%"),
    ("randomsets.closed_form.calls", "count"), ("randomsets.closed_form.self_pct", "%"),
    ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
]


# ------------------------------------------------------------ program

def load_cli():
    """Import ``eulergram.cli`` from this checkout's sources, nowhere else."""
    pkg = SRC / "eulergram"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"perfbench: no eulergram sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import eulergram.cli as cli

    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported eulergram from {cli.__file__}, not {pkg}")
    return cli


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reference_kernel() -> float:
    """CPU seconds of a fixed pure-Python loop: a probe of the host's speed."""
    c0 = time.process_time()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.process_time() - c0


def bracketed(fn):
    """Run ``fn`` between two reference loops; return its result and their mean."""
    before = reference_kernel()
    result = fn()
    return result, 0.5 * (before + reference_kernel())


def time_setup() -> tuple[float, float]:
    """Wall and CPU seconds of a fresh interpreter importing ``eulergram.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import eulergram.cli"]
    c0, t0 = _children_cpu(), time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0, _children_cpu() - c0


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(seed, jobs, load_start, cpus_usable) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "eulergram").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "jobs": {j.name: {"subcommand": j.subcommand, **j.sizes} for j in jobs},
    }


# -------------------------------------------------------------- jobs

def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs the workload's jobs and gates every execution."""

    def __init__(self, cli, jobs, work: Path, recorded: dict | None):
        self.cli = cli
        self.jobs = jobs
        self.recorded = recorded
        self.dirs = {}
        for job in jobs:
            d = work / job.name
            d.mkdir(parents=True, exist_ok=True)
            (d / "config.json").write_text(json.dumps(job.config, indent=1))
            self.dirs[job.name] = d
        self.reference = {}   # job name -> output digest of the first execution
        self.outputs = {}     # job name -> parsed outputs of the first execution
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job) -> tuple[float, float]:
        """Run one job and gate its outputs; return its wall and CPU seconds."""
        d = self.dirs[job.name]
        out = d / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [job.subcommand, "--config", str(d / "config.json"), "--out", str(out),
                "--no-timestamp"]
        t0, c0 = time.perf_counter(), time.process_time()
        code = self.cli.main(argv)  # looked up per call, so tracing can swap it
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.attempted += 1
        errs = self._gate(job, code, out)
        if errs:
            self.failures.append(f"{job.name}: " + "; ".join(errs[:5]))
        return wall, cpu

    def _gate(self, job, code, out) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            digest = _digest(out)
            if job.name in self.reference:
                same = digest == self.reference[job.name]
                return [] if same else ["outputs differ from the first execution"]
            outputs = wl.read_outputs(out)
            errs = wl.check_invariants(job, outputs, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable outputs: {type(exc).__name__}: {exc}"]
        if self.recorded is not None:
            if job.name not in self.recorded:
                errs.append("no recorded outputs for this job")
            else:
                errs += wl.compare_recorded(self.recorded[job.name],
                                            wl.estimator_outputs(job, outputs))
        if not errs:
            self.reference[job.name] = digest
            self.outputs[job.name] = outputs
        return errs

    def run_pass(self) -> dict:
        return {job.name: self.run(job) for job in self.jobs}


def percentile_beyond(values, min_beyond=10):
    """Highest whole percentile with at least ``min_beyond`` samples above it."""
    n = len(values)
    if n < 2 * min_beyond:
        return None
    q = int(100 * (n - min_beyond) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------- measuring

def _time_left(start, seconds, rounds) -> bool:
    """Whether one more round (of mean length so far) still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    if elapsed > HARD_LIMIT_S:
        return False
    return not rounds or elapsed + elapsed / rounds <= seconds


def measure(runner, seconds) -> tuple[dict, list]:
    """(wall, CPU, reference) seconds of every timed pass per job and set-up.

    A set-up follows every ``SETUP_EVERY``-th pass, so that both sample the
    whole run and drift of the host's speed during the run reaches their
    medians alike.
    """
    runner.run_pass()  # warm-up: caches, allocator, first-seen outputs
    time_setup()       # warm-up: may compile bytecode
    samples = {job.name: [] for job in runner.jobs}
    setups = []
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or _time_left(start, seconds, passes):
        for job in runner.jobs:
            times, ref = bracketed(lambda: runner.run(job))
            samples[job.name].append((*times, ref))
        passes += 1
        if passes % SETUP_EVERY == 0:
            times, ref = bracketed(time_setup)
            setups.append((*times, ref))
    while len(setups) < SETUP_REPEATS:
        times, ref = bracketed(time_setup)
        setups.append((*times, ref))
    return samples, setups


def normalised(times) -> float:
    """Median CPU seconds, rescaled to a host where the reference loop takes
    ``REF_KERNEL_S``."""
    return statistics.median(cpu * REF_KERNEL_S / ref for _, cpu, ref in times)


def measure_traced(runner, seconds):
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    runner.run_pass()  # warm-up
    start = time.perf_counter()
    while len(traced) < 2 or _time_left(start, seconds, len(traced)):
        untraced.append(sum(wall for wall, _ in runner.run_pass().values()))
        tracer.install()
        walls = {}
        try:
            for job in runner.jobs:
                tracer.job = f"{job.name}@{len(traced)}"
                walls[job.name] = runner.run(job)[0]
        finally:
            tracer.uninstall()
        traced.append(walls)
    return tracer, untraced, traced


def layer_report(runner, tracer, untraced, traced):
    """Per-job layer detail, the workload's per-layer metrics and self-checks."""
    checks = []
    jobs_detail = {}
    share_self: dict = {}
    total_wall = sum(sum(w.values()) for w in traced)
    all_stats = tracer.stats()
    for job in runner.jobs:
        per_pass = [all_stats[f"{job.name}@{p}"] for p in range(len(traced))]
        counts = [tracer.job_counts(f"{job.name}@{p}") for p in range(len(traced))]
        if any(c != counts[0] for c in counts[1:]):
            checks.append(f"{job.name}: counts differ between traced passes")
        for p, stats in enumerate(per_pass):
            wall = traced[p][job.name]
            self_sum = sum(s["self_s"] for s in stats.values())
            if abs(self_sum - wall) > SELF_SUM_TOL * wall + 1e-3:
                checks.append(f"{job.name}: self times sum to {self_sum:.4f}s, "
                              f"traced wall {wall:.4f}s")
            for name, s in stats.items():
                share_self[name] = share_self.get(name, 0.0) + s["self_s"]
        jobs_detail[job.name] = _job_detail(per_pass, counts[0], [w[job.name] for w in traced])

    metrics = {}
    pass_counts: dict = {}
    for job in runner.jobs:
        for key, n in tracer.job_counts(f"{job.name}@0").items():
            pass_counts[key] = pass_counts.get(key, 0) + n
    quad = sum(n for k, n in pass_counts.items() if k.startswith("variogram.")
               and k.endswith(".quad_points"))
    derived = {
        "variogram.quad_points": quad,
        "variogram.evals_per_quad_point":
            pass_counts.get("shapes.contains.points_in_variogram", 0) / quad if quad else 0.0,
        "entanglement.interior_pairs":
            pass_counts.get("entanglement.detect_interior_pairs.pairs", 0),
        "entanglement.boundary_pairs":
            pass_counts.get("entanglement.detect_boundary_pairs.pairs", 0),
        "entanglement.candidates":
            pass_counts.get("entanglement.detect_interior_pairs.candidates", 0),
        "trace.wall_s": statistics.median(sum(w.values()) for w in traced),
        "trace.overhead_frac": (statistics.median(sum(w.values()) for w in traced)
                                / statistics.median(untraced) - 1.0),
    }
    for name, unit in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_pct"):
            span = "cli.main" if name == "cli.self_pct" else name[:-len(".self_pct")]
            value = 100.0 * share_self.get(span, 0.0) / total_wall
        else:
            value = pass_counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, jobs_detail, checks


def _job_detail(per_pass, counts, walls) -> dict:
    """One job's layers: calls, self seconds and share per pass, work counts."""
    wall = statistics.median(walls)
    names = sorted({n for stats in per_pass for n in stats})
    layers = {}
    for name in names:
        self_s = statistics.median(stats.get(name, {"self_s": 0.0})["self_s"]
                                   for stats in per_pass)
        entry = {"calls": per_pass[0].get(name, {"calls": 0})["calls"], "self_s": self_s,
                 "self_pct": 100.0 * self_s / wall}
        entry.update({k[len(name) + 1:]: v for k, v in counts.items()
                      if k.startswith(name + ".") and k != name + ".calls"})
        layers[name] = entry
    detail = {"traced_wall_s": wall, "passes": len(walls), "layers": layers,
              "cli.self_s": layers["cli.main"]["self_s"]}
    interior = layers.get("entanglement.detect_interior_pairs", {})
    if interior.get("candidates"):
        detail["entanglement.detect_interior_pairs.us_per_candidate"] = (
            1e6 * interior["self_s"] / interior["candidates"])
    sampled = layers.get("randomsets.sample_realization", {})
    if sampled.get("germs"):
        detail["randomsets.germs_per_replicate"] = sampled["germs"] / sampled["calls"]
    lsf = layers.get("randomsets.level_set_features_exact", {})
    if lsf.get("germs"):
        detail["randomsets.us_per_germ"] = 1e6 * lsf["self_s"] / lsf["germs"]
        durations = [d for stats in per_pass
                     for d in stats["randomsets.level_set_features_exact"]["durations"]]
        detail["randomsets.level_set_features_exact.p50_ms"] = 1e3 * statistics.median(durations)
        high = percentile_beyond(durations)
        if high is not None:
            detail["randomsets.level_set_features_exact.p_high"] = {
                "percentile": high[0], "ms": 1e3 * high[1], "samples": len(durations)}
    quad = sum(v.get("quad_points", 0) for k, v in layers.items() if k.startswith("variogram."))
    if quad:
        detail["variogram.quad_points"] = quad
        detail["variogram.evals_per_quad_point"] = (
            layers.get("shapes.contains", {}).get("points_in_variogram", 0) / quad)
    return detail


# ------------------------------------------------------------- output

def throughput(jobs, medians) -> dict:
    """Work per normalised second in the workload's own unit, from per-job medians."""
    total = sum(medians.values())
    out = {}
    for key, unit, scale in (("lattice_points", "mpix_per_s", 1e-6),
                             ("quad_points", "quad_mpts_per_s", 1e-6),
                             ("replicates", "replicates_per_s", 1.0)):
        work = sum(j.sizes.get(key, 0) for j in jobs)
        if work:
            out[unit] = scale * work / total
    return out


def write_expected(expected) -> None:
    """One line per recorded workload seed, so re-recording diffs stay small."""
    blocks = []
    for workload, seeds in sorted(expected.items()):
        lines = [f"  {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}"
                 for seed, entry in sorted(seeds.items(), key=lambda kv: int(kv[0]))]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n }")
    EXPECTED.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv=None) -> int:
    load_start = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's estimator outputs in expected.json and exit")
    args = ap.parse_args(argv)

    cpus_usable = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by set-up children
    cli = load_cli()
    jobs = wl.WORKLOADS[args.workload](args.seed)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    recorded = None if args.record else expected.get(args.workload, {}).get(str(args.seed))
    work = OUT / f"{args.workload}-seed{args.seed}"
    runner = Runner(cli, jobs, work, recorded)

    if args.record:
        runner.run_pass()
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        entry = {j.name: wl.estimator_outputs(j, runner.outputs[j.name]) for j in jobs}
        expected.setdefault(args.workload, {})[str(args.seed)] = entry
        write_expected(expected)
        print(f"recorded {args.workload} seed {args.seed} in {EXPECTED.name}")
        return 0

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed, jobs, load_start, cpus_usable),
              "recorded_outputs_checked": recorded is not None}
    checks = []
    if args.trace == 0:
        samples, setups = measure(runner, args.seconds)
        medians = {name: normalised(v) for name, v in samples.items()}
        metrics = {"setup_s": {"value": normalised(setups), "unit": "s"},
                   "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024.0, "unit": "MB"}}
        for i, job in enumerate(jobs, 1):
            metrics[f"job{i}_norm_s"] = {"value": medians[job.name], "unit": "s"}
        record["ref_kernel_s"] = REF_KERNEL_S
        record["setup"] = {key: [t[i] for t in setups]
                           for i, key in enumerate(("wall_s", "cpu_s", "ref_s"))}
        record["jobs"] = {}
        for job in jobs:
            times = samples[job.name]
            cpus = [cpu for _, cpu, _ in times]
            record["jobs"][job.name] = {
                "median_norm_s": medians[job.name],
                "median_cpu_s": statistics.median(cpus),
                "median_wall_s": statistics.median(wall for wall, _, _ in times),
                "p_high_cpu": percentile_beyond(cpus),
                "samples": len(times),
                **{key: [t[i] for t in times]
                   for i, key in enumerate(("wall_s", "cpu_s", "ref_s"))}}
        record["throughput"] = throughput(jobs, medians)
    else:
        tracer, untraced, traced = measure_traced(runner, args.seconds)
        metrics, detail, checks = layer_report(runner, tracer, untraced, traced)
        record["jobs"] = detail
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json.gz")

    infos = {job.name: wl.closed_form_info(job, runner.outputs[job.name])
             for job in jobs if job.name in runner.outputs}
    record["closed_form_vs_mc"] = {k: v for k, v in infos.items() if v is not None}
    record["failures"] = runner.failures
    record["trace_checks"] = checks
    correct = not runner.failures and not checks
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for line in runner.failures + checks:
        print(f"FAILED {line}", file=sys.stderr)
    for name, info in record["closed_form_vs_mc"].items():
        z = "n/a" if info["z"] is None else f"{info['z']:+.2f}"
        print(f"info {name}: closed form {info['closed_form']} vs MC "
              f"{info['mc_mean']:.4f} +- {info['mc_stderr']:.4f} (z {z}, not gated)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
