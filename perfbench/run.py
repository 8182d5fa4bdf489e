"""Stage-level benchmark of the horizonlab CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload

Each repetition runs the pipeline as the README does, one
``python -m horizonlab <stage>`` process per stage, in a fresh output
directory, and times every stage process from outside (wall time from
spawn to reap, CPU time and max RSS from ``os.wait4``).  Stages run one
after another, one process at a time (closed loop, one client), with the
BLAS thread pools of every process pinned to one thread.  Repetitions
continue while the next one is predicted to end within ``--seconds``,
then set-up-only repetitions follow until the run has set up twice.
Every repetition after the first must reproduce the numeric artifacts of
the first byte for byte.  End-to-end metrics are medians over the
repetitions.

With ``--trace 1`` the run makes one untraced and one traced repetition;
the traced one starts every stage through ``tracing.py`` and reports the
per-layer metrics, the tracer self-test and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json``.  See ``WORKLOADS.md`` for why
each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
STAGES = ("gen-data", "evolve", "find-mots", "horizon", "penrose", "report")
RUN_LIMIT_S = 170.0     # every run must end well inside 180 s
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    sets: tuple          # --set overrides on top of `horizonlab init`
    setup: tuple         # set-up stages, timed as setup_s
    timed: tuple         # stages timed as wall_s
    seeded: bool         # False: the seed is recorded and ignored


WORKLOADS = {
    "pipeline-default": Workload((), ("init",), STAGES, True),
    "mots-ladder": Workload(
        ("regime.a=100", "regime.y=4", "grid.n_theta=32", "grid.n_phi=64",
         "grid.n_ubar=193", "solver.n_window_slices=64",
         "solver.n_transition_slices=16", "solver.n_null_slices=16"),
        ("init", "gen-data"), ("find-mots", "horizon", "penrose"), True),
    "notch-cone": Workload(("profile.cap_width=0.014",),
                           ("init", "gen-data"), ("evolve",), False),
}
FIXED_SEED = 1234       # the `horizonlab init` default, for unseeded inputs


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int


@dataclass
class Rep:
    out: Path
    setup: list = field(default_factory=list)
    timed: list = field(default_factory=list)
    artifact_bytes: int = 0
    span_files: list = field(default_factory=list)

    @property
    def ok(self):
        return all(s.exit == 0 for s in self.setup + self.timed)


def _tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _run_stage(stage, rep_dir, wl, seed, spans, deadline):
    if stage == "init":
        args = ["init", "--config", "run.ini", "--seed", str(seed)]
    else:
        args = [stage, "--config", "run.ini", "--out", "out"]
        for s in wl.sets:
            args += ["--set", s]
    if spans is None:
        cmd = [sys.executable, "-m", "horizonlab"] + args
    else:
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans),
               rep_dir.name, "--"] + args
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREADS)
    env.pop("HORIZONLAB_OUT", None)
    with open(rep_dir / f"{stage}.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=rep_dir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(stage, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss * 1024 / 1e6, proc.returncode)


def run_rep(rep_dir, wl, seed, deadline, traced=False, setup_only=False):
    """One fresh pipeline: set-up stages, then timed stages."""
    rep_dir.mkdir(parents=True)
    rep = Rep(out=rep_dir / "out")

    def run(stage, group):
        spans = rep_dir / f"spans-{stage}.npz" if traced else None
        group.append(_run_stage(stage, rep_dir, wl, seed, spans, deadline))
        if spans is not None and spans.exists():
            rep.span_files.append(spans)
        return group[-1].exit == 0

    if not all(run(stage, rep.setup) for stage in wl.setup) or setup_only:
        return rep
    before = _tree_bytes(rep.out) if rep.out.exists() else 0
    if all(run(stage, rep.timed) for stage in wl.timed):
        rep.artifact_bytes = _tree_bytes(rep.out) - before
    return rep


def environment(workload, seed):
    """Where and with what a result was measured."""
    import numpy
    import scipy
    env = {"workload": workload, "seed": seed,
           "input_seed": seed if WORKLOADS[workload].seeded else FIXED_SEED,
           "nproc": len(os.sched_getaffinity(0)),
           "cpu_model": platform.processor() or platform.machine(),
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "threads": THREADS,
           "load_model": "closed loop, 1 client, one stage process at a time"}
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        env["commit"] = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["openblas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        env["openblas"] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                          .glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (idx / "size").read_text().strip()
        env["caches_per_core"] = caches
    except OSError:
        pass
    return env


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps, setup_reps=()):
    """End-to-end metrics of untraced repetitions (and set-up-only ones)."""
    return {
        "setup_s": _median([sum(s.wall_s for s in r.setup)
                            for r in list(reps) + list(setup_reps)]),
        "wall_s": _median([sum(s.wall_s for s in r.timed) for r in reps]),
        "cpu_s": _median([sum(s.cpu_s for s in r.timed) for r in reps]),
        "peak_rss_mb": _median([max((s.rss_mb for s in r.timed), default=0)
                                for r in reps]),
        "artifact_mb": _median([r.artifact_bytes / 1e6 for r in reps]),
    }


def stage_table(reps):
    """Per-stage and audit wall times (medians) for the printed report."""
    out = {}
    for name, stages in (("gen_data_s", ("gen-data",)),
                         ("evolve_s", ("evolve",)),
                         ("find_mots_s", ("find-mots",)),
                         ("audit_s", ("horizon", "penrose", "report"))):
        per_rep = [[s.wall_s for s in r.timed if s.stage in stages]
                   for r in reps]
        if per_rep and per_rep[0]:
            out[name] = _median([sum(v) for v in per_rep])
    return out


def resolved_config(wl, seed):
    """The configuration every stage of the workload runs with."""
    from horizonlab.cli import default_config_text, parse_config
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ini = Path(tmp) / "run.ini"
        ini.write_text(default_config_text(seed))
        return parse_config(ini, wl.sets, tmp)


def expected_counts(wl, cfg):
    """Counts the tracer must see, derived from the config."""
    stages = wl.setup + wl.timed
    solver = cfg["solver"]
    slices = (solver["n_window_slices"] + solver["n_transition_slices"]
              + solver["n_null_slices"]) if "find-mots" in stages else 0
    return {
        "shear.amp2_at.calls":
            6 * cfg["grid"]["cone_steps"] if "evolve" in stages else 0,
        "shear.profile_load.calls": sum(s in stages for s in
                                        ("evolve", "find-mots", "horizon")),
        "mots.solve_slice.calls": slices,
        "mots.make_problem.calls":
            slices * sum(s in stages for s in ("find-mots", "horizon")),
    }


def check_outputs(reps, seed, reference, cfg):
    """One entry per output check: (label, problems found).

    The first repetition is checked against the reference; every later
    one must reproduce its numeric artifacts byte for byte (a set-up-only
    repetition, the artifacts it has).
    """
    import checks
    first = reps[0]
    if not first.ok:
        return [("outputs", ["the first repetition did not finish"])]
    problems = checks.compare(first.out, reference, seed)
    if (first.out / "mots_report.json").exists():
        problems += checks.recompute_slices(first.out, seed,
                                            cfg["solver"]["beta"])
    if "amp2_probes" in reference:
        problems += checks.probe_amp2(first.out, reference["amp2_probes"])
    done = [("outputs", problems)]
    ref_digest = checks.digests(first.out)
    for rep in reps[1:]:
        got = checks.digests(rep.out)
        want = ref_digest if rep.timed else {k: ref_digest.get(k)
                                             for k in got}
        done.append((f"{rep.out.parent.name} bytes", [] if got == want else [
            f"numeric artifacts differ from {first.out.parent.name}"]))
    return done


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns the measurements and every check made.

    Full repetitions continue while the next one is predicted to end
    within ``seconds``; set-up-only repetitions follow until there are two
    set-ups.  A traced run makes one untraced and one traced repetition.
    """
    wl = WORKLOADS[name]
    input_seed = seed if wl.seeded else FIXED_SEED
    reference = json.loads((BENCH / "reference.json").read_text())
    reference = reference["workloads"][name]
    cfg = resolved_config(wl, input_seed)
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reps, setups, traced, layer = [], [], None, None
    try:
        while True:
            reps.append(run_rep(run_dir / f"rep{len(reps)}", wl, input_seed,
                                deadline))
            elapsed = time.perf_counter() - start
            if (trace or not reps[-1].ok
                    or elapsed * (len(reps) + 1) / len(reps) > seconds):
                break
        if trace and reps[-1].ok:
            traced = run_rep(run_dir / "traced", wl, input_seed, deadline,
                             traced=True)
        while not trace and reps[-1].ok and len(reps) + len(setups) < 2:
            setups.append(run_rep(run_dir / f"setup{len(setups)}", wl,
                                  input_seed, deadline, setup_only=True))
        every = reps + setups + ([traced] if traced else [])
        done = check_outputs(every, input_seed, reference, cfg)
        done += [(f"{r.out.parent.name}/{s.stage}",
                  [] if s.exit == 0 else [f"exit {s.exit}"])
                 for r in every for s in r.setup + r.timed]
        if trace:
            import layers
            npz = traced.out / "profile.npz" if traced else None
            layer = layers.layer_metrics(
                traced.span_files if traced else [], cfg["grid"]["n_theta"],
                npz.stat().st_size if npz and npz.is_file() else 0)
            layer["trace.overhead_s"] = (
                end_to_end([traced])["wall_s"] - end_to_end(reps)["wall_s"]
                if traced else 0.0)
            mismatches = layers.selftest(layer, expected_counts(wl, cfg))
            layer["trace.selftest_mismatches"] = len(mismatches)
            done.append(("tracer self-test", mismatches))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment(name, seed)
    env["reference_for_seed"] = (not wl.seeded
                                 or str(input_seed) in reference["seeds"])
    return {"workload": name, "reps": reps, "n_setups": len(reps + setups),
            "metrics": end_to_end(reps, setups),
            "stages": stage_table(reps), "layer": layer,
            "attempted": len(done),
            "failures": [f"{label}: {'; '.join(p)}" for label, p in done if p],
            "env": env}


def report(result, trace, spec):
    """Print the readable report; return the contract's result object."""
    reps, m = result["reps"], result["metrics"]
    n = len(reps)
    print(f"== {result['workload']} seed {result['env']['seed']}: {n} "
          f"untraced repetitions, {result['env']['load_model']}, "
          f"threads {THREADS}, per-seed reference: "
          f"{result['env']['reference_for_seed']}")
    units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
    rows = dict(m)
    rows.update(result["stages"])
    for key, val in rows.items():
        count = result["n_setups"] if key == "setup_s" else n
        print(f"  {key:<14} {val:12.4f} {units.get(key, 's'):<5} "
              f"median of {count}")
    print(f"  {'failed_share':<14} "
          f"{len(result['failures']) / result['attempted']:12.4f} share "
          f"of {result['attempted']} attempts")
    if trace:
        lunits = {x["name"]: x["unit"] for x in spec["per_layer"]}
        for key, val in result["layer"].items():
            print(f"  {key:<34} {val:16.6g} {lunits.get(key, '')}")
    for f in result["failures"]:
        print(f"  FAILED: {f}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    metric_spec = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layer"] if trace else m
    names = {x["name"] for x in metric_spec}
    if set(values) != names:
        raise SystemExit("metrics do not match BENCHMARK.json: "
                         f"{sorted(set(values) ^ names)}")
    return {"correct": not result["failures"],
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "metrics": {x["name"]: {"value": values[x["name"]],
                                    "unit": x["unit"]}
                        for x in metric_spec}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # numpy is imported lazily, so the benchmark's own checks also run
    # single-threaded and leave no idle BLAS thread spinning during a stage
    os.environ.update(THREADS)
    if not (SRC / "horizonlab" / "cli.py").is_file():
        print(f"no horizonlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(report(result, bool(args.trace), spec))
        with open(WORK / "results.jsonl", "a") as fh:
            fh.write(json.dumps({"env": result["env"],
                                 "trace": args.trace,
                                 "result": results[-1],
                                 "stages": result["stages"],
                                 "failures": result["failures"]}) + "\n")
        print(json.dumps(results[-1]))
    return 0 if len(results) == 1 or all(r["correct"] for r in results) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
