"""Record ``reference.json``, the expected outputs the benchmark checks.

    python3 perfbench/record_reference.py [--first-seed 0] [--last-seed 20]

Runs one repetition of every workload per seed, exactly as ``run.py``
does, and keeps the verdicts and key scalars that ``checks.extract``
reads.  Values that must not depend on the seed are recorded once and
required to agree across all seeds; the per-slice MOTS scalars are kept
per seed, rounded to 12 significant digits (the check tolerance is
1e-7 relative).  Where evolve runs, it also keeps ``amp2_at`` samples on
the grid nodes the moving zero's notch reaches.  Run it only at a commit whose outputs are trusted: the
benchmark treats what it records as correct.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
import time

import numpy as np

import run
import checks


def _round(value):
    if isinstance(value, list):
        return [_round(v) for v in value]
    return float(f"{value:.12g}")


def notch_probes(profile, n_steps, count=24):
    """Samples of ``amp2_at`` on the grid nodes the notch reaches.

    Scans the times of the RK4 half-step grid for nodes where the gate of
    the moving zero or the repay gain changes the amplitude, and keeps
    ``count`` of them as (ubar, i, j, value, largest value of the slice).
    """
    grid, model = profile.grid, profile._model
    hits = []
    for u in np.linspace(0.0, profile.derived.ubar_end, 2 * n_steps + 1):
        touched = ((model.gate(u, grid.theta_2d, grid.phi_2d) < 1.0)
                   | (profile.kappa_repay * model.repay_shape(u) != 0.0))
        hits += [(float(u), int(i), int(j)) for i, j in np.argwhere(touched)]
    probes = []
    for u, i, j in hits[::max(1, len(hits) // count)]:
        amp2 = profile.amp2_at(u)
        probes.append([u, i, j, float(amp2[i, j]),
                       float(np.max(np.abs(amp2)))])
    return probes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--last-seed", type=int, default=20)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from horizonlab.shear import ShearProfile
    seeds = range(args.first_seed, args.last_seed + 1)
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    reference = {"workloads": {}}
    try:
        for name, wl in run.WORKLOADS.items():
            common, per_seed, probes = None, {}, []
            for seed in (seeds if wl.seeded else [run.FIXED_SEED]):
                cfg = run.resolved_config(wl, seed)
                rep = run.run_rep(work / f"{name}-{seed}", wl, seed,
                                  deadline=time.perf_counter() + 3600)
                if not rep.ok:
                    raise SystemExit(f"{name} seed {seed}: a stage failed")
                if (rep.out / "mots_report.json").exists():
                    bad = checks.recompute_slices(rep.out, seed,
                                                  cfg["solver"]["beta"])
                    if bad:
                        raise SystemExit(f"{name} seed {seed}: {bad}")
                c, s = checks.extract(rep.out)
                if common is None:
                    common = c
                    if "evolve" in wl.timed:
                        probes = notch_probes(
                            ShearProfile.load(rep.out / "profile"),
                            cfg["grid"]["cone_steps"])
                elif c != common:
                    raise SystemExit(f"{name} seed {seed}: seed-independent "
                                     "outputs differ from the first seed")
                if s:
                    per_seed[str(seed)] = {k: _round(v) for k, v in s.items()}
                shutil.rmtree(work / f"{name}-{seed}")
                print(f"{name} seed {seed}: recorded", flush=True)
            entry = {"common": common, "seeds": per_seed}
            if probes:
                entry["amp2_probes"] = probes
            reference["workloads"][name] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    # one line per innermost list of numbers keeps the file readable
    text = re.sub(r"\[([^\[\]{}]*)\]",
                  lambda m: "[" + re.sub(r"\s*\n\s*", " ",
                                         m.group(1)).strip() + "]", text)
    (run.BENCH / "reference.json").write_text(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
