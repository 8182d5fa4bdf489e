"""Output checks: verdicts and key scalars against the recorded reference,
a recomputation of the MOTS scalars from the saved radii, and byte
identity of the numeric artifacts across repetitions of one run.

Tolerances (the reference is ``reference.json``, recorded at the commit
that added this benchmark by ``record_reference.py``):

* verdicts (check names and pass flags, statuses, slice counts) match
  exactly;
* ``scale_critical_norm`` matches to 1e-8 relative: it is a sum of maxima
  of transform-based norms, so only roundoff of the transforms may move it;
* ``trchi_final_min/max`` match to 100 x the RK4 step-halving error
  estimate ``step_error`` of the reference run;
* per-slice ``c0_band`` and area radius proxies match to 1e-7 relative,
  100 x ``solver.newton_tol``: Newton stops once the residual of the
  R^2-rescaled slice equation, whose linearization is the unit-sphere
  Laplacian plus a diagonal near -1, is below newton_tol on the slice
  scale, so two admissible solutions differ by O(newton_tol) relative.

* ``amp2_at`` at the grid nodes the moving zero's notch reaches matches
  to 1e-9 of that slice's largest value.  evolve reports only the
  extremes of trchi and a subsampled grid that misses those nodes, so
  this probe is what ties an ``amp2_at`` rewrite to the notch case.

The MOTS scalars depend on ``solver.seed``; the reference holds them for
a range of seeds.  For every seed, the saved radius of each slice must
reproduce ``c0_band`` exactly, the area radius proxy to 1e-12, and solve
the slice equation to the solver's own ``tol_abs``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL = {"scale_critical_norm": 1e-8, "c0_band": 1e-7,
       "radius_proxy_mid": 1e-7}
STEP_ERROR_FACTOR = 100.0
AMP2_REL = 1e-9
SUMMARY_KEYS = ("profile_checks_passed", "trapped_at_predicted_sphere",
                "n_slices", "all_bounds_passed", "window_slices",
                "area_band_ok", "classification_at_window_start")


def _json(path):
    return json.loads(Path(path).read_text())


def extract(out):
    """Verdicts and key scalars of one output directory.

    Returns (common, seeded): values that do not depend on solver.seed,
    and the per-slice MOTS scalars that do.
    """
    out = Path(out)
    common, seeded = {}, {}
    if (out / "constraint_report.json").exists():
        c = _json(out / "constraint_report.json")
        common["constraints"] = [[ch["name"], ch["passed"]]
                                 for ch in c["constraints"]["checks"]]
        common["constraints_passed"] = c["constraints"]["passed"]
        common["scale_critical_norm_passed"] = \
            c["scale_critical_norm"]["passed"]
        common["scale_critical_norm"] = c["scale_critical_norm"]["value"]
    if (out / "evolve.json").exists():
        e = _json(out / "evolve.json")
        common["trapped_status"] = e["trapped_at_predicted_sphere"]["status"]
        common["trchi_final_min"] = e["trchi_final_min"]
        common["trchi_final_max"] = e["trchi_final_max"]
        common["step_error"] = e["step_error"]
    if (out / "mots_report.json").exists():
        slices = _json(out / "mots_report.json")["slices"]
        common["n_slices"] = len(slices)
        common["bounds_passed"] = [s["bounds"]["passed"] for s in slices]
        seeded["c0_band"] = [s["diagnostics"]["c0_band"] for s in slices]
    if (out / "horizon.json").exists():
        seeded["radius_proxy_mid"] = [
            r["area"]["radius_proxy_mid"]
            for r in _json(out / "horizon.json")["slices"]]
    if (out / "penrose_audit.json").exists():
        common["classification"] = [
            s["classification"]["status"] if s["classification"] else None
            for s in _json(out / "penrose_audit.json")["slices"]]
    if (out / "summary.json").exists():
        s = _json(out / "summary.json")
        common["summary"] = {k: s[k] for k in SUMMARY_KEYS}
        common["summary"]["regime_valid"] = s["regime"]["validation"]["passed"]
    return common, seeded


def _close(key, got, want, ref):
    if key in REL:
        g, w = np.asarray(got, float), np.asarray(want, float)
        return g.shape == w.shape and bool(
            np.all(np.abs(g - w) <= REL[key] * np.abs(w)))
    if key in ("trchi_final_min", "trchi_final_max"):
        return abs(got - want) <= STEP_ERROR_FACTOR * ref["step_error"]
    return got == want


def compare(out, reference, seed):
    """Failures of ``out`` against one workload's reference entry."""
    common, seeded = extract(out)
    failures = []
    ref = reference["common"]
    want_seeded = reference["seeds"].get(str(seed), {})
    for part, want_all in ((common, ref), (seeded, want_seeded)):
        for key, want in want_all.items():
            if key == "step_error":
                continue
            if key not in part:
                failures.append(f"{key}: missing from the outputs")
            elif not _close(key, part[key], want, ref):
                failures.append(f"{key}: {part[key]!r} != reference "
                                f"{want!r}")
    return failures


def recompute_slices(out, seed, beta):
    """Failures of the saved MOTS radii against their own reports."""
    from horizonlab.mots import make_problem, residual_H
    from horizonlab.shear import ShearProfile
    from horizonlab.sphere import l2_norm, SphereField

    out = Path(out)
    report = _json(out / "mots_report.json")["slices"]
    radii = _json(out / "horizon.json")["slices"] \
        if (out / "horizon.json").exists() else None
    profile = ShearProfile.load(out / "profile")
    grid = profile.grid
    failures = []
    for k, entry in enumerate(report):
        with np.load(out / "mots" / f"slice_{entry['index']:03d}.npz") as z:
            R = z["R"]
        band = [float(R.min()), float(R.max())]
        reported = entry["diagnostics"]["c0_band"]
        if band != reported:
            failures.append(f"slice {k}: c0_band {reported} != saved "
                            f"radius range {band}")
        if radii is not None:
            mid = math.sqrt(float(np.sum(grid.weights * R * R))
                            / (16.0 * math.pi))
            got = radii[k]["area"]["radius_proxy_mid"]
            if abs(got - mid) > 1e-12 * mid:
                failures.append(f"slice {k}: radius proxy {got!r} != "
                                f"{mid!r} from the saved radius")
        problem = make_problem(profile, entry["ubar"],
                               seed=seed + entry["index"], beta=beta)
        res = l2_norm(residual_H(problem, SphereField(grid, R)))
        tol = entry["diagnostics"]["tol_abs"]
        if not res <= tol:
            failures.append(f"slice {k}: residual {res:.3e} of the saved "
                            f"radius exceeds tol_abs {tol:.3e}")
    return failures


def probe_amp2(out, probes):
    """Failures of ``amp2_at`` against the recorded notch-node samples.

    Each probe is (ubar, i, j, value, scale), where scale is the largest
    value of the recorded slice.
    """
    from horizonlab.shear import ShearProfile
    profile = ShearProfile.load(Path(out) / "profile")
    failures = []
    for ubar, i, j, want, scale in probes:
        got = float(profile.amp2_at(ubar)[i, j])
        if abs(got - want) > AMP2_REL * scale:
            failures.append(f"amp2_at({ubar!r})[{i}, {j}] = {got!r} != "
                            f"reference {want!r}")
    return failures


def digests(out):
    """SHA-256 of every numeric artifact (all but run_meta.json)."""
    out = Path(out)
    return {str(p.relative_to(out)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_meta.json"}
