"""Per-layer metrics and the tracer self-test for one traced repetition."""

from __future__ import annotations

import json
import statistics

import numpy as np


def _load(path):
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        return meta, {k: z[k] for k in ("name", "parent", "start", "end",
                                        "amp2_ubar")}


def layer_metrics(span_files, n_theta, npz_bytes):
    """Per-layer metrics of one traced repetition (all its stage files)."""
    calls, total, self_s, counts = {}, {}, {}, {}
    amp2_ubar, import_s = [], []
    for path in span_files:
        meta, sp = _load(path)
        import_s.append(meta["import_s"])
        for k, v in meta["counts"].items():
            counts[k] = counts.get(k, 0) + v
        amp2_ubar.append(sp["amp2_ubar"])
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        has_parent = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has_parent], dur[has_parent])
        own = dur - child
        for i, name in enumerate(meta["names"]):
            sel = sp["name"] == i
            calls[name] = calls.get(name, 0) + int(np.count_nonzero(sel))
            total[name] = total.get(name, 0.0) + float(dur[sel].sum())
            self_s[name] = self_s.get(name, 0.0) + float(own[sel].sum())

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def t(name):
        return total.get(name, 0.0)

    ubars = np.concatenate(amp2_ubar) if amp2_ubar else np.zeros(0)
    amp2_calls = c("shear.amp2_at")
    newton = counts.get("mots.newton_steps", 0)
    gmres_iters = counts.get("mots.gmres_iters", 0)
    # Each Legendre pass (one analyze, synthesize, dphi, or the inline
    # mixed-derivative pass of hessian) streams one (m, l, theta) table of
    # n(n+1)/2 * n doubles and does one multiply-add per entry on each of
    # the real and imaginary parts (4 flops).  Computed, not measured.
    passes = (c("sphere.analyze") + c("sphere.synthesize")
              + c("sphere.dphi") + c("sphere.hessian"))
    entries = n_theta * (n_theta + 1) // 2 * n_theta
    m = {
        "sphere.analyze.calls": c("sphere.analyze"),
        "sphere.analyze.self_s": s("sphere.analyze"),
        "sphere.synthesize.calls": c("sphere.synthesize"),
        "sphere.synthesize.self_s": s("sphere.synthesize"),
        "sphere.dphi.calls": c("sphere.dphi"),
        "sphere.dphi.self_s": s("sphere.dphi"),
        "sphere.hessian.calls": c("sphere.hessian"),
        "sphere.hessian.self_s": s("sphere.hessian"),
        "sphere.grid_create_s": t("sphere.grid_create"),
        "sphere.legendre_flops": 4 * entries * passes,
        "sphere.table_bytes": 8 * entries * passes,
        "shear.amp2_at.calls": amp2_calls,
        "shear.amp2_at.self_s": s("shear.amp2_at"),
        "shear.amp2_at.distinct_ubar": int(np.unique(ubars).size),
        "shear.amp2_at.useful_ratio":
            np.unique(ubars).size / amp2_calls if amp2_calls else 0.0,
        "shear.build_profile.self_s": s("shear.build_profile"),
        "shear.verify_profile.self_s": s("shear.verify_profile"),
        "shear.scale_critical_norm.self_s": s("shear.scale_critical_norm"),
        "shear.scale_critical_norm.total_s":
            t("shear.scale_critical_norm"),
        "shear.profile_save_s": t("shear.profile_save"),
        "shear.profile_load.calls": c("shear.profile_load"),
        "shear.profile_load_s": t("shear.profile_load"),
        "shear.profile_npz_mb": npz_bytes / 1e6,
        "shear.I_at.calls": c("shear.I_at"),
        "shear.I_at.self_s": s("shear.I_at"),
        "transport.integrate_cone.self_s": s("transport.integrate_cone"),
        "transport.rk4_steps": amp2_calls // 4,
        "transport.detect_trapped.calls": c("transport.detect_trapped"),
        "transport.detect_trapped.self_s": s("transport.detect_trapped"),
        "mots.solve_slice.calls": c("mots.solve_slice"),
        "mots.solve_slice.self_s": s("mots.solve_slice"),
        "mots.solve_slice.total_s": t("mots.solve_slice"),
        "mots.newton_steps": newton,
        "mots.gmres_iters": gmres_iters,
        "mots.continuation_steps": counts.get("mots.continuation_steps", 0),
        "mots.gmres.calls": c("mots.gmres"),
        "mots.gmres.self_s": s("mots.gmres"),
        "mots.gmres_iters_per_newton":
            gmres_iters / newton if newton else 0.0,
        "mots.make_problem.calls": c("mots.make_problem"),
        "mots.make_problem.self_s": s("mots.make_problem"),
        "mots.verify_apriori.self_s": s("mots.verify_apriori"),
        "mots.solution_save_s": t("mots.solution_save"),
        "mots.solution_load_s": t("mots.solution_load"),
        "horizon.assemble.self_s": s("horizon.assemble"),
        "horizon.area.calls": c("horizon.area"),
        "horizon.spacelike_check.self_s": s("horizon.spacelike_check"),
        "penrose.margin.calls": c("penrose.margin"),
        "penrose.classify_regime.calls": c("penrose.classify_regime"),
        "penrose.sweep.points": counts.get("penrose.sweep.points", 0),
        "penrose.self_s": sum(v for k, v in self_s.items()
                              if k.startswith("penrose.")),
        "reporting.write_json.calls": c("reporting.write_json"),
        "reporting.write_json.self_s": s("reporting.write_json"),
        "reporting.write_csv.self_s": s("reporting.write_csv"),
        "reporting.svg.self_s": s("reporting.svg"),
        "reporting.bytes_written": counts.get("reporting.bytes_written", 0),
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
    }
    for stage in ("init", "gen-data", "evolve", "find-mots", "horizon",
                  "penrose", "report"):
        m[f"cli.{stage}.self_s"] = s(f"cli.{stage}")
    return m


def selftest(metrics, expected):
    """Mismatches between traced counts and the counts the config implies.

    ``expected`` maps metric names to exact values.  Every Newton step
    makes exactly one GMRES solve, so the two counts must agree as well; a
    wrapper that misses a rebound import shows up here as a wrong count.
    """
    want = dict(expected)
    want["mots.gmres.calls"] = metrics["mots.newton_steps"]
    return [f"{k} = {metrics[k]}, expected {v}"
            for k, v in want.items() if metrics[k] != v]
