"""Config-driven pipeline: gen-data, evolve, find-mots, horizon, penrose,
report.

Configuration is an INI file with sections [regime], [grid], [profile],
[solver], [bounds], [toggles], [sweep], [output]; every value has a
default except solver.seed, which is mandatory for reproducibility.
The keys, kinds and defaults of [regime], [profile] and [solver] are the
init fields of ``RegimeParameters``, ``ProfileSpec`` (but for n_ubar,
which [grid] sets, plus norm_budget) and ``SolveOptions`` (plus the
seed, beta and the slice counts); those of [bounds] are ``mots.BOUNDS``.
Each artifact embeds the hash of the numeric-relevant configuration, and
downstream subcommands refuse to run against artifacts produced from a
different configuration.  Reruns with identical config and seed emit
byte-identical numeric JSON; wall-clock metadata lives in run_meta.json
only.

Exit codes: 0 ok, 2 config or dependency error, a grid size the library
refuses or a value no stage can run with (``_RANGES``), 3 constraint
failure, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import horizon as horizon_mod
from . import penrose as penrose_mod
from .errors import (ConfigError, ConstraintError, DependencyError,
                     HorizonLabError, MalformedParametersError,
                     NonConvergenceError, ResolutionError)
from .mots import (BOUNDS, MotsSolution, SolveOptions, c0_band, make_problem,
                   residual_H, solve_slice, verify_apriori)
from .regime import RegimeParameters, derive, validate
from .reporting import (config_hash, gnuplot_script, svg_class_map,
                        svg_line_chart, write_csv, write_dat, write_json)
from .shear import (NORM_BUDGET, ProfileSpec, ShearProfile, build_profile,
                    scale_critical_norm, verify_profile)
from .sphere import get_grid, l2_norm
from .transport import SlabModel, detect_trapped, integrate_data_cone

ENV_OUTDIR = "HORIZONLAB_OUT"

_KINDS = {"float": "float", "int": "int", "bool": "bool",
          "float | None": "optfloat"}


def _field_schema(cls, skip=()):
    """``(kind, default)`` per init field of dataclass ``cls``, in field
    order, the kind read off the field's annotation."""
    return {f.name: (_KINDS[f.type], f.default) for f in fields(cls)
            if f.init and f.name not in skip}


def _record(cls, section, **extra):
    """``cls`` built from the keys of a config section named after its
    init fields."""
    return cls(**{f.name: section[f.name] for f in fields(cls)
                  if f.init and f.name in section}, **extra)


_SCHEMA = {
    "regime": _field_schema(RegimeParameters),
    "grid": {
        "n_theta": ("int", 64), "n_phi": ("int", 128),
        "n_ubar": ("int", 257), "cone_steps": ("int", 2048),
    },
    "profile": {**_field_schema(ProfileSpec, skip=("n_ubar",)),
                "norm_budget": ("float", NORM_BUDGET)},
    "solver": {
        "seed": ("int", None), **_field_schema(SolveOptions),
        "beta": ("float", 0.4), "n_window_slices": ("int", 16),
        "n_transition_slices": ("int", 4), "n_null_slices": ("int", 4),
    },
    "bounds": {key: ("float", v) for key, v in BOUNDS.items()},
    "toggles": {
        "disc_hypothesis": ("bool", True),
        "envelope_multiplier": ("float", 1.0),
    },
    "sweep": {
        "kappa": ("floatlist", []), "y": ("floatlist", []),
        "t": ("floatlist", []), "ubar_frac": ("floatlist", [0.0]),
    },
    "output": {"directory": ("str", "runs/default")},
}


# Values no stage can run with, refused at parse time: (keys, test of
# their sum, requirement).  The step-error estimate halves cone_steps;
# beta scales the perturbation fields against their b^(1/4) bound.
_SLICES = tuple(f"solver.n_{k}_slices" for k in ("window", "transition",
                                                  "null"))
_RANGES = (
    (("grid.cone_steps",), lambda v: v >= 4 and v % 2 == 0,
     "an even number of at least 4"),
    *(((key,), lambda v: v >= 0, "at least 0") for key in _SLICES),
    (_SLICES, lambda v: v >= 1, "at least 1 in sum"),
    (("solver.dlam_init",), lambda v: v > 0.0, "positive"),
    (("solver.beta",), lambda v: 0.0 <= v <= 1.0, "in [0, 1]"))


def _convert(kind, raw, where):
    try:
        if kind == "float":
            return float(raw)
        if kind == "optfloat":
            return None if raw.strip() == "" else float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "floatlist":
            return [float(v) for v in raw.replace(",", " ").split()]
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r}") from exc


@dataclass
class RunConfig:
    resolved: dict
    outdir: Path

    @property
    def hash(self):
        numeric = {k: v for k, v in self.resolved.items() if k != "output"}
        return config_hash(numeric)

    def __getitem__(self, section):
        return self.resolved[section]

    def params(self) -> RegimeParameters:
        return _record(RegimeParameters, self.resolved["regime"])

    def profile_spec(self) -> ProfileSpec:
        return _record(ProfileSpec, self.resolved["profile"],
                       n_ubar=self.resolved["grid"]["n_ubar"])

    def grid(self):
        g = self.resolved["grid"]
        return get_grid(g["n_theta"], g["n_phi"])


def parse_config(path, overrides=(), outdir_flag=None) -> RunConfig:
    """Load, default-fill, and type-check the INI configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    resolved = {}
    for section, keys in _SCHEMA.items():
        resolved[section] = {}
        for key, (kind, default) in keys.items():
            if cp.has_option(section, key):
                resolved[section][key] = _convert(
                    kind, cp.get(section, key), f"[{section}] {key}")
            else:
                resolved[section][key] = default
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, "
                              f"got {ov!r}")
        target, value = ov.split("=", 1)
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {target!r}")
        resolved[section][key] = _convert(_SCHEMA[section][key][0], value,
                                          target)
    if resolved["solver"]["seed"] is None:
        raise ConfigError("solver.seed is mandatory for reproducibility")
    for keys, ok, want in _RANGES:
        value = sum(resolved[s][k] for s, k in (key.split(".")
                                               for key in keys))
        if not ok(value):
            raise ConfigError(f"bad value for {' + '.join(keys)}: "
                              f"{value!r} (must be {want})")
    if not resolved["sweep"]["ubar_frac"]:
        raise ConfigError("bad value for sweep.ubar_frac: [] (must hold at "
                          "least one value)")
    outdir = (Path(outdir_flag) if outdir_flag
              else Path(os.environ.get(ENV_OUTDIR) or
                        resolved["output"]["directory"]))
    return RunConfig(resolved=resolved, outdir=outdir)


def default_config_text(seed=1234):
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, default) in keys.items():
            if key == "seed":
                lines.append(f"seed = {seed}")
            elif default is None:
                lines.append(f"# {key} =")
            elif kind == "floatlist":
                lines.append(f"# {key} = " + " ".join(str(v)
                                                      for v in default)
                             if default else f"# {key} =")
            else:
                lines.append(f"{key} = {default}")
        lines.append("")
    return "\n".join(lines)


# -- artifact helpers -------------------------------------------------------

def _meta(cfg: RunConfig):
    # every JSON report header carries the derived regime scalars
    header = {"config_hash": cfg.hash, "tool": "horizonlab"}
    try:
        header["derived"] = asdict(derive(cfg.params()))
    except HorizonLabError:
        pass
    return header


def _require(cfg, name):
    producer = next(stage for stage, spec in STAGES.items()
                    if name in spec.writes)
    path = cfg.outdir / name
    if not path.exists():
        raise DependencyError(str(path), producer)
    payload = json.loads(path.read_text())
    found = payload.get("meta", payload).get("config_hash")
    if found != cfg.hash:
        raise DependencyError(str(path), producer, (found, cfg.hash))
    return payload


def _slice_ladder(cfg, d):
    s = cfg["solver"]
    window = np.geomspace(d.ubar_start, d.ubar_lambda,
                          s["n_window_slices"])
    trans = np.linspace(d.ubar_lambda, d.ubar_lambda_hi,
                        s["n_transition_slices"] + 2)[1:-1]
    tail = np.linspace(d.ubar_lambda_hi, d.ubar_end,
                       s["n_null_slices"] + 1)[1:]
    return np.concatenate([window, trans, tail])


# -- stage bodies -------------------------------------------------------------
#
# Each body takes the config and the hash-checked input JSONs by name, and
# returns its main JSON payload (without "meta") together with the
# ConstraintError to raise once that payload is on disk, or None.

def cmd_gen_data(cfg: RunConfig, inputs):
    outdir = cfg.outdir
    grid = cfg.grid()
    profile = build_profile(cfg.params(), cfg.profile_spec(), grid)
    profile.save(outdir / "profile", config_hash=cfg.hash)
    report = verify_profile(profile)
    norm = scale_critical_norm(profile, budget=cfg["profile"]["norm_budget"])
    d = profile.derived
    rows = []
    for u in (d.ubar_start, 0.5 * d.ubar_lambda, d.ubar_lambda,
              d.ubar_lambda_hi, d.ubar_end):
        I = profile.I_at(float(u))
        for i in range(0, grid.n_theta, max(1, grid.n_theta // 16)):
            for j in range(0, grid.n_phi, max(1, grid.n_phi // 16)):
                rows.append((float(u), float(grid.theta[i]),
                             float(grid.phi[j]), float(I[i, j])))
    write_csv(outdir / "cumulative_shear.csv",
              ("ubar", "theta", "phi", "I"), rows, stamp=cfg.hash)
    payload = {"constraints": report.as_dict(),
               "scale_critical_norm": norm, "derived": asdict(d)}
    failures = [c.as_dict() for c in report.failing()]
    if not norm["passed"]:
        failures.append({"name": "scale_critical_norm", **norm})
    if not failures:
        return payload, None
    return payload, ConstraintError(
        "profile_verification", f"{len(failures)} checks failed; see "
                                f"{outdir / 'failures.json'}", failures)


def cmd_evolve(cfg: RunConfig, inputs):
    outdir = cfg.outdir
    profile = ShearProfile.load(outdir / "profile")
    d = profile.derived
    grid = profile.grid
    ti = max(1, grid.n_theta // 8)
    pj = max(1, grid.n_phi // 8)
    # the cone keeps only the nodes cone_trchi.csv reads
    cone = integrate_data_cone(profile, n_steps=cfg["grid"]["cone_steps"],
                               node_step=(ti, pj))
    rows = []
    for k, u in enumerate(cone.ubar_nodes):
        for i, theta in enumerate(grid.theta[::ti]):
            for j, phi in enumerate(grid.phi[::pj]):
                rows.append((float(u), float(theta), float(phi),
                             float(cone.trchi[k, i, j])))
    write_csv(outdir / "cone_trchi.csv", ("ubar", "theta", "phi", "trchi"),
              rows, stamp=cfg.hash)

    slab = SlabModel(profile.params, profile,
                     cfg["toggles"]["envelope_multiplier"])
    u_lattice = np.geomspace(d.u_trapped, 1.0, 9)
    ubar_lattice = np.linspace(0.0, d.delta, 9)
    map_rows = []
    for u in u_lattice:
        for ub in ubar_lattice:
            v = detect_trapped(slab, float(u), float(ub))
            map_rows.append((float(u), float(ub), v.status,
                             v.min_leading, v.max_leading, v.envelope))
    write_csv(outdir / "trapped_map.csv",
              ("u", "ubar", "status", "min_leading", "max_leading",
               "envelope"), map_rows, stamp=cfg.hash)
    verdict = detect_trapped(slab, d.u_trapped, d.delta)
    return {"step_error": cone.step_error,
            "n_steps": cone.n_steps,
            "trchi_final_min": float(np.min(cone.trchi_final)),
            "trchi_final_max": float(np.max(cone.trchi_final)),
            "trapped_at_predicted_sphere": asdict(verdict),
            "trapped_map": [row[:3] for row in map_rows]}, None


def _slice_problem(cfg, profile, idx, ubar):
    """Slice idx's problem at ``ubar``: its perturbations are drawn with
    seed + idx."""
    s = cfg["solver"]
    return make_problem(profile, float(ubar), seed=s["seed"] + idx,
                        beta=s["beta"])


def _load_numpy_random():
    # numpy.random loads OpenSSL's libcrypto (through secrets and hmac).
    # Loaded before the profile's arrays rather than at the first
    # make_problem, it keeps horizon's peak RSS lower (41.8 against
    # 42.1 MB at 32x64 in the second regime).
    import numpy.random  # noqa: F401


def cmd_find_mots(cfg: RunConfig, inputs):
    _load_numpy_random()
    outdir = cfg.outdir
    profile = ShearProfile.load(outdir / "profile")
    params = profile.params
    opts = _record(SolveOptions, cfg["solver"])
    ladder = _slice_ladder(cfg, profile.derived)
    (outdir / "mots").mkdir(parents=True, exist_ok=True)
    slices = []
    history_rows = []
    for idx, ub in enumerate(ladder):
        problem = _slice_problem(cfg, profile, idx, ub)
        solution = solve_slice(problem, opts)
        bounds = verify_apriori(solution, problem, params, cfg["bounds"])
        solution.save(outdir / "mots" / f"slice_{idx:03d}",
                      config_hash=cfg.hash)
        for rec in solution.newton_trace:
            for it, nrm in enumerate(rec["norms"]):
                history_rows.append((idx, float(ub), rec["stage"],
                                     float(rec["lambda"]), it, float(nrm)))
        slices.append({
            "index": idx, "ubar": float(ub),
            "residual_norm": solution.residual_norm,
            "lambda_path": [float(v) for v in solution.lambda_path],
            "newton_iterations": [r["iterations"]
                                  for r in solution.newton_trace],
            "diagnostics": solution.diagnostics,
            "M0_min": float(np.min(problem.M0.values)),
            "M0_max": float(np.max(problem.M0.values)),
            "zbar": problem.zbar,
            "bounds": bounds.as_dict(),
        })
    write_csv(outdir / "mots_residual_history.csv",
              ("slice", "ubar", "stage", "lambda", "iteration", "norm"),
              history_rows, stamp=cfg.hash)
    error = None
    if not all(s["bounds"]["passed"] for s in slices):
        error = ConstraintError("apriori_bounds",
                                "an a-priori bound failed on some slice; "
                                "see mots_report.json")
    return {"n_slices": len(slices), "slices": slices}, error


def cmd_horizon(cfg: RunConfig, inputs):
    _load_numpy_random()
    outdir = cfg.outdir
    profile = ShearProfile.load(outdir / "profile")
    solutions = []
    for entry in inputs["mots_report.json"]["slices"]:
        # The loaded radius must solve its slice to find-mots' tol_abs;
        # no problem outlives its check.
        idx = entry["index"]
        stem = outdir / "mots" / f"slice_{idx:03d}"
        solutions.append(MotsSolution.load(stem, config_hash=cfg.hash))
        problem = _slice_problem(cfg, profile, idx, entry["ubar"])
        res = l2_norm(residual_H(problem, solutions[-1].R))
        del problem
        tol = entry["diagnostics"]["tol_abs"]
        if not res <= tol:
            raise DependencyError(str(stem.with_suffix(".npz")), "find-mots",
                                  (f"{res:.3e}", f"tol_abs {tol:.3e}"),
                                  "residual norm", ">")
    assembly = horizon_mod.assemble(
        profile.params, profile, solutions,
        disc_hypothesis=cfg["toggles"]["disc_hypothesis"])
    rows = []
    for k, ub in enumerate(assembly.ubars):
        est = horizon_mod.area(assembly, k)
        sl = horizon_mod.spacelike_check(assembly, k)
        dr = assembly.dR_dubar(k)
        rows.append({
            "ubar": float(ub),
            "R_min": float(np.min(solutions[k].R.values)),
            "R_max": float(np.max(solutions[k].R.values)),
            "area": asdict(est),
            "dR_dubar_min": (float(np.min(dr.values)) if dr else None),
            "dR_dubar_max": (float(np.max(dr.values)) if dr else None),
            "h_slope": (assembly.h_values[k]
                        if assembly.h_values else None),
            "spacelike": asdict(sl),
        })
    return {"slices": rows,
            "disc_hypothesis": assembly.disc_hypothesis}, None


def cmd_penrose(cfg: RunConfig, inputs):
    params = cfg.params()
    d = derive(params)
    slices_out = []
    for row in inputs["horizon.json"]["slices"]:
        rp = penrose_mod.Interval(row["area"]["radius_proxy_lo"],
                                  row["area"]["radius_proxy_hi"])
        mg = penrose_mod.margin(params, rp, row["ubar"])
        cls = penrose_mod.classify_regime(params, row["ubar"]) \
            if params.penrose_coupling else None
        slices_out.append({"ubar": row["ubar"],
                           "margin": asdict(mg),
                           "classification": asdict(cls) if cls else None})
    payload = {"adm_mass": asdict(penrose_mod.adm_mass(params)),
               "eps_glue": d.eps_glue,
               "exponents": penrose_mod.exponent_ledger(params),
               "margin_exponent_forms":
                   penrose_mod.margin_exponent_forms(params),
               "slices": slices_out}

    axes = {k: v for k, v in cfg["sweep"].items()
            if k in ("kappa", "y", "t") and v}
    rows = penrose_mod.sweep(params, axes,
                             ubar_fracs=cfg["sweep"]["ubar_frac"])
    write_csv(cfg.outdir / "sweep.csv",
              ("kappa", "mu", "y", "t", "ubar_frac", "status", "valid",
               "reason", "log_slack"),
              [(r["kappa"], r["mu"], r["y"], r["t"], r["ubar_frac"],
                r["status"], r["valid"], r["reason"], r["log_slack"])
               for r in rows], stamp=cfg.hash)
    return payload, None


def cmd_report(cfg: RunConfig, inputs):
    outdir = cfg.outdir
    params = cfg.params()
    d = derive(params)
    evolve = inputs["evolve.json"]
    mots = inputs["mots_report.json"]
    audit = inputs["penrose_audit.json"]
    ubars = [s["ubar"] for s in mots["slices"]]
    xs = [u / d.delta for u in ubars]
    m0 = d.m0
    rmin = [s["diagnostics"]["c0_band"][0] / m0 for s in mots["slices"]]
    rmax = [s["diagnostics"]["c0_band"][1] / m0 for s in mots["slices"]]
    bands = [c0_band(params, s["M0_min"], s["M0_max"])
             for s in mots["slices"]]
    lo = [b_lo / m0 for b_lo, _ in bands]
    hi = [b_hi / m0 for _, b_hi in bands]
    svg_line_chart(outdir / "r_band.svg",
                   "MOTS radius against the C0 band", "ubar/delta", "R/m0",
                   [{"x": xs, "y": rmin, "label": "min R", "color": "#125"},
                    {"x": xs, "y": rmax, "label": "max R",
                     "color": "#921"}],
                   bands=[{"x": xs, "ylo": lo, "yhi": hi,
                           "color": "#bcd"}], stamp=cfg.hash)
    write_dat(outdir / "r_band.dat", ("ubar_over_delta", "rmin", "rmax",
                                      "band_lo", "band_hi"),
              list(zip(xs, rmin, rmax, lo, hi)), stamp=cfg.hash)
    gnuplot_script(outdir / "r_band.gp", "r_band.dat",
                   "MOTS radius against the C0 band", "ubar/delta", "R/m0",
                   ("rmin", "rmax", "band_lo", "band_hi"), stamp=cfg.hash)

    cells = {}
    for u, ub, status in evolve["trapped_map"]:
        cells.setdefault(ub, {})[u] = status
    ub_vals = sorted(cells.keys())
    u_vals = sorted({u for m in cells.values() for u in m})
    labels = [[cells[ub][u] for u in u_vals] for ub in ub_vals]
    palette = {"certified-trapped": "#803",
               "nominally-trapped": "#c86",
               "untrapped": "#9c9", "indeterminate": "#999"}
    svg_class_map(outdir / "trapped_map.svg",
                  "Trapped classification over the (u, ubar) lattice",
                  "u (log-spaced index)", "ubar (index)",
                  list(range(len(u_vals))), list(range(len(ub_vals))),
                  labels, palette, stamp=cfg.hash)

    mxs = [s["ubar"] / d.delta for s in audit["slices"]]
    mlo = [s["margin"]["numeric"]["lo"] / m0 for s in audit["slices"]]
    mhi = [s["margin"]["numeric"]["hi"] / m0 for s in audit["slices"]]
    mal = [s["margin"]["analytic_lo"] / m0 for s in audit["slices"]]
    svg_line_chart(outdir / "margin.svg",
                   "Penrose margin per slice", "ubar/delta", "margin/m0",
                   [{"x": mxs, "y": mal, "label": "analytic lower",
                     "color": "#192"}],
                   bands=[{"x": mxs, "ylo": mlo, "yhi": mhi,
                           "color": "#cdf"}], stamp=cfg.hash)
    write_dat(outdir / "margin.dat",
              ("ubar_over_delta", "numeric_lo", "numeric_hi",
               "analytic_lo"),
              list(zip(mxs, mlo, mhi, mal)), stamp=cfg.hash)
    gnuplot_script(outdir / "margin.gp", "margin.dat",
                   "Penrose margin per slice", "ubar/delta", "margin/m0",
                   ("numeric_lo", "numeric_hi", "analytic_lo"),
                   stamp=cfg.hash)

    window = [s for s in mots["slices"]
              if s["ubar"] <= d.ubar_lambda * (1 + 1e-12)]
    amp = d.shear_amp
    in_area_band = []
    for s, a_row in zip(mots["slices"], inputs["horizon.json"]["slices"]):
        rp = a_row["area"]["radius_proxy_mid"]
        band_lo = (0.25 - params.o1) * amp * s["ubar"]
        band_hi = (0.25 + params.o1) * amp * s["ubar"]
        if s["ubar"] <= d.ubar_lambda * (1 + 1e-12):
            in_area_band.append(band_lo <= rp <= band_hi)
    summary = {
        "regime": {"validation": validate(params).as_dict(),
                   "derived": asdict(d)},
        "profile_checks_passed":
            inputs["constraint_report.json"]["constraints"]["passed"],
        "trapped_at_predicted_sphere":
            evolve["trapped_at_predicted_sphere"]["status"],
        "n_slices": mots["n_slices"],
        "all_bounds_passed": all(s["bounds"]["passed"]
                                 for s in mots["slices"]),
        "window_slices": len(window),
        "area_band_ok": all(in_area_band),
        "classification_at_window_start":
            audit["slices"][0]["classification"]["status"]
            if audit["slices"] and audit["slices"][0]["classification"]
            else "disabled",
        "plots": ["r_band.svg", "trapped_map.svg", "margin.svg"],
    }
    return summary, None


@dataclass(frozen=True)
class Stage:
    """A pipeline stage: the hash-stamped JSONs it reads, the ones it
    writes (its main output first), and its body."""

    reads: tuple
    writes: tuple
    body: object


STAGES = {
    "gen-data": Stage((), ("constraint_report.json", "profile.json"),
                      cmd_gen_data),
    "evolve": Stage(("profile.json",), ("evolve.json",), cmd_evolve),
    "find-mots": Stage(("profile.json",), ("mots_report.json",),
                       cmd_find_mots),
    "horizon": Stage(("profile.json", "mots_report.json"),
                     ("horizon.json",), cmd_horizon),
    "penrose": Stage(("horizon.json",), ("penrose_audit.json",),
                     cmd_penrose),
    "report": Stage(("constraint_report.json", "evolve.json",
                     "mots_report.json", "horizon.json",
                     "penrose_audit.json"), ("summary.json",), cmd_report),
}


def run(subcommand, config_path, overrides=(), outdir=None):
    """Programmatic entry: run one pipeline stage, return its payload.

    Every input JSON must carry the active config hash.  The main JSON and
    run_meta.json are written before a constraint failure the stage
    reports is raised, so its artifacts are on disk at exit 3, beside a
    failures.json that names that failure under the active config hash.
    """
    cfg = parse_config(config_path, overrides, outdir)
    if subcommand not in STAGES:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    stage = STAGES[subcommand]
    try:
        inputs = {name: _require(cfg, name) for name in stage.reads}
        payload, error = stage.body(cfg, inputs)
        payload["meta"] = _meta(cfg)
        write_json(cfg.outdir / stage.writes[0], payload)
        write_json(cfg.outdir / "run_meta.json",
                   {"last_subcommand": subcommand,
                    "wall_time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                   time.gmtime()),
                    "config_hash": cfg.hash})
        if error is not None:
            raise error
        return payload
    except ConstraintError as exc:
        write_json(cfg.outdir / "failures.json",
                   {"meta": _meta(cfg),
                    "failures": exc.failures or [{"name": exc.constraint,
                                                  "message": str(exc)}]})
        raise


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="horizonlab",
        description="Characteristic shear data, null-cone focusing, MOTS "
                    "location, horizon assembly, and Penrose audits.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    init = sub.add_parser("init", help="write a default config file")
    init.add_argument("--config", required=True)
    init.add_argument("--seed", type=int, default=1234)
    for name in STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help=f"output directory (or ${ENV_OUTDIR})")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE")
    args = parser.parse_args(argv)
    if args.subcommand == "init":
        Path(args.config).parent.mkdir(parents=True, exist_ok=True)
        Path(args.config).write_text(default_config_text(args.seed))
        print(f"wrote default config to {args.config}")
        return 0
    try:
        run(args.subcommand, args.config, args.overrides, args.out)
        print(f"{args.subcommand}: ok")
        return 0
    except (ConfigError, DependencyError, MalformedParametersError,
            ResolutionError) as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except ConstraintError as exc:
        print(f"{args.subcommand}: constraint failure: {exc}",
              file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"{args.subcommand}: solver failure: {exc}", file=sys.stderr)
        return 4
    except HorizonLabError as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
