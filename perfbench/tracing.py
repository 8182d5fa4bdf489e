"""Outside-in layer tracing for one horizonlab stage process.

Run as ``python3 perfbench/tracing.py SPANS_FILE RUN_ID -- <cli args>``.
The bootstrap imports ``horizonlab.cli``, wraps the public functions of
each module from outside (no file under ``src/`` changes), runs
``horizonlab.cli.main`` and writes the spans it kept in memory to
SPANS_FILE when the process exits.

A span is (name, start, end, parent, run id).  Every ``from x import y``
copy of a wrapped function held by any ``horizonlab`` module is rebound,
so a stage reaches the wrapper whichever name it calls; the tracer
self-test in ``run.py`` checks the resulting counts against the config.

Only the standard library is imported before ``horizonlab.cli``, so the
recorded import time is that of a fresh process.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, span name).  A dotted attribute is a class member.
TRACED = [
    ("sphere", "SphereGrid.create", "sphere.grid_create"),
    ("sphere", "SphereGrid.analyze", "sphere.analyze"),
    ("sphere", "SphereGrid.synthesize", "sphere.synthesize"),
    ("sphere", "SphereGrid.synthesize_dphi_over_sin", "sphere.dphi"),
    ("sphere", "SphereGrid.hessian_values", "sphere.hessian"),
    ("shear", "ShearProfile.amp2_at", "shear.amp2_at"),
    ("shear", "ShearProfile.I_at", "shear.I_at"),
    ("shear", "ShearProfile.save", "shear.profile_save"),
    ("shear", "ShearProfile.load", "shear.profile_load"),
    ("shear", "build_profile", "shear.build_profile"),
    ("shear", "verify_profile", "shear.verify_profile"),
    ("shear", "scale_critical_norm", "shear.scale_critical_norm"),
    ("transport", "integrate_cone", "transport.integrate_cone"),
    ("transport", "detect_trapped", "transport.detect_trapped"),
    ("mots", "make_problem", "mots.make_problem"),
    ("mots", "solve_slice", "mots.solve_slice"),
    ("mots", "gmres", "mots.gmres"),
    ("mots", "verify_apriori", "mots.verify_apriori"),
    ("mots", "MotsSolution.save", "mots.solution_save"),
    ("mots", "MotsSolution.load", "mots.solution_load"),
    ("horizon", "assemble", "horizon.assemble"),
    ("horizon", "area", "horizon.area"),
    ("horizon", "spacelike_check", "horizon.spacelike_check"),
    ("penrose", "adm_mass", "penrose.adm_mass"),
    ("penrose", "exponent_ledger", "penrose.exponent_ledger"),
    ("penrose", "margin", "penrose.margin"),
    ("penrose", "margin_exponent_forms", "penrose.margin_exponent_forms"),
    ("penrose", "classify_regime", "penrose.classify_regime"),
    ("penrose", "sweep", "penrose.sweep"),
    ("reporting", "write_json", "reporting.write_json"),
    ("reporting", "write_csv", "reporting.write_csv"),
    ("reporting", "write_dat", "reporting.write_dat"),
    ("reporting", "gnuplot_script", "reporting.gnuplot_script"),
    ("reporting", "svg_line_chart", "reporting.svg"),
    ("reporting", "svg_class_map", "reporting.svg"),
]


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {}
        self.amp2_ubar = array("d")

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, on_call=None, on_return=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(out)
            return out
        return traced

    def save(self, path, extra):
        import numpy as np
        meta = dict(extra, run_id=self.run_id, names=self.names,
                    counts=self.counts)
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 amp2_ubar=np.frombuffer(self.amp2_ubar),
                 meta=np.array(json.dumps(meta)))


def install(tracer):
    """Wrap every TRACED function and rebind all copies of it."""
    mods = {k: v for k, v in sys.modules.items()
            if k == "horizonlab" or k.startswith("horizonlab.")}

    def solved(solution):
        trace = solution.newton_trace
        tracer.add("mots.newton_steps",
                   sum(len(r["gmres_iters"]) for r in trace))
        tracer.add("mots.gmres_iters",
                   sum(sum(r["gmres_iters"]) for r in trace))
        tracer.add("mots.continuation_steps",
                   len(solution.lambda_path) - 1)

    hooks = {
        "shear.amp2_at": dict(
            on_call=lambda self, ubar: tracer.amp2_ubar.append(ubar)),
        "mots.solve_slice": dict(on_return=solved),
        "penrose.sweep": dict(
            on_return=lambda rows: tracer.add("penrose.sweep.points",
                                              len(rows))),
    }
    for modname, attr, name in TRACED:
        mod = mods[f"horizonlab.{modname}"]
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        raw = owner.__dict__[member]
        static = isinstance(raw, staticmethod)
        orig = raw.__func__ if static else raw
        wrapped = tracer.wrap(name, orig, **hooks.get(name, {}))
        setattr(owner, member, staticmethod(wrapped) if static else wrapped)
        if not owner_name:
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
    reporting = mods["horizonlab.reporting"]
    atomic = reporting._atomic_write

    def counted_write(path, text):
        tracer.add("reporting.bytes_written", len(text.encode()))
        return atomic(path, text)
    reporting._atomic_write = counted_write


def main(argv):
    spans_file, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_FILE RUN_ID -- ARGS")
    t0 = time.perf_counter()
    from horizonlab import cli
    import_s = time.perf_counter() - t0
    tracer = Tracer(run_id)
    install(tracer)
    root = tracer.wrap(f"cli.{cli_args[0]}", cli.main)
    code = 1
    try:
        code = root(cli_args)
    finally:
        tracer.save(spans_file, {"stage": cli_args[0],
                                 "import_s": import_s, "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
