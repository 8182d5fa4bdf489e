"""Pipeline orchestration: config handling, artifacts, determinism."""

import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest

import horizonlab
from horizonlab.cli import (STAGES, _record, default_config_text, main,
                            parse_config)
from horizonlab.errors import ConfigError
from horizonlab.mots import (BOUNDS, MotsSolution, SolveOptions, make_problem,
                             verify_apriori)
from horizonlab.regime import RegimeParameters, validate
from horizonlab.reporting import config_hash
from horizonlab.shear import ProfileSpec, verify_profile
from horizonlab.sphere import SphereField

FAST_OVERRIDES = [
    "grid.n_theta=16", "grid.n_phi=32", "grid.n_ubar=129",
    "grid.cone_steps=256", "solver.n_window_slices=5",
    "solver.n_transition_slices=2", "solver.n_null_slices=2",
]

PIPELINE = ["gen-data", "evolve", "find-mots", "horizon", "penrose",
            "report"]


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_text(default_config_text(seed=77))
    return path


def run_pipeline(cfg_path, outdir, stages=PIPELINE):
    for sub in stages:
        args = [sub, "--config", str(cfg_path), "--out", str(outdir)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        rc = main(args)
        assert rc == 0, f"{sub} exited {rc}"


@pytest.fixture(scope="module")
def pipeline_out(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    run_pipeline(cfg_path, out)
    return out


class TestConfig:
    def test_init_writes_parseable_config(self, tmp_path):
        path = tmp_path / "default.ini"
        assert main(["init", "--config", str(path), "--seed", "9"]) == 0
        cfg = parse_config(path)
        assert cfg["solver"]["seed"] == 9
        assert cfg["regime"]["a"] == pytest.approx(1e4)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[solver]\nseed = 1\nbogus = 3\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "noseed.ini"
        path.write_text("[regime]\na = 1e4\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["gen-data", "--config", str(tmp_path / "nope.ini")])
        assert rc == 2

    def test_override_parsing(self, cfg_path):
        cfg = parse_config(cfg_path, overrides=["regime.o1=0.04"])
        assert cfg["regime"]["o1"] == pytest.approx(0.04)
        with pytest.raises(ConfigError):
            parse_config(cfg_path, overrides=["nonsense"])
        with pytest.raises(ConfigError):
            parse_config(cfg_path, overrides=["regime.bogus=1"])

    def test_defaults_are_the_records(self, tmp_path):
        # [regime], [profile], [solver] and [bounds] are read off the
        # dataclass fields and mots.BOUNDS; the text and the hash of the
        # default config are pinned, so a reordered or retyped field shows.
        text = default_config_text(1234)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "055f8943517d7177c6f315aba0177ed95c134af572b50c03be5f6b55f5447cfa")
        path = tmp_path / "default.ini"
        path.write_text(text)
        cfg = parse_config(path)
        assert cfg.hash == "3eefaa4ee4c62951"
        assert cfg.params() == RegimeParameters()
        assert cfg.profile_spec() == ProfileSpec()
        assert _record(SolveOptions, cfg["solver"]) == SolveOptions()
        assert cfg["bounds"] == BOUNDS

    @pytest.mark.parametrize("override", [
        "grid.n_phi=100", "grid.n_theta=0", "grid.n_ubar=40"])
    def test_refused_grid_size_exit_code(self, cfg_path, tmp_path, capsys,
                                         override):
        rc = main(["gen-data", "--config", str(cfg_path), "--out",
                   str(tmp_path), "--set", override])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and "at least" in err

    @pytest.mark.parametrize("stage, overrides", [
        ("evolve", ["grid.cone_steps=0"]),
        ("evolve", ["grid.cone_steps=-4"]),
        ("evolve", ["grid.cone_steps=1"]),
        ("evolve", ["grid.cone_steps=3"]),
        ("find-mots", ["solver.n_window_slices=-1"]),
        ("horizon", ["solver.n_window_slices=0",
                     "solver.n_transition_slices=0",
                     "solver.n_null_slices=0"]),
        ("find-mots", ["solver.dlam_init=0"]),
        ("find-mots", ["solver.dlam_init=-0.1"]),
        ("find-mots", ["solver.beta=2"]),
        ("find-mots", ["solver.beta=-0.1"]),
        ("penrose", ["sweep.ubar_frac="]),
    ])
    def test_refused_stage_value_exit_code(self, cfg_path, tmp_path, capsys,
                                           stage, overrides):
        # Refused while parsing, before the stage looks for its inputs.
        args = [stage, "--config", str(cfg_path), "--out", str(tmp_path)]
        for ov in overrides:
            args += ["--set", ov]
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert f"bad value for {overrides[0].split('=')[0]}" in err

    def test_hash_ignores_output_section(self, cfg_path):
        a = parse_config(cfg_path, overrides=["output.directory=x"])
        b = parse_config(cfg_path, overrides=["output.directory=y"])
        assert a.hash == b.hash
        c = parse_config(cfg_path, overrides=["regime.o1=0.04"])
        assert c.hash != a.hash


class TestConfigHash:
    def test_equals_hashlib_sha256(self, cfg_path):
        # the built-in SHA-256 gives hashlib's digest: on the default
        # config and on blobs around the 64-byte block boundaries
        cfg = parse_config(cfg_path)
        numeric = {k: v for k, v in cfg.resolved.items() if k != "output"}
        resolved = [numeric] + [{"k": "x" * n}
                                for n in (0, 1, 46, 47, 48, 55, 56, 64, 1000)]
        for r in resolved:
            blob = json.dumps(r, sort_keys=True, separators=(",", ":"))
            want = hashlib.sha256(blob.encode()).hexdigest()[:16]
            assert config_hash(r) == want, len(blob)
        assert cfg.hash == config_hash(numeric)

    def test_loads_no_openssl(self):
        # hashlib loads _hashlib, which maps OpenSSL's libcrypto; the CLI
        # and the config hash do without it
        src = os.path.dirname(os.path.dirname(horizonlab.__file__))
        code = ("import sys; from horizonlab.cli import config_hash; "
                "config_hash({'grid': {'n_theta': 64}}); "
                "print('_hashlib' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestPipeline:
    def test_artifacts_present(self, pipeline_out):
        for name in ("profile.json", "profile.npz",
                     "constraint_report.json", "cumulative_shear.csv",
                     "evolve.json", "cone_trchi.csv", "trapped_map.csv",
                     "mots_report.json", "horizon.json",
                     "penrose_audit.json", "sweep.csv", "summary.json",
                     "r_band.svg", "trapped_map.svg", "margin.svg",
                     "r_band.gp", "margin.gp"):
            assert (pipeline_out / name).exists(), name

    def test_config_hash_embedded(self, pipeline_out, cfg_path):
        cfg = parse_config(cfg_path, overrides=FAST_OVERRIDES_KV())
        for name in ("constraint_report.json", "evolve.json",
                     "mots_report.json", "horizon.json",
                     "penrose_audit.json", "summary.json"):
            payload = json.loads((pipeline_out / name).read_text())
            assert payload["meta"]["config_hash"] == cfg.hash

    def test_summary_contents(self, pipeline_out):
        s = json.loads((pipeline_out / "summary.json").read_text())
        assert s["profile_checks_passed"]
        assert s["all_bounds_passed"]
        assert s["trapped_at_predicted_sphere"] == "certified-trapped"
        assert s["classification_at_window_start"] == "certified-positive"
        assert s["area_band_ok"]

    def test_dependency_error_without_gen_data(self, cfg_path, tmp_path):
        rc = main(["find-mots", "--config", str(cfg_path), "--out",
                   str(tmp_path / "fresh")])
        assert rc == 2

    def test_stale_artifact_rejected(self, cfg_path, pipeline_out,
                                     tmp_path, capsys):
        args = ["evolve", "--config", str(cfg_path), "--out",
                str(pipeline_out), "--set", "regime.o1=0.04",
                "--set", "regime.d0=25"]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        rc = main(args)
        assert rc == 2
        assert "gen-data" in capsys.readouterr().err

    def test_constraint_failure_exit_code(self, cfg_path, tmp_path):
        args = ["gen-data", "--config", str(cfg_path), "--out",
                str(tmp_path / "bad"), "--set", "regime.d0=10"]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 3
        failures = json.loads((tmp_path / "bad" / "failures.json")
                              .read_text())
        assert failures["failures"][0]["name"] == "dominant_contribution"

    @pytest.mark.parametrize("wobble, failing", [
        ("1.2", ["f_bounds"]),
        ("20", ["f_bounds", "amp2_nonnegative", "I_monotone",
                "endpoint_vanish_end", "amp2_I_consistency",
                "scale_critical_norm"]),
    ], ids=["wobble-1.2", "wobble-20"])
    def test_f_band_failure_leaves_the_report(self, cfg_path, tmp_path,
                                              wobble, failing):
        # A wobble past the 1/c1 budget still builds; the verifier's
        # f_bounds check fails, with the constraint report on disk.  Far
        # past it the amplitude goes negative, which amp2_nonnegative
        # reports.
        out = tmp_path / "wobble"
        args = ["gen-data", "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES + [f"profile.wobble_frac={wobble}"]:
            args += ["--set", ov]
        assert main(args) == 3
        failures = json.loads((out / "failures.json").read_text())
        assert [f["name"] for f in failures["failures"]] == failing
        report = json.loads((out / "constraint_report.json").read_text())
        checks = {c["name"]: c for c in report["constraints"]["checks"]}
        checks["scale_critical_norm"] = report["scale_critical_norm"]
        assert not any(checks[name]["passed"] for name in failing)

    def test_dense_corr_profile_rejected(self, cfg_path, pipeline_out,
                                         tmp_path, capsys):
        # An npz with the dense (n_ubar, n_theta, n_phi) corr of earlier
        # releases and the right config hash: evolve refuses it on load.
        out = tmp_path / "dense"
        out.mkdir()
        shutil.copy(pipeline_out / "profile.json", out)
        with np.load(pipeline_out / "profile.npz") as z:
            arrays = dict(z)
        arrays["corr"] = np.zeros((129, 16, 32))
        np.savez_compressed(out / "profile.npz", **arrays)
        args = ["evolve", "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(out / "profile.npz") in err
        assert "(129, 16, 32) != (129, 0)" in err and "gen-data" in err

    def test_failures_json_names_the_latest_failure(self, cfg_path,
                                                    tmp_path):
        # A failure under one config, a success, then a failure under
        # another: failures.json must describe the last one.
        out = tmp_path / "seq"

        def run(stage, *sets):
            args = [stage, "--config", str(cfg_path), "--out", str(out)]
            for ov in FAST_OVERRIDES + list(sets):
                args += ["--set", ov]
            return main(args), parse_config(
                cfg_path, FAST_OVERRIDES + list(sets)).hash

        def failures():
            return json.loads((out / "failures.json").read_text())

        rc, first = run("gen-data", "profile.norm_budget=1")
        assert rc == 3
        assert failures()["meta"]["config_hash"] == first
        assert [f["name"] for f in failures()["failures"]] == \
            ["scale_critical_norm"]
        tight = "bounds.c1_threshold=1e-9"
        assert run("gen-data", tight)[0] == 0
        rc, second = run("find-mots", tight)
        assert rc == 3
        assert failures()["meta"]["config_hash"] == second != first
        assert [f["name"] for f in failures()["failures"]] == \
            ["apriori_bounds"]

    def test_foreign_slice_hash_rejected(self, cfg_path, pipeline_out,
                                         tmp_path, capsys):
        # Both files of one slice come from another config, so only the
        # check against the active config hash can catch them.
        out = tmp_path / "copy"
        shutil.copytree(pipeline_out, out)
        stem = out / "mots" / "slice_003"
        MotsSolution.load(stem).save(stem, config_hash="0" * 16)
        args = ["horizon", "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "slice_003" in err and "'find-mots'" in err

    def test_radius_off_its_equation_rejected(self, cfg_path, pipeline_out,
                                              tmp_path, capsys):
        # One slice's radius scaled by 1 + 1e-6 under both of its config
        # hashes: only horizon's residual check against tol_abs sees it.
        out = tmp_path / "copy"
        shutil.copytree(pipeline_out, out)
        npz = out / "mots" / "slice_003.npz"
        with np.load(npz) as z:
            arrays = dict(z)
        arrays["R"] = arrays["R"] * (1 + 1e-6)
        np.savez_compressed(npz, **arrays)
        args = ["horizon", "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(npz) in err and "residual norm" in err
        assert "'find-mots'" in err

    @pytest.mark.parametrize("stage,lost", [
        ("horizon", "mots/slice_003.npz"),
        ("horizon", "mots/slice_003.json"),
        ("evolve", "profile.npz")])
    def test_missing_half_of_artifact(self, cfg_path, pipeline_out,
                                      tmp_path, capsys, stage, lost):
        out = tmp_path / "copy"
        shutil.copytree(pipeline_out, out)
        (out / lost).unlink()
        args = [stage, "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 2
        # The directory's own name may contain "missing"; drop it.
        err = capsys.readouterr().err.replace(str(tmp_path), "")
        assert "missing" in err and lost in err

    def test_artifact_mode_follows_umask(self, pipeline_out):
        umask = os.umask(0)
        os.umask(umask)
        for name in ("summary.json", "profile.npz"):
            mode = stat.S_IMODE((pipeline_out / name).stat().st_mode)
            assert mode == 0o666 & ~umask, name

    def test_csv_artifacts_carry_config_hash(self, pipeline_out, cfg_path):
        cfg = parse_config(cfg_path, overrides=FAST_OVERRIDES_KV())
        for name in ("trapped_map.csv", "sweep.csv", "cone_trchi.csv",
                     "cumulative_shear.csv", "r_band.dat", "margin.gp"):
            first = (pipeline_out / name).read_text().splitlines()[0]
            assert cfg.hash in first, name
        svg = (pipeline_out / "r_band.svg").read_text()
        assert cfg.hash in svg


def FAST_OVERRIDES_KV():
    return list(FAST_OVERRIDES)


class TestDeterminism:
    def test_byte_identical_rerun(self, cfg_path, pipeline_out,
                                  tmp_path_factory):
        out2 = tmp_path_factory.mktemp("out2")
        run_pipeline(cfg_path, out2)

        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        compared = 0
        for f in sorted(pipeline_out.rglob("*")):
            if f.is_dir() or f.name == "run_meta.json":
                continue
            g = out2 / f.relative_to(pipeline_out)
            assert digest(f) == digest(g), f.name
            compared += 1
        assert compared > 10


# The stage that writes each hash-stamped JSON a stage reads.
PRODUCERS = {"profile.json": "gen-data", "constraint_report.json": "gen-data",
             "evolve.json": "evolve", "mots_report.json": "find-mots",
             "horizon.json": "horizon", "penrose_audit.json": "penrose"}


class TestStageTable:
    @pytest.mark.parametrize("stage,name", [
        (stage, name) for stage, spec in STAGES.items()
        for name in spec.reads])
    def test_input_missing_or_stale(self, cfg_path, tmp_path, capsys,
                                    stage, name):
        # Every other input is a stub with the right hash, so a stage that
        # got past its checks would fail on the stubs instead of exiting 2.
        cfg_hash = parse_config(cfg_path).hash
        for other in STAGES[stage].reads:
            if other != name:
                (tmp_path / other).write_text(
                    json.dumps({"meta": {"config_hash": cfg_hash}}))
        args = [stage, "--config", str(cfg_path), "--out", str(tmp_path)]
        producer = f"run the {PRODUCERS[name]!r} subcommand"

        def message():
            # The directory's own name may contain "missing"; drop it.
            return capsys.readouterr().err.replace(str(tmp_path), "")

        assert main(args) == 2
        err = message()
        assert producer in err and "missing" in err
        (tmp_path / name).write_text(
            json.dumps({"meta": {"config_hash": "0" * 16}}))
        assert main(args) == 2
        err = message()
        assert producer in err and "config hash" in err
        assert "stale" in err and "missing" not in err


def test_check_key_sets(params, profile_mid):
    # write_json sorts keys, so these sets are what keeps the report
    # JSONs byte-identical across changes to the check type.
    def keys(report):
        assert set(report.as_dict()) == {"passed", "checks"}
        return {frozenset(c) for c in report.as_dict()["checks"]}

    common = {"name", "passed", "detail"}
    assert keys(validate(RegimeParameters())) == {
        frozenset(common | {"slack"})}
    assert keys(verify_profile(profile_mid)) == {
        frozenset(common | {"measured", "threshold"})}
    problem = make_problem(profile_mid, 1.5 * profile_mid.derived.delta)
    solution = MotsSolution(
        R=SphereField(problem.grid, 0.5 * problem.M0.values), ubar=1.0,
        residual_norm=0.0, newton_trace=[], lambda_path=[1.0],
        diagnostics={})
    assert keys(verify_apriori(solution, problem, params)) == {
        frozenset(common | {"value", "threshold", "ratio"})}


def test_record_key_sets(pipeline_out):
    # The result records serialise through dataclasses.asdict: these key
    # sets are their fields, as the stage JSONs carry them.
    def load(name):
        return json.loads((pipeline_out / name).read_text())

    derived = {"b", "delta", "m0", "shear_amp", "ubar_start", "ubar_lambda",
               "ubar_lambda_hi", "ubar_end", "u_trapped", "eps_glue"}
    assert set(load("constraint_report.json")["derived"]) == derived
    assert set(load("summary.json")["regime"]["derived"]) == derived
    assert set(load("evolve.json")["meta"]["derived"]) == derived
    assert set(load("evolve.json")["trapped_at_predicted_sphere"]) == {
        "status", "min_leading", "max_leading", "envelope"}
    for s in load("mots_report.json")["slices"]:
        assert set(s["diagnostics"]) == {"c0_band", "tol_abs"}
    for row in load("horizon.json")["slices"]:
        assert set(row["area"]) == {
            "ubar", "area_lo", "area_mid", "area_hi", "radius_proxy_lo",
            "radius_proxy_mid", "radius_proxy_hi"}
        assert set(row["spacelike"]) == {
            "status", "reason", "min_schur", "min_sampled"}
    audit = load("penrose_audit.json")
    assert set(audit["adm_mass"]) == {"lo", "hi"}
    assert audit["slices"]
    for s in audit["slices"]:
        assert set(s["margin"]) == {
            "ubar", "numeric", "analytic_lo", "analytic_hi"}
        assert set(s["margin"]["numeric"]) == {"lo", "hi"}
        assert set(s["classification"]) == {
            "status", "upper_side", "reasons", "log_slack", "exponents"}


def modules_after_stage(tmp_path, stage, package):
    """Run gen-data, then ``stage`` in a fresh process at the fast
    overrides; return the loaded modules that are ``package`` or in it."""
    src = os.path.dirname(os.path.dirname(horizonlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = tmp_path / "run.ini"
    cfg.write_text(default_config_text(seed=3))
    args = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    for ov in FAST_OVERRIDES:
        args += ["--set", ov]
    proc = subprocess.run([sys.executable, "-m", "horizonlab", "gen-data",
                           *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code = ("import sys; from horizonlab.cli import main; "
            "rc = main(sys.argv[2:]); "
            "print(sorted(m for m in sys.modules if m == sys.argv[1] "
            "or m.startswith(sys.argv[1] + '.'))); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code, package, stage,
                           *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_find_mots_runs_without_scipy(tmp_path):
    # find-mots solves its Newton steps with the in-repo GMRES: a full
    # run in a fresh process ends with no scipy module loaded
    assert modules_after_stage(tmp_path, "find-mots", "scipy") == "[]"
    report = json.loads((tmp_path / "out" / "mots_report.json").read_text())
    assert sum(sum(s["newton_iterations"]) for s in report["slices"]) > 0


def test_evolve_runs_without_numpy_ma(tmp_path):
    # the profile's table of stage times is deduplicated without
    # np.unique, which imports numpy.ma for evolve alone
    assert modules_after_stage(tmp_path, "evolve", "numpy.ma") == "[]"
    assert (tmp_path / "out" / "cone_trchi.csv").stat().st_size > 0


def test_one_problem_per_slice_and_stage(cfg_path, tmp_path, monkeypatch):
    # find-mots builds every slice's problem once to solve it, horizon
    # once to check the loaded radius against it, and the sampler's
    # basis fields are built once for the shared grid
    from horizonlab import cli, mots
    built = []

    def counting(profile, ubar, **kwargs):
        built.append(ubar)
        return make_problem(profile, ubar, **kwargs)

    monkeypatch.setattr(cli, "make_problem", counting)
    mots._perturbation_basis.cache_clear()
    run_pipeline(cfg_path, tmp_path, ["gen-data", "find-mots", "horizon"])
    cfg = parse_config(cfg_path, FAST_OVERRIDES)
    slices = sum(cfg["solver"][k] for k in (
        "n_window_slices", "n_transition_slices", "n_null_slices"))
    assert len(built) == 2 * slices
    assert built[:slices] == built[slices:]
    assert mots._perturbation_basis.cache_info().misses == 1
