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
from horizonlab.mots import BOUNDS, SolveOptions, make_problem, verify_apriori
from horizonlab.regime import RegimeParameters, validate
from horizonlab.reporting import config_hash, load_artifact, save_artifact
from horizonlab.shear import ProfileSpec, ShearProfile, verify_profile
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


# cap_width 0.1: the notch reaches grid nodes, so kappa_repay and corr are
# read on them.
NOTCH = ["--set", "profile.cap_width=0.1"]


@pytest.fixture(scope="module")
def notch_profile_out(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("notch")
    args = ["gen-data", "--config", str(cfg_path), "--out", str(out)]
    for ov in FAST_OVERRIDES:
        args += ["--set", ov]
    assert main(args + NOTCH) == 0
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
        ("find-mots", ["bounds.c1_threshold=0"]),
        ("find-mots", ["bounds.hess_threshold=0"]),
        ("find-mots", ["bounds.w12_threshold=0"]),
        ("find-mots", ["bounds.w12_threshold=-0.1"]),
        ("find-mots", ["bounds.h_threshold=1"]),
        ("find-mots", ["solver.max_iter=-1"]),
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
        for name in ("profile.npz",
                     "constraint_report.json", "cumulative_shear.csv",
                     "evolve.json", "cone_trchi.csv", "trapped_map.csv",
                     "mots_report.json", "horizon.json",
                     "penrose_audit.json", "sweep.csv", "summary.json",
                     "r_band.svg", "trapped_map.svg", "margin.svg",
                     "r_band.gp", "margin.gp"):
            assert (pipeline_out / name).exists(), name
        # Each array artifact is one npz, its meta inside.
        assert not (pipeline_out / "profile.json").exists()
        assert list((pipeline_out / "mots").glob("*.json")) == []
        assert len(list((pipeline_out / "mots").glob("slice_*.npz"))) == 9

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
        # d0 = 10 against the forced 1/o1 = 20: the profile builds and the
        # verifier's dominance_ratio check alone fails it, so the
        # constraint report is on disk at exit 3.
        args = ["gen-data", "--config", str(cfg_path), "--out",
                str(tmp_path / "bad"), "--set", "regime.d0=10"]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 3
        assert (tmp_path / "bad" / "constraint_report.json").is_file()
        failures = json.loads((tmp_path / "bad" / "failures.json")
                              .read_text())
        assert [f["name"] for f in failures["failures"]] \
            == ["dominance_ratio"]

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

    def test_evolve_checks_reported(self, pipeline_out):
        checks = json.loads((pipeline_out / "evolve.json").read_text())[
            "checks"]
        assert checks["passed"]
        assert [c["name"] for c in checks["checks"]] == ["trchi_bracket"]

    def test_evolve_check_failure_leaves_its_json(self, cfg_path, tmp_path,
                                                  monkeypatch):
        # An amplitude 0.1 % high fails trchi_bracket: evolve exits 3 with
        # evolve.json on disk and the failure in failures.json.
        out = tmp_path / "scaled"
        run_pipeline(cfg_path, out, ["gen-data"])
        amp2 = ShearProfile._amp2
        monkeypatch.setattr(ShearProfile, "_amp2",
                            lambda self, u: 1.001 * amp2(self, u))
        args = ["evolve", "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 3
        evolve = json.loads((out / "evolve.json").read_text())
        assert not evolve["checks"]["passed"]
        failures = json.loads((out / "failures.json").read_text())
        assert [f["name"] for f in failures["failures"]] == ["trchi_bracket"]

    def test_dense_corr_profile_rejected(self, cfg_path, pipeline_out,
                                         tmp_path, capsys):
        # An npz with the dense (n_ubar, n_theta, n_phi) corr of earlier
        # releases and the right config hash: evolve refuses it on load.
        out = tmp_path / "dense"
        out.mkdir()
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

    @pytest.mark.parametrize("defect, found", [
        ("transposed", "kappa_repay shape (32, 16) != (16, 32)"),
        ("truncated", "kappa_repay shape (8, 32) != (16, 32)"),
        ("infinite", "array corr is not finite"),
    ], ids=["transposed", "truncated", "infinite"])
    def test_malformed_profile_array_refused(self, cfg_path,
                                             notch_profile_out, tmp_path,
                                             capsys, defect, found):
        # Each array under the right config hash: without the loader's
        # check, evolve ran on the transposed kappa_repay with the wrong
        # gain on the cap nodes and died on the truncated one.
        out = tmp_path / "copy"
        shutil.copytree(notch_profile_out, out)
        npz = out / "profile.npz"
        with np.load(npz) as z:
            arrays = dict(z)
        kappa, corr = arrays["kappa_repay"], arrays["corr"].copy()
        assert np.any(kappa) and corr.shape[1] > 0
        if defect == "transposed":
            arrays["kappa_repay"] = kappa.T.copy()
        elif defect == "truncated":
            arrays["kappa_repay"] = kappa[:8]
        else:
            corr[-1, 0] = np.inf
            arrays["corr"] = corr
        np.savez_compressed(npz, **arrays)
        args = ["evolve", "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args + NOTCH) == 2
        err = capsys.readouterr().err
        assert str(npz) in err and found in err
        assert "rerun the 'gen-data' subcommand" in err

    @pytest.mark.parametrize("defect, found", [
        ("square", "R shape (16, 16) != (16, 32)"),
        ("nan", "array R is not finite"),
    ], ids=["square", "nan"])
    def test_malformed_slice_radius_refused(self, cfg_path, pipeline_out,
                                            tmp_path, capsys, defect, found):
        # Without the loader's check horizon died on either radius, with a
        # GridMismatchError (exit 1) or a ValueError traceback.
        out = tmp_path / "copy"
        shutil.copytree(pipeline_out, out)
        npz = out / "mots" / "slice_003.npz"
        with np.load(npz) as z:
            arrays = dict(z)
        R = arrays["R"].copy()
        if defect == "square":
            R = R[:, :16].copy()
        else:
            R[3, 5] = np.nan
        arrays["R"] = R
        np.savez_compressed(npz, **arrays)
        args = ["horizon", "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(npz) in err and found in err
        assert "rerun the 'find-mots' subcommand" in err

    def test_failures_json_names_the_latest_failure(self, cfg_path,
                                                    tmp_path, capsys):
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
        assert "apriori_bounds: 6 checks failed" in capsys.readouterr().err
        assert failures()["meta"]["config_hash"] == second != first
        # One entry per failing bound, tagged with its slice, as in the
        # report left on disk.
        report = json.loads((out / "mots_report.json").read_text())
        want = [{"index": s["index"], **c} for s in report["slices"]
                for c in s["bounds"]["checks"] if not c["passed"]]
        assert failures()["failures"] == want
        assert [(f["index"], f["name"]) for f in want] == [
            (k, "c1_gradient") for k in (0, 1, 2, 3, 5, 6)]

    def test_foreign_slice_hash_rejected(self, cfg_path, pipeline_out,
                                         tmp_path, capsys):
        # One slice's npz is stamped with another config's hash.
        out = tmp_path / "copy"
        shutil.copytree(pipeline_out, out)
        stem = out / "mots" / "slice_003"
        meta, arrays = load_artifact(stem, lambda meta: {"R": (16, 32)},
                                     "find-mots")
        save_artifact(stem, dict(meta, config_hash="0" * 16), arrays)
        args = ["horizon", "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "slice_003" in err and "'find-mots'" in err

    def test_radius_off_its_equation_rejected(self, cfg_path, pipeline_out,
                                              tmp_path, capsys):
        # One slice's radius scaled by 1 + 1e-6 under its config hash:
        # only horizon's residual check against tol_abs sees it.
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

    @pytest.mark.parametrize("stage,npz,producer", [
        ("evolve", "profile.npz", "gen-data"),
        ("horizon", "mots/slice_003.npz", "find-mots")])
    def test_npz_without_meta_refused(self, cfg_path, pipeline_out, tmp_path,
                                      capsys, stage, npz, producer):
        # The format of earlier releases: the arrays and a config_hash
        # entry, with the recipe in a JSON file beside the npz.
        out = tmp_path / "copy"
        shutil.copytree(pipeline_out, out)
        with np.load(out / npz) as z:
            arrays = {k: z[k] for k in z.files if k != "meta"}
            arrays["config_hash"] = np.array(
                json.loads(z["meta"].item())["config_hash"])
        np.savez_compressed(out / npz, **arrays)
        args = [stage, "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(out / npz) in err and "lack 'meta'" in err
        assert f"rerun the {producer!r} subcommand" in err

    @pytest.mark.parametrize("stage,npz,lost,producer", [
        ("evolve", "profile.npz", "corr", "gen-data"),
        ("horizon", "mots/slice_003.npz", "R", "find-mots")])
    def test_npz_without_an_array_refused(self, cfg_path, pipeline_out,
                                          tmp_path, capsys, stage, npz, lost,
                                          producer):
        # meta and the config hash match, but a named array is gone.
        out = tmp_path / "copy"
        shutil.copytree(pipeline_out, out)
        with np.load(out / npz) as z:
            arrays = {k: z[k] for k in z.files if k != lost}
        np.savez_compressed(out / npz, **arrays)
        args = [stage, "--config", str(cfg_path), "--out", str(out)]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(out / npz) in err and f"lack {lost!r}" in err
        assert f"rerun the {producer!r} subcommand" in err

    def test_each_number_has_one_home(self, pipeline_out):
        # A slice npz is its radius: ubar, residual and diagnostics live
        # in mots_report.json only, and m0 and shear_amp come from the
        # profile's params.
        slices = sorted((pipeline_out / "mots").glob("slice_*.npz"))
        assert slices
        for npz in slices:
            with np.load(npz) as z:
                assert sorted(z.files) == ["R", "meta"], npz.name
                assert set(json.loads(z["meta"].item())) == {
                    "kind", "config_hash", "grid"}, npz.name
        with np.load(pipeline_out / "profile.npz") as z:
            assert set(json.loads(z["meta"].item())) == {
                "kind", "config_hash", "params", "spec", "grid"}

    def test_json_artifacts_are_strict_json(self, pipeline_out):
        # RFC 8259 has no NaN or Infinity; a margin that is not formed is
        # written as null.
        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        names = sorted(pipeline_out.glob("*.json"))
        assert pipeline_out / "horizon.json" in names
        for path in names:
            json.loads(path.read_text(), parse_constant=refuse)
        rows = json.loads((pipeline_out / "horizon.json").read_text())
        assert any(r["spacelike"]["min_schur"] is None
                   for r in rows["slices"])

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

    def test_artifact_roundtrip_bitwise(self, tmp_path):
        # Arrays and meta come back bit for bit, signed zeros and
        # subnormals included, and a second write gives the same bytes.
        import zipfile
        rng = np.random.default_rng(5)
        arrays = {"R": rng.standard_normal((16, 32)),
                  "edge": np.array([[0.0, -0.0, 5e-324, np.finfo(float).max]]),
                  "kappa_repay": np.zeros((0, 7))}
        meta = {"kind": "k", "config_hash": "ab" * 8,
                "grid": {"n_theta": 16, "n_phi": 32}, "x": 0.1}
        paths = [tmp_path / name for name in ("a", "b")]
        for stem in paths:
            save_artifact(stem, meta, arrays)
        a, b = (p.with_suffix(".npz").read_bytes() for p in paths)
        assert a == b
        back_meta, back = load_artifact(
            paths[0], lambda m: {k: v.shape for k, v in arrays.items()},
            "test", meta["config_hash"])
        assert back_meta == meta
        for k, v in arrays.items():
            assert back[k].dtype == v.dtype
            assert back[k].tobytes() == v.tobytes(), k
        with zipfile.ZipFile(paths[0].with_suffix(".npz")) as z:
            infos = z.infolist()
        assert [i.filename for i in infos] == [
            "R.npy", "edge.npy", "kappa_repay.npy", "meta.npy"]
        assert {(i.compress_type, i.date_time) for i in infos} == {
            (zipfile.ZIP_DEFLATED, (1980, 1, 1, 0, 0, 0))}


# The stage that writes each hash-stamped JSON a stage reads.
PRODUCERS = {"constraint_report.json": "gen-data", "evolve.json": "evolve",
             "mots_report.json": "find-mots", "horizon.json": "horizon",
             "penrose_audit.json": "penrose"}


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

    @pytest.mark.parametrize("stage", ["evolve", "find-mots", "horizon"])
    def test_profile_missing_or_stale(self, cfg_path, tmp_path, capsys,
                                      stage):
        # The stage loads profile.npz with the active config hash; its
        # JSON inputs are stubs with the right hash.
        cfg_hash = parse_config(cfg_path).hash
        for name in STAGES[stage].reads:
            (tmp_path / name).write_text(
                json.dumps({"meta": {"config_hash": cfg_hash}}))
        args = [stage, "--config", str(cfg_path), "--out", str(tmp_path)]
        producer = "run the 'gen-data' subcommand"

        def message():
            # The directory's own name may contain "missing"; drop it.
            return capsys.readouterr().err.replace(str(tmp_path), "")

        assert main(args) == 2
        err = message()
        assert producer in err and "missing" in err and "profile.npz" in err
        meta = json.dumps({"config_hash": "0" * 16})
        np.savez_compressed(tmp_path / "profile.npz", meta=np.array(meta))
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
    R = SphereField(problem.grid, 0.5 * problem.M0.values)
    assert keys(verify_apriori(R, problem, params)) == {
        frozenset(common | {"value", "threshold", "ratio"})}


def test_record_key_sets(pipeline_out):
    # The result records serialise through dataclasses.asdict: these key
    # sets are their fields, as the stage JSONs carry them.
    def load(name):
        return json.loads((pipeline_out / name).read_text())

    derived = {"b", "delta", "m0", "shear_amp", "ubar_start", "ubar_lambda",
               "ubar_lambda_hi", "ubar_end", "u_trapped", "eps_glue"}
    assert set(load("summary.json")["meta"]["derived"]) == derived
    assert set(load("evolve.json")["meta"]["derived"]) == derived
    # Each number has one home: the derived scalars live in each stage
    # JSON's meta, and no record copies one that another JSON holds.
    assert set(load("constraint_report.json")) == {
        "constraints", "scale_critical_norm", "meta"}
    assert set(load("penrose_audit.json")) == {
        "adm_mass", "exponents", "margin_exponent_forms", "slices", "meta"}

    def derived_homes(node, path=()):
        if isinstance(node, dict):
            return ({path} if "derived" in node else set()).union(
                *(derived_homes(v, path + (k,)) for k, v in node.items()))
        if isinstance(node, list):
            return set().union(*(derived_homes(v, path) for v in node))
        return set()

    homes = {p.name: derived_homes(load(p.name))
             for p in pipeline_out.glob("*.json")}
    assert homes.pop("run_meta.json") == set()
    assert all(h == {("meta",)} for h in homes.values()), homes
    assert set(load("summary.json")["regime"]) == {"validation"}
    assert set(load("evolve.json")["trapped_at_predicted_sphere"]) == {
        "status", "min_leading", "max_leading", "envelope"}
    for s in load("mots_report.json")["slices"]:
        assert set(s["diagnostics"]) == {"c0_band", "tol_abs"}
    for row in load("horizon.json")["slices"]:
        assert set(row) == {"ubar", "area", "dR_dubar_min", "dR_dubar_max",
                            "h_slope", "spacelike"}
        assert set(row["area"]) == {
            "area_lo", "area_mid", "area_hi", "radius_proxy_lo",
            "radius_proxy_mid", "radius_proxy_hi"}
        assert set(row["spacelike"]) == {"status", "reason", "min_schur"}
    audit = load("penrose_audit.json")
    assert set(audit["adm_mass"]) == {"lo", "hi"}
    assert set(audit["margin_exponent_forms"]) == {
        "direct", "factored", "o1_slot", "c2_slot"}
    assert audit["slices"]
    for s in audit["slices"]:
        assert set(s["margin"]) == {"numeric", "analytic_lo", "analytic_hi"}
        assert set(s["margin"]["numeric"]) == {"lo", "hi"}
        # the exponents are the audit's top-level ledger, once
        assert set(s["classification"]) == {"status", "reasons", "log_slack"}


def fresh_process(code, *argv):
    """The last line ``code`` prints, run with ``argv`` in a fresh
    interpreter that imports horizonlab from this checkout."""
    src = os.path.dirname(os.path.dirname(horizonlab.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


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
    return fresh_process(code, package, stage, *args)


def test_find_mots_runs_without_scipy(tmp_path):
    # find-mots solves its Newton steps with the in-repo GMRES: a full
    # run in a fresh process ends with no scipy module loaded
    assert modules_after_stage(tmp_path, "find-mots", "scipy") == "[]"
    report = json.loads((tmp_path / "out" / "mots_report.json").read_text())
    assert sum(sum(s["newton_iterations"]) for s in report["slices"]) > 0


def test_evolve_runs_without_numpy_ma(tmp_path):
    # the sweep's stage times are deduplicated without np.unique, which
    # imports numpy.ma for evolve alone
    assert modules_after_stage(tmp_path, "evolve", "numpy.ma") == "[]"
    assert (tmp_path / "out" / "cone_trchi.csv").stat().st_size > 0


ARRAY_MODULES = ["horizon", "mots", "shear", "sphere", "transport"]
# the array modules each stage leaves unexecuted
IDLE = {"init": ARRAY_MODULES,
        "gen-data": ["horizon", "mots", "transport"],
        "evolve": ["horizon", "mots"],
        "find-mots": ["horizon", "transport"],
        "horizon": ["transport"],
        "penrose": ARRAY_MODULES,
        "report": ARRAY_MODULES}


@pytest.mark.parametrize("stage", list(IDLE))
def test_stage_executes_only_its_modules(cfg_path, pipeline_out, tmp_path,
                                         stage):
    # a module the CLI registered lazily keeps its lazy type until read;
    # init, penrose and report read and write only text, so they execute
    # no array module and numpy stays out of their processes
    if stage == "init":
        args = ["--config", str(tmp_path / "run.ini")]
    else:
        shutil.copytree(pipeline_out, tmp_path / "out")
        args = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
    code = ("import json, sys, types; from horizonlab.cli import main; "
            "rc = main(sys.argv[1:]); "
            "print(json.dumps([sorted(n.split('.')[1] "
            "for n, m in sys.modules.items() if n.startswith('horizonlab.') "
            "and type(m) is not types.ModuleType), 'numpy' in sys.modules])); "
            "sys.exit(rc)")
    assert json.loads(fresh_process(code, stage, *args)) == [
        IDLE[stage], IDLE[stage] != ARRAY_MODULES]


def test_cli_import_registers_every_traced_module():
    # perfbench/tracing.py reads each module it wraps from sys.modules
    # right after importing horizonlab.cli, then reads their attributes:
    # the array modules are registered there unexecuted, and reading an
    # attribute runs them
    code = ("import json, sys, horizonlab.cli; "
            "names = ['sphere', 'shear', 'transport', 'mots', 'horizon', "
            "'penrose', 'reporting']; "
            "registered = all('horizonlab.' + n in sys.modules "
            "for n in names); numpy = 'numpy' in sys.modules; "
            "fn = getattr(sys.modules['horizonlab.mots'], 'solve_slice'); "
            "print(json.dumps([registered, numpy, fn.__module__, "
            "fn.__name__, callable(fn)]))")
    assert json.loads(fresh_process(code)) == [
        True, False, "horizonlab.mots", "solve_slice", True]


def test_one_problem_per_slice_and_stage(cfg_path, tmp_path, monkeypatch):
    # find-mots builds every slice's problem once to solve it, horizon
    # once to check the loaded radius against it, and the sampler's
    # basis fields are built once for the shared grid
    from horizonlab import mots
    built = []

    def counting(profile, ubar, **kwargs):
        built.append(ubar)
        return make_problem(profile, ubar, **kwargs)

    monkeypatch.setattr(mots, "make_problem", counting)
    mots._perturbation_basis.cache_clear()
    run_pipeline(cfg_path, tmp_path, ["gen-data", "find-mots", "horizon"])
    cfg = parse_config(cfg_path, FAST_OVERRIDES)
    slices = sum(cfg["solver"][k] for k in (
        "n_window_slices", "n_transition_slices", "n_null_slices"))
    assert len(built) == 2 * slices
    assert built[:slices] == built[slices:]
    assert mots._perturbation_basis.cache_info().misses == 1
