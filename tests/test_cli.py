import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from choquard_lab import RadialField, make_grid, model_soliton, riesz_radial
from choquard_lab import cli, continuation
from choquard_lab.cli import main


def run(argv):
    return main(argv)


def test_solve_model_writes_artifacts(tmp_path):
    code = run(["solve", "--model", "--d", "1", "--p", "3",
                "--r-max", "15", "--n", "1200", "--stretch", "1.0",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "Q.json").exists()
    assert (tmp_path / "Q.csv").exists()
    data = np.loadtxt(tmp_path / "Q.csv", delimiter=",", skiprows=1)
    mask = data[:, 0] <= 10.0
    exact = model_soliton(3.0, data[mask, 0])
    assert np.max(np.abs(data[mask, 1] - exact)) <= 1e-5


def test_solve_rejects_bad_alpha(tmp_path, capsys):
    code = run(["solve", "--d", "3", "--alpha", "5", "--p", "2",
                "--out-dir", str(tmp_path)])
    assert code == 1
    assert "alpha outside (0,d)" in capsys.readouterr().err


def test_solve_in_a_dimension_without_a_closed_form(tmp_path):
    # the package has no closed form at d = 7: its solves take the 2F1 route
    assert run(["solve", "--d", "7", "--alpha", "3.5", "--p", "2",
                "--n", "300", "--out-dir", str(tmp_path)]) == 0
    state = json.loads((tmp_path / "Q.json").read_text())
    assert state["params"]["d"] == 7 and state["residual"] <= 1e-10


def test_solve_missing_args(tmp_path):
    assert run(["solve", "--out-dir", str(tmp_path)]) == 1


def test_solve_too_few_nodes_for_the_default_grid(tmp_path, capsys):
    assert run(["solve", "--d", "3", "--alpha", "1", "--p", "2", "--n", "1",
                "--out-dir", str(tmp_path)]) == 1
    assert "at least 16 nodes" in capsys.readouterr().err


def test_solve_overflowing_stretch_is_a_usage_error(tmp_path, capsys):
    # --stretch is the growth per cell, not solver_grid's total stretch
    assert run(["solve", "--d", "3", "--alpha", "0.97", "--p", "2.03",
                "--n", "1200", "--stretch", "25",
                "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "per cell" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_solve_with_underflowing_stencils_is_a_usage_error(tmp_path, capsys):
    # 25 ** 80 does not overflow, but the first spacing is 9e-110 and the
    # stencil denominators h_l h_r (h_l + h_r) underflow to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["solve", "--d", "4", "--alpha", "1.973", "--p", "2",
                    "--n", "80", "--stretch", "25",
                    "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "underflow" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_solve_nonconvergence_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"max_iter": 2},
                               "grid": {"n": 300, "r_max": 25.0}}))
    code = run(["solve", "--d", "3", "--alpha", "1", "--p", "2",
                "--config", str(cfg), "--out-dir", str(tmp_path),
                "--tol", "1e-10"])
    assert code == 2


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
def test_solve_rejects_a_tol_that_is_not_positive_and_finite(tmp_path, capsys,
                                                             tol):
    code = run(["solve", "--d", "3", "--alpha", "1", "--p", "2", "--n", "300",
                "--tol", tol, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("max_iter", [0, -3])
def test_solver_max_iter_below_one_is_a_usage_error(tmp_path, capsys,
                                                     max_iter):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"max_iter": max_iter}}))
    code = run(["sweep", "--d", "3", "--alphas", "1", "--ps", "2",
                "--n", "300", "--config", str(cfg),
                "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "max_iter must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_solver_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"method": "flow"}}))
    code = run(["solve", "--d", "3", "--alpha", "1", "--p", "2", "--n", "300",
                "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "method" in capsys.readouterr().err
    assert not (tmp_path / "Q.csv").exists()


_SOLVE = ["solve", "--d", "3", "--alpha", "1", "--p", "2", "--n", "300"]
_SWEEP = ["sweep", "--d", "3", "--alphas", "1", "--ps", "2", "--n", "300"]


@pytest.mark.parametrize("argv,config,message", [
    (_SOLVE, b"[1, 2]", "not a JSON object"),
    (_SOLVE, b'{"grid": 5}', "not a JSON object"),
    (_SOLVE, b'{"params": "d=3"}', "not a JSON object"),
    (_SOLVE, b'{"solver": null}', "not a JSON object"),
    (_SWEEP, b'{"sweep": [1]}', "not a JSON object"),
    (_SOLVE, b"\xff\xfe{}", "cannot read config"),
])
def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys,
                                                       argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config)
    code = run(argv + ["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


_SOLVE_D3 = ["solve", "--d", "3", "--alpha", "1", "--p", "2"]


@pytest.mark.parametrize("argv,config,message", [
    (_SOLVE_D3, {"grid": {"n": "abc"}}, "bad grid config"),
    (_SOLVE_D3, {"grid": {"r_max": "big"}}, "bad grid config"),
    (["solve", "--alpha", "1"], {"params": {"d": "x", "p": 2}},
     "bad params config"),
    (["sweep"], {"sweep": {"alphas": 5, "ps": [2.0], "d": 3}},
     "bad sweep config"),
], ids=["grid-n", "grid-r_max", "params-d", "sweep-alphas"])
def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys,
                                                         argv, config,
                                                         message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run(argv + ["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for out in (d1, d2):
        assert run(["solve", "--d", "3", "--alpha", "1", "--p", "2",
                    "--n", "300", "--out-dir", str(out)]) == 0
    assert (d1 / "Q.csv").read_bytes() == (d2 / "Q.csv").read_bytes()
    assert (d1 / "Q.json").read_bytes() == (d2 / "Q.json").read_bytes()


def test_default_grid_converges_at_n1200(tmp_path):
    # no --stretch: the grid's last cell is 25 times its first at any n
    code = run(["solve", "--d", "3", "--alpha", "1", "--p", "2",
                "--n", "1200", "--out-dir", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "Q.json").read_text())["residual"] <= 1e-10


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("state")
    code = run(["solve", "--d", "3", "--alpha", "1", "--p", "2",
                "--n", "500", "--out-dir", str(out)])
    assert code == 0
    return out


def test_verify_passes_on_good_state(solved_dir, capsys):
    code = run(["verify", str(solved_dir / "Q"),
                "--identity-tol", "1e-3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_fails_on_corrupted_profile(solved_dir, tmp_path, capsys):
    import shutil
    shutil.copy(solved_dir / "Q.json", tmp_path / "Q.json")
    data = np.loadtxt(solved_dir / "Q.csv", delimiter=",", skiprows=1)
    data[60:80, 1] *= 1.3  # hand-corrupt the profile
    header = "r,value"
    np.savetxt(tmp_path / "Q.csv", data, delimiter=",", header=header,
               comments="", fmt="%.17g")
    code = run(["verify", str(tmp_path / "Q"), "--identity-tol", "1e-3"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("d, alpha, p", [(3, 1.9, 4.0), (4, 2.9, 2.5)])
def test_verify_fails_an_under_resolved_state_at_the_window_edge(
        tmp_path, capsys, d, alpha, p):
    # solve reaches tol here, but n = 300 does not resolve the state: the
    # identity residuals and the grad/mass ratio show it
    assert run(["solve", "--d", str(d), "--alpha", str(alpha), "--p", str(p),
                "--n", "300", "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "Q.json").read_text())["residual"] <= 1e-10
    capsys.readouterr()
    assert run(["verify", str(tmp_path / "Q")]) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_verify_rejects_an_identity_tol_that_is_not_positive_and_finite(
        solved_dir, capsys, tol):
    assert run(["verify", str(solved_dir / "Q"), "--identity-tol", tol]) == 1
    captured = capsys.readouterr()
    assert "--identity-tol must be positive and finite" in captured.err
    assert "FAIL" not in captured.out


def test_verify_missing_file(tmp_path):
    assert run(["verify", str(tmp_path / "nope")]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "Q", "--n", "5"],
    ["verify", "Q", "--out-dir", "x"],
    ["riesz", "p.csv", "--d", "3", "--alpha", "1", "--n", "5"],
    ["spectrum", "Q", "--tol", "1e-8"],
    ["sweep", "--d", "3", "--alphas", "1", "--ps", "2", "--jobs", "2"],
])
def test_flags_a_verb_does_not_read_are_usage_errors(argv, capsys):
    assert run(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def _damage_json(change):
    def damage(stem):
        path = stem.with_suffix(".json")
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
    return damage


def _damage_csv(token):
    def damage(stem):
        path = stem.with_suffix(".csv")
        lines = path.read_text().splitlines()
        lines[10] = lines[10].split(",")[0] + "," + token
        path.write_text("\n".join(lines) + "\n")
    return damage


_DAMAGED_STATES = {
    "not-an-object": _damage_json(lambda meta: [1, 2]),
    "grid-a-number": _damage_json(lambda meta: {**meta, "grid": 5}),
    "params-null": _damage_json(lambda meta: {**meta, "params": None}),
    "decay-a-list": _damage_json(lambda meta: {**meta, "decay": [1, 2]}),
    "unknown-equation": _damage_json(lambda meta: {**meta,
                                                   "equation": "foo"}),
    "fractional-d": _damage_json(lambda meta: {
        **meta, "params": {**meta["params"], "d": 3.9}}),
    "params-d-not-grid-d": _damage_json(lambda meta: {
        **meta, "params": {**meta["params"], "d": 4}}),
    "fractional-grid-d": _damage_json(lambda meta: {
        **meta, "grid": {**meta["grid"], "d": 3.5}}),
    "nan-in-profile": _damage_csv("nan"),
    "inf-in-profile": _damage_csv("inf"),
}


@pytest.mark.parametrize("verb", ["verify", "spectrum"])
@pytest.mark.parametrize("damage", _DAMAGED_STATES.values(),
                         ids=list(_DAMAGED_STATES))
def test_a_damaged_state_is_a_usage_error(solved_dir, tmp_path, capsys, verb,
                                          damage):
    import shutil
    for name in ("Q.json", "Q.csv"):
        shutil.copy(solved_dir / name, tmp_path / name)
    damage(tmp_path / "Q")
    out = tmp_path / "out"
    extra = ["--out-dir", str(out)] if verb == "spectrum" else []
    assert run([verb, str(tmp_path / "Q"), *extra]) == 1
    assert "cannot load state" in capsys.readouterr().err
    assert not (out / "spectral_report.json").exists()


def test_spectrum_verdict(solved_dir, tmp_path):
    code = run(["spectrum", str(solved_dir / "Q"), "--out-dir", str(tmp_path),
                "--k", "4"])
    assert code == 0
    rep = json.loads((tmp_path / "spectral_report.json").read_text())
    assert rep["radial_kernel_trivial"] is True
    assert rep["translation_mode_found"] is True
    assert "sector" not in rep


def test_spectrum_zero_field(tmp_path):
    code = run(["spectrum", "--zero-field", "--d", "3", "--n", "300",
                "--r-max", "30", "--stretch", "1.0",
                "--out-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "spectral_report.json").read_text())
    assert rep["zero_field"] is True
    assert rep["eigenvalues"][0] >= 0.95


def test_spectrum_unsupported_sector(solved_dir, tmp_path):
    assert run(["spectrum", str(solved_dir / "Q"), "--ell", "2",
                "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("stored,k", [(True, "0"), (False, "0"),
                                      (False, "11")])
def test_spectrum_k_outside_1_to_10_is_a_usage_error(stored, k, solved_dir,
                                                     tmp_path, capsys):
    source = ([str(solved_dir / "Q")] if stored
              else ["--zero-field", "--d", "3", "--n", "64"])
    assert run(["spectrum", *source, "--k", k,
                "--out-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "spectral_report.json").exists()


def test_spectrum_zero_field_at_the_d5_log_point(tmp_path):
    # alpha = 2 is a log point of d = 5 below d - 1
    assert run(["spectrum", "--zero-field", "--d", "5", "--alpha", "2",
                "--n", "64", "--out-dir", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "spectral_report.json").read_text())
    assert np.all(np.isfinite(rep["eigenvalues"]))


@pytest.mark.parametrize("gap_tol", ["-1", "nan", "0", "inf"])
def test_spectrum_rejects_a_gap_tol_that_is_not_positive_and_finite(
        solved_dir, tmp_path, capsys, gap_tol):
    # a window of no width would report a vacuous verdict
    assert run(["spectrum", str(solved_dir / "Q"), "--gap-tol", gap_tol,
                "--out-dir", str(tmp_path)]) == 1
    assert "gap_tol must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "spectral_report.json").exists()


def test_spectrum_ell_is_a_usage_error_for_a_state(solved_dir, tmp_path):
    # the report on a stored state covers both sectors; --ell would be ignored
    assert run(["spectrum", str(solved_dir / "Q"), "--ell", "1",
                "--out-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "spectral_report.json").exists()


def test_sweep_writes_csv_manifest_and_resumes(tmp_path, capsys):
    args = ["sweep", "--d", "3", "--alphas", "0.99", "1.0",
            "--ps", "2.0", "--n", "300", "--out-dir", str(tmp_path)]
    assert run(args) == 0
    csv_text = (tmp_path / "sweep.csv").read_text()
    manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert len(manifest["points"]) == 2
    assert all(pt["converged"] for pt in manifest["points"])
    capsys.readouterr()
    # idempotent resume: completed manifest short-circuits the run
    assert run(args) == 0
    assert "already complete" in capsys.readouterr().out
    assert (tmp_path / "sweep.csv").read_text() == csv_text


def test_sweep_resumes_from_partial_manifest(tmp_path):
    args = ["sweep", "--d", "3", "--alphas", "0.99", "1.0",
            "--ps", "2.0", "--n", "300", "--out-dir", str(tmp_path)]
    assert run(args) == 0
    manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
    full_csv = (tmp_path / "sweep.csv").read_text()
    # drop one completed point and resume; the merged result is identical
    manifest["points"] = manifest["points"][:1]
    (tmp_path / "sweep_manifest.json").write_text(json.dumps(manifest))
    assert run(args) == 0
    merged = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert len(merged["points"]) == 2
    assert (tmp_path / "sweep.csv").read_text() == full_csv


def _not_a_dict(manifest):
    return [1]


def _point_without_params(manifest):
    del manifest["points"][0]["params"]
    return manifest


def _points_not_a_list(manifest):
    manifest["points"] = 3
    return manifest


def _norms_not_a_map(manifest):
    manifest["points"][0]["norms"] = 5
    return manifest


def _converged_not_a_bool(manifest):
    manifest["points"][0].update(converged="false", norms={},
                                 dist_to_newtonian={})
    return manifest


@pytest.mark.parametrize("damage, resolved", [
    (_not_a_dict, [(0.99, 2.0), (1.0, 2.0)]),
    (_point_without_params, [(0.99, 2.0)]),
    (_points_not_a_list, [(0.99, 2.0), (1.0, 2.0)]),
    (_norms_not_a_map, [(0.99, 2.0)]),
    (_converged_not_a_bool, [(0.99, 2.0)]),
])
def test_sweep_solves_again_what_a_malformed_manifest_lost(tmp_path,
                                                           monkeypatch,
                                                           damage, resolved):
    args = ["sweep", "--d", "3", "--alphas", "0.99", "1.0",
            "--ps", "2.0", "--n", "300", "--out-dir", str(tmp_path)]
    assert run(args) == 0
    path = tmp_path / "sweep_manifest.json"
    whole_manifest = path.read_bytes()
    whole_csv = (tmp_path / "sweep.csv").read_bytes()
    path.write_text(json.dumps(damage(json.loads(whole_manifest))))
    real = continuation.sweep_point
    solved = []

    def counted(d, alpha, p, *rest):
        solved.append((alpha, p))
        return real(d, alpha, p, *rest)

    monkeypatch.setattr(continuation, "sweep_point", counted)
    assert run(args) == 0
    assert solved == resolved
    assert path.read_bytes() == whole_manifest
    assert (tmp_path / "sweep.csv").read_bytes() == whole_csv


def test_sweep_verb_runs_the_api_sweep_once(tmp_path, monkeypatch):
    real = continuation.sweep
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "sweep", counted)
    assert run(["sweep", "--d", "3", "--alphas", "0.99", "1.0", "--ps", "2.0",
                "--n", "300", "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_interrupted_sweep_resumes_only_missing_points(tmp_path, monkeypatch):
    lattice_args = ["sweep", "--d", "3", "--alphas", "0.99", "1.0",
                    "--ps", "2.0", "2.01", "--n", "300", "--out-dir"]
    assert run(lattice_args + [str(tmp_path / "whole")]) == 0
    whole = (tmp_path / "whole" / "sweep.csv").read_bytes()

    real = continuation.sweep_point
    solved = []

    def interrupted_at_third(d, alpha, p, *rest):
        if len(solved) == 2:
            raise KeyboardInterrupt
        solved.append((alpha, p))
        return real(d, alpha, p, *rest)

    out = tmp_path / "resumed"
    monkeypatch.setattr(continuation, "sweep_point", interrupted_at_third)
    with pytest.raises(KeyboardInterrupt):
        run(lattice_args + [str(out)])
    partial = json.loads((out / "sweep_manifest.json").read_text())
    assert len(partial["points"]) == 2
    assert not (out / "sweep.csv").exists()
    assert not list(out.glob("*.tmp"))

    def counted(d, alpha, p, *rest):
        solved.append((alpha, p))
        return real(d, alpha, p, *rest)

    monkeypatch.setattr(continuation, "sweep_point", counted)
    assert run(lattice_args + [str(out)]) == 0
    assert solved == [(0.99, 2.0), (0.99, 2.01), (1.0, 2.0), (1.0, 2.01)]
    assert (out / "sweep.csv").read_bytes() == whole
    assert ((out / "sweep_manifest.json").read_bytes()
            == (tmp_path / "whole" / "sweep_manifest.json").read_bytes())
    # a complete manifest rebuilds a lost CSV without solving
    (out / "sweep.csv").unlink()
    assert run(lattice_args + [str(out)]) == 0
    assert len(solved) == 4
    assert (out / "sweep.csv").read_bytes() == whole


def test_sweep_inadmissible_lattice_is_a_usage_error(tmp_path, capsys):
    code = run(["sweep", "--d", "3", "--alphas", "1.0", "--ps", "1.5",
                "--n", "200", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "existence window" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_with_spectrum_checks_alpha_before_solving(tmp_path, capsys,
                                                         monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a point of a rejected lattice")

    monkeypatch.setattr(cli, "solve_choquard", no_solve)
    monkeypatch.setattr(continuation, "solve_choquard", no_solve)
    code = run(["sweep", "--d", "3", "--alphas", "2.2", "--ps", "2",
                "--with-spectrum", "--n", "200", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep_manifest.json").exists()


def test_sweep_empty_lattice(tmp_path):
    assert run(["sweep", "--d", "3", "--alphas", "--ps", "2.0",
                "--out-dir", str(tmp_path)]) == 1


def test_riesz_verb_matches_direct_call(tmp_path):
    grid = make_grid(3, 10.0, 400, 1.0)
    fld = RadialField(grid, np.exp(-grid.nodes ** 2))
    src = tmp_path / "profile.csv"
    fld.to_csv(src)
    code = run(["riesz", str(src), "--d", "3", "--alpha", "1",
                "--out-dir", str(tmp_path)])
    assert code == 0
    got = np.loadtxt(tmp_path / "potential.csv", delimiter=",", skiprows=1)
    want = riesz_radial(grid, fld, 1.0).values
    assert_allclose(got[:, 1], want, rtol=1e-12, atol=1e-14)


def test_riesz_rejects_a_non_geometric_profile(tmp_path, capsys):
    r = np.linspace(0.1, 10.0, 100) ** 1.5
    src = tmp_path / "p.csv"
    np.savetxt(src, np.column_stack([r, np.exp(-r)]), delimiter=",",
               header="r,value", comments="")
    assert run(["riesz", str(src), "--d", "3", "--alpha", "1",
                "--out-dir", str(tmp_path)]) == 1
    assert "resample the profile" in capsys.readouterr().err
    assert not (tmp_path / "potential.csv").exists()


@pytest.mark.parametrize("body, message", [
    ("0.1,1.0\n0.2,abc\n", "not a numeric r,value table"),
    ("0.1,1.0\n", "at least two rows"),
], ids=["non-numeric-cell", "one-row"])
def test_riesz_rejects_a_malformed_profile(tmp_path, capsys, body, message):
    src = tmp_path / "p.csv"
    src.write_text("r,value\n" + body)
    assert run(["riesz", str(src), "--d", "3", "--alpha", "1",
                "--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "potential.csv").exists()


@pytest.mark.parametrize("body, message", [
    ("0.1,1.0\n0.2,abc\n", "not a numeric r,value table"),
    ("0.1,1.0\n", "at least two rows"),
], ids=["non-numeric-cell", "one-row"])
def test_verify_rejects_a_malformed_profile(solved_dir, tmp_path, capsys,
                                            body, message):
    import shutil
    shutil.copy(solved_dir / "Q.json", tmp_path / "Q.json")
    (tmp_path / "Q.csv").write_text("r,value\n" + body)
    assert run(["verify", str(tmp_path / "Q")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_riesz_rejects_a_non_finite_profile(tmp_path, capsys, token):
    grid = make_grid(3, 10.0, 64, 1.0)
    RadialField(grid, np.exp(-grid.nodes)).to_csv(tmp_path / "p.csv")
    _damage_csv(token)(tmp_path / "p")
    assert run(["riesz", str(tmp_path / "p.csv"), "--d", "3", "--alpha", "1",
                "--out-dir", str(tmp_path)]) == 1
    assert "non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "potential.csv").exists()


def test_riesz_verb_needs_args(tmp_path):
    grid = make_grid(3, 10.0, 64, 1.0)
    src = tmp_path / "p.csv"
    RadialField(grid, np.exp(-grid.nodes)).to_csv(src)
    assert run(["riesz", str(src)]) == 1


def test_outputs_stay_inside_out_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    outdir = tmp_path / "out"
    monkeypatch.chdir(workdir)
    assert run(["solve", "--model", "--d", "1", "--p", "3", "--n", "600",
                "--r-max", "12", "--stretch", "1.0",
                "--out-dir", str(outdir)]) == 0
    assert not list(workdir.iterdir())
    assert (outdir / "Q.json").exists()
