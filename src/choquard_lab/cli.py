"""Command-line entry point: solve, verify, spectrum, sweep, riesz.

Runs are reproducible from a JSON config plus flag overrides; all
artifacts land under --out-dir.  Exit codes: 0 success, 1 usage or
config error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .continuation import (SweepRecord, lattice, sweep_manifest, sweep_point,
                           sweep_to_csv)
from .diagnostics import feasible_exponents, pohozaev_report
from .grid import (ChoquardParams, GridError, ParameterError, RadialField,
                   make_grid, solver_grid, write_atomic)
from .riesz import RieszError, riesz_radial
from .solver import (ConvergenceError, FitError, GroundState, SolverOptions,
                     solve_choquard, solve_model)
from .spectrum import (SpectrumError, assemble_lplus, eig_smallest,
                       nondegeneracy_verdict, state_from_zero_field)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOCONV = 2


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _grid_from(args, cfg, d):
    """Grid from flags over config; without a stretch, solver_grid's rule
    (last cell 25 times the first) derives it from n."""
    gc = cfg.get("grid", {})
    r_max = float(args.r_max if args.r_max is not None else gc.get("r_max", 25.0))
    n = int(args.n if args.n is not None else gc.get("n", 600))
    stretch = args.stretch if args.stretch is not None else gc.get("stretch")
    if stretch is None:
        return solver_grid(d, r_max, n)
    return make_grid(d, r_max, n, float(stretch))


def _opts_from(args, cfg) -> SolverOptions:
    sc = cfg.get("solver", {})
    unknown = sorted(set(sc) - {"tol", "max_iter"})
    if unknown:
        raise UsageError(f"unknown solver config keys {unknown} "
                         "(accepted: tol, max_iter)")
    tol = args.tol if args.tol is not None else sc.get("tol", 1e-10)
    try:
        return SolverOptions(tol=float(tol),
                             max_iter=int(sc.get("max_iter", 2000)))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad solver options: {exc}")


def _out_dir(args, cfg) -> Path:
    out = Path(args.out_dir or cfg.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_common(sub, grid=True, tol=True):
    """The shared flags; a verb registers only those it reads."""
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out-dir", help="output directory (default .)")
    if grid:
        sub.add_argument("--r-max", type=float, default=None)
        sub.add_argument("--n", type=int, default=None)
        sub.add_argument("--stretch", type=float, default=None)
    if tol:
        sub.add_argument("--tol", type=float, default=None)


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    pc = cfg.get("params", {})
    d = args.d if args.d is not None else pc.get("d")
    p = args.p if args.p is not None else pc.get("p")
    if d is None or p is None:
        raise UsageError("solve needs --d and --p (or a config)")
    opts = _opts_from(args, cfg)
    out = _out_dir(args, cfg)
    grid = _grid_from(args, cfg, int(d))
    model = args.model or cfg.get("model", False)
    try:
        if model:
            state = solve_model(int(d), float(p), grid, opts)
        else:
            alpha = args.alpha if args.alpha is not None else pc.get("alpha")
            if alpha is None:
                raise UsageError("solve needs --alpha for the nonlocal equation")
            params = ChoquardParams(int(d), float(alpha), float(p))
            state = solve_choquard(params, grid, opts)
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    stem = out / (args.tag or "Q")
    state.save(stem)
    print(f"wrote {stem}.json and {stem}.csv "
          f"(residual {state.residual:.3e}, {state.iterations} iterations)")
    return EXIT_OK


def _load_state(stem: str) -> GroundState:
    try:
        return GroundState.load(Path(stem).with_suffix(""))
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot load state {stem}: {exc}")


def cmd_verify(args) -> int:
    tol = args.identity_tol
    if not 0.0 < tol < math.inf:
        raise UsageError(f"--identity-tol must be positive and finite, "
                         f"got {tol}")
    state = _load_state(args.state)
    rows = []
    rep = pohozaev_report(state)
    for name, val in rep.relative_residuals.items():
        rows.append((f"identity {name} (rel)", val, val <= tol))
    ratio_err = abs(rep.ratio_grad_mass - rep.predicted_ratio) \
        / max(abs(rep.predicted_ratio), 1e-30)
    rows.append(("grad/mass ratio vs predicted", ratio_err, ratio_err <= 1e-3))
    if state.decay is not None:
        gamma = state.decay.gamma
        ok = gamma >= 0.48 if state.equation == "choquard" else gamma > 0
        rows.append(("decay rate gamma", gamma, ok))
    else:
        rows.append(("decay rate gamma", float("nan"), False))
    if state.equation == "choquard" and state.params.d >= 3 \
            and state.params.p >= 2:
        feas = feasible_exponents(state.params)
        rows.append(("exponent system feasible", float(feas.feasible),
                     feas.feasible))
    width = max(len(r[0]) for r in rows) + 2
    all_ok = True
    for name, val, ok in rows:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name:<{width}} {val:>12.4e}  {status}")
    return EXIT_OK if all_ok else EXIT_NOCONV


def cmd_spectrum(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args, cfg)
    if args.ell not in (None, 0, 1):
        raise UsageError(f"unsupported sector --ell {args.ell}")
    if args.zero_field:
        ell = args.ell or 0
        if args.d is None:
            raise UsageError("--zero-field needs --d")
        grid = _grid_from(args, cfg, args.d)
        alpha = args.alpha if args.alpha is not None else float(args.d - 2)
        state = state_from_zero_field(ChoquardParams(args.d, alpha, 2.0), grid)
        pairs = eig_smallest(assemble_lplus(state, ell), args.k)
        report = {"sector": ell, "zero_field": True,
                  "eigenvalues": [v for v, _ in pairs]}
    else:
        if not args.state:
            raise UsageError("spectrum needs a state file or --zero-field")
        if args.ell is not None:
            raise UsageError("--ell needs --zero-field: the report on a "
                             "state covers both sectors")
        state = _load_state(args.state)
        report = nondegeneracy_verdict(state, gap_tol=args.gap_tol,
                                       k=args.k).to_dict()
    text = json.dumps(report, indent=2)
    write_atomic(out / "spectral_report.json",
                 lambda fh: fh.write(text.encode()))
    print(text)
    return EXIT_OK


def _converged_points(manifest_path: Path, grid) -> dict:
    """Converged records of an earlier sweep on ``grid``, by (alpha, p).
    A manifest that is not a JSON object counts as absent, and so does a
    point that does not parse: that point is solved again."""
    try:
        old = json.loads(manifest_path.read_text())
    except ValueError:
        return {}
    if not isinstance(old, dict) or old.get("grid") != grid.to_dict():
        return {}
    points = old.get("points")
    done = {}
    for pt in points if isinstance(points, list) else ():
        try:
            rec = SweepRecord.from_dict(pt)
        except (AttributeError, KeyError, TypeError, ValueError):
            continue
        if rec.converged:
            done[(rec.params.alpha, rec.params.p)] = rec
    return done


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    opts = _opts_from(args, cfg)
    out = _out_dir(args, cfg)
    sc = cfg.get("sweep", {})
    d = args.d if args.d is not None else sc.get("d")
    if d is None:
        raise UsageError("sweep needs --d")
    d = int(d)
    alphas = args.alphas or sc.get("alphas")
    ps = args.ps or sc.get("ps")
    if not alphas or not ps:
        raise UsageError("sweep needs non-empty --alphas and --ps lattices")
    grid = _grid_from(args, cfg, d)
    want = [(pt.alpha, pt.p)
            for pt in lattice(d, alphas, ps, args.with_spectrum)]

    manifest_path = out / "sweep_manifest.json"
    csv_path = out / "sweep.csv"
    done = {}
    if manifest_path.exists() and not args.fresh:
        done = _converged_points(manifest_path, grid)
    if all(pt in done for pt in want):
        # the manifest is written before the CSV, which may be lost or stale
        sweep_to_csv([done[pt] for pt in want], csv_path)
        print(f"sweep already complete; rebuilt {csv_path} from the manifest")
        return EXIT_OK
    try:
        reference = solve_choquard(ChoquardParams(d, float(d - 2), 2.0),
                                   grid, opts)
    except ConvergenceError as exc:
        print(f"reference solve failed: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    known = dict(done)
    for pt in want:
        if pt in done:
            continue
        known[pt] = sweep_point(d, *pt, grid, opts, reference,
                                args.with_spectrum)
        # after every solved point, so an interrupted sweep resumes
        text = sweep_manifest([known[q] for q in want if q in known], grid, d)
        write_atomic(manifest_path, lambda fh: fh.write(text.encode()))
    records = [known[pt] for pt in want]
    sweep_to_csv(records, csv_path)
    bad = [r for r in records if not r.converged]
    print(f"wrote {csv_path} and {manifest_path} "
          f"({len(records) - len(bad)}/{len(records)} points converged)")
    return EXIT_OK if not bad else EXIT_NOCONV


def cmd_riesz(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args, cfg)
    if args.alpha is None or args.d is None:
        raise UsageError("riesz needs --d and --alpha")
    try:
        fld = RadialField.from_csv(args.profile, args.d)
    except OSError as exc:
        raise UsageError(f"cannot read profile: {exc}")
    pot = riesz_radial(fld.grid, fld, args.alpha)
    path = out / "potential.csv"
    pot.to_csv(path)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="choquard-lab",
        description="radial ground states of the nonlocal Choquard equation: "
                    "solver, identity checks, linearized spectra, sweeps")
    sub = ap.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("solve", help="compute a ground state")
    _add_common(s)
    s.add_argument("--d", type=int)
    s.add_argument("--alpha", type=float)
    s.add_argument("--p", type=float)
    s.add_argument("--model", action="store_true",
                   help="solve the local model equation instead")
    s.add_argument("--tag", help="output file stem (default Q)")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("verify", help="identity/decay/window checks on a state")
    s.add_argument("state", help="state file stem or JSON path")
    s.add_argument("--identity-tol", type=float, default=1e-4)
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("spectrum", help="sector eigenvalues and verdicts")
    _add_common(s, tol=False)
    s.add_argument("state", nargs="?", help="state file stem")
    s.add_argument("--ell", type=int,
                   help="sector of the --zero-field check (default 0)")
    s.add_argument("--k", type=int, default=6)
    s.add_argument("--gap-tol", type=float, default=0.05)
    s.add_argument("--zero-field", action="store_true",
                   help="free-operator sanity check")
    s.add_argument("--d", type=int)
    s.add_argument("--alpha", type=float)
    s.set_defaults(func=cmd_spectrum)

    s = sub.add_parser("sweep", help="parameter lattice sweep")
    _add_common(s)
    s.add_argument("--d", type=int)
    s.add_argument("--alphas", type=float, nargs="*")
    s.add_argument("--ps", type=float, nargs="*")
    s.add_argument("--with-spectrum", action="store_true")
    s.add_argument("--fresh", action="store_true",
                   help="ignore an existing manifest")
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("riesz", help="potential of a CSV-supplied profile")
    _add_common(s, grid=False, tol=False)
    s.add_argument("profile", help="CSV with columns r,value")
    s.add_argument("--d", type=int)
    s.add_argument("--alpha", type=float)
    s.set_defaults(func=cmd_riesz)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, GridError, RieszError, FitError,
            SpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
