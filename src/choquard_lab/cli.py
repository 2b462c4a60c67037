"""Command-line entry point: solve, verify, spectrum, sweep, riesz.

Runs are reproducible from a JSON config plus flag overrides; all
artifacts land under --out-dir.  The verbs parse flags and config and
call the package: ``sweep`` runs ``continuation.sweep``, which reuses the
converged points of an existing manifest.  Exit codes: 0 success, 1
usage or config error (a damaged state file or profile among them), 2
numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .continuation import converged_points, lattice, sweep, sweep_to_csv
from .diagnostics import feasible_exponents, pohozaev_report
from .grid import (ChoquardParams, GridError, ParameterError, RadialField,
                   make_grid, solver_grid, write_atomic)
from .riesz import RieszError, riesz_radial
from .solver import (ConvergenceError, FitError, GroundState, SolverOptions,
                     solve_choquard, solve_model)
from .spectrum import (SpectrumError, eig_smallest, free_operator,
                       nondegeneracy_verdict)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOCONV = 2


# the keys of each config section; any other key is a usage error, but a
# verb may leave a known key or section unread
_SECTION_KEYS = {"params": {"d", "alpha", "p"},
                 "grid": {"r_max", "n", "stretch"},
                 "sweep": {"d", "alphas", "ps"}, "solver": {"tol", "max_iter"}}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} is not a JSON object")
    unknown = sorted(set(cfg) - {"out_dir", "model", *_SECTION_KEYS})
    if unknown:
        raise UsageError(f"unknown config keys {unknown}")
    for name, keys in _SECTION_KEYS.items():
        sec = cfg.get(name, {})
        if not isinstance(sec, dict):
            raise UsageError(f"config section {name!r} is not a JSON object")
        unknown = sorted(set(sec) - keys)
        if unknown:
            raise UsageError(f"unknown {name} config keys {unknown} "
                             f"(accepted: {', '.join(sorted(keys))})")
    return cfg


class UsageError(Exception):
    pass


def _integral(x) -> int:
    """int(x) for an integral x; int() alone takes 3.9 for 3, true for 1."""
    if isinstance(x, bool) or not float(x).is_integer():
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _refuse(args, mode: str, names) -> None:
    """A flag that ``mode`` would ignore is a usage error."""
    given = ["--" + a.replace("_", "-") for a in names
             if getattr(args, a) is not None]
    if given:
        raise UsageError(f"{mode} ignores {', '.join(given)}")


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _grid_from(args, cfg, d):
    """Grid from flags over config; without a stretch, solver_grid's rule
    (last cell 25 times the first) derives it from n."""
    gc = cfg.get("grid", {})
    stretch = args.stretch if args.stretch is not None else gc.get("stretch")
    try:
        r_max = float(args.r_max if args.r_max is not None
                      else gc.get("r_max", 25.0))
        n = _integral(args.n if args.n is not None else gc.get("n", 600))
        stretch = None if stretch is None else float(stretch)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad grid config (r_max, n, stretch): {exc}")
    if stretch is None:
        return solver_grid(d, r_max, n)
    return make_grid(d, r_max, n, stretch)


def _opts_from(args, cfg) -> SolverOptions:
    """Options from flags over config; SolverOptions holds the defaults."""
    given = dict(cfg.get("solver", {}))
    if args.tol is not None:
        given["tol"] = args.tol
    read = {"tol": float, "max_iter": _integral}
    try:
        return SolverOptions(**{k: read[k](v) for k, v in given.items()})
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
    alpha = args.alpha if args.alpha is not None else pc.get("alpha")
    if d is None or p is None:
        raise UsageError("solve needs --d and --p (or a config)")
    try:
        d, p = _integral(d), float(p)
        alpha = None if alpha is None else float(alpha)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad params config (d, alpha, p): {exc}")
    model = args.model or cfg.get("model", False)
    if model:
        _refuse(args, "solve --model", ["alpha"])
    opts = _opts_from(args, cfg)
    grid = _grid_from(args, cfg, d)
    out = _out_dir(args, cfg)
    try:
        if model:
            state = solve_model(d, p, grid, opts)
        else:
            if alpha is None:
                raise UsageError("solve needs --alpha for the nonlocal equation")
            state = solve_choquard(ChoquardParams(d, alpha, p), grid, opts)
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
    except (OSError, ValueError) as exc:
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
    if args.zero_field:
        if args.state:
            raise UsageError("--zero-field takes no state file")
        _refuse(args, "--zero-field", ["gap_tol"])
        ell = args.ell or 0
        if args.d is None:
            raise UsageError("--zero-field needs --d")
        out = _out_dir(args, cfg)
        grid = _grid_from(args, cfg, args.d)
        pairs = eig_smallest(free_operator(grid, ell), args.k)
        report = {"sector": ell, "zero_field": True,
                  "eigenvalues": [v for v, _ in pairs]}
    else:
        if not args.state:
            raise UsageError("spectrum needs a state file or --zero-field")
        # the report on a state covers both sectors on the state's grid
        _refuse(args, "the report on a state", ["ell", "d", "r_max", "n",
                                                "stretch"])
        out = _out_dir(args, cfg)
        state = _load_state(args.state)
        window = {} if args.gap_tol is None else {"gap_tol": args.gap_tol}
        report = asdict(nondegeneracy_verdict(state, k=args.k, **window))
    text = json.dumps(report, indent=2)
    write_atomic(out / "spectral_report.json",
                 lambda fh: fh.write(text.encode()))
    print(text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    opts = _opts_from(args, cfg)
    sc = cfg.get("sweep", {})
    d = args.d if args.d is not None else sc.get("d")
    if d is None:
        raise UsageError("sweep needs --d")
    alphas = args.alphas or sc.get("alphas")
    ps = args.ps or sc.get("ps")
    if not alphas or not ps:
        raise UsageError("sweep needs non-empty --alphas and --ps lattices")
    try:
        d = _integral(d)
        alphas, ps = [float(a) for a in alphas], [float(p) for p in ps]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad sweep config (d, alphas, ps): {exc}")
    grid = _grid_from(args, cfg, d)
    want = [(pt.alpha, pt.p)
            for pt in lattice(d, alphas, ps, args.with_spectrum)]
    out = _out_dir(args, cfg)

    manifest_path = out / "sweep_manifest.json"
    csv_path = out / "sweep.csv"
    done = {} if args.fresh else converged_points(manifest_path, grid)
    complete = all(pt in done for pt in want)
    try:
        records = sweep(d, alphas, ps, grid, opts,
                        with_spectrum=args.with_spectrum, done=done,
                        manifest=manifest_path)
    except ConvergenceError as exc:
        print(f"reference solve failed: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    # the manifest is written before the CSV, which may be lost or stale
    sweep_to_csv(records, csv_path)
    if complete:
        print(f"sweep already complete; rebuilt {csv_path} from the manifest")
        return EXIT_OK
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
                   help="sector l >= 0 of the --zero-field check (default 0)")
    s.add_argument("--k", type=int, default=6)
    s.add_argument("--gap-tol", type=float,
                   help="window of the report on a state (default 0.05)")
    s.add_argument("--zero-field", action="store_true",
                   help="free-operator sanity check")
    s.add_argument("--d", type=int)
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
    except (UsageError, ParameterError, GridError, RieszError, FitError,
            SpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
