"""Command-line front end.

One subcommand per experiment family; every run writes plot-ready CSV (or
JSON) plus a run.json manifest holding the fully resolved parameters and the
original argument vector, which is enough to reproduce the outputs
byte-identically.

Exit codes: 0 success, 2 usage error, 3 hypothesis violation, 4 resource
guard exceeded, 5 internal check failed (a bug, or a factorization breakdown
on a block too large to diagonalize).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import (HypothesisViolationError, InternalCheckError, PreconditionError,
                     ResourceGuardError)
from .experiments import (DEFAULTS, ExperimentParams, cluster_density_profile,
                          continuity_probe, convergence_study, estimate_ids,
                          ids_jump, jump_window_for_catalog, log_hoelder_check,
                          wegner_experiment)
from .model import (BOX_SITE_MAX, Configuration, HoppingKernel, LatticeRegion,
                    PotentialDistribution, adjacency_kernel,
                    bernoulli_distribution, stencil_halo)
from .operator import assemble
from .percolation import enumerate_connected_subgraphs
from .spectra import AlgebraicNumber, cluster_spectrum_catalog, eigs_dense, mirror_embed

GRID_MAX_STEPS = 10 ** 6  # most points a --grid may ask for, and most --nmax rows
DIM_MAX = max(d for d in range(1, 64) if 3 ** d <= BOX_SITE_MAX)  # 14


# argparse types: each raises ValueError on a malformed value, or
# ArgumentTypeError with the reason, which the parser reports as one usage line
# ("argument --grid: invalid grid value: ...")


def grid(text: str) -> np.ndarray:
    lo, hi, steps = text.split(":")
    lo, hi, steps = float(lo), float(hi), int(steps)
    if not (np.isfinite(lo) and np.isfinite(hi)) or steps > GRID_MAX_STEPS:
        raise argparse.ArgumentTypeError(
            f"need finite bounds and at most {GRID_MAX_STEPS} steps, got {text!r}")
    return np.linspace(lo, hi, steps)


def dimension(text: str) -> int:
    dim = int(text)
    # the smallest box has side 3, so dim must leave room for 3**dim sites
    if not 1 <= dim <= DIM_MAX:
        raise argparse.ArgumentTypeError(
            f"need 1 <= dim <= {DIM_MAX} (3**dim <= {BOX_SITE_MAX} sites), got {text!r}")
    return dim


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text!r}")
    return value


def interval(text: str) -> tuple:
    lo, hi = text.split(":")
    return float(lo), float(hi)


def floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x)


def integers(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x)


def rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
        float(value)  # the drivers read it as a float too, so it must fit one
    except (ZeroDivisionError, OverflowError):
        raise ValueError(text) from None
    return value


def _json_arg(text: str):
    """JSON text, or the path of a file holding it."""
    if not text.lstrip().startswith("{"):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _load_dist(args) -> PotentialDistribution:
    if args.p is not None:
        return bernoulli_distribution(args.p)
    if args.dist is None:
        raise PreconditionError("need --p or --dist")
    return PotentialDistribution.from_json_dict(_json_arg(args.dist))


def _load_kernel(args) -> HoppingKernel:
    if args.kernel == "adjacency":
        return adjacency_kernel(args.dim)
    kernel = HoppingKernel.from_json_dict(_json_arg(args.kernel))
    if kernel.dim != args.dim:
        raise PreconditionError(f"kernel dimension {kernel.dim} does not match --dim {args.dim}")
    return kernel


def _params(args) -> ExperimentParams:
    if len(args.L) > 1 and args.command != "convergence":
        raise PreconditionError(f"{args.command} takes --L once, got {len(args.L)} values")
    return ExperimentParams(args.dim, _load_kernel(args), _load_dist(args), args.L[0],
                            grid=args.grid, realizations=args.realizations, seed=args.seed,
                            restriction=getattr(args, "restriction", "box"), workers=args.workers)


def _write_rows(path: str, rows, fmt: str):
    if fmt == "json":
        header, *data = rows
        payload = [dict(zip(header, r)) for r in data]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(rows)


def _finish(args, command: str, rows, started, extra=None, side_files=()) -> int:
    os.makedirs(args.out, exist_ok=True)
    ext = "json" if args.format == "json" else "csv"
    out_path = os.path.join(args.out, f"{command}.{ext}")
    _write_rows(out_path, rows, args.format)
    outputs = [os.path.basename(out_path)]
    for name, text in side_files:
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        outputs.append(name)
    manifest = {
        "command": command,
        "argv": args.raw_argv,
        "version": __version__,
        "seed": args.seed,
        "params": extra or {},
        "defaults": DEFAULTS.__dict__,
        "started": started,
        "finished": _now(),
        "outputs": outputs,
    }
    with open(os.path.join(args.out, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class _OneLineParser(argparse.ArgumentParser):
    def error(self, message):
        """Report a usage error as the one line 'error: usage: ...' and exit 2."""
        self.exit(2, f"error: usage: {self.prog}: {' '.join(message.split())}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _OneLineParser(
        prog="perclab",
        description="Percolation-Hamiltonian spectral laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def base(p):
        p.add_argument("--dim", type=dimension, default=2)
        p.add_argument("--kernel", type=str, default="adjacency")
        p.add_argument("--seed", type=int, default=DEFAULTS.seed)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    def common(p, restriction=True):
        base(p)
        p.add_argument("--L", type=int, action="append", required=True,
                       help="box halfwidth (repeatable where a study needs several)")
        p.add_argument("--p", type=float, default=None,
                       help="Bernoulli shorthand: atom 0 with weight p, rest closed")
        p.add_argument("--dist", type=str, default=None,
                       help="potential law as JSON text or a path to a JSON file")
        p.add_argument("--grid", type=grid,
                       default=f"{DEFAULTS.grid_lo}:{DEFAULTS.grid_hi}:{DEFAULTS.grid_steps}")
        p.add_argument("--realizations", type=int, default=DEFAULTS.realizations)
        if restriction:  # gn labels the whole box and convergence runs both restrictions
            p.add_argument("--restriction", choices=["box", "con"], default="box")
        p.add_argument("--workers", type=int, default=DEFAULTS.workers)

    p = sub.add_parser("ids", help="integrated density of states on a grid")
    common(p)
    p.add_argument("--estimator", choices=["counting", "projector_diag"],
                   default="counting")

    p = sub.add_parser("jumps", help="jump densities at chosen energies")
    common(p)
    p.add_argument("--E", type=rational, action="append", required=True)
    p.add_argument("--windows", type=floats, default=None,
                   help="comma list; default derives the finest window from the catalog gap")
    p.add_argument("--catalog-maxsize", type=nonnegative, default=DEFAULTS.catalog_max_size,
                   help="0 disables catalog matching")

    p = sub.add_parser("gn", help="finite-cluster density profile G(n)")
    common(p, restriction=False)
    p.add_argument("--nmax", type=int, default=30)

    p = sub.add_parser("wegner", help="eigenvalue-count bound for a.c. laws")
    common(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--interval", type=interval, action="append", required=True,
                   help="lo:hi, repeatable")

    p = sub.add_parser("loghoelder", help="right log-Holder bound at an algebraic energy")
    common(p)
    p.add_argument("--E", type=rational, default=None, help="rational energy")
    p.add_argument("--minpoly", type=integers, default=None,
                   help="integer coefficients c0,c1,... of a monic polynomial")
    p.add_argument("--denom", type=int, default=1)
    p.add_argument("--approx", type=float, default=None)
    p.add_argument("--eps", type=floats, default=DEFAULTS.eps)

    p = sub.add_parser("continuity", help="shrinking-window probe for atomless laws")
    common(p)
    p.add_argument("--E", type=rational, action="append", required=True)
    p.add_argument("--windows", type=floats, default="1e-1,1e-2,1e-3")

    p = sub.add_parser("convergence", help="volume convergence and box-vs-con study")
    common(p, restriction=False)

    p = sub.add_parser("catalog", help="finite-cluster spectrum catalog")
    base(p)
    p.add_argument("--maxsize", type=int, default=DEFAULTS.catalog_max_size)
    p.add_argument("--atoms", type=floats, default="0")

    p = sub.add_parser("mirror", help="mirror-charge embeddings for catalog states")
    base(p)
    p.add_argument("--maxsize", type=int, default=4)
    return parser


def _concat_rows(reports):
    """One table from reports sharing a header: the header once, then each body."""
    return reports[0].to_csv_rows()[:1] + [r for rep in reports for r in rep.to_csv_rows()[1:]]


def _cmd_ids(args, started):
    params = _params(args)
    result = estimate_ids(params, estimator=args.estimator)
    return _finish(args, "ids", result.to_csv_rows(), started, params.describe())


def _cmd_jumps(args, started):
    params = _params(args)
    catalog = None
    if args.catalog_maxsize > 0 and not params.dist.pieces:
        atom_values = tuple(v for v, _ in params.dist.finite_atoms) or (0.0,)
        shapes = enumerate_connected_subgraphs(params.kernel, args.catalog_maxsize)
        catalog = cluster_spectrum_catalog(shapes, atom_values)
    if args.windows is not None:
        windows = args.windows
    elif catalog is not None:
        windows = (jump_window_for_catalog(catalog),)
    else:
        windows = DEFAULTS.windows
    rows = _concat_rows(ids_jump(params, args.E, windows, catalog))
    return _finish(args, "jumps", rows, started, params.describe())


def _cmd_gn(args, started):
    if args.nmax > GRID_MAX_STEPS:
        raise PreconditionError(f"--nmax {args.nmax} exceeds {GRID_MAX_STEPS} rows")
    params = _params(args)
    prof = cluster_density_profile(params, args.nmax)
    return _finish(args, "gn", prof.to_csv_rows(), started, params.describe())


def _cmd_wegner(args, started):
    params = _params(args)
    rows = _concat_rows(wegner_experiment(params, args.interval, args.a, args.b))
    extra = dict(params.describe(), a=args.a, b=args.b)
    return _finish(args, "wegner", rows, started, extra)


def _cmd_loghoelder(args, started):
    params = _params(args)
    if args.minpoly is not None:
        energy = AlgebraicNumber(args.minpoly, args.denom, args.approx)
    elif args.E is not None:
        energy = AlgebraicNumber.from_rational(args.E)
    else:
        raise PreconditionError("loghoelder needs --E or --minpoly")
    rep = log_hoelder_check(params, energy, args.eps)
    if rep.violations:  # the bound is a theorem: a violation is a bug
        raise InternalCheckError(
            f"{rep.violations} realizations violated the bound (should be impossible)")
    return _finish(args, "loghoelder", rep.to_csv_rows(), started, params.describe())


def _cmd_continuity(args, started):
    params = _params(args)
    rep = continuity_probe(params, [float(e) for e in args.E], args.windows)
    return _finish(args, "continuity", rep.to_csv_rows(), started, params.describe())


def _cmd_convergence(args, started):
    if len(args.L) < 2:
        raise PreconditionError("convergence needs --L given at least twice")
    params = _params(args)
    rep = convergence_study(params, sorted(args.L))
    extra = dict(params.describe(), L=sorted(args.L))
    return _finish(args, "convergence", rep.to_csv_rows(), started, extra)


def _cmd_catalog(args, started):
    kernel = _load_kernel(args)
    shapes = enumerate_connected_subgraphs(kernel, args.maxsize)
    atom_values = args.atoms or (0.0,)
    catalog = cluster_spectrum_catalog(shapes, atom_values)
    extra = {"dim": args.dim, "maxsize": args.maxsize, "atoms": list(atom_values),
             "counts_per_size": shapes.counts()}
    return _finish(args, "catalog", catalog.to_csv_rows(), started, extra,
                   side_files=[("subgraphs.json", shapes.to_json() + "\n")])


def _cmd_mirror(args, started):
    kernel = _load_kernel(args)
    shapes = enumerate_connected_subgraphs(kernel, args.maxsize)
    rows = [("energy", "witness_size", "vector", "residual", "norm_ratio")]
    for size in range(1, args.maxsize + 1):
        for sites in shapes.classes(size):
            q_plus = {s: 0.0 for s in sites}
            q_plus.update((t, float("inf")) for t in stencil_halo(sites, kernel))
            region = LatticeRegion.explicit(sites, collar=0)
            config = Configuration(region, np.zeros(len(region)))
            sample = eigs_dense(assemble(config, kernel, region.core_indices), vectors=True)
            _, _, g, residuals = mirror_embed(sites, q_plus, sample.vectors, sample.values, kernel)
            for k, (energy, resid) in enumerate(zip(sample.values, residuals)):
                ratio = float(g[:, k] @ g[:, k])  # f is normalized, so this should be 2
                rows.append((f"{energy:.17g}", str(size), str(k),
                             f"{resid:.3e}", f"{ratio:.17g}"))
    extra = {"dim": args.dim, "maxsize": args.maxsize}
    return _finish(args, "mirror", rows, started, extra)


_HANDLERS = {
    "ids": _cmd_ids,
    "jumps": _cmd_jumps,
    "gn": _cmd_gn,
    "wegner": _cmd_wegner,
    "loghoelder": _cmd_loghoelder,
    "continuity": _cmd_continuity,
    "convergence": _cmd_convergence,
    "catalog": _cmd_catalog,
    "mirror": _cmd_mirror,
}
SUBCOMMANDS = tuple(_HANDLERS)


def _glue_negative_values(argv):
    """Join each --option with a value like '-2.5:2.5:101', which argparse
    would otherwise read as an option string.  Every option but --help takes
    one value, so --help (or a prefix of it) is never joined."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok.startswith("--") and "=" not in tok and not "--help".startswith(tok)
                and len(nxt) > 1 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] == ".")):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv) -> int:
    """Parse and execute one command; returns the process exit code."""
    argv = list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(argv))
    except SystemExit as exc:  # argparse already printed the reason
        return 0 if exc.code in (0, None) else 2
    args.raw_argv = argv
    started = _now()
    try:
        return _HANDLERS[args.command](args, started)
    except HypothesisViolationError as exc:
        print(f"error: hypothesis-violation: {exc}", file=sys.stderr)
        return 3
    except ResourceGuardError as exc:
        print(f"error: resource-guard: {exc}", file=sys.stderr)
        return 4
    except InternalCheckError as exc:
        print(f"error: internal-check: {exc}", file=sys.stderr)
        return 5
    except (PreconditionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
