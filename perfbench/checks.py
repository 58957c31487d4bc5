"""Seed-independent checks of each workload's output, and output digests.

Every check returns a list of problems; an empty list means the output
passed.  The oracles are exact identities or closed forms that hold for any
seed.  Statistical ones allow Z standard errors: binomial ones where the
variance is known, otherwise the reported standard error with a floor,
because one estimated from a handful of realizations can come out small.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction

Z = 6.0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _jump_rows(text: str):
    """{E: (jump, stderr, exact)} from a jumps CSV; exact is '' when absent."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["E", "window", "jump", "stderr", "exact", "catalog_match"]:
        raise ValueError("unexpected jumps header")
    return {Fraction(r[0]): (r[2], r[3], r[4]) for r in rows[1:]}


def _exact_matches_numeric(table) -> list:
    return [f"E={e}: exact {exact!r} != numeric {jump!r}"
            for e, (jump, _, exact) in sorted(table.items())
            if exact == "" or float(exact) != float(jump)]


def check_d1_jumps(text: str) -> list:
    """Exact column equals the numeric one; jump(0) ~ 1/6, jump(1) ~ 1/14.

    The oracles are the series over path clusters for Bernoulli(1/2) site
    percolation on Z: p^n (1-p)^2 summed over chains with an eigenvalue at E.
    """
    try:
        table = _jump_rows(text)
    except (ValueError, IndexError) as exc:
        return [str(exc)]
    problems = _exact_matches_numeric(table)
    for energy, oracle in ((Fraction(0), 1 / 6), (Fraction(1), 1 / 14)):
        if energy not in table:
            problems.append(f"no row for E={energy}")
            continue
        jump, stderr = float(table[energy][0]), float(table[energy][1])
        if abs(jump - oracle) > max(Z * stderr, 2e-3):
            problems.append(f"jump({energy}) = {jump} vs {oracle:.6f} (stderr {stderr})")
    return problems


def check_d2_exact(text: str, energies=range(-2, 3)) -> list:
    """Exact column equals the numeric one, and jump(E) == jump(-E) exactly.

    The square lattice is bipartite, so every block's spectrum is symmetric
    and both columns must agree bit for bit under E -> -E.
    """
    try:
        table = _jump_rows(text)
    except (ValueError, IndexError) as exc:
        return [str(exc)]
    problems = _exact_matches_numeric(table)
    for e in energies:
        e = Fraction(e)
        if e not in table or -e not in table:
            problems.append(f"no row for E={e}")
            continue
        (j, _, x), (jm, _, xm) = table[e], table[-e]
        if j != jm or x != xm:
            problems.append(f"jump({e}) = {j}/{x} but jump({-e}) = {jm}/{xm}")
    return problems


def check_gn(text: str, p: float, sites: int) -> list:
    """G(n) nonincreasing in n, and G(1) - G(2) ~ p (1-p)^4 (isolated sites).

    sites is the number of box sites over all realizations.  The tolerance is
    Z binomial standard errors of the isolated-site fraction, doubled for the
    weak correlation of sites two steps apart.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["n", "G", "stderr"] or rows[-1][0] != "inf":
        return ["unexpected gn layout"]
    g = [float(r[1]) for r in rows[1:-1]]
    problems = [f"G({n + 2}) = {g[n + 1]} > G({n + 1}) = {g[n]}"
                for n in range(len(g) - 1) if g[n + 1] > g[n]]
    if len(g) < 2:
        return problems + ["fewer than two sizes"]
    isolated = p * (1 - p) ** 4
    sd = math.sqrt(isolated * (1 - isolated) / sites)
    if abs(g[0] - g[1] - isolated) > 2 * Z * sd:
        problems.append(f"G(1)-G(2) = {g[0] - g[1]} vs p(1-p)^4 = {isolated:.6f}")
    return problems


def check_convergence(payload: dict) -> list:
    """Each IDS nondecreasing, con <= box pointwise, N(top) = active fraction.

    The top grid energy lies above the spectral bound, so the box count there
    is every active core site: it must equal the mean active fraction of the
    sampled configurations, and that must lie within Z binomial standard
    errors of p.
    """
    grid = [float(x) for x in payload["grid"]]
    p = float(payload["p"])
    ids = {(d["L"], d["restriction"]): [float(x) for x in d["mean"]]
           for d in payload["ids"]}
    problems = []
    for (L, restriction), mean in sorted(ids.items()):
        if len(mean) != len(grid):
            problems.append(f"L={L} {restriction}: {len(mean)} values for {len(grid)} energies")
        if any(b < a for a, b in zip(mean, mean[1:])):
            problems.append(f"L={L} {restriction}: IDS decreases")
    for L in sorted({L for L, _ in ids}):
        box, con = ids.get((L, "box")), ids.get((L, "con"))
        if box is None or con is None:
            problems.append(f"L={L}: missing box or con")
            continue
        if any(c > b for b, c in zip(box, con)):
            problems.append(f"L={L}: con exceeds box")
        fractions = [float(x) for x in payload["active_fraction"][str(L)]]
        active = sum(fractions) / len(fractions)
        top = box[-1]
        if abs(top - active) > 1e-12:
            problems.append(f"L={L}: N({grid[-1]}) = {top} vs active fraction {active}")
        sites = (2 * L + 1) ** 2 * len(fractions)
        if abs(top - p) > Z * math.sqrt(p * (1 - p) / sites):
            problems.append(f"L={L}: N({grid[-1]}) = {top} vs p = {p}")
    return problems


def check_output(workload, files: dict) -> list:
    """Dispatch on the workload; files maps output name -> bytes."""
    try:
        if workload.name == "d1_jumps":
            return check_d1_jumps(files["jumps.csv"].decode())
        if workload.name == "d2_exact":
            return check_d2_exact(files["jumps.csv"].decode())
        if workload.name == "d2_gn":
            return check_gn(files["gn.csv"].decode(), workload.p,
                            workload.box_sites * workload.realizations)
        if workload.name == "d2_convergence":
            return check_convergence(json.loads(files["convergence.json"]))
    except KeyError as exc:
        return [f"missing output {exc}"]
    except ValueError as exc:
        return [f"malformed output: {exc}"]
    return [f"no check for workload {workload.name}"]


DATA_OUTPUTS = {"d1_jumps": "jumps.csv", "d2_exact": "jumps.csv",
                "d2_gn": "gn.csv", "d2_convergence": "convergence.json"}
