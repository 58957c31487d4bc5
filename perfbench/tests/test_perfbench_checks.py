"""Each output check accepts a correct output and rejects corrupted ones."""

import copy

from perfbench import checks

D1 = """\
E,window,jump,stderr,exact,catalog_match
0,9.9999999999999995e-07,0.16689316553417233,0.0002205062669600263,0.16689316553417233,0
1,9.9999999999999995e-07,0.071420642896785513,0.00023544733093445295,0.071420642896785513,1
"""

D2 = """\
E,window,jump,stderr,exact,catalog_match
-2,9.9999999999999995e-07,0.0089965397923875436,0.0012,0.0089965397923875436,-2
-1,9.9999999999999995e-07,0.026989619377162630,0.0021,0.026989619377162630,-1
0,9.9999999999999995e-07,0.079584775086505188,0.0030,0.079584775086505188,0
1,9.9999999999999995e-07,0.026989619377162630,0.0021,0.026989619377162630,1
2,9.9999999999999995e-07,0.0089965397923875436,0.0012,0.0089965397923875436,2
"""

GN = """\
n,G,stderr
1,0.21613547179432965,0.010373170273876907
2,0.19942226727445722,0.010339962360970055
3,0.19282156205496231,0.010334374777866953
inf,0.37386148096093924,0.010495566891615517
"""
GN_SITES = 401 ** 2 * 20

CONVERGENCE = {
    "p": 0.7,
    "grid": ["-4.25", "0", "4.25"],
    "ids": [
        {"L": 20, "restriction": "box", "mean": ["0", "0.35", "0.705"]},
        {"L": 20, "restriction": "con", "mean": ["0", "0.30", "0.60"]},
    ],
    "active_fraction": {"20": ["0.70", "0.71"]},
}


def _swap_fields(text, row_a, row_b, col):
    rows = [line.split(",") for line in text.splitlines()]
    rows[row_a][col], rows[row_b][col] = rows[row_b][col], rows[row_a][col]
    return "\n".join(",".join(r) for r in rows) + "\n"


def test_correct_outputs_pass():
    assert checks.check_d1_jumps(D1) == []
    assert checks.check_d2_exact(D2) == []
    assert checks.check_gn(GN, 0.59, GN_SITES) == []
    assert checks.check_convergence(CONVERGENCE) == []


def test_d1_rejects_flipped_exact_column():
    assert checks.check_d1_jumps(_swap_fields(D1, 1, 2, 4))


def test_d1_rejects_a_jump_far_from_its_oracle():
    bad = D1.replace("0.16689316553417233", "0.18")
    assert any("jump(0)" in p for p in checks.check_d1_jumps(bad))


def test_d1_rejects_a_missing_energy():
    assert checks.check_d1_jumps("\n".join(D1.splitlines()[:2]) + "\n")


def test_d2_rejects_swapped_plus_minus_rows():
    # E=-1 and E=-2 trade both columns: exact still equals numeric, but the
    # spectrum is no longer symmetric under E -> -E
    bad = _swap_fields(_swap_fields(D2, 1, 2, 2), 1, 2, 4)
    problems = checks.check_d2_exact(bad)
    assert problems and all("but jump" in p for p in problems)


def test_d2_rejects_flipped_exact_column():
    assert checks.check_d2_exact(_swap_fields(D2, 2, 3, 4))


def test_gn_rejects_increasing_profile():
    bad = GN.replace("0.19282156205496231", "0.2")
    assert any("G(3)" in p for p in checks.check_gn(bad, 0.59, GN_SITES))


def test_gn_rejects_wrong_isolated_site_density():
    bad = GN.replace("0.19942226727445722", "0.19")
    assert any("p(1-p)^4" in p for p in checks.check_gn(bad, 0.59, GN_SITES))


def test_convergence_rejects_con_above_box():
    bad = copy.deepcopy(CONVERGENCE)
    bad["ids"][1]["mean"][1] = "0.4"
    assert any("con exceeds box" in p for p in checks.check_convergence(bad))


def test_convergence_rejects_decreasing_ids():
    bad = copy.deepcopy(CONVERGENCE)
    bad["ids"][0]["mean"][1] = "0.8"
    assert any("decreases" in p for p in checks.check_convergence(bad))


def test_convergence_rejects_top_count_off_the_active_fraction():
    bad = copy.deepcopy(CONVERGENCE)
    bad["active_fraction"]["20"] = ["0.70", "0.72"]
    assert any("active fraction" in p for p in checks.check_convergence(bad))


def test_convergence_rejects_active_fraction_far_from_p():
    bad = copy.deepcopy(CONVERGENCE)
    bad["ids"][0]["mean"][2] = "0.8"
    bad["active_fraction"]["20"] = ["0.8", "0.8"]
    assert any("vs p" in p for p in checks.check_convergence(bad))
