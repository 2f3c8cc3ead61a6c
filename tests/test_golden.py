"""Committed output reference: every subcommand's CSV, compared with tests/golden/.

Each command runs in-process through ``cli.main`` into a temporary
directory.  The header, the non-numeric cells and the footer keys must match
the reference exactly, and every number to a relative 1e-12, which leaves
room for another BLAS's rounding but not for a change of the model; a
number that is the rounding residue of a difference (``SCALES``) is held to
1e-12 of what it is a difference of instead.  A change
that moves output on purpose regenerates the references it moves in the same
diff (``python tests/test_golden.py`` rewrites them all) and names each moved
command and the reason in CHANGES.md.
"""

import math
import sys
from pathlib import Path

import pytest

from qndprobe import cli

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

# reference name -> subcommand argv (without --out)
COMMANDS = {
    "sweep": ["sweep"],
    "sweep_naive_dropped": ["sweep", "--mode", "naive", "--pulses", "30", "--eps", "1e-3", "--dropped"],
    "sweep_long_dropped": ["sweep", "--p", "1000", "--na-points", "100", "--eps", "1e-6", "--dropped"],
    "suppression": ["suppression"],
    "suppression_dropped": ["suppression", "--eps", "1e-4", "--dropped"],
    "impact": ["impact"],
    "impact_long": ["impact", "--p", "1000", "--eps", "1e-6"],
    "oracle_compare": ["oracle-compare"],
    "oracle_compare_200_16": ["oracle-compare", "--g1", "1e-4", "--g2", "1e-4", "--p", "2",
                              "--n-ph", "16", "--oracle-na", "200"],
    "oracle_compare_f15": ["oracle-compare", "--f", "1.5", "--oracle-na", "2", "--n-ph", "3", "--p", "2",
                           "--g1", "1e-3", "--g2", "1e-3"],
    "algebra_check": ["algebra-check"],
    "montecarlo_dropped_p20": ["montecarlo", "--p", "20", "--trials", "20000", "--eps", "1e-3", "--dropped"],
    "montecarlo_dropped": ["montecarlo", "--trials", "20000", "--dropped"],
    "montecarlo_naive_dropped": ["montecarlo", "--seed", "3", "--mode", "naive", "--pulses", "7",
                                 "--trials", "30000", "--eps", "0.2", "--dropped"],
    "montecarlo_long_dropped": ["montecarlo", "--p", "1000", "--trials", "1000", "--eps", "1e-6", "--dropped"],
    "montecarlo_linear": ["montecarlo", "--p", "5", "--eps", "1e-4", "--trials", "100000", "--seed", "11"],
}

# Columns and footer keys whose numbers are rounding residues of a difference,
# with the magnitude of what each one differences.  oracle-compare's defaults
# (two spin-1 atoms, 4 photons per pulse, decoupled(5), g2 = 0) have
# |<Jz>| = 0.72, |<Jy>| = 0.21, |<M>| <= 1.8e-6 and var(M) <= 10 through the
# train; at (oracle-na, n-ph) = (200, 16) the oracle has |<Jz>| <= 71.7,
# |<Jy>| <= 20.6, |<M>| <= 0.23 and var(M) <= 16.0; two spin-3/2 atoms (the
# tensor space) at n-ph = 3, decoupled(2), g1 = g2 = 1e-3 have |<Jz>| <= 1.08,
# |<Jy>| <= 3.3e-3, |<M>| <= 6.5e-3 and var(M) <= 3.0; the operators
# algebra-check compares, and their products, have entries up to 4.5 (jxy at f = 2).
SCALES = {
    "oracle_compare": {"d_jz_mean": 0.72, "d_jy_mean": 0.21, "d_meter_mean": 1.8e-6, "d_meter_var": 10.0,
                       "max_first_moment_deviation": 0.72},
    "oracle_compare_200_16": {"d_jz_mean": 71.7, "d_jy_mean": 20.6, "d_meter_mean": 0.23, "d_meter_var": 16.0,
                              "max_first_moment_deviation": 71.7},
    "oracle_compare_f15": {"d_jz_mean": 1.08, "d_jy_mean": 3.3e-3, "d_meter_mean": 6.5e-3, "d_meter_var": 3.0,
                           "max_first_moment_deviation": 1.08},
    "algebra_check": dict.fromkeys(["max_commutator_residual", "max_identity_residual",
                                    "max_hermiticity_residual", "max_residual"], 4.5),
}


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _same(got: str, want: str, scale: float) -> bool:
    """Cells match exactly, or as numbers to a relative REL_TOL or within REL_TOL * scale."""
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL * scale)


def _split(text: str):
    """(header, body rows, footer lines as [key, value] or [line]) of one output CSV."""
    lines = text.splitlines()
    body = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    footer = [line[2:].split(" = ", 1) for line in lines[1:] if line.startswith("#")]
    return lines[0], body, footer


def _run(name: str, out: Path) -> Path:
    path = out / f"{name}.csv"
    assert cli.main([*COMMANDS[name], "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_the_committed_reference(name, tmp_path):
    got = _split(_run(name, tmp_path).read_text())
    want = _split((GOLDEN / f"{name}.csv").read_text())
    assert got[0] == want[0]
    scales = SCALES.get(name, {})
    column_scales = [scales.get(column, 0.0) for column in want[0].split(",")]
    for part, label in ((1, "row"), (2, "footer line")):
        assert [len(x) for x in got[part]] == [len(x) for x in want[part]], f"{label} shapes differ"
        for i, (g, w) in enumerate(zip(got[part], want[part])):
            cell_scales = column_scales
            # a footer line's key (or free text) is compared exactly, its value like a cell
            if part == 2:
                assert g[0] == w[0], f"{label} {i}: {g[0]!r} != {w[0]!r}"
                g, w, cell_scales = g[1:], w[1:], [scales.get(w[0], 0.0)]
            bad = [(j, x, y) for j, (x, y, s) in enumerate(zip(g, w, cell_scales)) if not _same(x, y, s)]
            assert not bad, f"{name} {label} {i}: (column, got, reference) {bad}"


def test_every_reference_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(COMMANDS)


if __name__ == "__main__":
    # rewrite the named references (default: all) from the present code, without their manifests
    for arg in sys.argv[1:] or sorted(COMMANDS):
        print(_run(arg, GOLDEN))
        (GOLDEN / f"{arg}.csv.manifest").unlink()
