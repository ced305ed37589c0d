"""Bit-exact remainder bounds on fixed models with 2, 3 and 4 wide rows.

The other remainder tests check soundness and closed forms within a
tolerance, and tests/reference.py reuses remainder_bound itself, so none of
them sees a change in the order of the rounded sums and products.  These
values pin every bit: any rewrite of the formulas must keep them.
"""

import pytest

from conftest import make_model, unit_domain
from isarith.univariate import Atom, central_points, remainder_bound

A = [(1 / 10, 3 / 8), (3 / 14, 4 / 9)]
B = [(1 / 21, 2 / 11), (2 / 15, 2 / 7)]
C = [(1 / 50, 1 / 9), (1 / 13, 3 / 13)]
D = [(1 / 6, 5 / 19), (1 / 11, 3 / 10)]
Z = [(1 / 3, 1 / 3), (1 / 3, 1 / 3)]  # a degenerate row: no spread

#: Rows and constant of each model, by its number of wide rows.
MODELS = {
    2: ([A, Z, B], (1 / 8, 2 / 15)),
    3: ([A, B, C], (1 / 8, 2 / 15)),
    4: ([A, B, Z, C, D], (-2 / 9, -1 / 5)),
}

EXPECTED = {
    (2, "SQR"): "0x1.4fea53fa94febp-5",
    (2, "INV"): "0x1.40328f387c2dcp-3",
    (2, "EXP"): "0x1.a2743b07b8159p-5",
    (2, "LOG"): "0x1.2867f376f1f54p-4",
    (2, "SIN"): "0x1.d8f60fe8fb8fdp-6",
    (2, "COS"): "0x1.d8f60fe8fb8fdp-6",
    (2, "TAN"): "0x1.4415ae23c4560p-2",
    (3, "SQR"): "0x1.a36a0002fcc62p-4",
    (3, "INV"): "0x1.71450e524eb80p+1",
    (3, "EXP"): "0x1.bd7912a54d965p-4",
    (3, "LOG"): "0x1.fd59799aedf48p-2",
    (3, "SIN"): "0x1.348f570692a09p-4",
    (3, "COS"): "0x1.348f570692a09p-4",
    (3, "TAN"): "0x1.502effe68a28bp-2",
    (4, "SQR"): "0x1.7b8fca5d26e8bp-3",
    (4, "INV"): "0x1.6fac658a121ddp+1",
    (4, "EXP"): "0x1.006ac658c3615p-2",
    (4, "LOG"): "0x1.29bf8c065aa33p+0",
    (4, "SIN"): "0x1.24352299e961dp-3",
    (4, "COS"): "0x1.24352299e961dp-3",
    (4, "TAN"): "0x1.699762cbede89p+1",
}


def fixed_model(wide: int):
    rows, const = MODELS[wide]
    return make_model(unit_domain(len(rows), 2), rows, const)


@pytest.mark.parametrize("wide, atom", sorted(EXPECTED))
def test_remainder_bits(wide, atom):
    g = Atom[atom]
    m = fixed_model(wide)
    w = central_points(g, m)
    assert sum(s > 0.0 for s in w.spreads) == wide
    assert remainder_bound(g, m, w).hex() == EXPECTED[wide, atom]


@pytest.mark.parametrize("wide", sorted(MODELS))
def test_negation_has_no_remainder(wide):
    m = fixed_model(wide)
    assert remainder_bound(Atom.NEG, m, central_points(Atom.NEG, m)).hex() == "0x0.0p+0"
