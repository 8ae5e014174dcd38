"""Formal complex layer: shifts, degreewise Homs, vanishing between shifts."""

import random

import pytest

from onemotives.crystal import (
    EllipticFilMode,
    OneMotiveSpec,
    realize_elliptic,
    realize_lattice,
    realize_one_motive,
    realize_torus,
)
from onemotives.errors import ContextMismatch
from onemotives.homsolver import end_algebra
from onemotives.motivic import (
    MotivicComplex,
    direct_sum_complex,
    hom_complex,
    realize_motive,
    shift,
)
from onemotives.padic import PadicContext

C5 = PadicContext(5, 1, 40)
KUMMER = OneMotiveSpec(lattice_rank=1, torus_dim=1)


def test_shift_identities():
    x = realize_motive(KUMMER, C5)
    assert shift(x, 0) == x
    assert shift(shift(x, 1), -1) == x
    assert shift(x, 2).summands[0][1] == 2


def test_vanishing_between_distinct_shifts():
    x = realize_motive(KUMMER, C5)
    for n in (-2, -1, 1, 2):
        assert hom_complex(x, shift(x, n)).dimension == 0


def test_hom_complex_additivity_over_degrees():
    kummer = realize_one_motive(KUMMER, C5)
    lat = realize_lattice(1, C5)
    x = MotivicComplex(((kummer, 0), (lat, 2)))
    result = hom_complex(x, x)
    assert result.dimension == end_algebra(kummer).dimension + end_algebra(lat).dimension
    assert result.dimension == 3
    assert sorted(result.by_degree) == [0, 2]


def test_hom_complex_empty():
    x = realize_motive(KUMMER, C5)
    empty = MotivicComplex.empty()
    assert hom_complex(empty, x).dimension == 0
    assert hom_complex(x, empty).dimension == 0


def test_realize_motive_shapes():
    x = realize_motive(KUMMER, C5)
    assert len(x.summands) == 1
    assert x.summands[0][1] == 0
    z = realize_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(1,)), C5)
    assert z.summands[0][0].dim == 3
    assert realize_motive(OneMotiveSpec(), C5) == MotivicComplex.empty()


def test_summand_order_is_canonical():
    a = realize_lattice(1, C5)
    b = realize_torus(1, C5)
    x = MotivicComplex(((b, 1), (a, 0)))
    y = MotivicComplex(((a, 0), (b, 1)))
    assert x == y


def test_hom_complex_disjoint_degree_supports():
    rng = random.Random(123)
    mods = [
        realize_lattice(1, C5),
        realize_torus(1, C5),
        realize_elliptic(1, EllipticFilMode("auto"), C5),
    ]
    for _ in range(10):
        degs_x = rng.sample(range(-3, 4), 3)
        x = MotivicComplex(tuple((m, d) for m, d in zip(mods, degs_x)))
        n = rng.randint(7, 10)  # pushes every degree out of range
        assert hom_complex(x, shift(x, n)).dimension == 0


def test_hom_complex_biadditive():
    rng = random.Random(321)
    pool = [
        realize_lattice(1, C5),
        realize_torus(1, C5),
        realize_elliptic(2, EllipticFilMode("auto"), C5),
    ]
    for _ in range(5):
        xs = [MotivicComplex(((rng.choice(pool), rng.randint(-1, 1)),)) for _ in range(3)]
        y = MotivicComplex(((rng.choice(pool), rng.randint(-1, 1)),))
        total = direct_sum_complex(direct_sum_complex(xs[0], xs[1]), xs[2])
        assert hom_complex(total, y).dimension == sum(
            hom_complex(x, y).dimension for x in xs
        )
        assert hom_complex(y, total).dimension == sum(
            hom_complex(y, x).dimension for x in xs
        )


def test_identity_dimension_lower_bound():
    kummer = realize_one_motive(KUMMER, C5)
    lat = realize_lattice(1, C5)
    x = MotivicComplex(((kummer, 0), (lat, 1)))
    assert hom_complex(x, x).dimension >= len(x.summands)


def test_context_mismatch():
    a = realize_lattice(1, C5)
    b = realize_lattice(1, PadicContext(7, 1, 40))
    with pytest.raises(ContextMismatch):
        MotivicComplex(((a, 0), (b, 0)))
    with pytest.raises(ContextMismatch):
        hom_complex(MotivicComplex.of(a), MotivicComplex.of(b))
