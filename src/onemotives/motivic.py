"""Formal bounded complexes of filtered phi-modules.

Over a finite field the isogeny category is semisimple, so every bounded
complex is equivalent to its cohomology: a complex here is a finite
formal sum of modules placed in degrees, with no differentials.  Homs are
computed degreewise and vanish between distinct shifts by construction,
which is exactly the Hom structure of the bounded homotopy category of a
semisimple additive category.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextMismatch
from .crystal import FilteredPhiModule, OneMotiveSpec, realize_one_motive
from .homsolver import HomSpace, hom_space
from .padic import PadicContext


@dataclass(frozen=True)
class MotivicComplex:
    """Finite list of (module, degree) summands, canonically ordered."""

    summands: tuple

    def __post_init__(self) -> None:
        items = sorted(self.summands, key=lambda s: (s[1], s[0].label))
        ctxs = {m.ctx for m, _ in items}
        if len(ctxs) > 1:
            raise ContextMismatch("summands live over different contexts")
        object.__setattr__(self, "summands", tuple(items))

    @classmethod
    def of(cls, module: FilteredPhiModule, degree: int = 0) -> MotivicComplex:
        return cls(((module, degree),))

    @classmethod
    def empty(cls) -> MotivicComplex:
        return cls(())


def shift(x: MotivicComplex, n: int) -> MotivicComplex:
    return MotivicComplex(tuple((m, d + n) for m, d in x.summands))


def direct_sum_complex(x: MotivicComplex, y: MotivicComplex) -> MotivicComplex:
    return MotivicComplex(x.summands + y.summands)


@dataclass
class ComplexHom:
    """The per-degree Hom spaces that contribute, and their total dimension."""

    by_degree: dict[int, list[HomSpace]]

    @property
    def dimension(self) -> int:
        return sum(h.dimension for spaces in self.by_degree.values() for h in spaces)


def hom_complex(x: MotivicComplex, y: MotivicComplex) -> ComplexHom:
    """Degreewise Hom; summand pairs in distinct degrees contribute zero."""
    if x.summands and y.summands:
        if x.summands[0][0].ctx != y.summands[0][0].ctx:
            raise ContextMismatch("complexes live over different contexts")
    by_degree: dict[int, list[HomSpace]] = {}
    for mx, dx in x.summands:
        for my, dy in y.summands:
            if dx == dy:
                by_degree.setdefault(dx, []).append(hom_space(mx, my))
    return ComplexHom(by_degree)


def realize_motive(spec: OneMotiveSpec, ctx: PadicContext, **kwargs) -> MotivicComplex:
    """The motive's module placed in degree 0; the empty spec gives the
    empty complex."""
    module = realize_one_motive(spec, ctx, **kwargs)
    if module.dim == 0:
        return MotivicComplex.empty()
    return MotivicComplex.of(module, 0)
