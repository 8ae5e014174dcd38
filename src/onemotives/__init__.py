"""Exact-arithmetic realizations of one-motives over finite fields.

The package realizes lattices, split tori, elliptic blocks, and their
direct sums as filtered phi-modules over Q_p and computes Hom/End spaces
as kernels of Frobenius-commutation plus filtration-preservation linear
systems, with precision-tracked p-adic elimination wherever eigenline
data forces inexact scalars.
"""

from .crystal import (
    EllipticFilMode,
    FilteredPhiModule,
    OneMotiveSpec,
    check_filtration_stability,
    direct_sum,
    dual,
    extension_module,
    hodge_newton_numbers,
    is_ordinary,
    newton_slopes_of,
    realize_elliptic,
    realize_lattice,
    realize_one_motive,
    realize_torus,
    scalar_frobenius_analysis,
    split_extension,
    zero_module,
)
from .homsolver import (
    EndClassification,
    HomSpace,
    classify_end,
    end_algebra,
    frobenius_membership,
    hom_space,
)
from .linalg import (
    KernelResult,
    Matrix,
    char_poly,
    companion,
    kernel,
)
from .motivic import ComplexHom, MotivicComplex, hom_complex, realize_motive, shift
from .padic import (
    PadicContext,
    PadicScalar,
    from_rational,
    hensel_lift_root,
    newton_slopes,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexHom",
    "EllipticFilMode",
    "EndClassification",
    "FilteredPhiModule",
    "HomSpace",
    "KernelResult",
    "Matrix",
    "MotivicComplex",
    "OneMotiveSpec",
    "PadicContext",
    "PadicScalar",
    "char_poly",
    "check_filtration_stability",
    "classify_end",
    "companion",
    "direct_sum",
    "dual",
    "end_algebra",
    "extension_module",
    "from_rational",
    "frobenius_membership",
    "hensel_lift_root",
    "hodge_newton_numbers",
    "hom_complex",
    "hom_space",
    "is_ordinary",
    "kernel",
    "newton_slopes",
    "newton_slopes_of",
    "realize_elliptic",
    "realize_lattice",
    "realize_motive",
    "realize_one_motive",
    "realize_torus",
    "scalar_frobenius_analysis",
    "shift",
    "split_extension",
    "zero_module",
]
