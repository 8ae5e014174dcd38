"""The public surface: what the package exports, and what it no longer does."""

import dataclasses
import inspect

import onemotives
from onemotives import crystal, homsolver, linalg, motivic, padic

REMOVED = ("sylvester_kernel", "constraint_stack", "arith", "min_valuation", "Rational", "eigen_line", "det", "weight_block_structure", "in_span")


def test_every_exported_name_resolves():
    missing = [name for name in onemotives.__all__ if not hasattr(onemotives, name)]
    assert missing == []
    assert len(set(onemotives.__all__)) == len(onemotives.__all__)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in onemotives.__all__
        assert not hasattr(onemotives, name)
    assert not hasattr(linalg, "sylvester_kernel") and not hasattr(linalg, "constraint_stack")
    assert not hasattr(padic, "arith") and not hasattr(padic, "Rational")
    assert not hasattr(padic.PadicScalar, "min_valuation")
    assert not hasattr(linalg, "permute") and not hasattr(linalg, "permute_rows")
    assert not hasattr(crystal.FilteredPhiModule, "phi_block")
    assert not hasattr(linalg, "kron") and not hasattr(motivic.MotivicComplex, "degrees")
    for name in ("auto", "eigenline", "generic", "scalar", "jordan"):
        assert not hasattr(crystal.EllipticFilMode, name)
    assert not hasattr(crystal, "_eigenline_matrix") and not hasattr(crystal, "_rational_eigenline")
    assert not hasattr(crystal, "_eigenline") and not hasattr(linalg, "eigen_line")
    assert not hasattr(padic.PadicContext, "with_precision")
    assert not hasattr(homsolver, "_solve_once")
    assert not hasattr(linalg, "resultant") and not hasattr(linalg, "det")
    assert not hasattr(homsolver, "weight_block_structure")
    assert not hasattr(homsolver, "in_span") and not hasattr(homsolver.HomSpace, "placed")
    assert "shift" not in inspect.signature(padic.PadicScalar.from_residue).parameters


def test_core_records_take_only_their_defining_data():
    """Each core record's ``__init__`` takes exactly the data that defines
    it; what follows from that data is read from it, not stored beside it."""
    pinned = {
        crystal.FilteredPhiModule: ("ctx", "dim", "phi", "weights", "fil1", "label", "graded", "split_at", "parts"),
        linalg.KernelResult: ("basis", "precision_report"),
        motivic.ComplexHom: ("by_degree",),
        homsolver.EndClassification: ("blocks",),
    }
    for cls, names in pinned.items():
        assert tuple(f.name for f in dataclasses.fields(cls) if f.init) == names, cls.__name__
    # the slope certificate is derived where a module is validated, so a
    # ``replace`` twin and a JSON-read atom carry the atom's own
    assert "slope_parts" not in {f.name for f in dataclasses.fields(crystal.FilteredPhiModule) if f.init}
    atom = crystal.realize_elliptic(1, crystal.EllipticFilMode("eigenline", 0), padic.PadicContext(5, 1, 40))
    for twin in (dataclasses.replace(atom), crystal.module_from_jsonable(crystal.module_to_jsonable(atom))):
        assert twin.slope_parts == atom.slope_parts == frozenset({0})
    assert homsolver.HomSpace.__eq__ is object.__eq__
