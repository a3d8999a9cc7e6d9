"""The constructor every plain record derives from its `__slots__`."""

import pytest

from spincalc import checks, curves, lattices, picard


def test_positional_keyword_and_default_arguments_bind_in_slot_order():
    a = checks.CheckRecord("i", "c", "1", "1", "pass")
    b = checks.CheckRecord(status="pass", expected="1", computed="1",
                           citation="c", id="i")
    assert a == b and a.note is None
    assert checks.CheckRecord("i", "c", "1", "1", "pass", "n").note == "n"
    spec = curves.SurfacePencilSpec(2, -14, picard.mbar(8), base_points=3)
    assert (spec.nodes_resolved, spec.base_points,
            spec.reducible_fibres) == (0, 3, ())
    entry = lattices.CsEntry(1, 9, 6, 33, False)
    assert (entry.a, entry.target_sum, entry.target_norm, entry.cs_gap,
            entry.solution_found) == (1, 9, 6, 33, False)
    lift = curves.LiftedSpinCurve(curves.septic_pencil_curve())
    assert lift.label == ""


@pytest.mark.parametrize("build", [
    lambda: checks.Report(()),
    lambda: checks.Report((), 1, 2),
    lambda: checks.Report((), seed=1, extra=2),
    lambda: checks.Report((), 1, seed=2),
    lambda: lattices.CsCertificate(genus=7),
    lambda: curves.SurfacePencilSpec(1, -19),
    lambda: curves.SurfacePencilSpec(1, -19, picard.mbar(8), label="x"),
], ids=["missing", "too-many", "unknown-keyword", "repeated",
        "keyword-only-missing", "spec-missing", "spec-unknown"])
def test_missing_extra_or_repeated_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_a_checking_record_still_checks_after_binding():
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        curves.SurfacePencilSpec(1, -19, picard.mbar(8), base_points=-1)
    with pytest.raises(ValueError, match="negative c_2"):
        curves.SurfacePencilSpec(chi=0, k_squared=1, target=picard.mbar(8))
