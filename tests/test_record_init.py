"""The constructor every plain record derives from its `__slots__`."""

import pytest

from spincalc import checks, curves, lattices, picard


def test_positional_keyword_and_default_arguments_bind_in_slot_order():
    a = checks.CheckRecord("i", "c", "1", "1", "pass")
    b = checks.CheckRecord(status="pass", expected="1", computed="1",
                           citation="c", id="i")
    assert a == b and a.note is None
    assert checks.CheckRecord("i", "c", "1", "1", "pass", "n").note == "n"
    check = checks.Check("i", "c", note="n")
    assert (check.id, check.citation, check.run, check.note) == (
        "i", "c", None, "n")
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
    lambda: lattices.CsEntry(target_sum=9),
    lambda: checks.Check("i"),
    lambda: checks.Check("i", "c", label="x"),
], ids=["missing", "too-many", "unknown-keyword", "repeated",
        "keyword-only-missing", "spec-missing", "spec-unknown"])
def test_missing_extra_or_repeated_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_a_checking_record_still_checks_after_binding():
    with pytest.raises(ValueError, match="one basis name per Gram row"):
        lattices.IntegerLattice([[2]], ["a", "b"])
    # the surface-pencil counts are checked by `pencil_curve` itself
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        curves.pencil_curve(picard.mbar(8), 1, -19, base_points=-1)
    with pytest.raises(ValueError, match="negative c_2"):
        curves.pencil_curve(picard.mbar(8), chi=0, k_squared=1)
