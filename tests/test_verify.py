"""The verify module's own definitions: the bounds of a run, the list of
PBW certificates, the corrupted deformation maps of the controls and the
detail of a failing oracle line."""
import pytest

from cherednik import verify
from cherednik.enveloping import UEAElement, kappa_from_r_matrices, kappa_of, r_matrix
from cherednik.modules import Block, axis_points
from cherednik.polynomials import Poly
from cherednik.weights import Axis, Weight


@pytest.mark.parametrize("suite,bounds,message", [
    ("oracle-n1", {"trials": 0}, "--trials must be at least 1, got 0"),
    ("poly", {"trials": 0}, "--trials must be at least 1, got 0"),
    ("poly", {"trials": -1}, "--trials must be at least 1, got -1"),
    ("jacobi", {"max_n": 0}, "--max-n must be at least 1, got 0"),
    ("clifford", {"max_n": 0}, "--max-n must be at least 1, got 0"),
    ("jacobi", {"max_deg": -1}, "--max-deg must be at least 0, got -1"),
    ("oracle-n1", {"max_deg": 0}, "--max-deg must be at least 1 for the oracle-n1 suite"),
    ("all", {"max_deg": 0}, "--max-deg must be at least 1 for the oracle-n1 suite"),
])
def test_run_suites_checks_its_bounds_before_any_suite_runs(monkeypatch, suite, bounds,
                                                            message):
    ran = []
    for name in ("poly_suite", "jacobi_suite", "clifford_suite", "oracle_suite"):
        monkeypatch.setattr(verify, name, lambda *a, name=name, **k: ran.append(name) or [])
    with pytest.raises(verify.BoundsError, match=message):
        verify.run_suites(suite, **bounds)
    assert ran == []


@pytest.mark.parametrize("suite,bounds,message", [
    ("poly_suite", {"trials": 0}, "--trials must be at least 1, got 0"),
    ("oracle_suite", {"trials": 0}, "--trials must be at least 1, got 0"),
    ("oracle_suite", {"max_deg": 0}, "--max-deg must be at least 1 for the oracle-n1 suite"),
    ("jacobi_suite", {"max_n": 0}, "--max-n must be at least 1, got 0"),
    ("jacobi_suite", {"max_n": 1, "max_deg": -1}, "--max-deg must be at least 0, got -1"),
    ("clifford_suite", {"max_n": 0}, "--max-n must be at least 1, got 0"),
])
def test_each_suite_checks_the_bounds_it_reads(monkeypatch, suite, bounds, message):
    # Called directly, a suite runs no empty range: it raises before any check.
    ran = []
    for name in ("nabla", "kappa_of", "corruption_controls", "spin_weights",
                 "random_rank_one_instance"):
        monkeypatch.setattr(verify, name, lambda *a, name=name, **k: ran.append(name))
    with pytest.raises(verify.BoundsError, match=message):
        getattr(verify, suite)(**bounds)
    assert ran == []


def test_a_degree_zero_jacobi_run_is_within_bounds():
    # max_deg 0 is out of bounds only where oracle-n1 runs
    results = verify.run_suites("jacobi", max_n=1, max_deg=0)
    assert results and all(r.ok for r in results)
    assert [r.name for r in results[:3]] == [f"{name} n=1 xi=z^0"
                                             for name, _ in verify.CERTIFICATES]


def _doubled_by_hand(rm, xi, i, j, mono, n):
    """Reference: the deformation map for xi from the r-matrices rm, with
    the coefficient of mono in rm[-1][i][j] doubled, written out entry by
    entry."""
    entry = UEAElement(dict(rm[-1][i][j].terms))
    entry.terms[mono] *= 2
    rows = [list(row) for row in rm[-1]]
    rows[i][j] = entry
    return kappa_from_r_matrices(xi, [*rm[:-1], rows], n)


def test_corrupted_kappas_match_the_reference():
    n = 2
    r0, r1 = r_matrix(n, 0), r_matrix(n, 1)
    want = [(((i + 1, j + 1), mono), _doubled_by_hand([r0, r1], Poly.of(0, 1), i, j, mono, n))
            for i in range(n) for j in range(n) for mono in sorted(r1[i][j].terms)]
    assert verify.r1_corruptions(n) == want
    assert len(want) == 6 and kappa_of(Poly.of(0, 1), n) not in [k for _, k in want]
    rm = [r_matrix(n, m) for m in range(3)]
    assert verify._doubled(n, 2, 0, 0, ((1, 1), (2, 2))) == \
        _doubled_by_hand(rm, Poly.of(0, 0, 1), 0, 0, ((1, 1), (2, 2)), n)


@pytest.mark.parametrize("max_n,ranks", [(1, [1, 2, 3]), (3, [1, 2, 3]), (4, [1, 2, 3, 4])])
def test_clifford_runs_at_least_up_to_rank_three(max_n, ranks):
    # The clifford runner floors max_n at 3: a run at --max-n 1 or 2 still
    # checks n = 1, 2 and 3, four checks per rank (and two checks of no rank).
    results = verify.run_suites("clifford", max_n=max_n)
    per_rank = [int(r.name.rsplit("n=", 1)[1]) for r in results if "n=" in r.name]
    assert per_rank == [n for n in ranks for _ in range(4)]
    assert len(results) == len(per_rank) + 2 and all(r.ok for r in results)


def _one_multiplicity_changed(block):
    """The multiplicity of the second class, lam - 1/2, moved by one."""
    multiplicities = list(block.multiplicities)
    multiplicities[1] += 1
    point = list(axis_points(block.axes))[1]
    return Block(block.axes, multiplicities), (
        f"class {Weight(point)}: oracle multiplicity {block.multiplicities[1]}, "
        f"closed form {multiplicities[1]}")


def _axis_moved(block):
    """The one axis moved up by one."""
    [axis] = block.axes
    return Block([Axis(axis.top + 1, axis.count)], block.multiplicities), (
        f"axes differ: oracle {axis.top} - o for o < {axis.count}, "
        f"closed form {axis.top + 1} - o for o < {axis.count}")


@pytest.mark.parametrize("corrupt", [_one_multiplicity_changed, _axis_moved])
def test_a_failing_oracle_line_names_where_the_blocks_differ(monkeypatch, corrupt):
    # The closed form's Block is corrupted; each line fails, and its detail
    # names the differing axes or the first class whose multiplicities
    # differ, with both values.
    honest, details = verify.dirac_cohomology, []

    def corrupted(P, lam):
        block, detail = corrupt(honest(P, lam))
        details.append(detail)
        return block

    monkeypatch.setattr(verify, "dirac_cohomology", corrupted)
    results = verify.oracle_suite(trials=3)
    assert len(details) == 3
    assert [(r.ok, r.detail) for r in results] == [(False, d) for d in details]
