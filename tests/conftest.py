"""Shared test plumbing: collects acceptance-criterion outcomes and prints
one line per criterion at the end of the run, gives each module one n = 1
structure (``struct``), draws a random point, lists a dual number's
leaves, builds stacked points and tangent vectors from one-row ones and
back, and a structure with dense maps.  Property tests draw the same
examples on every run (a derandomized hypothesis profile, no example
database), so a failing run reproduces."""

import numpy as np
import pytest
from hypothesis import settings

from hkc.numlin import Dual, quaternion_structures
from hkc.sphere3s import SpherePoint, TangentVector, ThreeSasakiStructure

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

ACCEPTANCE_RESULTS = []


def record_criterion(num, description, ok):
    """Log a criterion outcome (before any assert fires) and return it."""
    ACCEPTANCE_RESULTS.append((num, description, bool(ok)))
    return bool(ok)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, description, ok in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"C{num:02d} {verdict} — {description}")


@pytest.fixture(scope="module")
def struct():
    return ThreeSasakiStructure(n=1)


def rand_point(s, rng):
    return SpherePoint.normalized(rng.standard_normal(s.ambient_dim))


def leaves(v):
    """The array leaves of a dual number, value before derivative, or
    ``[v]`` for a plain value."""
    return [*leaves(v.val), *leaves(v.dot)] if isinstance(v, Dual) else [v]


def stack(values):
    """One stacked point or tangent vector from a sequence of one-row
    ones, each row at its own base point."""
    if isinstance(values[0], SpherePoint):
        return SpherePoint(np.array([p.x for p in values]))
    return TangentVector(stack([V.base for V in values]),
                         np.array([V.v for V in values]))


def stack_rows(rows):
    """Per-row tuples of points and tangent vectors, as one tuple of
    stacks."""
    return tuple(stack(col) for col in zip(*rows))


def stacked(x):
    """A point as a stack, one row as a stack of one: the engine below the
    typed operations takes stacks only."""
    return x if x.x.ndim > 1 else SpherePoint(x.x[None])


def row(value, i):
    """Row i of a stacked point or tangent vector, as a one-row value."""
    if isinstance(value, SpherePoint):
        return SpherePoint(value.x[i])
    return TangentVector(row(value.base, i), value.v[i])


def rotated(n, sign=-1):
    """The quaternion triple conjugated by a rotation: a 3-Sasakian
    structure whose maps are dense products, not a signed permutation."""
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4 * n + 4,) * 2))
    s = ThreeSasakiStructure(n=n, sign=sign, triple=Q @ quaternion_structures(n) @ Q.T)
    assert s._gather is None
    return s
