"""The integer-elimination kernel build against the two-RREF ``Fraction``
oracle: ``kernel_identity_form`` must return bit-identical
``(kernel, col_perm)`` on every build the solver makes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import AlgorithmOptions
from repro.core import kernel as kernel_mod
from repro.core.kernel import build_problem
from repro.dnc.combined import prepare_subset
from repro.dnc.subsets import enumerate_subsets
from repro.efm.api import _resolve_partition, build_problem_with_split
from repro.errors import ReversibleIdentityError
from repro.linalg import modular
from repro.linalg.numeric import kernel_identity_form
from repro.models.registry import get_network
from repro.network.compression import compress_network
from repro.network.stoichiometry import stoichiometric_matrix

from tests.oracles import fraction_kernel_identity_form


def assert_same_kernel(n, pivot_priority=None):
    kernel, col_perm = kernel_identity_form(n, pivot_priority=pivot_priority)
    want_kernel, want_perm = fraction_kernel_identity_form(n, pivot_priority)
    assert kernel.dtype == np.float64
    assert kernel.shape == want_kernel.shape
    assert np.array_equal(col_perm, want_perm)
    assert np.array_equal(kernel, want_kernel)


@pytest.fixture
def recorded_builds(monkeypatch):
    """Every ``(n, pivot_priority)`` the problem builder passes to the
    kernel, including builds that go on to raise."""
    calls = []

    def record(n, *, pivot_priority=None):
        calls.append((np.array(n, copy=True), pivot_priority))
        return kernel_identity_form(n, pivot_priority=pivot_priority)

    monkeypatch.setattr(kernel_mod, "kernel_identity_form", record)
    return calls


@pytest.fixture(scope="module")
def yeast_i_reduced():
    return compress_network(get_network("yeast-I-small")).reduced


class TestNetworkBuilds:
    def test_toy(self, toy, recorded_builds):
        build_problem_with_split(toy)
        build_problem_with_split(compress_network(toy).reduced)
        assert len(recorded_builds) >= 2
        for n, prio in recorded_builds:
            assert_same_kernel(n, prio)

    def test_paper_example_free_hint(self, toy_record, recorded_builds):
        build_problem(toy_record.reduced, free_hint=("r2", "r4", "r5", "r7"))
        ((n, prio),) = recorded_builds
        assert (prio == 1).sum() == 4
        assert_same_kernel(n, prio)

    @pytest.mark.parametrize("name", ["yeast-I-small", "yeast-II-small"])
    def test_compressed_yeast(self, name, recorded_builds):
        build_problem_with_split(compress_network(get_network(name)).reduced)
        assert recorded_builds
        for n, prio in recorded_builds:
            assert_same_kernel(n, prio)


def _subset_outcomes(reduced, monkeypatch, kernel_fn):
    """Outcome of every ``build_problem`` call over the 32 yeast-I-small
    ``q_sub = 5`` subsets: the problem's names, permutation and kernel, or
    the reactions a ``ReversibleIdentityError`` names."""
    monkeypatch.setattr(kernel_mod, "kernel_identity_form", kernel_fn)
    outcomes = []
    real_build = kernel_mod.build_problem

    def build(*args, **kw):
        try:
            p = real_build(*args, **kw)
        except ReversibleIdentityError as exc:
            outcomes.append(("reversible", exc.reactions))
            raise
        outcomes.append(("ok", p.names, p.perm.tolist(), p.kernel.tobytes()))
        return p

    monkeypatch.setattr("repro.dnc.combined.build_problem", build)
    opts = AlgorithmOptions()
    part = _resolve_partition(reduced, 5, "tail", opts)
    specs = enumerate_subsets(part)
    assert len(specs) == 32
    for spec in specs:
        prepare_subset(reduced, spec, options=opts)
    return outcomes


class TestSubsetBuilds:
    def test_every_yeast_q5_subset_build(self, yeast_i_reduced, monkeypatch):
        got = _subset_outcomes(yeast_i_reduced, monkeypatch, kernel_identity_form)

        def oracle(n, *, pivot_priority=None):
            return fraction_kernel_identity_form(n, pivot_priority)

        want = _subset_outcomes(yeast_i_reduced, monkeypatch, oracle)
        assert got == want
        assert any(o[0] == "reversible" for o in got)


int_or_half_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda q: st.tuples(
            st.lists(
                st.lists(st.integers(-4, 4), min_size=q, max_size=q),
                min_size=m, max_size=m,
            ),
            st.lists(st.booleans(), min_size=m, max_size=m),
            st.lists(st.integers(-2, 1), min_size=q, max_size=q),
        )
    )
)


@given(case=int_or_half_matrices)
@settings(max_examples=150, deadline=None)
def test_random_integer_and_half_integer_matrices(case):
    rows, halve, prio = case
    n = np.array(rows, dtype=np.float64)
    n[np.array(halve)] /= 2.0
    assert_same_kernel(n, np.array(prio))
    assert_same_kernel(n)


class TestOverflowEscalation:
    """A tiny int64 guard forces the object-dtype (Python ``int``) arm."""

    def _spy(self, monkeypatch):
        dtypes = []
        real = modular.montante

        def spy(a):
            dtypes.append(a.dtype)
            return real(a)

        monkeypatch.setattr(modular, "montante", spy)
        return dtypes

    def test_object_arm_returns_same_kernel(self, monkeypatch):
        rng = np.random.default_rng(4)
        n = rng.integers(-3, 4, size=(5, 11)).astype(float)
        prio = rng.integers(-2, 2, size=11)
        want = kernel_identity_form(n, pivot_priority=prio)
        monkeypatch.setattr(modular, "INT_KERNEL_GUARD", 8)
        dtypes = self._spy(monkeypatch)
        got = kernel_identity_form(n, pivot_priority=prio)
        # The int64 pass trips the guard mid-elimination and reruns exact.
        assert dtypes == [np.dtype(np.int64), np.dtype(object)]
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert_same_kernel(n, prio)

    def test_object_arm_on_yeast(self, yeast_i_reduced, monkeypatch):
        n = stoichiometric_matrix(yeast_i_reduced)
        want = kernel_identity_form(n)
        monkeypatch.setattr(modular, "INT_KERNEL_GUARD", 2)
        dtypes = self._spy(monkeypatch)
        got = kernel_identity_form(n)
        assert dtypes[-1] == np.dtype(object)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_int_kernel_overflow_takes_residue_arm(self, monkeypatch):
        rng = np.random.default_rng(6)
        n = rng.integers(-3, 4, size=(5, 11))
        rank, basis = modular.int_kernel(n)
        monkeypatch.setattr(modular, "INT_KERNEL_GUARD", 8)
        with pytest.raises(OverflowError):
            modular.int_kernel(n)
        prob = modular.ModularProblem(n.astype(float), AlgorithmOptions().policy)
        assert prob.ok and prob.bt is None
        assert (prob.rank, prob.d) == (rank, basis.shape[1])
