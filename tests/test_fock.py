import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycorr import (
    EvolutionParams,
    XBatch,
    evolve,
    evolve_batch,
    make_xstate,
    sequential_pass,
    sequential_pass_batch,
    werner_state,
)
from cavitycorr import fock
from cavitycorr.xstate import XState
from cavitycorr.verify import _seeded_chunks, run_verification, sample_xstate

from conftest import (
    DEGENERATE_STATES,
    as_matrix,
    seeded_rng,
    sequential_pass_reference,
    xstates,
)


# Small-n reference: the dense atoms (x) field model, conjugated by full
# single-atom unitaries on the photon window 0 .. n + padding.  Its cost
# and memory grow as n^2, so it only cross-checks the window oracle.  It
# flies the atoms in either order; the window oracle flies A first.
A_FIRST, B_FIRST = "A-first", "B-first"


@dataclass(frozen=True, eq=False)
class JointFieldState:
    """Dense atoms (x) field density matrix, layout atom A (x) atom B (x) field.

    ``matrix`` has shape ``(4*dim_field, 4*dim_field)``; photon numbers run
    0 .. dim_field - 1.  Atom basis index 0 is the excited level, matching
    the |11>,|10>,|01>,|00> ordering of :class:`~cavitycorr.xstate.XState`.
    """

    matrix: np.ndarray
    dim_field: int

    def validate(self, check_psd: bool = False, atol: float = 1e-12,
                 eig_floor: float = -1e-10) -> None:
        m = self.matrix
        if m.shape != (4 * self.dim_field, 4 * self.dim_field):
            raise ValueError(f"matrix shape {m.shape} does not match dim_field {self.dim_field}")
        herm = np.abs(m - m.conj().T).max()
        if herm > atol:
            raise ValueError(f"joint state not Hermitian within {atol:g}: max dev {herm:g}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > atol:
            raise ValueError(f"joint state trace must be 1 within {atol:g}, got {tr!r}")
        if check_psd:
            low = np.linalg.eigvalsh(m).min()
            if low < eig_floor:
                raise ValueError(f"joint state eigenvalue floor {low:g} below {eig_floor:g}")


def embed(state: XState, n: int, padding: int = 2) -> JointFieldState:
    """Product of a two-atom X state with the photon-number projector |n><n|.

    The photon window is 0 .. n + padding; padding 2 is exact for two
    passages and larger values must change nothing.
    """
    if n < 0:
        raise ValueError(f"photon number n must be nonnegative, got {n}")
    if padding < 2:
        raise ValueError(f"padding must be at least 2, got {padding}")
    d = n + 1 + padding
    field = np.zeros((d, d))
    field[n, n] = 1.0
    return JointFieldState(np.kron(as_matrix(state), field), d)


def jc_unitary(dim_field: int, gt: float) -> np.ndarray:
    """Single atom (x) field interaction unitary on the photon window.

    Index layout: excited level at ``0*d + m``, ground at ``1*d + m``.
    The top state |e, d-1> has its partner outside the window and is left
    invariant, which keeps the matrix exactly unitary; it is never
    populated when the window padding is respected.
    """
    d = dim_field
    u = np.zeros((2 * d, 2 * d), dtype=complex)
    u[d, d] = 1.0          # |g, 0> is stationary
    u[d - 1, d - 1] = 1.0  # |e, d-1>, see above
    for m in range(d - 1):
        angle = math.sqrt(m + 1) * gt
        c, s = math.cos(angle), math.sin(angle)
        e_idx, g_idx = m, d + m + 1
        u[e_idx, e_idx] = c
        u[g_idx, g_idx] = c
        u[e_idx, g_idx] = -1j * s
        u[g_idx, e_idx] = -1j * s
    return u


def jc_unitary_apply(state: JointFieldState, atom: str, gt: float) -> JointFieldState:
    """Conjugate the joint state by the interaction unitary of one atom."""
    if atom not in ("A", "B"):
        raise ValueError(f"atom must be 'A' or 'B', got {atom!r}")
    d = state.dim_field
    u1 = jc_unitary(d, gt).reshape(2, d, 2, d)
    eye2 = np.eye(2)
    if atom == "A":
        full = np.einsum("afAF,bB->abfABF", u1, eye2).reshape(4 * d, 4 * d)
    else:
        full = np.einsum("bfBF,aA->abfABF", u1, eye2).reshape(4 * d, 4 * d)
    return JointFieldState(full @ state.matrix @ full.conj().T, d)


def trace_out_field(state: JointFieldState) -> np.ndarray:
    """Reduced 4x4 two-atom matrix."""
    d = state.dim_field
    return np.einsum("abfcdf->abcd", state.matrix.reshape(2, 2, d, 2, 2, d)).reshape(4, 4)


def dense_sequential_pass(state: XState, params: EvolutionParams,
                          order: str = A_FIRST, padding: int = 2) -> XState:
    """The reference model's two-atom state after both passages."""
    joint = embed(state, params.n, padding)
    for atom in {A_FIRST: ("A", "B"), B_FIRST: ("B", "A")}[order]:
        joint = jc_unitary_apply(joint, atom, params.gt)
    rho = trace_out_field(joint)
    x_form = np.zeros((4, 4), dtype=bool)
    x_form[np.diag_indices(4)] = x_form[1, 2] = x_form[2, 1] = True
    assert np.abs(rho[~x_form]).max() < 1e-12
    return make_xstate(rho[0, 0].real, rho[1, 1].real, rho[2, 2].real,
                       rho[3, 3].real, rho[1, 2])


def relabel(state: XState) -> XState:
    """The state with the atoms' labels swapped: p22 <-> p33, c23 -> conj(c23)."""
    return make_xstate(state.p11, state.p33, state.p22, state.p44, np.conj(state.c23))


def window_pass(state: XState, params: EvolutionParams, order: str) -> XState:
    """The window oracle in either order: B first is A first on the relabelled atoms."""
    if order == A_FIRST:
        return sequential_pass(state, params)
    return relabel(sequential_pass(relabel(state), params))


def max_deviation(a, b):
    return max(abs(a.p11 - b.p11), abs(a.p22 - b.p22), abs(a.p33 - b.p33),
               abs(a.p44 - b.p44), abs(a.c23 - b.c23))


def pure_joint(a_level, b_level, photon, dim_field):
    """|a b, photon><a b, photon| with atom index 0 = excited."""
    vec = np.zeros(4 * dim_field, dtype=complex)
    vec[(a_level * 2 + b_level) * dim_field + photon] = 1.0
    return JointFieldState(np.outer(vec, vec.conj()), dim_field)


# Both oracles: the package's window oracle and the dense reference.
ORACLES = [sequential_pass, dense_sequential_pass]


class TestEmbed:
    def test_trace_one(self):
        joint = embed(werner_state(0.3), 4)
        assert abs(np.trace(joint.matrix) - 1) < 1e-14
        joint.validate(check_psd=True)

    def test_field_weight_on_n(self):
        joint = embed(make_xstate(0.25, 0.25, 0.25, 0.25, 0), 0)
        d = joint.dim_field
        assert d == 3
        diag = np.diag(joint.matrix).real.reshape(4, d)
        assert np.allclose(diag[:, 0], 0.25)
        assert np.allclose(diag[:, 1:], 0.0)

    def test_product_state_purity(self):
        bell = make_xstate(0, 0.5, 0.5, 0, 0.5)
        joint = embed(bell, 5)
        purity_joint = np.trace(joint.matrix @ joint.matrix).real
        purity_atoms = np.trace(as_matrix(bell) @ as_matrix(bell)).real
        assert purity_joint == pytest.approx(purity_atoms, abs=1e-14)

    def test_reduction_roundtrip(self):
        s = sample_xstate(seeded_rng(1))
        rho = trace_out_field(embed(s, 7))
        assert np.allclose(rho, as_matrix(s), atol=1e-15)


class TestJCUnitary:
    @pytest.mark.parametrize("d,gt", [(3, 0.7), (8, 2.3), (15, -4.0), (5, 0.0)])
    def test_unitarity(self, d, gt):
        u = jc_unitary(d, gt)
        assert np.abs(u @ u.conj().T - np.eye(2 * d)).max() < 1e-12

    def test_vacuum_ground_stationary(self):
        joint = pure_joint(1, 1, 0, 3)  # |g g, 0>
        out = jc_unitary_apply(joint, "A", 1.234)
        assert np.abs(out.matrix - joint.matrix).max() < 1e-14

    def test_excited_vacuum_full_emission(self):
        # |e, 0> at gt = pi/2 transfers to |g, 1> (the sqrt(1) manifold)
        joint = pure_joint(0, 1, 0, 3)  # atom A excited, B ground, no photons
        out = jc_unitary_apply(joint, "A", math.pi / 2)
        expected = pure_joint(1, 1, 1, 3)  # |g g, 1>
        assert np.abs(out.matrix - expected.matrix).max() < 1e-14

    def test_ground_one_photon_full_absorption(self):
        joint = pure_joint(1, 1, 1, 3)  # |g g, 1>
        out = jc_unitary_apply(joint, "A", math.pi / 2)
        expected = pure_joint(0, 1, 0, 3)  # |e g, 0>
        assert np.abs(out.matrix - expected.matrix).max() < 1e-14

    def test_one_parameter_group(self):
        rng = seeded_rng(2)
        joint = embed(sample_xstate(rng), 3)
        for atom in ("A", "B"):
            gt1, gt2 = rng.uniform(0, 5, size=2)
            once = jc_unitary_apply(jc_unitary_apply(joint, atom, gt1), atom, gt2)
            combined = jc_unitary_apply(joint, atom, gt1 + gt2)
            assert np.abs(once.matrix - combined.matrix).max() < 1e-12

    def test_preserves_state_invariants(self):
        rng = seeded_rng(3)
        for _ in range(25):
            joint = embed(sample_xstate(rng), int(rng.integers(0, 9)))
            out = jc_unitary_apply(joint, "B", float(rng.uniform(0, 20)))
            out.validate(check_psd=True)

    def test_rejects_unknown_atom(self):
        with pytest.raises(ValueError):
            jc_unitary_apply(embed(werner_state(0), 0), "C", 1.0)


class TestSequentialPass:
    def test_all_ground_vacuum_stationary(self):
        s = make_xstate(0, 0, 0, 1, 0)
        for oracle in ORACLES:
            out = oracle(s, EvolutionParams(0, 1.7))
            assert out.p44 == pytest.approx(1.0, abs=1e-14)

    def test_double_excited_vacuum_half_pulse(self):
        # A dumps its excitation, then B rotates in the sqrt(2) manifold
        s = make_xstate(1, 0, 0, 0, 0)
        for oracle in ORACLES:
            out = oracle(s, EvolutionParams(0, math.pi / 2))
            assert out.p33 == pytest.approx(math.cos(math.pi / math.sqrt(2)) ** 2, abs=1e-12)
            assert out.p44 == pytest.approx(math.sin(math.pi / math.sqrt(2)) ** 2, abs=1e-12)
            assert out.p11 == pytest.approx(0.0, abs=1e-14)
            assert out.p22 == pytest.approx(0.0, abs=1e-14)

    def test_output_is_valid_xstate(self):
        rng = seeded_rng(4)
        for _ in range(50):
            s = sample_xstate(rng)
            params = EvolutionParams(int(rng.integers(0, 13)), float(rng.uniform(0, 20)))
            for oracle in ORACLES:
                out = oracle(s, params)  # make_xstate validates inside
                assert abs(out.trace() - 1.0) < 1e-12

    def test_window_padding_is_inert(self):
        # the dense reference's window 0 .. n + padding
        rng = seeded_rng(5)
        for _ in range(20):
            s = sample_xstate(rng)
            params = EvolutionParams(int(rng.integers(0, 11)), float(rng.uniform(0, 20)))
            tight = dense_sequential_pass(s, params, padding=2)
            wide = dense_sequential_pass(s, params, padding=4)
            assert max_deviation(tight, wide) <= 1e-14

    def test_order_matters_for_asymmetric_states(self):
        s = make_xstate(0.6, 0.3, 0.1, 0.0, 0.1j)
        params = EvolutionParams(2, 1.3)
        for oracle in (window_pass, dense_sequential_pass):
            a_first = oracle(s, params, A_FIRST)
            b_first = oracle(s, params, B_FIRST)
            assert abs(a_first.p22 - b_first.p22) > 1e-3

    def test_orders_related_by_atom_swap(self):
        # swapping which atom flies first is the same as relabeling the
        # atoms on the way in and out (p22 <-> p33, c23 <-> conj(c23)); the
        # dense reference flies both orders, and window_pass's B-first is
        # this identity, checked against it in test_matches_dense_reference
        rng = seeded_rng(6)
        for _ in range(10):
            s = sample_xstate(rng)
            params = EvolutionParams(int(rng.integers(0, 7)),
                                     float(rng.uniform(0, 10)))
            b_first = dense_sequential_pass(s, params, B_FIRST)
            relabeled = dense_sequential_pass(relabel(s), params, A_FIRST)
            assert abs(b_first.p22 - relabeled.p33) < 1e-13
            assert abs(b_first.p33 - relabeled.p22) < 1e-13
            assert abs(b_first.c23 - np.conj(relabeled.c23)) < 1e-13


class TestWindowOracle:
    @pytest.mark.parametrize("order", [A_FIRST, B_FIRST])
    def test_matches_dense_reference(self, order):
        rng = seeded_rng(7)
        worst = 0.0
        for n in list(range(13)) * 20:
            s = sample_xstate(rng)
            params = EvolutionParams(n, float(rng.uniform(0.0, 20.0)))
            worst = max(worst, max_deviation(window_pass(s, params, order),
                                             dense_sequential_pass(s, params, order)))
        assert worst <= 1e-15

    @pytest.mark.parametrize("n", [10**6, 2**40])
    def test_matches_closed_form_at_large_n(self, n):
        rng = seeded_rng(8)
        drawn = [(sample_xstate(rng), float(rng.uniform(0.0, 1e4))) for _ in range(200)]
        states, gt = XBatch.stack([s for s, _ in drawn]), [g for _, g in drawn]
        n = np.full(len(gt), n)
        oracle, closed = sequential_pass_batch(states, n, gt), evolve_batch(states, n, gt)
        dev = np.max([abs(getattr(oracle, f) - getattr(closed, f))
                      for f in ("p11", "p22", "p33", "p44")]
                     + [np.hypot(oracle.re_c23 - closed.re_c23, oracle.im_c23 - closed.im_c23)])
        assert dev <= 1e-15

    def test_widened_verify_ranges_pass(self):
        report = run_verification(samples=2000, seed=7, n_max=10**6, gt_max=1e4)
        assert report.max_evolve_dev <= 1e-15
        assert report.passed

    def test_off_x_leakage_is_caught_per_state(self, monkeypatch):
        # a broken propagation that, after each pass, moves the flying
        # atom's excited amplitudes of state 1 one photon up; state 0 stays
        # correct, so the check must look at every state
        rotate = fock._rotate

        def leaky(re, im, n, gt):
            re, im = rotate(re, im, n, gt)
            for part in (re, im):  # shaped (field, ket, atom, atom, state)
                part[:, :, 0, :, 1] = np.roll(part[:, :, 0, :, 1], 1, axis=0)
            return re, im

        monkeypatch.setattr(fock, "_rotate", leaky)
        batch = XBatch.stack([werner_state(0.5)] * 2)
        with pytest.raises(RuntimeError, match="off-X leakage"):
            sequential_pass_batch(batch, [3, 3], [0.7, 0.7])

    def test_in_window_leakage_is_caught_by_the_off_x_check(self, monkeypatch):
        # a broken propagation that, after the last pass, swaps the other
        # atom's levels under the flying atom's excited level in state 1:
        # every amplitude keeps its photon number, so it stays inside its
        # ket's occupied window and only the off-X check sees the leak
        rotate, passes = fock._rotate, []

        def leaky(re, im, n, gt):
            re, im = rotate(re, im, n, gt)
            passes.append(gt)
            if len(passes) == 2:
                for part in (re, im):  # shaped (field, ket, atom, atom, state)
                    part[:, :, 0, :, 1] = part[:, :, 0, ::-1, 1].copy()
                    assert not part[fock._OUTSIDE].any()
            return re, im

        monkeypatch.setattr(fock, "_rotate", leaky)
        batch = XBatch.stack([werner_state(0.5)] * 2)
        with pytest.raises(RuntimeError, match="off-X leakage"):
            sequential_pass_batch(batch, [3, 3], [0.7, 0.7])

    def test_photon_window_leakage_is_caught_per_state(self, monkeypatch):
        # a broken propagation that puts amplitude two photons above |gg, n>
        # in state 1, where excitation conservation allows none: the trace
        # reads only the occupied window, so it would miss the leak and
        # return the right state; only the window check sees it
        rotate = fock._rotate

        def leaky(re, im, n, gt):
            re, im = rotate(re, im, n, gt)
            re[4, 3, :, :, 1] += 0.25   # ket 3 = |gg> occupies indices 0 .. 2
            return re, im

        monkeypatch.setattr(fock, "_rotate", leaky)
        batch = XBatch.stack([werner_state(0.5)] * 2)
        with pytest.raises(RuntimeError, match="occupied photon window"):
            sequential_pass_batch(batch, [3, 3], [0.7, 0.7])

    @pytest.mark.parametrize("n", [0, 1, 2, 2**53])
    def test_window_trace_bits_match_five_window_reference(self, n):
        # the trace over each ket's occupied window, the (2, 1) pair as the
        # adjoint of (1, 2) and the real population weights give the bits
        # of all five photon numbers and six complex-weighted pairs
        states = XBatch.stack(list(DEGENERATE_STATES.values()) * 4)
        gt = np.repeat([0.0, 0.7, math.pi / 2, 123.4], len(DEGENERATE_STATES))
        ns = np.full(len(states), n)
        _assert_same_bits(sequential_pass_batch(states, ns, gt),
                          sequential_pass_reference(states, ns, gt))

    def test_window_trace_bits_match_five_window_reference_on_a_seeded_chunk(self):
        _, states, ns, gts = next(_seeded_chunks(seeded_rng(24), 1024, 12, 20.0))
        _assert_same_bits(sequential_pass_batch(states, ns, gts),
                          sequential_pass_reference(states, ns, gts))

    def test_rejects_bad_parameters(self):
        batch = XBatch.stack([werner_state(0.5)] * 2)
        for bad in (-1, 2**53 + 1):
            with pytest.raises(ValueError, match=re.escape(
                    f"photon number n must be an integer in [0, {2**53}], got {bad}")):
                sequential_pass_batch(batch, [1, bad], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            sequential_pass_batch(batch, [1, 2], [0.5, math.inf])
        with pytest.raises(ValueError, match="integer photon numbers"):
            sequential_pass_batch(batch, [1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="shape"):
            sequential_pass_batch(batch, [1, 2, 3], [0.5, 0.5, 0.5])


def _assert_same_bits(got: XBatch, want: XBatch) -> None:
    """Every column equal bit for bit, signed zeros included."""
    for f in ("p11", "p22", "p33", "p44", "re_c23", "im_c23"):
        assert (getattr(got, f).view(np.int64) == getattr(want, f).view(np.int64)).all(), f


_PHOTONS = st.one_of(st.integers(0, 40), st.sampled_from([10**6, 2**40, 2**53]))
_CASES = st.lists(st.tuples(xstates(), _PHOTONS, st.floats(0.0, 1e3)),
                  min_size=1, max_size=12)


def bits(states):
    """The exact float values of each state, signed zeros included."""
    return [repr(s) for s in states]


def as_batch(cases):
    states, n, gt = zip(*cases)
    return XBatch.stack(states), np.array(n), np.array(gt)


@given(cases=_CASES, chunk=st.integers(1, 12))
def test_window_oracle_bit_identical_alone_and_in_any_batch(cases, chunk):
    batch, n, gt = as_batch(cases)
    whole = sequential_pass_batch(batch, n, gt)
    for i, (state, ni, gti) in enumerate(cases):
        alone = sequential_pass(state, EvolutionParams(ni, gti))
        assert bits([whole[i]]) == bits([alone])
    for lo in range(0, len(cases), chunk):
        part = sequential_pass_batch(batch[lo:lo + chunk], n[lo:lo + chunk],
                                     gt[lo:lo + chunk])
        assert bits(part[i] for i in range(len(part))) == \
            bits(whole[i] for i in range(lo, min(lo + chunk, len(cases))))


@given(cases=_CASES, chunk=st.integers(1, 12))
def test_evolve_batch_bit_identical_to_scalar_evolve(cases, chunk):
    batch, n, gt = as_batch(cases)
    whole = evolve_batch(batch, n, gt)
    for i, (state, ni, gti) in enumerate(cases):
        assert bits([whole[i]]) == bits([evolve(state, EvolutionParams(ni, gti))])
    for lo in range(0, len(cases), chunk):
        part = evolve_batch(batch[lo:lo + chunk], n[lo:lo + chunk], gt[lo:lo + chunk])
        assert bits(part[i] for i in range(len(part))) == \
            bits(whole[i] for i in range(lo, min(lo + chunk, len(cases))))
