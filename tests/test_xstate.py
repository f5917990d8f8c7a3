import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycorr import XBatch, make_xbatch, make_xstate, werner_state, xstate_eigenvalues
from cavitycorr.xstate import spectrum

from conftest import xstates


class TestMakeXstate:
    def test_maximally_mixed(self):
        s = make_xstate(0.25, 0.25, 0.25, 0.25, 0)
        assert s.populations() == (0.25, 0.25, 0.25, 0.25)
        assert s.c23 == 0

    def test_bell_state(self):
        s = make_xstate(0, 0.5, 0.5, 0, 0.5)
        assert s.populations() == (0.0, 0.5, 0.5, 0.0)
        assert s.c23 == 0.5

    def test_trace_violation(self):
        with pytest.raises(ValueError, match="trace"):
            make_xstate(0.3, 0.3, 0.3, 0.3, 0)

    def test_negative_population_clamped(self):
        s = make_xstate(-5e-13, 0.5 + 5e-13, 0.5, 0, 0)
        assert s.p11 == 0.0

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError, match="p11"):
            make_xstate(-1e-11, 0.5 + 1e-11, 0.5, 0, 0)

    def test_coherence_too_large(self):
        with pytest.raises(ValueError, match="c23"):
            make_xstate(0.25, 0.25, 0.25, 0.25, 0.3)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_xstate(math.nan, 0.5, 0.5, 0, 0)
        with pytest.raises(ValueError):
            make_xstate(0.25, 0.25, 0.25, 0.25, complex(math.inf, 0))

    def test_as_matrix_hermitian(self):
        s = make_xstate(0.1, 0.4, 0.3, 0.2, 0.2 + 0.1j)
        rho = s.as_matrix()
        assert np.allclose(rho, rho.conj().T)
        assert rho[1, 2] == 0.2 + 0.1j
        assert abs(np.trace(rho) - 1) < 1e-15


class TestWerner:
    def test_limits(self):
        assert werner_state(0.0).populations() == (0.25, 0.25, 0.25, 0.25)
        assert werner_state(1.0).populations() == (0.0, 0.5, 0.5, 0.0)
        assert werner_state(1.0).c23 == 0.5

    def test_intermediate(self):
        s = werner_state(0.2)
        assert s.p11 == pytest.approx(0.2, abs=1e-15)
        assert s.p22 == pytest.approx(0.3, abs=1e-15)
        assert s.c23 == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("r", [-0.1, 1.1, math.nan])
    def test_domain(self, r):
        with pytest.raises(ValueError):
            werner_state(r)

    @given(st.floats(0.0, 1.0))
    def test_affine_in_r(self, r):
        mixed = werner_state(0.0)
        bell = werner_state(1.0)
        s = werner_state(r)
        assert s.p11 == r * bell.p11 + (1 - r) * mixed.p11
        assert s.p22 == r * bell.p22 + (1 - r) * mixed.p22
        assert s.p33 == r * bell.p33 + (1 - r) * mixed.p33
        assert s.p44 == r * bell.p44 + (1 - r) * mixed.p44
        assert s.c23 == r * bell.c23 + (1 - r) * mixed.c23


class TestEigenvalues:
    def test_maximally_mixed(self):
        assert np.allclose(xstate_eigenvalues(make_xstate(0.25, 0.25, 0.25, 0.25, 0)),
                           [0.25, 0.25, 0.25, 0.25])

    def test_bell(self):
        assert np.allclose(xstate_eigenvalues(make_xstate(0, 0.5, 0.5, 0, 0.5)),
                           [0, 0, 1, 0], atol=1e-15)

    def test_werner(self):
        assert np.allclose(xstate_eigenvalues(werner_state(0.2)),
                           [0.2, 0.2, 0.4, 0.2], atol=1e-15)

    @given(xstates())
    def test_spectrum_properties(self, s):
        lams = xstate_eigenvalues(s)
        assert abs(lams.sum() - 1.0) < 1e-12
        assert (lams >= 0.0).all()
        assert (lams <= 1.0 + 1e-12).all()
        # closed form agrees with a dense eigensolver
        dense = np.linalg.eigvalsh(s.as_matrix())
        assert np.allclose(np.sort(lams), np.sort(dense), atol=1e-12)


class TestMakeXbatch:
    # (p11, p22, p33, p44, c23) cases that make_xstate rejects, each for a
    # different check
    BAD = [(math.nan, 0.5, 0.5, 0.0, 0), (0.25, 0.25, 0.25, 0.25, complex(0, math.inf)),
           (0.3, 0.3, 0.3, 0.3, 0), (-1e-11, 0.5 + 1e-11, 0.5, 0, 0),
           (0.25, 0.25, 0.25, 0.25, 0.3)]

    @staticmethod
    def batch(states, atol=1e-12):
        cols = list(zip(*states))
        c23 = np.array(cols[4], dtype=complex)
        return make_xbatch(*(np.array(c, dtype=float) for c in cols[:4]),
                           c23.real, c23.imag, atol)

    @pytest.mark.parametrize("bad", BAD)
    def test_same_message_as_make_xstate(self, bad):
        good = (0.25, 0.25, 0.25, 0.25, 0.1j)
        with pytest.raises(ValueError) as scalar:
            make_xstate(*bad)
        with pytest.raises(ValueError) as batch:
            self.batch([good, bad, good])
        assert str(batch.value) == str(scalar.value)

    def test_first_failing_state_is_reported(self):
        # the trace failure comes first in the batch, the NaN later
        with pytest.raises(ValueError, match="trace"):
            self.batch([(0.25, 0.25, 0.25, 0.25, 0), self.BAD[2], self.BAD[0]])

    def test_clamps_like_make_xstate(self):
        states = [(-5e-13, 0.5 + 5e-13, 0.5, 0, 0), (0.1, 0.2, 0.4, 0.3, 0.05 - 0.21j)]
        batch = self.batch(states)
        assert [batch[i] for i in range(len(batch))] == [make_xstate(*s) for s in states]

    @given(xstates())
    def test_one_state_round_trip(self, s):
        assert XBatch.of(s)[0] == s
        assert xstate_eigenvalues(s).tolist() == [float(v[0]) for v in spectrum(XBatch.of(s))]
