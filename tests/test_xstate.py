import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycorr import XBatch, make_xbatch, make_xstate, werner_state
from cavitycorr.xstate import spectrum

from conftest import as_matrix, xstates


def _spectrum(state):
    """The four eigenvalues of one state, from its batch of one."""
    return np.array(spectrum(XBatch.of(state)))[:, 0]


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

    def test_coherence_excess_beyond_atol_rejected(self):
        # |c23|^2 - p22*p33 = 1e-9 is more than round-off; 1e-13 is within ATOL
        with pytest.raises(ValueError, match="c23"):
            make_xstate(0.25, 0.25, 0.25, 0.25, math.sqrt(0.0625 + 1e-9))
        assert make_xstate(0.25, 0.25, 0.25, 0.25, math.sqrt(0.0625 + 1e-13)).c23.real > 0.25

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_xstate(math.nan, 0.5, 0.5, 0, 0)
        with pytest.raises(ValueError):
            make_xstate(0.25, 0.25, 0.25, 0.25, complex(math.inf, 0))

    def test_as_matrix_hermitian(self):
        s = make_xstate(0.1, 0.4, 0.3, 0.2, 0.2 + 0.1j)
        rho = as_matrix(s)
        assert np.allclose(rho, rho.conj().T)
        assert rho[1, 2] == 0.2 + 0.1j
        assert abs(np.trace(rho) - 1) < 1e-15

    @pytest.mark.parametrize("index, name", enumerate(["p11", "p22", "p33", "p44", "c23"]))
    def test_int_beyond_the_float_range(self, index, name):
        # the argument's ValueError, not a bare OverflowError from float()
        for bad in (10**400, -10**400):
            args = [0.25, 0.25, 0.25, 0.25, 0.0]
            args[index] = bad
            with pytest.raises(ValueError) as err:
                make_xstate(*args)
            assert str(err.value) == f"{name} must be a real number, got dtype object"

    @pytest.mark.parametrize("index, name", enumerate(["p11", "p22", "p33", "p44", "c23"]))
    def test_strings_and_bools_rejected(self, index, name):
        # float() and complex() would read "0.25" as a number and True as 1
        for bad, message in (("0.25", f"{name} must be a real number, got dtype <U4"),
                             ("0", f"{name} must be a real number, got dtype <U1"),
                             (True, f"{name} must be a number, not a bool"),
                             (False, f"{name} must be a number, not a bool"),
                             (np.bool_(True), f"{name} must be a number, not a bool")):
            args = [0.25, 0.25, 0.25, 0.25, 0.0]
            args[index] = bad
            with pytest.raises(ValueError) as err:
                make_xstate(*args)
            assert str(err.value) == message
        # numpy's scalars stay accepted: the benchmark's verify replay passes them
        args = [0.25, 0.25, 0.25, 0.25, 0.1j]
        args[index] = np.complex128(0.1j) if name == "c23" else np.float64(0.25)
        assert make_xstate(*args) == make_xstate(0.25, 0.25, 0.25, 0.25, 0.1j)

    def test_sequence_rejected(self):
        # one number per argument: a sequence becomes a 2-d column
        with pytest.raises(ValueError) as err:
            make_xstate([0.25], 0.25, 0.25, 0.25, 0.0)
        assert str(err.value) == ("p11..p44, re_c23 and im_c23 must be 1-d arrays of equal "
                                  "length, got shapes (1, 1), (1,), (1,), (1,), (1,), (1,)")
        with pytest.raises(ValueError) as err:
            make_xstate(0.25, 0.25, 0.25, 0.25, np.array([0.1j]))
        assert str(err.value) == ("p11..p44, re_c23 and im_c23 must be 1-d arrays of equal "
                                  "length, got shapes (1,), (1,), (1,), (1,), (1, 1), (1, 1)")


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

    def test_int_beyond_the_float_range(self):
        # the gate's message, not a bare OverflowError from float(r)
        with pytest.raises(ValueError,
                           match=r"r must be a finite real number in \[0, 1\], got 1000"):
            werner_state(10**400)

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
        assert np.allclose(_spectrum(make_xstate(0.25, 0.25, 0.25, 0.25, 0)),
                           [0.25, 0.25, 0.25, 0.25])

    def test_bell(self):
        assert np.allclose(_spectrum(make_xstate(0, 0.5, 0.5, 0, 0.5)),
                           [0, 0, 1, 0], atol=1e-15)

    def test_werner(self):
        assert np.allclose(_spectrum(werner_state(0.2)),
                           [0.2, 0.2, 0.4, 0.2], atol=1e-15)

    @given(xstates())
    def test_spectrum_properties(self, s):
        lams = _spectrum(s)
        assert abs(lams.sum() - 1.0) < 1e-12
        assert (lams >= 0.0).all()
        assert (lams <= 1.0 + 1e-12).all()
        # closed form agrees with a dense eigensolver
        dense = np.linalg.eigvalsh(as_matrix(s))
        assert np.allclose(np.sort(lams), np.sort(dense), atol=1e-12)


_Q, _Z = np.full(1, 0.25), np.zeros(1)


class TestMakeXbatch:
    # (p11, p22, p33, p44, c23) cases that make_xstate rejects, each for a
    # different check
    BAD = [(math.nan, 0.5, 0.5, 0.0, 0), (0.25, 0.25, 0.25, 0.25, complex(0, math.inf)),
           (0.3, 0.3, 0.3, 0.3, 0), (-1e-11, 0.5 + 1e-11, 0.5, 0, 0),
           (0.25, 0.25, 0.25, 0.25, 0.3)]

    @staticmethod
    def batch(states):
        cols = list(zip(*states))
        c23 = np.array(cols[4], dtype=complex)
        return make_xbatch(*(np.array(c, dtype=float) for c in cols[:4]),
                           c23.real, c23.imag)

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

    # columns that are not six 1-d arrays of integers or floats of equal
    # length, each with the one plain message it gets
    MALFORMED = {
        "bool": ((np.array([True]), _Q, _Q, _Q, _Z, _Z), "p11 must be a number, not a bool"),
        "bool c23": ((_Q, _Q, _Q, _Q, np.array([False]), _Z), "c23 must be a number, not a bool"),
        "str": ((_Q, np.array(["0.25"]), _Q, _Q, _Z, _Z),
                "p22 must be a real number, got dtype <U4"),
        "complex": ((_Q, _Q, _Q, _Q, _Z, np.array([0.1j])),
                    "c23 must be a real number, got dtype complex128"),
        "object": ((_Q, _Q, _Q, np.array([0.25], dtype=object), _Z, _Z),
                   "p44 must be a real number, got dtype object"),
        "ragged list": ((_Q, _Q, [[0.25], [0.25, 0.0]], _Q, _Z, _Z),
                        "p33 must be a real number, got a ragged sequence"),
        "scalars": ((0.25, 0.25, 0.25, 0.25, 0.0, 0.0),
                    "p11..p44, re_c23 and im_c23 must be 1-d arrays of equal length, "
                    "got shapes (), (), (), (), (), ()"),
        "one scalar": ((_Q, _Q, _Q, _Q, _Z, 0.0),
                       "p11..p44, re_c23 and im_c23 must be 1-d arrays of equal length, "
                       "got shapes (1,), (1,), (1,), (1,), (1,), ()"),
        "2-d": ((_Q, _Q[None], _Q, _Q, _Z, _Z),
                "p11..p44, re_c23 and im_c23 must be 1-d arrays of equal length, "
                "got shapes (1,), (1, 1), (1,), (1,), (1,), (1,)"),
        "unequal": ((np.full(2, 0.25), _Q, _Q, _Q, _Z, _Z),
                    "p11..p44, re_c23 and im_c23 must be 1-d arrays of equal length, "
                    "got shapes (2,), (1,), (1,), (1,), (1,), (1,)"),
    }

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_malformed_columns_rejected(self, kind):
        # a plain ValueError, not numpy's TypeError or a batch holding bools
        cols, message = self.MALFORMED[kind]
        with pytest.raises(ValueError) as err:
            make_xbatch(*cols)
        assert str(err.value) == message

    def test_lists_and_ints_are_read_as_floats(self):
        batch = make_xbatch([0, 0.5], [1, 0.25], [0, 0.25], [0, 0], [0, 0.1], [0, -0.1])
        assert batch.p22.dtype == batch.re_c23.dtype == float
        assert list(batch) == [make_xstate(0, 1, 0, 0, 0),
                               make_xstate(0.5, 0.25, 0.25, 0, 0.1 - 0.1j)]


class TestXBatchStack:
    @given(st.lists(xstates(), min_size=1, max_size=6), st.integers(0, 6), st.integers(0, 6))
    def test_stack_index_and_slice(self, states, lo, hi):
        batch = XBatch.stack(states)
        assert [batch[i] for i in range(len(batch))] == states
        # iteration gives what indexing gives, down to the sign of a zero
        assert repr(list(batch)) == repr([batch[i] for i in range(len(batch))])
        assert XBatch.of(states[0])[0] == states[0]
        part = batch[lo:hi]
        assert isinstance(part, XBatch)
        assert [part[i] for i in range(len(part))] == states[lo:hi]


class TestOverflow:
    """|c23|^2 overflowing to inf is rejected by the positivity check, on every path."""

    @pytest.mark.parametrize("c23", [1e200, complex(1.5e308, 1.5e308)])
    def test_one_state_and_batch_give_the_same_error(self, c23):
        with pytest.raises(ValueError, match=r"\|c23\|\^2 = inf") as scalar:
            make_xstate(0.25, 0.25, 0.25, 0.25, c23)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as batch:
                make_xbatch(*(np.full(1, 0.25) for _ in range(4)),
                            np.full(1, c23.real), np.full(1, c23.imag))
        assert str(batch.value) == str(scalar.value)


class TestCachedModuli:
    """Every batch computes |c23| and |c23|^2 at most once, with numpy's bits, read-only."""

    @staticmethod
    def columns(count=3000):
        # exponential weights and a coherence up to the positivity bound, at
        # random scales, so that np.hypot and sqrt(re^2 + im^2) differ on some
        rng = np.random.default_rng(20261018)
        w = -np.log(rng.random((4, count)))
        w /= ((w[0] + w[1]) + w[2]) + w[3]
        c23 = (np.sqrt(w[1] * w[2] * rng.random(count))
               * np.exp(2j * math.pi * rng.random(count)) * 10.0 ** -rng.integers(0, 8, count))
        return (*w, c23.real.copy(), c23.imag.copy())

    def batches(self):
        cols = self.columns()
        made = make_xbatch(*cols)
        states = list(made)
        return {"make_xbatch": made, "of": XBatch.of(states[7]),
                "stack": XBatch.stack(states[:50]), "slice": made[100:900],
                "slice of a slice": made[100:900][::3], "direct": XBatch(*cols)}

    @pytest.mark.parametrize("kind", ["make_xbatch", "of", "stack", "slice",
                                      "slice of a slice", "direct"])
    def test_bits_equal_numpy_and_are_computed_once(self, kind):
        batch = self.batches()[kind]
        want = np.hypot(np.array(batch.re_c23), np.array(batch.im_c23))
        assert (batch.abs_c23().view(np.int64) == want.view(np.int64)).all()
        assert (batch.abs2_c23().view(np.int64)
                == np.float_power(want, 2).view(np.int64)).all()
        assert batch.abs_c23() is batch.abs_c23()
        assert batch.abs2_c23() is batch.abs2_c23()
        for cached in (batch.abs_c23(), batch.abs2_c23()):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                np.multiply(cached, 2.0, out=cached)

    def test_make_xbatch_check_fills_the_cache(self):
        cols = self.columns()
        batch = make_xbatch(*cols)
        assert "_moduli" in vars(batch)   # computed by the positivity check
        re, im = cols[4], cols[5]
        # the sample tells hypot from the naive modulus, so a cache filled
        # from anything but the raw parts shows here
        assert (np.hypot(re, im) != np.sqrt(re * re + im * im)).any()
        assert (batch.abs_c23().view(np.int64) == np.hypot(re, im).view(np.int64)).all()
        assert (batch.abs2_c23().view(np.int64)
                == np.float_power(np.hypot(re, im), 2).view(np.int64)).all()
