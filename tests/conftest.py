import math

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from cavitycorr import make_xstate

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def xstates(draw):
    """Valid X states, including boundary (pure / rank-deficient) cases."""
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    total = sum(weights)
    if total <= 0.0:
        pops = [1.0, 0.0, 0.0, 0.0]
    else:
        pops = [w / total for w in weights]
    pops[3] = 1.0 - pops[0] - pops[1] - pops[2]
    if pops[3] < 0.0:  # round-off from the normalization
        pops[3] = 0.0
        pops[0] = 1.0 - pops[1] - pops[2]
    frac = draw(st.floats(0.0, 1.0))
    phase = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    radius = math.sqrt(pops[1] * pops[2] * frac)
    c23 = radius * complex(math.cos(phase), math.sin(phase))
    return make_xstate(*pops, c23)


def seeded_rng(seed: int = 20240817) -> np.random.Generator:
    return np.random.default_rng(seed)


def csv_fields(line: str) -> list[float]:
    """The 13 fields of a CSV data row as floats, checked to form a valid state.

    The 12-digit rounding can move the trace, the populations and
    |c23|^2 - p22*p33 by far less than 1e-9, so they are checked at 1e-9.
    """
    fields = [float(f) for f in line.split(",")]
    assert len(fields) == 13
    p11, p22, p33, p44, re_c23, im_c23 = fields[3:9]
    assert abs((((p11 + p22) + p33) + p44) - 1.0) <= 1e-9
    assert min(p11, p22, p33, p44) >= -1e-9
    assert abs(complex(re_c23, im_c23)) ** 2 <= p22 * p33 + 1e-9
    return fields
