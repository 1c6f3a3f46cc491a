"""Property tests of the Gram-inverse core, model.zf_gram_inverse, against the reduced SVD.

Stacks of effective channels are drawn at desk scale (unit-ish hops) and at
paper scale (hops of 1e-5 to 1e-3 in amplitude), K = M = 1 included. Each
stack also holds rows rebuilt from one channel's SVD with a shrunken
smallest singular value, so some rows are ill-conditioned and some are at
or near zf_svd's rank threshold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lisopt import zf_power_weights
from lisopt.model import GRAM_CONDITION_LIMIT, effective_channels, zf_gram_inverse, zf_svd
from util import complex_gaussian

# the log10 range of each hop's amplitude
HOPS = {"desk": (-1.0, 1.0), "paper": (-5.0, -3.0)}

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def stacks(draw):
    """Effective channels (B, K, M): surface channels at B random phase vectors, then rows of
    the first channel with its smallest singular value shrunk by 10^1.5 to 10^8, or to zero."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k, 5))
    n = draw(st.integers(1, 12))
    lo, hi = HOPS[draw(st.sampled_from(sorted(HOPS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = 10.0 ** rng.uniform(lo, hi, 2)
    h1, h2 = a * complex_gaussian(rng, (n, m)), b * complex_gaussian(rng, (k, n))
    h = a * b * 10.0 ** rng.uniform(-1.0, 1.0) * complex_gaussian(rng, (k, m))
    phi = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (draw(st.integers(1, 6)), n)))
    healthy = effective_channels(h1, h2, h, phi)
    u, s, vh = np.linalg.svd(healthy[0], full_matrices=False)
    shrunk = []
    for shrink in [*10.0 ** -rng.uniform(1.5, 8.0, 3), 0.0]:
        t = s.copy()
        t[-1] = shrink * s[0]
        shrunk.append((u * t) @ vh)
    rows = np.concatenate([healthy, shrunk])
    return rows[rng.permutation(len(rows))], rng


def svd_estimate(s):
    """The conditioning estimate tr(H H^H) tr((H H^H)^-1) from singular values (B, K)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero channel's is nan
        return (s ** 2).sum(axis=1) * (1.0 / s ** 2).sum(axis=1)


@PROPERTY_SETTINGS
@given(drawn=stacks())
def test_gram_core_matches_the_svd_and_keeps_its_rank_rule(drawn):
    stack, rng = drawn
    x, norms = zf_gram_inverse(stack)
    _, s, _, reference = zf_svd(stack)
    deficient = np.isinf(reference[:, 0])
    assert np.array_equal(np.isinf(norms), np.isinf(reference))
    assert np.all(np.isinf(reference[deficient]))
    assert not np.any(x[deficient])
    p = 10.0 ** rng.uniform(0.0, 3.0, norms.shape)
    ok = ~deficient
    assert np.all(np.abs(norms[ok] - reference[ok]) <= 1e-10 * reference[ok])
    values, wanted = (norms[ok] * p[ok]).sum(axis=1), (reference[ok] * p[ok]).sum(axis=1)
    assert np.all(np.abs(values - wanted) <= 1e-10 * wanted)
    # clearly above the limit: the SVD's own figures, bit for bit
    ill = svd_estimate(s) > 10.0 * GRAM_CONDITION_LIMIT
    assert np.array_equal(norms[ill], reference[ill])


@PROPERTY_SETTINGS
@given(drawn=stacks())
def test_gram_core_rows_equal_batch_of_one_and_ignore_a_singular_neighbour(drawn):
    stack, rng = drawn
    x, norms = zf_gram_inverse(stack)
    for i in range(len(stack)):
        x1, norms1 = zf_gram_inverse(stack[i:i + 1])
        assert np.array_equal(x1[0], x[i]) and np.array_equal(norms1[0], norms[i])
        if np.isfinite(norms[i, 0]):
            assert np.array_equal(zf_power_weights(stack[i]), norms[i])
    # an exactly singular Gram matrix (a zero channel) makes np.linalg.inv raise on the stack
    at = int(rng.integers(len(stack) + 1))
    x0, norms0 = zf_gram_inverse(np.insert(stack, at, 0.0, axis=0))
    assert np.all(np.isinf(norms0[at])) and not np.any(x0[at])
    assert np.array_equal(np.delete(x0, at, axis=0), x)
    assert np.array_equal(np.delete(norms0, at, axis=0), norms)
