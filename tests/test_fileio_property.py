import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from bqpbench import BqpInstance, Certificate, InstanceFile, parse_instance, serialize_instance
from bqpbench.fileio import format_number


_entries = st.one_of(
    st.integers(-(2 ** 60), 2 ** 60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _instance_files(draw):
    n = draw(st.integers(1, 6))
    q = np.array(draw(st.lists(_entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    q = np.triu(q) + np.triu(q, 1).T
    c = draw(st.lists(_entries, min_size=n, max_size=n))
    certificate = None
    if draw(st.booleans()):
        x = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        lam = draw(st.lists(_entries, min_size=n, max_size=n))
        certificate = Certificate(x=np.array(x), lam=np.array(lam))
    return InstanceFile(instance=BqpInstance(q, c), certificate=certificate)


@given(_instance_files())
def test_parse_inverts_serialize(f):
    text = serialize_instance(f)
    # Row formatting against the per-value reference.
    q_lines = text.splitlines()[3:3 + f.instance.n]
    assert q_lines == [" ".join(format_number(v) for v in row) for row in f.instance.q]
    assert parse_instance(text) == f
