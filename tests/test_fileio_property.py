import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from bqpbench import (
    BqpInstance,
    Certificate,
    InstanceFile,
    ParseError,
    parse_instance,
    serialize_instance,
)
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


# Whitespace that ``str.split`` separates on, other than space and tab.
_OTHER_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                     "\u00a0", "\u2028", "\u2029", "\u3000", "\r"]
_meta_values = st.lists(st.sampled_from(["seed", "7", "row sums", "\u00e9"]), min_size=1,
                        max_size=3).map(" ".join)


@given(_instance_files(), _meta_values, st.data())
def test_other_separator_is_rejected_on_any_line(f, value, data):
    # Every kind of line that holds a space (the header, n, rows of Q, c, x
    # and lambda, and meta): one separating space replaced by another
    # whitespace character fails at that line, and the same character after
    # a ``#`` on that line is a comment that changes nothing.
    f.metadata["note"] = value
    lines = serialize_instance(f).split("\n")
    index = data.draw(st.sampled_from([i for i, line in enumerate(lines) if " " in line]))
    line = lines[index]
    at = data.draw(st.sampled_from([i for i, ch in enumerate(line) if ch == " "]))
    sep = data.draw(st.sampled_from(_OTHER_SEPARATORS))

    def with_line(new):
        return "\n".join(lines[:index] + [new] + lines[index + 1:])

    with pytest.raises(ParseError) as exc:
        parse_instance(with_line(line[:at] + sep + line[at + 1:]))
    assert (exc.value.line, exc.value.reason) == (index + 1, f"separator {sep!r} is not a space or tab")
    assert parse_instance(with_line(line + "#" + sep)) == f
