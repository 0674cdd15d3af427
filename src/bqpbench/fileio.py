"""Line-oriented text serialization for instances, plus the bench CSV.

The ``.bqp`` format is a stable public contract, human-diffable and exact
for integer data::

    bqp 1
    n 2
    Q
    0 1
    1 0
    c
    3 -7
    x          # optional, with lambda: the certificate
    -1 1
    lambda
    1 1
    meta seed 7

Sections appear in exactly that order; ``#`` starts a comment; numbers
use the shortest representation that round-trips (integral values print
with no decimal point).  A ``meta`` value is the rest of its line: one
line, with no ``#`` and no leading or trailing whitespace.  Parsing is
strict: unknown sections, dimension mismatches, asymmetric matrices, and
non-sign certificate entries are all rejected with the offending line
number.  A file that ends before the data its ``n`` declares is rejected
as an unexpected end of file at its last line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import Certificate
from .model import BqpInstance

FORMAT_VERSION = 1
BENCH_CSV_HEADER = "n,seed,gen_ms,solve_ms,iters,gap,certified"


class ParseError(Exception):
    """Rejected input, with the 1-based line number and a reason."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


@dataclass
class InstanceFile:
    """One parsed or to-be-serialized file: instance, optional certificate,
    optional metadata key-value pairs."""

    instance: BqpInstance
    certificate: Certificate | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    version: int = FORMAT_VERSION

    def __eq__(self, other):
        if not isinstance(other, InstanceFile):
            return NotImplemented
        return (
            self.version == other.version
            and self.instance == other.instance
            and self.certificate == other.certificate
            and self.metadata == other.metadata
        )


@dataclass(frozen=True)
class BenchRecord:
    """One timing-sweep row."""

    n: int
    seed: int
    gen_millis: float
    solve_millis: float
    iterations: int
    gap: float
    certified: bool

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.gen_millis < 0 or self.solve_millis < 0:
            raise ValueError("timings must be nonnegative")


def format_number(value: float) -> str:
    """Shortest decimal text that round-trips; integral values print bare."""
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _format_row(values) -> str:
    return " ".join(format_number(v) for v in values)


def serialize_instance(f: InstanceFile) -> str:
    """Render a file deterministically: fixed section order, one row per line."""
    inst = f.instance
    lines = [f"bqp {f.version}", f"n {inst.n}", "Q"]
    lines.extend(_format_row(row) for row in inst.q)
    lines.append("c")
    lines.append(_format_row(inst.c))
    if f.certificate is not None:
        lines.append("x")
        lines.append(_format_row(f.certificate.x))
        lines.append("lambda")
        lines.append(_format_row(f.certificate.lam))
    for key, value in f.metadata.items():
        # Keys and values must survive the comment-stripping, whitespace-split parse.
        if not key or any(ch.isspace() for ch in key) or "#" in key:
            raise ValueError(f"metadata key {key!r} is not representable")
        # A value is one non-empty line as ``str.splitlines`` sees it.
        if "#" in value or value != value.strip() or len(value.splitlines()) != 1:
            raise ValueError(f"metadata value {value!r} is not representable")
        lines.append(f"meta {key} {value}")
    return "\n".join(lines) + "\n"


class _Cursor:
    """Comment- and blank-stripped lines with their original numbers."""

    def __init__(self, text: str):
        self.rows = []
        for number, raw in enumerate(text.splitlines(), start=1):
            content = raw.split("#", 1)[0].strip()
            if content:
                self.rows.append((number, content))
        self.pos = 0
        self.last_line = self.rows[-1][0] if self.rows else 1

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self, what: str):
        row = self.peek()
        if row is None:
            raise ParseError(self.last_line, f"unexpected end of file, expected {what}")
        self.pos += 1
        return row


def _parse_floats(line: int, content: str, n: int, what: str) -> np.ndarray:
    tokens = content.split()
    if len(tokens) != n:
        raise ParseError(line, f"expected {n} values in {what} row, got {len(tokens)}")
    values = np.empty(n)
    for i, token in enumerate(tokens):
        try:
            values[i] = float(token)
        except ValueError:
            raise ParseError(line, f"bad numeric token {token!r}") from None
        if not np.isfinite(values[i]):
            raise ParseError(line, f"non-finite value {token!r}")
    return values


def parse_instance(text: str) -> InstanceFile:
    """Strict parse of the text format; see the module docstring for the grammar."""
    cur = _Cursor(text)

    line, content = cur.take("header 'bqp <version>'")
    tokens = content.split()
    if len(tokens) != 2 or tokens[0] != "bqp":
        raise ParseError(line, "expected header 'bqp <version>'")
    if tokens[1] != str(FORMAT_VERSION):
        raise ParseError(line, f"unsupported format version {tokens[1]!r}")

    line, content = cur.take("'n <dimension>'")
    tokens = content.split()
    if len(tokens) != 2 or tokens[0] != "n" or not tokens[1].isdigit() or int(tokens[1]) < 1:
        raise ParseError(line, "expected 'n <positive integer>'")
    n = int(tokens[1])

    line, content = cur.take("section 'Q'")
    if content != "Q":
        raise ParseError(line, "expected section 'Q'")
    # Build Q only from rows that parsed, each checked to hold n values, so
    # its storage never exceeds what the text itself contains.
    q_rows = []
    q_lines = []
    for i in range(n):
        line, content = cur.take(f"row {i + 1} of Q")
        q_rows.append(_parse_floats(line, content, n, "Q"))
        q_lines.append(line)
    q = np.array(q_rows)
    mismatches = np.argwhere(q != q.T)
    if mismatches.size:
        i, j = (int(v) for v in mismatches[0])
        row = max(i, j)
        raise ParseError(q_lines[row], f"asymmetric: Q[{i}][{j}] != Q[{j}][{i}]")

    line, content = cur.take("section 'c'")
    if content != "c":
        raise ParseError(line, "expected section 'c'")
    line, content = cur.take("row of c")
    c = _parse_floats(line, content, n, "c")

    x = None
    lam = None
    row = cur.peek()
    if row is not None and row[1] == "x":
        cur.take("section 'x'")
        line, content = cur.take("row of x")
        x = _parse_floats(line, content, n, "x")
        for value in x:
            if value not in (-1.0, 1.0):
                raise ParseError(line, f"certificate entry {format_number(value)} is not -1 or 1")
    row = cur.peek()
    if row is not None and row[1] == "lambda":
        cur.take("section 'lambda'")
        line, content = cur.take("row of lambda")
        lam = _parse_floats(line, content, n, "lambda")
    if (x is None) != (lam is None):
        missing = "lambda" if lam is None else "x"
        raise ParseError(cur.last_line, f"incomplete certificate: section '{missing}' is missing")

    metadata: dict[str, str] = {}
    while cur.peek() is not None:
        line, content = cur.take("meta line")
        tokens = content.split(maxsplit=2)
        if tokens[0] != "meta":
            raise ParseError(line, f"unknown section {tokens[0]!r}")
        if len(tokens) < 3:
            raise ParseError(line, "expected 'meta <key> <value>'")
        if tokens[1] in metadata:
            raise ParseError(line, f"duplicate meta key {tokens[1]!r}")
        metadata[tokens[1]] = tokens[2]

    certificate = Certificate(x=x, lam=lam) if x is not None else None
    return InstanceFile(
        instance=BqpInstance(q, c), certificate=certificate, metadata=metadata
    )


def write_bench_csv(records: list[BenchRecord]) -> str:
    """Fixed-column CSV, one line per record in input order, newline-terminated."""
    lines = [BENCH_CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.n},{r.seed},{format_number(r.gen_millis)},{format_number(r.solve_millis)},"
            f"{r.iterations},{format_number(r.gap)},{'true' if r.certified else 'false'}"
        )
    return "\n".join(lines) + "\n"
