r"""Line-oriented text serialization for instances, plus the bench CSV.

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
are ASCII decimal literals (no ``_`` separators, no other digits), written
in the shortest representation that round-trips (integral values print
with no decimal point).  Lines end at ``\n`` (a ``\r`` before it is
dropped), and tokens are separated by spaces and tabs only: any other
whitespace character outside a comment, such as U+00A0, ``\x0c``,
``\x1c`` or U+2028, is rejected at its line.  A ``meta`` value is the
rest of its line, with no ``#`` and no leading or trailing whitespace.
Parsing is strict: unknown sections, dimension mismatches, asymmetric
matrices, and non-sign certificate entries are all rejected with the
offending line number.  A file that ends before the data its ``n``
declares is rejected as an unexpected end of file at its last line.

The reader is one cursor over the content lines, comments and blank
lines dropped, which checks each line's separators as it takes it, so
errors are found line by line in file order.  A row of numbers is
converted in bulk, with a per-token fallback that names the first bad
token, and ``Q`` is built only from rows that parsed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .model import BqpInstance, Certificate, require_count

FORMAT_VERSION = 1
BENCH_CSV_HEADER = "n,seed,gen_ms,solve_ms,iters,gap,certified"
# Whitespace that ``str.split()`` would treat as a separator, other than space and
# tab: the one statement of the separator rule, which the parser applies to every
# content line and the serializer to every metadata value.
_OTHER_SPACE = re.compile(r"[^\S \t]")


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
        require_count(self.n, "n", 1)
        require_count(self.seed, "seed", 0)
        require_count(self.iterations, "iterations", 0)
        if not all(0 <= t < math.inf for t in (self.gen_millis, self.solve_millis)):
            raise ValueError("timings must be finite and nonnegative")


def read_number(token: str) -> float:
    """A number of the format, a finite ASCII decimal literal with no ``_``,
    or ``ValueError`` naming the token."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"bad numeric token {token!r}")
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"bad numeric token {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def read_count(token: str) -> int:
    """A count of the format, ASCII digits only (``str.isdigit`` alone passes
    '²' and non-ASCII digits), or ``ValueError`` naming the token."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"bad integer token {token!r}")
    return int(token)


def format_number(value: float) -> str:
    """Shortest decimal text that round-trips; integral values print bare."""
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def format_row(values) -> str:
    """Space-separated ``format_number`` text of a vector."""
    return " ".join(map(format_number, np.asarray(values, dtype=float).tolist()))


def serialize_instance(f: InstanceFile) -> str:
    """Render a file deterministically: fixed section order, one row per line."""
    inst = f.instance
    lines = [f"bqp {FORMAT_VERSION}", f"n {inst.n}", "Q"]
    lines.extend(format_row(row) for row in inst.q)
    lines.append("c")
    lines.append(format_row(inst.c))
    if f.certificate is not None:
        lines.append("x")
        lines.append(format_row(f.certificate.x))
        lines.append("lambda")
        lines.append(format_row(f.certificate.lam))
    for key, value in f.metadata.items():
        # Keys and values must survive the comment-stripping, whitespace-split parse.
        if not key or any(ch.isspace() for ch in key) or "#" in key:
            raise ValueError(f"metadata key {key!r} is not representable")
        # A value is non-empty, unpadded, and separated by spaces and tabs only.
        if not value or "#" in value or value != value.strip() or _OTHER_SPACE.search(value):
            raise ValueError(f"metadata value {value!r} is not representable")
        lines.append(f"meta {key} {value}")
    return "\n".join(lines) + "\n"


class _Cursor:
    """Comment- and blank-stripped lines with their original numbers, taken
    in file order; each line is checked for its separators as it is taken."""

    def __init__(self, text: str):
        self.rows = []
        for number, raw in enumerate(text.split("\n"), start=1):
            if raw.endswith("\r"):
                raw = raw[:-1]
            content = raw.partition("#")[0].strip(" \t")
            if content:
                self.rows.append((number, content))
        self.pos = 0
        self.last_line = self.rows[-1][0] if self.rows else 1

    def peek(self) -> str | None:
        """The content of the next line, or None at the end of the text."""
        return self.rows[self.pos][1] if self.pos < len(self.rows) else None

    def take(self, what: str) -> tuple[int, str]:
        """The next line's number and content; ``what`` names it if the text
        has ended."""
        if self.peek() is None:
            raise ParseError(self.last_line, f"unexpected end of file, expected {what}")
        line, content = self.rows[self.pos]
        self.pos += 1
        other = _OTHER_SPACE.search(content)
        if other:
            raise ParseError(line, f"separator {other.group()!r} is not a space or tab")
        return line, content

    def section(self, name: str) -> None:
        """The header line of section ``name``."""
        line, content = self.take(f"section '{name}'")
        if content != name:
            raise ParseError(line, f"expected section '{name}'")

    def numbers(self, n: int, name: str, what: str) -> tuple[int, np.ndarray]:
        """The next line's number and its ``n`` values, a row of section
        ``name``; ``what`` names the line if the text has ended."""
        line, content = self.take(what)
        tokens = content.split()
        if len(tokens) != n:
            raise ParseError(line, f"expected {n} values in {name} row, got {len(tokens)}")
        # Fast path: the whole row in one C-level conversion.  ``float`` also
        # reads ``1_0`` and non-ASCII digits, which the format does not allow,
        # so such rows, and rows that fail, go through ``read_number`` token by
        # token to name the first bad one.
        if content.isascii() and "_" not in content:
            try:
                values = np.fromiter(map(float, tokens), float, n)
            except ValueError:
                pass
            else:
                if np.isfinite(values).all():
                    return line, values
        try:
            return line, np.fromiter(map(read_number, tokens), float, n)
        except ValueError as exc:
            raise ParseError(line, str(exc)) from None


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
    try:
        n = read_count(tokens[1]) if len(tokens) == 2 and tokens[0] == "n" else 0
    except ValueError:
        n = 0
    if n < 1:
        raise ParseError(line, "expected 'n <positive integer>'")

    cur.section("Q")
    # Build Q only from rows that parsed, each checked to hold n values, so
    # its storage never exceeds what the text itself contains.
    q_lines, q_rows = zip(*(cur.numbers(n, "Q", f"row {i + 1} of Q") for i in range(n)))
    q = np.array(q_rows)
    mismatches = np.argwhere(q != q.T)
    if mismatches.size:
        i, j = (int(v) for v in mismatches[0])
        raise ParseError(q_lines[max(i, j)], f"asymmetric: Q[{i}][{j}] != Q[{j}][{i}]")

    cur.section("c")
    _, c = cur.numbers(n, "c", "row of c")

    x = lam = None
    if cur.peek() == "x":
        cur.section("x")
        line, x = cur.numbers(n, "x", "row of x")
        for value in x:
            if value not in (-1.0, 1.0):
                raise ParseError(line, f"certificate entry {format_number(value)} is not -1 or 1")
    if cur.peek() == "lambda":
        cur.section("lambda")
        _, lam = cur.numbers(n, "lambda", "row of lambda")
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
