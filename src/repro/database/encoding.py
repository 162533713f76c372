"""The "standard encoding" of databases as binary strings (Section 2.1).

The paper measures data complexity "as a function of the length of the data",
assuming a standard encoding; its example encodes the database
``({3,5,7}, {<3,5>, <5,7>})`` as ``({011,101,111},{<011,101>,<101,111>})``.
This module makes that encoding concrete and invertible so that input lengths
are real, measurable quantities for the complexity harness.

Format (printable ASCII over the alphabet ``( ) { } < > , 0 1 ; : letters``)::

    db      := '(' domain ( ';' relation )* ')'
    domain  := '{' bits (',' bits)* '}' | '{}'
    relation:= name ':' arity ':' '{' tuple (',' tuple)* '}' | name ':' arity ':' '{}'
    tuple   := '<' bits (',' bits)* '>' | '<>'

where ``bits`` is the value's index in the canonical domain order, written in
binary with exactly ``ceil(log2(n))`` digits (minimum 1).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.database.database import Database
from repro.database.domain import Domain
from repro.database.relation import Relation
from repro.errors import SchemaError


def _bit_width(n: int) -> int:
    """Number of binary digits used per value for an ``n``-element domain."""
    if n <= 1:
        return 1
    return (n - 1).bit_length()


def encode_value(index: int, width: int) -> str:
    """Binary encoding of a domain index with a fixed digit width."""
    if index < 0 or index >= 2**width:
        raise SchemaError(f"index {index} does not fit in {width} bits")
    return format(index, f"0{width}b")


def encode_database(db: Database) -> str:
    """Serialize a database to its standard-encoding string.

    The length of this string is the ``|B|`` that data and combined
    complexity are measured against.
    """
    n = db.size()
    width = _bit_width(n)
    dom = db.domain
    domain_part = "{" + ",".join(
        encode_value(i, width) for i in range(n)
    ) + "}"
    parts: List[str] = [domain_part]
    for name in db.relation_names():
        rel = db.relation(name)
        tuples = sorted(
            tuple(dom.index_of(v) for v in t) for t in rel.tuples
        )
        body = ",".join(
            "<" + ",".join(encode_value(i, width) for i in t) + ">"
            for t in tuples
        )
        parts.append(f"{name}:{rel.arity}:{{{body}}}")
    return "(" + ";".join(parts) + ")"


def encoded_length(db: Database) -> int:
    """``|B|``: the length of the standard encoding of ``db``."""
    return len(encode_database(db))


#: The start of a database: ``(`` and the domain ``{bits,...}``.
_DOMAIN = re.compile(r"\(\{((?:[01]+(?:,[01]+)*)?)\}")
#: A relation head ``;name:arity:{``.  ``\w`` is exactly the characters
#: ``str.isalnum()`` accepts, plus ``_``; ``\d`` the decimal digits
#: ``int()`` reads.
_HEAD = re.compile(r";([\w-]+):(\d+):\{")
#: One tuple ``<bits,...>`` or ``<>``.
_TUPLE = re.compile(r"<((?:[01]+(?:,[01]+)*)?)>")


def decode_database(text: str) -> Database:
    """Inverse of :func:`encode_database`.

    Decoded domains are always ``{0, ..., n-1}`` — the encoding identifies
    values with their canonical indices, exactly as the paper's bit strings
    do.  ``decode(encode(db))`` is therefore ``db`` up to the canonical
    renaming of domain values.

    One streaming pass: compiled patterns match the domain, each relation
    head and each tuple at the current position, so no match spans more
    than one token and memory stays that of the decoded tuples.  Every
    :class:`~repro.errors.SchemaError` names the position it refers to.
    """
    match = _DOMAIN.match(text)
    if match is None:
        raise _expected("'({' and a domain of bit strings", text, 0)
    body = match[1]
    indices = [int(bits, 2) for bits in body.split(",")] if body else []
    n = len(indices)
    if sorted(indices) != list(range(n)):
        raise SchemaError("domain encoding at position 1 is not 0..n-1")
    relations: Dict[str, Relation] = {}
    pos = match.end()
    while text.startswith(";", pos):
        head = _HEAD.match(text, pos)
        if head is None:
            raise _expected("a relation head 'name:arity:{'", text, pos + 1)
        name, arity = head[1], int(head[2])
        if not name.isascii():
            # the letters and digits a relation name may hold
            # (repro.database.schema) are the ASCII ones
            raise SchemaError(
                f"relation name {name!r} at position {pos + 1} contains "
                f"illegal characters"
            )
        rows, end = _decode_tuples(text, head.end(), n, arity)
        if name in relations:
            raise SchemaError(
                f"duplicate relation {name!r} in encoding at position {pos + 1}"
            )
        relations[name] = Relation._trusted(arity, frozenset(rows))
        pos = end
    if not text.startswith(")", pos):
        raise _expected("';' or ')'", text, pos)
    pos += 1
    if pos != len(text):
        raise SchemaError(
            f"trailing characters at position {pos}: {text[pos:pos + 10]!r}"
        )
    return Database(Domain.range(n), relations)


def _decode_tuples(
    text: str, pos: int, n: int, arity: int
) -> Tuple[List[Tuple[int, ...]], int]:
    """The tuples of one relation body, which starts at ``pos`` just
    after its ``{``, and the position after its closing ``}``."""
    rows: List[Tuple[int, ...]] = []
    if text.startswith("}", pos):
        return rows, pos + 1
    match = _TUPLE.match
    append = rows.append
    while True:
        token = match(text, pos)
        if token is None:
            raise _expected("a tuple '<bits,...>'", text, pos)
        body = token[1]
        # a tuple built from a list is allocated at its length; one
        # built from an iterator is over-allocated and then shrunk
        row = tuple([int(bits, 2) for bits in body.split(",")]) if body else ()
        if len(row) != arity:
            raise SchemaError(
                f"tuple at position {pos} has {len(row)} values, expected "
                f"arity {arity}"
            )
        if row and max(row) >= n:
            raise SchemaError(
                f"tuple value index {max(row)} at position {pos} out of "
                f"domain range {n}"
            )
        append(row)
        pos = token.end()
        if not text.startswith(",", pos):
            break
        pos += 1
    if not text.startswith("}", pos):
        raise _expected("',' or '}'", text, pos)
    return rows, pos + 1


def _expected(what: str, text: str, pos: int) -> SchemaError:
    return SchemaError(
        f"expected {what} at position {pos}, found {text[pos:pos + 10]!r}"
    )
