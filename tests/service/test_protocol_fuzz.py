"""Seeded fuzz test of the service's wire decoders (fixed case budget).

Valid request heads and ``/query``, ``/batch``, ``POST /stream`` and
``/stream/<id>/events`` bodies are mutated — wrong types, missing keys,
NaN/Infinity tokens, huge integers, duplicate ids, deep nesting,
truncated or corrupted bytes, bad ``Content-Length`` values — and fed
through ``parse_head``, ``content_length``, ``HttpRequest.json`` and
the ``parse_*_payload`` decoders.  Every case must either decode or
raise ``ProtocolError`` / ``QueryError``: anything else escapes the
decoders as an HTTP 500.
"""

import json
import math
import random

import pytest

from repro import Client, FacilitySets, Point, QueryRequest
from repro.core.stream import ClientEvent
from repro.errors import ProtocolError, QueryError
from repro.service.protocol import (
    MAX_BODY_BYTES,
    HttpRequest,
    content_length,
    parse_batch_payload,
    parse_events_payload,
    parse_head,
    parse_query_payload,
    parse_stream_open_payload,
)

#: Mutated cases per target; the whole module runs in about a second.
CASES = 300

ACCEPTED = (ProtocolError, QueryError)

CLIENTS = tuple(
    Client(i, Point(1.5 * i, 2.0, i % 2), 10 + i) for i in range(3)
)
QUERY = QueryRequest(
    clients=CLIENTS,
    facilities=FacilitySets(frozenset({1}), frozenset({2, 3})),
    objective="mindist",
    label="fuzz",
    timeout_seconds=5.0,
    prune_clients=False,
).to_payload()

BODIES = {
    "query": (QUERY, parse_query_payload),
    "batch": (
        {"queries": [QUERY, dict(QUERY, objective="maxsum")]},
        parse_batch_payload,
    ),
    "stream-open": (
        {"existing": [1], "candidates": [2, 3], "incremental": True,
         "label": "s"},
        parse_stream_open_payload,
    ),
    "events": (
        {"events": [
            ClientEvent.add(CLIENTS[0]).to_payload(),
            ClientEvent.move(CLIENTS[0]).to_payload(),
            ClientEvent.remove(0).to_payload(),
        ]},
        parse_events_payload,
    ),
}

ODD_VALUES = [
    None, True, False, 0, -1, 1.5, 2 ** 63, 10 ** 400, -(10 ** 400),
    math.nan, math.inf, -math.inf, "", "x", "nan", "Infinity", "1e999",
    [], {}, [[[]]], {"id": 1}, [1, 2], "é\u0000",
]


def paths(node, prefix=()):
    """Every addressable position in a JSON value tree."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from paths(child, prefix + (index,))


def rebuilt(node, path, change):
    """A copy of ``node`` with ``change`` applied at ``path``.

    ``change(parent, key)`` edits the (copied) parent container in
    place; an empty path replaces the root through a one-slot list.
    """
    root = [json.loads(json.dumps(node))]
    parent, key = root, 0
    for step in path:
        parent, key = parent[key], step
    change(parent, key)
    return root[0] if root else None


def mutate_value(rng, payload):
    path = rng.choice(list(paths(payload)))
    odd = rng.choice(ODD_VALUES)

    def replace(parent, key):
        parent[key] = odd

    def drop(parent, key):
        del parent[key]  # a missing key or element (or an empty body)

    def duplicate(parent, key):
        # Repeating a client or event record repeats its id.
        if isinstance(parent[key], list) and parent[key]:
            parent[key].append(parent[key][0])

    def wrap(parent, key):
        parent[key] = [parent[key]]

    def stringify(parent, key):
        parent[key] = str(parent[key])

    change = rng.choice([replace, drop, duplicate, wrap, stringify])
    return rebuilt(payload, path, change)


def mutate_bytes(rng, body):
    kind = rng.randrange(6)
    cut = rng.randrange(len(body) + 1)
    if kind == 0:
        return body[:cut]
    if kind == 1:
        return body[:cut] + bytes([rng.randrange(256)]) + body[cut + 1:]
    if kind == 2:
        return body[:cut] + b"\xff\xfe" + body[cut:]
    if kind == 3:
        return body[:cut] + b"9" * 5000 + body[cut:]
    if kind == 4:
        depth = rng.choice([10, 1000, 100000])
        return b"[" * depth + b"]" * depth
    return body.replace(b"1", b"NaN", 1)


def decodes(thunk):
    """``True`` when decoded, ``False`` when rejected as bad input."""
    try:
        thunk()
    except ACCEPTED:
        return False
    return True


@pytest.mark.parametrize("target", list(BODIES))
def test_body_decoders_raise_only_input_errors(target):
    valid, decoder = BODIES[target]
    rng = random.Random(f"fuzz:{target}")
    assert decodes(lambda: decoder(valid))
    outcomes = []
    for case in range(CASES):
        if case % 3:
            body = json.dumps(mutate_value(rng, valid)).encode("utf-8")
        else:
            body = mutate_bytes(rng, json.dumps(valid).encode("utf-8"))
        request = HttpRequest("POST", "/" + target, {}, body)
        try:
            outcomes.append(decodes(lambda: decoder(request.json())))
        except Exception as exc:  # pragma: no cover - the failure path
            pytest.fail(
                f"{target} case {case}: {type(exc).__name__}: {exc} "
                f"on body {body[:200]!r}"
            )
    assert any(outcomes) and not all(outcomes)


VALID_HEAD = (
    b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
    b"Content-Type: application/json\r\nContent-Length: 42\r\n\r\n"
)

ODD_LENGTHS = [
    "", "-1", "abc", "1e3", "0x10", " 7 ", "+5", "4" * 5000,
    str(MAX_BODY_BYTES + 1), "99999999999999999999999", "ÿ", "NaN",
]


def mutate_head(rng, head):
    kind = rng.randrange(6)
    if kind == 0:
        odd = rng.choice(ODD_LENGTHS).encode("latin-1")
        return head.replace(b"42", odd)
    if kind == 1:
        cut = rng.randrange(len(head) + 1)
        return head[:cut]
    if kind == 2:
        cut = rng.randrange(len(head))
        return head[:cut] + bytes([rng.randrange(256)]) + head[cut + 1:]
    if kind == 3:
        return head.replace(b" ", b"", rng.randrange(1, 3))
    if kind == 4:
        return head.replace(b": ", b"", 1)
    return head.replace(b"\r\n", b"\n")


def test_head_decoders_raise_only_input_errors():
    rng = random.Random("fuzz:head")
    assert content_length(parse_head(VALID_HEAD)) == 42
    outcomes = []
    for case in range(CASES):
        head = mutate_head(rng, VALID_HEAD)
        try:
            outcomes.append(
                decodes(lambda: content_length(parse_head(head)))
            )
        except Exception as exc:  # pragma: no cover - the failure path
            pytest.fail(
                f"head case {case}: {type(exc).__name__}: {exc} "
                f"on {head!r}"
            )
    assert any(outcomes) and not all(outcomes)
