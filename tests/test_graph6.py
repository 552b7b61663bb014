"""graph6 codec: hand-decoded anchors, error classes, round trips."""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from itdom import Graph, Graph6Error, complete, encode_graph6, parse_graph6

from helpers import random_graph, reference_parse_graph6

# Orders 0..62: every order the format has a one-byte size for.
ORDERS = range(63)


def _graphs_of_every_order(seed):
    rng = random.Random(seed)
    for n in ORDERS:
        yield Graph(n)
        if n:
            yield complete(n)
        for p in (0.1, 0.5, 0.9):
            yield random_graph(rng, n, p)

FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_k1():
    g = parse_graph6("@")
    assert g.n == 1 and g.m == 0


def test_parse_k2():
    # 'A' = 65 -> n = 2, '_' = 95 -> bits 100000 -> the single pair is an edge
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_parse_order_zero():
    g = parse_graph6("?")
    assert g.n == 0 and g.m == 0


def test_parse_c4_hand_decoded():
    # 'l' = 108 -> 45 = 101101: edges 01, 12, 03, 23, i.e. the 4-cycle
    g = parse_graph6("Cl")
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert all(g.degree(v) == 2 for v in range(4))


def test_encode_k1_k2():
    assert encode_graph6(Graph(1)) == "@"
    assert encode_graph6(Graph(2, [(0, 1)])) == "A_"
    assert encode_graph6(Graph(2)) == "A?"


def test_encode_rejects_large_orders():
    with pytest.raises(Graph6Error, match="cannot encode order 63"):
        encode_graph6(Graph(63))


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty"),
        ("C", "too short"),
        ("C" + chr(40), "out of range"),
        (chr(20), "size byte out of range"),
        ("~??", "orders above 62"),
        ("ClX", "trailing garbage"),
        ("B" + chr(63 + 1), "padding"),  # n=2 needs exactly one leading bit
        ("@\n", "trailing garbage"),
        ("B\n", "out of range"),
    ],
)
def test_parse_errors_are_distinct(text, match):
    with pytest.raises(Graph6Error, match=match):
        parse_graph6(text)


def test_roundtrip_random_graphs():
    for g in _graphs_of_every_order(20240811):
        text = encode_graph6(g)
        assert parse_graph6(text) == g
        assert encode_graph6(parse_graph6(text)) == text


def test_roundtrip_fixture_corpus_byte_exact():
    lines = (FIXTURES / "corpus.g6").read_text().splitlines()
    assert len(lines) >= 30
    for line in lines:
        assert encode_graph6(parse_graph6(line)) == line


def test_codec_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    for g in _graphs_of_every_order(7):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert encode_graph6(g) == expected
        assert parse_graph6(expected) == g


@st.composite
def _graph6_like(draw):
    """A size byte, then a body of about the length it asks for, from bytes
    in and around the graph6 range; the padding bits are cleared in half of
    the draws, so that many strings are accepted."""
    head = draw(st.integers(63, 75) | st.integers(60, 127))
    n = head - 63
    nbits = n * (n - 1) // 2 if 0 <= n <= 62 else 0
    nbytes = (nbits + 5) // 6
    size = draw(st.sampled_from([nbytes, nbytes, nbytes, max(0, nbytes - 1), nbytes + 1]))
    wide = draw(st.booleans()) and draw(st.booleans())
    alphabet = st.characters(min_codepoint=61 if wide else 63, max_codepoint=128 if wide else 126)
    body = draw(st.text(alphabet, min_size=size, max_size=size))
    pad = (1 << (nbytes * 6 - nbits)) - 1
    if body and "?" <= body[-1] <= "~" and draw(st.booleans()):
        body = body[:-1] + chr(((ord(body[-1]) - 63) & ~pad) + 63)
    return chr(head) + body


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(_graph6_like() | st.text(st.characters(min_codepoint=0, max_codepoint=200), max_size=4))
@example("")
@example("~??")
@example("B_")
@example("B@")
@example("C~" + chr(127))
@example("D" + chr(62) + chr(200))
def test_parse_accepts_only_its_own_encoding(text):
    # A string the decoder accepts is re-encoded byte for byte, which is why
    # the CLI passes accepted graph6 lines on without encoding them again;
    # every other string gets the error the reference decoder gives.
    try:
        expected = reference_parse_graph6(text)
    except Graph6Error as exc:
        with pytest.raises(Graph6Error) as caught:
            parse_graph6(text)
        assert str(caught.value) == str(exc)
    else:
        g = parse_graph6(text)
        assert g == expected
        assert encode_graph6(g) == text
