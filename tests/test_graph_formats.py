"""Property tests for the graph text formats: serialized graphs parse back
to themselves, and malformed graph text makes the CLI exit 2 without a
traceback."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from powerindex.cli import main
from powerindex.graphs import SimpleGraph, parse_graph, serialize_graph

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)


@st.composite
def _graphs(draw, max_n: int = 9) -> SimpleGraph:
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SimpleGraph(n, chosen)


@PROPERTY
@given(_graphs(), st.sampled_from(["edgelist", "json"]))
def test_serialized_graph_parses_back(gr, fmt):
    back = parse_graph(serialize_graph(gr, fmt))
    assert back.n == gr.n
    assert back.edges() == gr.edges()


def _edgelist(n: int, edges: list[list[int]], count: int | None = None) -> str:
    lines = [f"{n} {len(edges) if count is None else count}"]
    return "\n".join(lines + [f"{u} {v}" for u, v in edges]) + "\n"


_JUNK = st.sampled_from(["x", "1.5", "--", "0x3", "½", "true", "1e3", "3,4"])
_NOT_A_COUNT = st.sampled_from([True, False, -1, "3", 1.5, None, [2], {"n": 2}])
_NOT_A_VERTEX = st.sampled_from([True, False, "0", 1.0, None, [0]])


@st.composite
def _malformed(draw) -> str:
    """Graph text that breaks the format in one drawn way."""
    gr = draw(_graphs(max_n=6))
    n, edges = gr.n, [list(e) for e in gr.edges()]
    kind = draw(st.integers(0, 11))
    if kind == 0:  # edge count in the header disagrees with the edge lines
        return _edgelist(n, edges, len(edges) + draw(st.sampled_from([-1, 1, 2])))
    if kind == 1:  # self-loop
        v = draw(st.integers(0, max(n - 1, 0)))
        return _edgelist(max(n, 1), edges + [[v, v]])
    if kind == 2:  # vertex out of range
        return _edgelist(n, edges + [[draw(st.integers(-3, n)), n]])
    if kind == 3:  # duplicate edge, either way round
        u, v = edges[0] if edges else (0, 1)
        return _edgelist(max(n, 2), edges + [[u, v], draw(st.sampled_from([[u, v], [v, u]]))])
    if kind == 4:  # a token that is not an integer
        rows = [[str(n), str(len(edges))]] + [[str(u), str(v)] for u, v in edges]
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = draw(_JUNK)
        return "\n".join(map(" ".join, rows)) + "\n"
    if kind == 5:  # header or edge line with the wrong number of fields
        head = draw(st.sampled_from([f"{n}", f"{n} {len(edges)} 0", f"-{n + 1} 0"]))
        return "\n".join([head] + [f"{u} {v}" for u, v in edges]) + "\n"
    if kind == 6:  # nothing but comments and blank lines
        return draw(st.sampled_from(["", "\n\n", "# no header\n", "  # 3 0\n"]))
    payload: dict = {"n": n, "edges": edges}
    if kind == 7:
        payload["n"] = draw(_NOT_A_COUNT)
    elif kind == 8:
        payload["edges"] = draw(st.sampled_from([{}, "[]", 3, None, True]))
    elif kind == 9:
        bad = st.one_of(st.sampled_from([[0], [0, 1, 2], "01"]),
                        _NOT_A_VERTEX.map(lambda x: [0, x]))
        payload["edges"] = edges + [draw(bad)]
    elif kind == 10:
        del payload[draw(st.sampled_from(["n", "edges"]))]
    else:  # every strict prefix of a JSON object is invalid JSON
        text = json.dumps(payload)
        return text[:draw(st.integers(0, len(text) - 1))]
    return json.dumps(payload)


@PROPERTY
@given(_malformed())
def test_malformed_graph_text_exits_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("graphs") / "bad.graph"
    path.write_text(text, encoding="utf-8")
    assert main(["theta", str(path)]) == 2
