"""End-to-end tests for the command-line interface.

Each test drives main(argv) directly and checks stdout, stderr, and the
exit code; 0 means success or true, 1 means false or negative, 2 means
a usage error or malformed input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import empty_graph, is_embedding, power_graph_edges_brute
import powerindex
from powerindex import groups
from powerindex.cli import main
from powerindex.graphs import (
    complete_graph,
    parse_graph,
    power_graph,
    serialize_graph,
)
from powerindex.groups import ORDER_CAP, construct_group
from powerindex.matching import Matching


@pytest.fixture
def k6_file(tmp_path):
    path = tmp_path / "k6.graph"
    path.write_text(serialize_graph(complete_graph(6), "edgelist"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi(capsys):
    code, out, _ = run(capsys, "chi", "36")
    assert code == 0
    assert out == "27\n"


def test_chi_json(capsys):
    code, out, _ = run(capsys, "chi", "93", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 93, "chi": 91}


def test_rho(capsys):
    code, out, _ = run(capsys, "rho", "14")
    assert (code, out) == (0, "16\n")
    code, out, _ = run(capsys, "rho", "34", "--json")
    assert json.loads(out) == {"n": 34, "rho": 37}


def test_theta_complete(capsys):
    for n, expected in ((6, 7), (7, 7), (14, 16), (34, 37), (91, 93)):
        code, out, _ = run(capsys, "theta-complete", str(n))
        assert code == 0
        assert out == f"{expected}\n"


def test_bad_argument_is_usage_error(capsys):
    code, _, err = run(capsys, "chi", "-5")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "chi", "many")
    assert code == 2


def test_primes_past_the_factoring_bound_exit_2(capsys):
    # trial division answers the largest prime below 10^13 in under a
    # second, and refuses the least prime above it in one stderr line,
    # where a 19-digit prime ran on for more than 20 s
    below, past = 9999999999971, 10000000000037
    for head, n, want in ((["chi"], below, below), (["rho"], below, below),
                          (["theta-complete"], below, below),
                          (["critical-kst", "2"], below - 2, "true")):
        assert run(capsys, *head, str(n))[:2] == (0, f"{want}\n"), head
        code, out, err = run(capsys, *head, str(n + past - below))
        assert (code, out) == (2, ""), head
        assert err == (f"error: cannot factor {past}: trial division leaves "
                       f"{past}, not below 10^13\n"), head


def test_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate", "1")
    assert code == 2
    assert "invalid choice" in err


def test_theta_command(capsys, k6_file):
    code, out, _ = run(capsys, "theta", k6_file)
    assert (code, out) == (0, "7\n")


def test_theta_json_fields(capsys, k6_file):
    code, out, _ = run(capsys, "theta", k6_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["theta"] == 7
    assert payload["group"] == "Z7"
    assert payload["exact"] is True
    assert payload["searched_orders"] == [6, 7]
    host = power_graph(construct_group("Z7")).graph
    mapping = {int(k): v for k, v in payload["witness"].items()}
    pattern_edges = {frozenset(e) for e in complete_graph(6).edges()}
    host_edges = {frozenset(e) for e in host.edges()}
    assert is_embedding(pattern_edges, mapping, host_edges)


def test_theta_bounded_search_negative(capsys, k6_file):
    code, out, _ = run(capsys, "theta", k6_file, "--max-order", "6", "--json")
    assert code == 1
    assert json.loads(out) == {"found": False, "max_order": 6}


def test_theta_max_order_below_vertices(capsys, k6_file):
    code, _, err = run(capsys, "theta", k6_file, "--max-order", "3")
    assert code == 2
    assert "below the vertex count" in err


def test_theta_missing_file(capsys):
    code, _, err = run(capsys, "theta", "/no/such/file.graph")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("text", [
    f"{ORDER_CAP + 1} 0\n",
    "1000000000000 0\n",
    '{"n": 1000000000000, "edges": []}',
])
def test_graph_files_past_the_order_cap_exit_2(capsys, tmp_path, text):
    # no group within the cap hosts such a graph, so this is an error, not
    # "not found"; the count is rejected before a row per vertex is allocated
    path = tmp_path / "huge.graph"
    path.write_text(text)
    for argv in (("theta", str(path)), ("theta", str(path), "--json"),
                 ("critical", str(path)), ("embed", str(path), "Z7")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and str(ORDER_CAP) in err, argv


def test_graph_files_at_the_order_cap_parse():
    for text in (f"{ORDER_CAP} 0\n", json.dumps({"n": ORDER_CAP, "edges": []})):
        assert parse_graph(text).n == ORDER_CAP


@pytest.mark.parametrize("payload", [
    {"n": True, "edges": []},
    {"n": 3, "edges": [[0, True]]},
])
def test_graph_loader_rejects_json_booleans(capsys, tmp_path, payload):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    for command in ("theta", "critical"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize("payload", [
    {"n": True, "mul": [[False]]},
    {"n": 2, "mul": [[0, 1], [1, False]]},
])
def test_cayley_loader_rejects_json_booleans(capsys, tmp_path, payload):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "power-graph", f"cayley:{path}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_critical_true_for_prime_power_clique(capsys, tmp_path):
    path = tmp_path / "k8.graph"
    path.write_text(serialize_graph(complete_graph(8), "edgelist"))
    code, out, _ = run(capsys, "critical", str(path))
    assert (code, out) == (0, "true\n")


def test_critical_false_for_k6(capsys, k6_file):
    code, out, _ = run(capsys, "critical", k6_file, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["critical"] is False
    assert payload["exact"] is True
    assert payload["witness"] is None


def test_critical_kst(capsys):
    code, out, _ = run(capsys, "critical-kst", "6", "6")
    assert (code, out) == (1, "false\n")
    code, out, _ = run(capsys, "critical-kst", "2", "6", "--json")
    assert code == 0
    assert json.loads(out)["critical"] is True
    code, _, err = run(capsys, "critical-kst", "6", "2")
    assert code == 2


def test_power_graph_edgelist_round_trip(capsys):
    code, out, _ = run(capsys, "power-graph", "Z6")
    assert code == 0
    expected = power_graph(construct_group("Z6")).graph
    got = parse_graph(out)
    assert got.n == expected.n
    assert got.edges() == expected.edges()


def test_power_graph_formats(capsys):
    code, out, _ = run(capsys, "power-graph", "Q8", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {")
    code, out, _ = run(capsys, "power-graph", "Q8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8


def test_power_graph_bad_spec(capsys):
    code, _, err = run(capsys, "power-graph", "Zx")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "power-graph", "Q12")
    assert code == 2


def test_power_graph_of_product_over_cayley_factor(capsys, tmp_path):
    z3 = tmp_path / "z3.json"
    z3.write_text(json.dumps({"n": 3, "mul": [list(r) for r in construct_group("Z3").mul]}))
    code, out, err = run(capsys, "power-graph", f"Prod(cayley:{z3},Z2)")
    assert (code, err) == (0, "")
    assert out == run(capsys, "power-graph", "Prod(Z3,Z2)")[1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "mul": [[0, 1], [1, 1]]}))
    code, out, err = run(capsys, "power-graph", f"Prod(Z2,cayley:{bad})")
    assert (code, out) == (2, "")
    assert err.startswith("error: inverse axiom violated") and err.count("\n") == 1


PROPERTY = settings(derandomize=True, deadline=None, database=None)
_PERMS = {"S3": 6, "S4": 24, "S5": 120, "S6": 720, "A4": 12, "A5": 60, "A6": 360}


@st.composite
def _family_spec(draw, lo: int, hi: int) -> tuple[str, int]:
    """A Z, Ab, D, GDih, Dic, Q, S or A spec of order in lo..hi, and its order."""
    quaternions = [2**k for k in range(3, 21) if lo <= 2**k <= hi]
    perms = [item for item in _PERMS.items() if lo <= item[1] <= hi]
    kind = draw(st.sampled_from(["Z", "D", "Dic", "Ab", "GDih"] + ["Q"] * bool(quaternions)
                                + ["perm"] * bool(perms)))
    if kind == "perm":
        return draw(st.sampled_from(perms))
    if kind == "Q":
        n = draw(st.sampled_from(quaternions))
        return f"Q{n}", n
    scale = {"D": 2, "Dic": 4, "GDih": 2}.get(kind, 1)
    ds = draw(st.lists(st.integers(1, 8), max_size=3)) if kind in ("Ab", "GDih") else []
    unit = scale * math.prod(ds)
    while -(-lo // unit) > hi // unit:  # no last factor brings the order into lo..hi
        ds.pop()
        unit = scale * math.prod(ds)
    ds.append(draw(st.integers(-(-lo // unit), hi // unit)))
    if kind in ("Ab", "GDih"):
        return f"{kind}[{','.join(map(str, ds))}]", unit * ds[-1]
    return f"{kind}{2 * ds[0] if kind == 'D' else ds[0]}", unit * ds[-1]


@st.composite
def _product_past_cap(draw) -> str:
    left, a = draw(_family_spec(5, 1024))
    right, _ = draw(_family_spec(ORDER_CAP // a + 1, 1024))
    if draw(st.booleans()):
        left, right = right, left
    return f"Prod({left},{right})"


def _main_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(PROPERTY, max_examples=60)
@given(st.one_of(_family_spec(ORDER_CAP + 1, 10**6).map(lambda item: item[0]),
                 _product_past_cap()))
def test_specs_past_the_order_cap_exit_2(spec):
    # the factor groups a product builds are dropped again, so the cache
    # does not grow over the examples
    with patch.dict(groups._group_cache):
        code, out, err = _main_captured(["power-graph", spec])
    assert (code, out) == (2, ""), spec
    assert err.startswith("error: ") and "cap" in err and err.count("\n") == 1, spec


@st.composite
def _small_spec(draw) -> str:
    if draw(st.booleans()):
        return draw(_family_spec(1, 48))[0]
    return f"Prod({draw(_family_spec(1, 8))[0]},{draw(_family_spec(1, 8))[0]})"


@settings(PROPERTY, max_examples=100)
@given(_small_spec(), st.sampled_from(["edgelist", "json"]))
def test_power_graph_output_parses_back(spec, fmt):
    code, out, err = _main_captured(["power-graph", spec, "--format", fmt])
    assert (code, err) == (0, ""), spec
    gr = parse_graph(out)
    g = construct_group(spec)
    assert gr.n == g.n, spec
    assert {frozenset(e) for e in gr.edges()} == power_graph_edges_brute(g), spec


def test_embed_positive(capsys, k6_file):
    code, out, _ = run(capsys, "embed", k6_file, "Z7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert len(payload["mapping"]) == 6


def test_embed_negative(capsys, k6_file):
    code, out, _ = run(capsys, "embed", k6_file, "Z6")
    assert code == 1
    assert out == "no embedding\n"


def test_embed_human_output_lines(capsys, k6_file):
    code, out, _ = run(capsys, "embed", k6_file, "Z7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(" -> " in line for line in lines)


def test_embed_large_edgeless_pattern(capsys, tmp_path):
    path = tmp_path / "null1100.graph"
    path.write_text(serialize_graph(empty_graph(1100), "edgelist"))
    code, out, _ = run(capsys, "embed", str(path), "Z1103")
    assert code == 0
    assert len(out.splitlines()) == 1100


def test_matching_perfect(capsys):
    code, out, _ = run(capsys, "matching", "Z8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["perfect"] is True
    edges = [tuple(e) for e in payload["edges"]]
    m = Matching.from_edges(edges)
    m.validate(power_graph(construct_group("Z8")).graph)
    assert m.is_perfect(8)


def test_matching_dihedral_falls_short(capsys):
    code, out, _ = run(capsys, "matching", "D10")
    assert code == 1
    assert out.splitlines()[0] == "maximum matching of size 3"


def test_matching_odd_near_perfect(capsys):
    code, out, _ = run(capsys, "matching", "Z7", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["near_perfect"] is True
    assert payload["size"] == 3


def test_path_cover_cyclic(capsys):
    code, out, _ = run(capsys, "path-cover", "Z12", "--json")
    assert code == 0
    payload = json.loads(out)
    paths = payload["paths"]
    assert len(paths) == 1
    assert {paths[0][0], paths[0][-1]} == {0, 6}


def test_path_cover_negative_and_odd(capsys):
    code, out, _ = run(capsys, "path-cover", "D10")
    assert code == 1
    assert "no perfect matching" in out
    code, out, _ = run(capsys, "path-cover", "Z7")
    assert code == 1
    assert "no perfect matching" in out


def test_check_thm44(capsys):
    code, out, _ = run(capsys, "check-thm44", "Z12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal"] is True
    assert payload["matching"] is not None
    assert payload["cover"] is not None
    assert payload["barrier"] is None
    code, out, _ = run(capsys, "check-thm44", "D10", "--json")
    assert code == 1
    assert json.loads(out)["cover"] is None
    assert json.loads(out)["barrier"] == [0]
    # Ab[2,2,6] passes the identity barrier; its barrier adds a class
    code, out, _ = run(capsys, "check-thm44", "Ab[2,2,6]", "--json")
    assert code == 1
    assert json.loads(out)["barrier"] == [0, 2]
    code, _, err = run(capsys, "check-thm44", "Z9")
    assert code == 2


def test_kst_optimal(capsys):
    code, out, _ = run(capsys, "kst-optimal", "2", "6")
    assert code == 0
    assert sorted(out.split()) == ["Q8", "Z8"]
    code, out, err = run(capsys, "kst-optimal", "2", "14", "--json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["groups"]) == ["Q16", "Z16"]
    assert payload["catalog_complete"] is False
    assert "incomplete" in err


def test_kst_optimal_noncritical_pair(capsys):
    code, _, err = run(capsys, "kst-optimal", "6", "6")
    assert code == 2
    assert "not power-critical" in err


def test_verify_chi(capsys):
    code, out, _ = run(capsys, "verify", "chi", "--max", "60")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "suite chi: PASS"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "degrees", "--max", "16", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "degrees"
    assert payload["passed"] is True
    assert set(payload) == {"suite", "claims", "passed"}
    assert payload["claims"] and all(
        set(c) == {"claim", "statement", "instances", "passed", "counterexample"}
        for c in payload["claims"])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "everything")
    assert code == 2
    assert "invalid choice" in err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_verify_rejects_bound_below_one(capsys, bound):
    code, out, err = run(capsys, "verify", "kst", "--max", bound)
    assert code == 2
    assert out == ""
    assert err == f"error: sweep bound must be >= 1, got {bound}\n"


def test_verify_bound_without_instances_fails(capsys):
    code, out, _ = run(capsys, "verify", "theta-kn", "--max", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "suite theta-kn: FAIL"
    assert len(lines) == 4
    assert all(line.startswith("FAIL ") and line.endswith(
        "(0 instances): no instances up to the bound") for line in lines[:-1])


def test_verify_progress_on_stderr_only(capsys):
    _, out, err = run(capsys, "verify", "kst", "--max", "8", "--json")
    json.loads(out)
    assert "# suite" in err


def test_scan_theta_rho(capsys):
    code, out, _ = run(capsys, "scan-theta-rho", "20", "--json")
    assert code == 0
    payload = json.loads(out)
    rows = {row["n"]: row for row in payload["rows"]}
    assert len(rows) == 19
    assert rows[14] == {"n": 14, "theta": 16, "rho": 16, "equal": True}
    assert rows[20] == {"n": 20, "theta": 22, "rho": 23, "equal": False}


@pytest.mark.parametrize("bound", ["1", "0", "-5"])
def test_scan_theta_rho_rejects_bound_below_two(capsys, bound):
    code, out, err = run(capsys, "scan-theta-rho", bound)
    assert code == 2
    assert out == ""
    assert err == f"error: table bound must be >= 2, got {bound}\n"


def test_scan_theta_rho_human_columns(capsys):
    code, out, _ = run(capsys, "scan-theta-rho", "10")
    assert code == 0
    first = out.splitlines()[0].split("\t")
    assert first == ["2", "2", "=", "2"]


def test_stdout_byte_stable(capsys, k6_file):
    fixed_commands = (
        ["theta-complete", "34", "--json"],
        ["power-graph", "D12"],
        ["theta", k6_file, "--json"],
        ["verify", "kst", "--max", "10", "--json"],
        ["scan-theta-rho", "30"],
    )
    for argv in fixed_commands:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def _certificate_digest(capsys, bound):
    """sha256 of each command's stdout and exit code over every even
    catalog group of order <= bound, check-thm44 then path-cover, with
    --json; the first 16 hex digits."""
    h = hashlib.sha256()
    for m in range(2, bound + 1, 2):
        for g in groups.catalog_for_order(m).groups:
            for command in ("check-thm44", "path-cover"):
                code, out, _ = run(capsys, command, g.label, "--json")
                h.update(f"{out}exit {code}\n".encode())
    return h.hexdigest()[:16]


def test_certificate_output_unchanged(capsys):
    # path-cover prints check-thm44's cover, lifted from the class gadget
    assert _certificate_digest(capsys, 64) == "e0f49c3f25969061"


# Runs main(argv) in a fresh interpreter, prints after the command's own
# output the modules whose code ran (a lazily bound module that was never
# read is still a LazyLoader stub, not a plain module), and exits with
# main's code.
_COLD_CALL = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from powerindex.cli import main
code = main(sys.argv[2:])
print(json.dumps(sorted(name for name, m in sys.modules.items()
                        if name not in before and type(m) is types.ModuleType)))
sys.exit(code)
"""


def _cold_call(*argv):
    """Exit code, stdout lines and modules run by one cold call."""
    src = os.path.dirname(os.path.dirname(powerindex.__file__))
    done = subprocess.run([sys.executable, "-c", _COLD_CALL, src, *argv],
                          capture_output=True, text=True, timeout=60)
    assert done.stdout, done.stderr  # main raised before the module list
    *lines, modules = done.stdout.splitlines()
    return done.returncode, lines, set(json.loads(modules))


def test_cold_calls_run_only_what_they_read():
    # the closed forms read only integers, so these run numtheory alone
    for argv in (("chi", "36"), ("theta-complete", "10"), ("critical-kst", "4", "12")):
        code, _, loaded = _cold_call(*argv)
        assert code == 0, argv
        assert {m for m in loaded if m.split(".")[0] == "powerindex"} == {
            "powerindex", "powerindex.cli", "powerindex.numtheory"}, argv
        assert "dataclasses" not in loaded
    code, _, loaded = _cold_call("check-thm44", "Z12")
    assert code == 0
    assert "powerindex.matching" in loaded and "dataclasses" not in loaded
    assert not loaded & {"powerindex.verify", "powerindex.embedding",
                         "powerindex.clique"}


def test_nested_prod_past_the_bound_exits_2():
    # the parser recurses once per Prod level, and 1,100 levels passed the
    # recursion limit; past 32 Prods a spec is refused in one line
    def nested(depth):
        spec = "Prod(Z2,Z1)"
        for _ in range(depth - 1):
            spec = f"Prod({spec},Z1)"
        return spec

    src = os.path.dirname(os.path.dirname(powerindex.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for depth, want_code, want_out in ((1100, 2, ""), (33, 2, ""), (32, 0, "true\n")):
        done = subprocess.run([sys.executable, "-m", "powerindex.cli", "check-thm44", nested(depth)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert (done.returncode, done.stdout) == (want_code, want_out), depth
        if want_code == 2:
            assert done.stderr == "error: a spec holds at most 32 Prods\n", depth


_NAMES_AND_RUNS = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
import powerindex.cli
print(json.dumps({name: type(m) is types.ModuleType
                  for name, m in sys.modules.items()
                  if name.split(".")[0] == "powerindex"}))
"""


def test_importing_the_cli_names_every_module_and_runs_none():
    src = os.path.dirname(os.path.dirname(powerindex.__file__))
    done = subprocess.run([sys.executable, "-c", _NAMES_AND_RUNS, src],
                          capture_output=True, text=True, timeout=60, check=True)
    ran = json.loads(done.stdout)
    assert set(ran) == {"powerindex", "powerindex.cli"} | {
        f"powerindex.{m}" for m in ("clique", "numtheory", "groups", "graphs",
                                    "matching", "embedding", "verify")}
    assert {name for name, has_run in ran.items() if has_run} == {
        "powerindex", "powerindex.cli"}


# The README's commands that need no file, each with its exit code and
# lines of its documented output.
README_COLD_CALLS = [
    ("chi 36", 0, ["27"]),
    ("rho 14", 0, ["16"]),
    ("theta-complete 34", 0, ["37"]),
    ("critical-kst 6 6", 1, ["false"]),
    ("kst-optimal 2 6", 0, ["Z8", "Q8"]),
    ("matching Z8", 0, ["perfect matching of size 4", "6 7"]),
    ("path-cover Ab[2,6]", 0, ["0 9", "3 1 5 2 4 8 10 6"]),
    ("check-thm44 Q16 --json", 0, [
        '{"barrier": null, "cover": [[0, 4]], "group": "Q16", "matching": '
        '[[0, 4], [1, 7], [2, 6], [3, 5], [8, 12], [9, 13], [10, 14], '
        '[11, 15]], "optimal": true}']),
    ("power-graph Q8 --format dot", 0,
     ["graph {", '  1 [label="4"];', "  5 -- 7;", "}"]),
    ("scan-theta-rho 100", 0, ["14\t16\t=\t16", "91\t93\t<\t97"]),
]


@pytest.mark.parametrize("command,want_code,want_lines", README_COLD_CALLS,
                         ids=[c[0] for c in README_COLD_CALLS])
def test_readme_commands_in_a_cold_process(command, want_code, want_lines):
    code, lines, _ = _cold_call(*command.split())
    assert code == want_code
    assert [line for line in want_lines if line not in lines] == []
