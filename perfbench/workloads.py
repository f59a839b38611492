"""The benchmark's workloads: fixed inputs, each op paired with its answer check.

Every op calls powerindex through module attributes (``embedding.embeds``,
not a name imported early), so the spans that ``spans.Tracer`` installs see
every call.  A check returns True only when the answer is right.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from typing import Callable

import powerindex.embedding as embedding
import powerindex.graphs as graphs
import powerindex.groups as groups
import powerindex.matching as matching
import powerindex.verify as verify


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _suite(name: str, max_n: int | None) -> Op:
    def run():
        return verify.verify_suite(name, max_n, io.StringIO())

    label = name if max_n is None else f"{name}@{max_n}"
    return Op(f"verify {label}", run, lambda report: report.passed)


def _relabel(pattern, perm: list[int]):
    return graphs.SimpleGraph(pattern.n, [(perm[u], perm[v]) for u, v in pattern.edges()])


def _embed(s: int, t: int, n: int, rng: random.Random | None) -> Op:
    """Embed K_{s,t} into Z_n; the answer must match the totient criterion
    and a witness must pass check_embedding against the host power graph."""
    pattern = graphs.complete_bipartite(s, t)
    if rng is not None:
        perm = list(range(pattern.n))
        rng.shuffle(perm)
        pattern = _relabel(pattern, perm)

    def run():
        return embedding.embeds(pattern, groups.construct_group(f"Z{n}"))

    def check(witness) -> bool:
        if (witness is not None) != embedding.is_kst_power_critical(s, t):
            return False
        if witness is None:
            return True
        host = graphs.power_graph(groups.construct_group(f"Z{n}")).graph
        return embedding.check_embedding(pattern, host, witness.as_dict())

    return Op(f"embed K{s},{t} -> Z{n}", run, check)


def _theta_k99() -> Op:
    pattern = graphs.complete_bipartite(9, 9)

    def check(res) -> bool:
        host = graphs.power_graph(groups.construct_group(res.witness.group_ref)).graph
        return res.value == 19 and embedding.check_embedding(
            pattern, host, res.witness.as_dict())

    return Op("theta K9,9", lambda: embedding.theta_search(pattern), check)


# (spec, order, has a perfect matching); the matching answers are the
# values the blossom engine gives, cross-checked by the verify suites on
# the cyclic, dicyclic and dihedral families.
LARGE_GROUPS = (
    ("Z1680", 1680, True),
    ("D600", 600, False),
    ("Dic300", 1200, True),
    ("S6", 720, False),
    ("Ab[2,2,4,60]", 960, True),
)


def _large_group_ops(spec: str, order: int, perfect: bool) -> list[Op]:
    def build():
        return groups.construct_group(spec)

    def degree_check(report) -> bool:
        return report.holds == embedding.has_universal_nonidentity(build())

    return [
        Op(f"construct {spec}", build, lambda g: g.n == order),
        Op(f"thm44 {spec}", lambda: matching.check_theorem44(build()),
           lambda report: report.optimal == perfect),
        Op(f"degree {spec}", lambda: embedding.max_nonidentity_degree(build()),
           degree_check),
    ]


def verify_default() -> list[Op]:
    """The README acceptance sweep at default bounds."""
    return [_suite(name, None)
            for name in ("chi", "theta-kn", "kst", "matching", "thm44", "degrees")]


def verify_128() -> list[Op]:
    """Catalog-heavy suites at max_n=128; kst is left out (over 30 s)."""
    return [_suite(name, 128) for name in ("theta-kn", "matching", "thm44", "degrees")]


def embed_hard(rng: random.Random) -> list[Op]:
    """Slow proofs of absence beside positive finds.  The seed relabels the
    patterns whose sides differ in size; K_{10,10} keeps its natural labels
    (see README.md)."""
    return [
        _suite("kst", 23),
        _embed(10, 14, 24, rng),
        _embed(10, 10, 20, None),
        _embed(11, 15, 26, rng),
        _embed(12, 14, 26, rng),
        _theta_k99(),
    ]


def large_groups(rng: random.Random) -> list[Op]:
    """Table, power graph and matching on groups of order 600..1680, in an
    order drawn from the seed."""
    order = list(LARGE_GROUPS)
    rng.shuffle(order)
    return [op for spec in order for op in _large_group_ops(*spec)]


def verify_sweeps(seed: int) -> list[Op]:
    """Both verify sweeps in one cold process; the suites fix their own
    inputs, so the seed is unused."""
    return verify_default() + verify_128()


def embed_and_large(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return embed_hard(rng) + large_groups(rng)


WORKLOADS = {
    "verify-sweeps": verify_sweeps,
    "embed-and-large": embed_and_large,
}
