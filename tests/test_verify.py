"""Tests for the verification suite runner."""

from __future__ import annotations

import io

import pytest

import powerindex.embedding as embedding_module
import powerindex.matching as matching_module
import powerindex.verify as verify_module
from powerindex.clique import CliqueResult
from powerindex.verify import (
    SUITE_NAMES,
    ClaimResult,
    VerificationReport,
    _claim,
    verify_suite,
)

SMALL_BOUNDS = {
    "chi": 40,
    "theta-kn": 12,
    "kst": 10,
    "matching": 20,
    "thm44": 20,
    "degrees": 20,
}


def test_claim_runner_counts_and_passes():
    res = _claim("demo", "statement", iter([(True, "a"), (True, "b")]))
    assert res == ClaimResult("demo", "statement", 2, True, None)
    with pytest.raises(AttributeError):
        res.passed = False


def test_claim_runner_stops_at_first_counterexample():
    res = _claim("demo", "statement",
                 iter([(True, "a"), (False, "bad"), (True, "c")]))
    assert not res.passed
    assert res.counterexample == "bad"
    assert res.instances == 2


def test_claim_runner_fails_a_claim_without_instances():
    res = _claim("demo", "statement", iter([]))
    assert res == ClaimResult("demo", "statement", 0, False,
                              "no instances up to the bound")


def test_every_suite_passes_at_small_bounds():
    for name, bound in SMALL_BOUNDS.items():
        report = verify_suite(name, bound, progress=io.StringIO())
        assert report.suite == name
        assert report.passed
        for c in report.claims:
            assert c.instances > 0
            assert c.counterexample is None


def test_default_bounds_chi_suite():
    report = verify_suite("chi", progress=io.StringIO())
    assert report.passed
    assert report.claims[0].instances == 200


@pytest.mark.parametrize("witness", [
    (0, 1, 2, 3, 5),  # 2 and 3 are not adjacent in the power graph of Z6
    (0, 1, 1, 2, 5),  # a repeated vertex
    (0, 1, 2, 5),     # fewer vertices than the reported size
])
def test_chi_suite_rejects_a_bad_witness(monkeypatch, witness):
    real = verify_module.clique_number

    def forged(gr):
        return CliqueResult(5, witness) if gr.n == 6 else real(gr)

    monkeypatch.setattr(verify_module, "clique_number", forged)
    claim = verify_suite("chi", 8, progress=io.StringIO()).claims[0]
    assert claim.claim == "chi-clique-oracle"
    assert not claim.passed and claim.instances == 6
    assert claim.counterexample.startswith("n=6: witness")


@pytest.mark.parametrize("n, forged, counterexample", [
    (6, 6, "n=6: chi=6"),      # chi(n) = n off the prime powers
    (7, 8, "n=7: chi=8"),      # chi(n) > n
    (12, 11, "n=12: chi=11"),  # chi(n) = n - 1 off twice an odd prime
])
def test_chi_suite_rejects_a_bad_bound(monkeypatch, n, forged, counterexample):
    real = verify_module.chi
    monkeypatch.setattr(verify_module, "chi", lambda m: forged if m == n else real(m))
    claim = verify_suite("chi", 16, progress=io.StringIO()).claims[2]
    assert claim.claim == "chi-bounds"
    assert not claim.passed and claim.instances == n - 1
    assert claim.counterexample == counterexample


def test_matching_suite_rejects_a_near_perfect_matching_off_the_graph(monkeypatch):
    # in Ab[3,3] the elements 1 and 3 of order 3 generate distinct subgroups
    real = verify_module.near_perfect_matching_odd

    def forged(g):
        if g.label == "Ab[3,3]":
            return matching_module.Matching.from_edges([(1, 3)])
        return real(g)

    monkeypatch.setattr(verify_module, "near_perfect_matching_odd", forged)
    claim = verify_suite("matching", 9, progress=io.StringIO()).claims[2]
    assert claim.claim == "matching-odd-near-perfect"
    assert not claim.passed
    assert claim.counterexample == "Ab[3,3]: matching edge (1, 3) not present in the graph"


def test_thm44_suite_fails_on_a_cover_missing_a_path(monkeypatch):
    real = matching_module._lift

    def short(g, node_class, ends, match):
        return real(g, node_class, ends, match)[1:]

    monkeypatch.setattr(matching_module, "_lift", short)
    claim = verify_suite("thm44", 8, progress=io.StringIO()).claims[0]
    assert claim.claim == "thm44-equivalence"
    assert not claim.passed and claim.instances == 1
    assert claim.counterexample.startswith("Z2: expected 1 paths")


def test_theta_kn_suite_fails_when_nothing_embeds(monkeypatch):
    # an engine that never finds an embedding fails both search claims with
    # a counterexample; it must not crash the suite
    def never(pattern, g):
        return None

    monkeypatch.setattr(verify_module, "embeds", never)
    monkeypatch.setattr(embedding_module, "embeds", never)
    search, full, plus_one = verify_suite("theta-kn", 6, progress=io.StringIO()).claims
    assert search.claim == "theta-kn-cyclic-search" and not search.passed
    assert search.counterexample == "n=2: search=None, formula=2"
    assert full.claim == "theta-kn-full-search" and not full.passed
    assert full.counterexample == "n=2: search=None, formula=2"
    assert plus_one.passed


def test_kst_suite_to_order_30():
    assert verify_suite("kst", 30, progress=io.StringIO()).passed


def test_all_suite_merges_claims():
    individual = sum(
        len(verify_suite(name, SMALL_BOUNDS[name], progress=io.StringIO()).claims)
        for name in SMALL_BOUNDS)
    combined = verify_suite("all", 12, progress=io.StringIO())
    assert combined.suite == "all"
    assert len(combined.claims) == individual
    assert combined.passed
    claim_ids = [c.claim for c in combined.claims]
    assert len(claim_ids) == len(set(claim_ids))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify_suite("totients", 10)


def test_report_json_shape():
    report = verify_suite("degrees", 12, progress=io.StringIO())
    payload = report.to_json()
    assert set(payload) == {"suite", "passed", "claims"}
    assert payload["suite"] == "degrees"
    assert payload["passed"] is True
    for c in payload["claims"]:
        assert set(c) == {"claim", "statement", "instances", "passed",
                          "counterexample"}


def test_failing_report_serializes_counterexample():
    bad = ClaimResult("demo", "statement", 3, False, "n=7")
    report = VerificationReport("chi", (bad,))
    assert not report.passed
    assert report.to_json()["claims"][0]["counterexample"] == "n=7"


def test_reports_deterministic():
    a = verify_suite("kst", 10, progress=io.StringIO())
    b = verify_suite("kst", 10, progress=io.StringIO())
    assert a.to_json() == b.to_json()


def test_progress_goes_to_given_stream():
    stream = io.StringIO()
    verify_suite("degrees", 10, progress=stream)
    assert stream.getvalue().startswith("# suite degrees")
