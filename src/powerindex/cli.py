"""Command-line front end.

Every subcommand accepts --json for machine-readable output on stdout.
Exit codes follow one convention throughout: 0 for success or a true
answer, 1 for a false or negative answer, 2 for usage errors including
malformed group specs and graph files.  Progress and warnings go to
stderr so stdout stays stable for piping and diffing.

The library modules are bound lazily: each runs on its first attribute
access, so a cold call runs only the modules its answer reads (chi, rho,
theta-complete, critical-kst and scan-theta-rho run numtheory alone).
Importing this module still puts every one of them in sys.modules, which
the benchmark's tracer (perfbench/spans.py) reads to find the functions
it wraps.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from functools import partial

from . import FORMATS, SUITE_NAMES


def _lazy(name: str):
    """The submodule `name` of this package, run on first attribute access
    (the importlib documentation's lazy-import recipe); a module already
    imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    loader.exec_module(module)
    return module


clique, numtheory, groups, graphs, matching, embedding, verify = map(
    _lazy, ("clique", "numtheory", "groups", "graphs", "matching",
            "embedding", "verify"))


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif human:
        print(human)


def _load_graph(path: str) -> graphs.SimpleGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise graphs.GraphFormatError(
            f"cannot read graph file {path}: {exc}") from exc
    return graphs.parse_graph(text)


def _cmd_number(name: str, key: str, args: argparse.Namespace) -> int:
    """Print numtheory's `name` of n, under `key` in the JSON."""
    value = getattr(numtheory, name)(args.n)
    _emit(args, {"n": args.n, key: value}, str(value))
    return 0


def _cmd_theta(args: argparse.Namespace) -> int:
    res = embedding.theta_search(_load_graph(args.graphfile), args.max_order)
    if res is None:
        _emit(args, {"found": False, "max_order": args.max_order},
              f"no embedding found up to order {args.max_order}")
        return 1
    if not res.exact:
        print("note: some searched orders have an incomplete catalog; the "
              "value is exact only relative to the catalog", file=sys.stderr)
    _emit(args, {
        "found": True,
        "theta": res.value,
        "group": res.witness.group_ref,
        "exact": res.exact,
        "searched_orders": list(res.searched_orders),
        "witness": res.witness.as_dict(),
    }, str(res.value))
    return 0


def _cmd_critical(args: argparse.Namespace) -> int:
    pattern = _load_graph(args.graphfile)
    res = embedding.is_power_critical(pattern)
    if not res.exact:
        print("note: the deciding catalog is incomplete; the answer is "
              "relative to the catalog", file=sys.stderr)
    payload = {
        "critical": res.critical,
        "exact": res.exact,
        "witness": res.witness.as_dict() if res.witness else None,
    }
    _emit(args, payload, "true" if res.critical else "false")
    return 0 if res.critical else 1


def _cmd_critical_kst(args: argparse.Namespace) -> int:
    answer = numtheory.is_kst_power_critical(args.s, args.t)
    _emit(args, {"s": args.s, "t": args.t, "critical": answer},
          "true" if answer else "false")
    return 0 if answer else 1


def _cmd_power_graph(args: argparse.Namespace) -> int:
    g = groups.construct_group(args.spec)
    gr = graphs.power_graph(g).graph
    gr.labels = [str(k) for k in g.orders]  # DOT labels: element orders
    sys.stdout.write(graphs.serialize_graph(gr, args.format))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    pattern = _load_graph(args.graphfile)
    g = groups.construct_group(args.spec)
    witness = embedding.embeds(pattern, g)
    if witness is None:
        _emit(args, {"found": False, "group": g.label}, "no embedding")
        return 1
    _emit(args, {"found": True, "group": g.label, "mapping": witness.as_dict()},
          "\n".join(f"{v} -> {w}" for v, w in witness.mapping))
    return 0


def _cmd_matching(args: argparse.Namespace) -> int:
    g = groups.construct_group(args.spec)
    m = matching.maximum_matching(graphs.power_graph(g).graph)
    perfect, near_perfect = m.is_perfect(g.n), m.is_near_perfect(g.n)
    kind = ("perfect" if perfect
            else "near-perfect" if near_perfect else "maximum")
    _emit(args, {"group": g.label, "size": m.size, "perfect": perfect,
                 "near_perfect": near_perfect, "edges": m.to_json()},
          "\n".join([f"{kind} matching of size {m.size}"]
                    + [f"{u} {v}" for u, v in m.edges]))
    return 0 if perfect else 1


def _cmd_path_cover(args: argparse.Namespace) -> int:
    g = groups.construct_group(args.spec)
    cover = matching.check_theorem44(g).cover if g.n % 2 == 0 else None
    if cover is None:
        _emit(args, {"found": False, "group": g.label},
              "no perfect matching, so no inverse-closed path cover")
        return 1
    _emit(args, {"found": True, "group": g.label, "paths": cover},
          "\n".join(" ".join(map(str, p)) for p in cover))
    return 0


def _cmd_check_thm44(args: argparse.Namespace) -> int:
    g = groups.construct_group(args.spec)
    report = matching.check_theorem44(g)
    payload = {
        "group": g.label,
        "optimal": report.optimal,
        "matching": report.matching.to_json() if report.matching else None,
        "cover": report.cover,
        "barrier": list(report.barrier) if report.barrier else None,
    }
    _emit(args, payload, "true" if report.optimal else "false")
    return 0 if report.optimal else 1


def _cmd_kst_optimal(args: argparse.Namespace) -> int:
    res = embedding.kst_optimal_groups(args.s, args.t)
    if not res.complete:
        print("note: the catalog at this order is incomplete; the list may "
              "miss groups outside the built-in families", file=sys.stderr)
    labels = [g.label for g in res.groups]
    _emit(args, {"s": args.s, "t": args.t, "groups": labels,
                 "catalog_complete": res.complete},
          "\n".join(labels))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify.verify_suite(args.suite, args.max)
    lines = [f"PASS {c.claim} ({c.instances} instances)" if c.passed
             else f"FAIL {c.claim} ({c.instances} instances): {c.counterexample}"
             for c in report.claims]
    lines.append(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")
    _emit(args, report.to_json(), "\n".join(lines))
    return 0 if report.passed else 1


def _cmd_scan_theta_rho(args: argparse.Namespace) -> int:
    if args.nmax < 2:
        raise ValueError(f"table bound must be >= 2, got {args.nmax}")
    rows, lines = [], []
    for n in range(2, args.nmax + 1):
        theta, r = numtheory.theta_complete(n), numtheory.rho(n)
        rows.append({"n": n, "theta": theta, "rho": r, "equal": theta == r})
        lines.append(f"{n}\t{theta}\t{'=' if theta == r else '<'}\t{r}")
    _emit(args, {"max": args.nmax, "rows": rows}, "\n".join(lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerindex",
        description="power graph embeddings, matchings, and the power index")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")
        p.set_defaults(func=func)
        return p

    for name, key, help_text in (("chi", "chi", "totient chain sum of n"),
                                 ("rho", "rho", "least prime power >= n"),
                                 ("theta_complete", "theta",
                                  "power index of the complete graph K_n")):
        p = add(name.replace("_", "-"), partial(_cmd_number, name, key), help_text)
        p.add_argument("n", type=int)

    p = add("theta", _cmd_theta, "power index of a graph by catalog search")
    p.add_argument("graphfile")
    p.add_argument("--max-order", type=int, default=None,
                   help="stop the search at this group order")

    p = add("critical", _cmd_critical,
            "is the graph power-critical (index equals vertex count)?")
    p.add_argument("graphfile")

    p = add("critical-kst", _cmd_critical_kst,
            "is the complete bipartite graph K_{s,t} power-critical?")
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)

    p = add("power-graph", _cmd_power_graph, "print the power graph of a group")
    p.add_argument("spec")
    p.add_argument("--format", choices=FORMATS, default="edgelist")

    p = add("embed", _cmd_embed, "embed a pattern graph into a power graph")
    p.add_argument("graphfile")
    p.add_argument("spec")

    p = add("matching", _cmd_matching,
            "maximum matching in the power graph of a group")
    p.add_argument("spec")

    p = add("path-cover", _cmd_path_cover,
            "inverse-closed path cover of the non-identity involutions")
    p.add_argument("spec")

    p = add("check-thm44", _cmd_check_thm44,
            "certify the perfect matching / path cover equivalence for a group")
    p.add_argument("spec")

    p = add("kst-optimal", _cmd_kst_optimal,
            "groups of order s+t whose power graph hosts K_{s,t}")
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)

    p = add("verify", _cmd_verify, "run a named verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--max", type=int, default=None,
                   help="override the suite's sweep bound")

    p = add("scan-theta-rho", _cmd_scan_theta_rho,
            "tabulate theta(K_n) against rho(n)")
    p.add_argument("nmax", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
