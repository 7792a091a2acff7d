"""Command-line surface: plan enumeration, checking, evaluation, synthesis.

Exit codes: 0 success, 2 usage or parse error, 3 no plan found, 4 check
failed, 5 characterization and oracle disagree.  Usage errors include a path
that cannot be read or written, query text that is not ``NAME`` or
``NAME^-``, ``--max-plans``, ``--budget`` or ``--step`` below 1,
``--timeout`` below 0 and ``--timeout-ms`` at or below 0; a parse error
names the file that does not parse.  A ``check`` or ``eval`` plan that
has no semantics, such as one whose call does not read an output of the
call before it, is a usage error that names the plan file too.  A ``plans``
search cut short by its deadline, depth or plan cap prints ``note: search
truncated (CAUSE)`` on stderr and keeps its exit code.

In-process ``main`` calls share one argparse parser and reuse the parsed
catalog of unchanged ``--functions`` text (see ``_load_catalog``).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from collections import OrderedDict
from typing import List, Optional

from . import characterize, dsl, engine, evaluate, synth
from .model import Atom, AtomicQuery, ModelError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_PLAN = 3
EXIT_CHECK_FAILED = 4
EXIT_DISAGREEMENT = 5

DEFAULT_CONSTANT = "a"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse(path: str, parse, text: str, *args):
    """``parse(text, *args)``, whose parse errors name ``path``, the file read."""
    try:
        return parse(text, *args)
    except dsl.ParseError as exc:
        raise dsl.ParseError(f"{path}: {exc}") from exc


# Parsed catalogs of the last few `_load_catalog` calls, keyed by file text
# and path, most recent last.  One catalog's queries and modes run back to
# back, so eight entries (the bound of `engine._templates`) serve them all,
# and a pass of perfbench's enum-small workload (154 catalogs) never reuses
# a parse from the pass before it.  The file is read on every call, so a
# rewritten file is parsed afresh; the path is in the key because the
# document and its errors name it.  A parse error is raised, never stored.
# `dsl.parse_catalog` is looked up at each parse, so a wrapper bound there
# (a tracer, a test's counter) sees every real parse.  An OrderedDict, not
# `functools.lru_cache`, which would leave `__wrapped__` on a module
# attribute, where perfbench's selftest reads it as a tracer left bound.
_CATALOG_MEMO_SIZE = 8
_catalogs: "OrderedDict[tuple, dsl.CatalogDocument]" = OrderedDict()


def _load_catalog(path: str) -> dsl.CatalogDocument:
    text = _read(path)
    key = (text, path)
    doc = _catalogs.get(key)
    if doc is None:
        doc = _parse(path, dsl.parse_catalog, text, path)
        if len(_catalogs) >= _CATALOG_MEMO_SIZE:
            _catalogs.popitem(last=False)
        _catalogs[key] = doc
    else:
        _catalogs.move_to_end(key)
    return doc


_QUERY_RE = re.compile(dsl._NAME + r"(?:\^-)?")


def _parse_query(text: str, constant: str) -> AtomicQuery:
    if not _QUERY_RE.fullmatch(text):
        raise dsl.ParseError(f"query {text!r} is not NAME or NAME^-")
    return AtomicQuery(dsl.parse_atom_text(text), constant)


def _cmd_plans(args) -> int:
    doc = _load_catalog(args.functions)
    query = _parse_query(args.query, DEFAULT_CONSTANT)
    deadline = time.monotonic() + args.timeout if args.timeout else None
    if args.mode == "weak":
        hits = engine.enumerate_minimal_weakly_smart(
            query, list(doc), max_plans=args.max_plans, deadline=deadline
        )
    elif args.mode == "smart":
        hits = engine.enumerate_minimal_smart(
            query, list(doc), max_plans=args.max_plans, deadline=deadline
        )
    elif args.mode == "susie":
        hits = engine.susie_plans(query, list(doc))
    else:  # one
        hits = engine.find_one_weakly_smart(query, list(doc), deadline=deadline)
    if hits.cause is not None:
        print(f"note: search truncated ({hits.cause})", file=sys.stderr)
    # Weak mode marks its loose plans.
    loose = "shape: loose" if args.mode == "weak" else ""
    blocks = sorted(
        dsl.serialize_plan(h.plan, note=loose if h.kind == "loose" else "") for h in hits
    )
    text = "\n".join(blocks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK if blocks else EXIT_NO_PLAN


def _cmd_check(args) -> int:
    doc = _load_catalog(args.functions)
    query = _parse_query(args.query, DEFAULT_CONSTANT)
    plan = _parse(args.plan, dsl.parse_plan, _read(args.plan), list(doc))
    if plan.constant != query.constant:
        query = AtomicQuery(query.relation, plan.constant)
    try:
        if args.level == "weak":
            verdict = characterize.is_weakly_smart(plan, query)
            passed = verdict
            label = "weakly smart" if verdict else "not weakly smart"
        else:
            verdict = characterize.is_smart(plan, query)
            passed = verdict.level == characterize.SMART
            label = verdict.level
    except ModelError as exc:
        raise dsl.ParseError(f"{args.plan}: {exc}") from exc
    print(f"check: {label}")
    if args.oracle:
        if args.level == "weak":
            report = evaluate.oracle_is_weakly_smart(plan, query, budget=args.budget)
        else:
            report = evaluate.oracle_is_smart(plan, query, budget=args.budget)
        oracle_pass = report.verdict
        print(f"oracle: {'pass' if oracle_pass else 'fail'} ({report.instances_checked} instances)")
        if not report.complete:
            print(
                f"note: oracle incomplete: its exhaustive layer was cut at "
                f"{evaluate.MAX_INSTANCES} instances (budget {args.budget})",
                file=sys.stderr,
            )
        if oracle_pass != passed:
            if report.witness is not None:
                print(f"witness: {report.witness}", file=sys.stderr)
            return EXIT_DISAGREEMENT
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_eval(args) -> int:
    doc = _load_catalog(args.functions)
    instance = _parse(args.instance, dsl.parse_instance, _read(args.instance), args.instance)
    plan = _parse(args.plan, dsl.parse_plan, _read(args.plan), list(doc))
    query = AtomicQuery(Atom("_"), plan.constant)  # relation unused by eval
    mode = (
        evaluate.OPTIONAL_EDGE
        if args.semantics == "optional-edge"
        else evaluate.STANDARD
    )
    results = evaluate.eval_plan(plan, query, instance, mode)
    for value in sorted(results):
        print(value)
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = synth.SynthConfig(args.relations, args.functions, args.max_len, args.seed)
    catalog = synth.gen_catalog(cfg)
    text = dsl.serialize_catalog(catalog)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    values = list(range(args.min, args.max + 1, args.step))
    result = synth.sweep(
        args.axis,
        args.fixed,
        values,
        seeds=args.seeds,
        timeout_ms=args.timeout_ms,
    )
    text = synth.sweep_csv(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"# {result.timeouts} timeouts over {len(values)} points",
        file=sys.stderr,
    )
    return EXIT_OK


def _number(kind, accepts, bound):
    """An argparse type: ``kind(text)``, rejected (NaN too) unless
    ``accepts`` it; ``bound`` says what is accepted."""

    def convert(text):
        value = kind(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    convert.__name__ = kind.__name__  # "invalid int value: 'x'", as before
    return convert


def _at_least(kind, low):
    return _number(kind, lambda value: value >= low, f"at least {low}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathplan",
        description="Enumerate smart and weakly smart plans over path views",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plans", help="enumerate plans for an atomic query")
    p.add_argument("--functions", required=True)
    p.add_argument("--query", required=True, help="relation name, ^- suffix for inverse")
    p.add_argument("--mode", choices=["weak", "smart", "susie", "one"], default="smart")
    p.add_argument("--max-plans", type=_at_least(int, 1), default=10000)
    p.add_argument(
        "--timeout", type=_at_least(float, 0), default=0.0, help="seconds, 0 = none"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plans)

    p = sub.add_parser("check", help="check a plan's smartness level")
    p.add_argument("--functions", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--level", choices=["weak", "smart"], default="weak")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--budget", type=_at_least(int, 1), default=6)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="evaluate a plan on an instance")
    p.add_argument("--functions", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument(
        "--semantics", choices=["standard", "optional-edge"], default="standard"
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a random catalog")
    p.add_argument("--relations", type=int, required=True)
    p.add_argument("--functions", type=int, required=True)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="run an answered-queries sweep to CSV")
    p.add_argument("--axis", choices=["relations", "functions"], required=True)
    p.add_argument("--fixed", type=int, required=True)
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--step", type=_at_least(int, 1), default=1)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument(
        "--timeout-ms", type=_number(float, lambda ms: ms > 0, "above 0"), default=2000.0
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)
    return parser


# Built by the first `main` call, not at import, and reused by every later
# one: `parse_args` leaves the parser unchanged and returns a new namespace,
# and help and errors read `sys.stdout`, `sys.stderr` and the terminal width
# when they print.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (dsl.ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except engine.EmptyCatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
