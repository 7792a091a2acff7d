"""Command-line surface: plan enumeration, checking, evaluation, synthesis.

Exit codes: 0 success, 2 usage or parse error, 3 no plan found, 4 check
failed, 5 characterization and oracle disagree.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from . import characterize, dsl, engine, evaluate, synth
from .model import Atom, AtomicQuery

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_PLAN = 3
EXIT_CHECK_FAILED = 4
EXIT_DISAGREEMENT = 5

DEFAULT_CONSTANT = "a"


def _load_catalog(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return dsl.parse_catalog(fh.read(), source_name=path)


def _parse_query(text: str, constant: str) -> AtomicQuery:
    return AtomicQuery(dsl.parse_atom_text(text), constant)


def _cmd_plans(args) -> int:
    doc = _load_catalog(args.functions)
    query = _parse_query(args.query, DEFAULT_CONSTANT)
    deadline = time.monotonic() + args.timeout if args.timeout else None
    blocks: List[str] = []
    if args.mode == "weak":
        hits = engine.enumerate_minimal_weakly_smart(
            query, list(doc), max_plans=args.max_plans, deadline=deadline
        )
        blocks = [
            dsl.serialize_plan(h.plan, note=f"shape: {h.shape}" if h.shape == "loose" else "")
            for h in hits
        ]
    elif args.mode == "smart":
        hits = engine.enumerate_minimal_smart(
            query, list(doc), max_plans=args.max_plans, deadline=deadline
        )
        blocks = [dsl.serialize_plan(h.plan) for h in hits]
    elif args.mode == "susie":
        hits = engine.susie_plans(query, list(doc))
        blocks = [dsl.serialize_plan(h.plan) for h in hits]
    else:  # one
        result = engine.find_one_weakly_smart(query, list(doc), deadline=deadline)
        blocks = [dsl.serialize_plan(result.hit.plan)] if result.hit else []
        if result.truncated:
            print(f"note: search truncated ({result.cause})", file=sys.stderr)
    blocks.sort()
    text = "\n".join(blocks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK if blocks else EXIT_NO_PLAN


def _cmd_check(args) -> int:
    doc = _load_catalog(args.functions)
    query = _parse_query(args.query, DEFAULT_CONSTANT)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = dsl.parse_plan(fh.read(), list(doc))
    if plan.constant != query.constant:
        query = AtomicQuery(query.relation, plan.constant)
    if args.level == "weak":
        verdict = characterize.is_weakly_smart(plan, query)
        passed = verdict
        label = "weakly smart" if verdict else "not weakly smart"
    else:
        verdict = characterize.is_smart(plan, query)
        passed = verdict.level == characterize.SMART
        label = verdict.level
    print(f"check: {label}")
    if args.oracle:
        if args.level == "weak":
            report = evaluate.oracle_is_weakly_smart(plan, query, budget=args.budget)
        else:
            report = evaluate.oracle_is_smart(plan, query, budget=args.budget)
        oracle_pass = report.verdict
        print(f"oracle: {'pass' if oracle_pass else 'fail'} ({report.instances_checked} instances)")
        if oracle_pass != passed:
            if report.witness is not None:
                print(f"witness: {report.witness}", file=sys.stderr)
            return EXIT_DISAGREEMENT
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_eval(args) -> int:
    doc = _load_catalog(args.functions)
    with open(args.instance, "r", encoding="utf-8") as fh:
        instance = dsl.parse_instance(fh.read(), source_name=args.instance)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = dsl.parse_plan(fh.read(), list(doc))
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
    p.add_argument("--max-plans", type=int, default=10000)
    p.add_argument("--timeout", type=float, default=0.0, help="seconds, 0 = none")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plans)

    p = sub.add_parser("check", help="check a plan's smartness level")
    p.add_argument("--functions", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--level", choices=["weak", "smart"], default="weak")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--budget", type=int, default=6)
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
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--timeout-ms", type=float, default=2000.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (dsl.ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except engine.EmptyCatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
