"""The four workloads: corpus built from the seed, timed rounds, checks.

A workload's corpus is a list of rounds (one catalog, or one block of
oracle plans).  ``run_round`` performs the round's ops and returns one
``Op`` per op with its own latency; only that call is timed.  ``check``
runs afterwards, untimed, and marks failed ops.

Every call into pathplan goes through the module attribute
(``engine.enumerate_minimal_smart``, ``cli.main``, ...), so the tracer's
rebinding sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import time
from dataclasses import dataclass, field

from pathplan import characterize, cli, dsl, engine, evaluate, model, synth
from pathplan.model import Atom, AtomicQuery, ExecutionPlan, PathFunction, SubFunction

# Far above the slowest single query seen (about 2.4 s), so the answers do
# not depend on the speed of the machine; any timeout is a failed op.
SWEEP_TIMEOUT_MS = 120_000.0

# Oracle settings of the acceptance suite's criterion 2.
ORACLE_BUDGET = dict(budget=6, max_instances=3000)
# Cheaper setting for the per-run sample of emitted plans: the canonical
# database, all its subsets, 300 exhaustive and 200 random instances.
SAMPLE_BUDGET = dict(budget=6, max_instances=300)

FIG1_GOLDEN = {
    "smart": (
        "call getCompany(a -> v0)\n"
        "call getHierarchy(v0 -> v1, v2)\n"
        "filter v1 = a\n"
        "output v2\n"
    ),
    "weak": (
        "call getCompany(a -> v0)\n"
        "call getHierarchy(v0 -> _, v1)\n"
        "output v1\n"
    ),
}


@dataclass
class Op:
    round: int
    kind: str
    query: str = ""
    start: float = 0.0  # perf_counter seconds
    end: float = 0.0
    error: str = ""
    data: object = None
    failure: str = ""
    pass_no: int = 0
    ms: float = 0.0  # net of the speed gauge's timings and scaled; set by run.py


@dataclass
class Round:
    label: str
    payload: object


@dataclass
class CheckReport:
    correct: bool = True
    notes: list = field(default_factory=list)
    digest: str = ""

    def violated(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)


def _timed(fn, *args, **kwargs):
    """The result, the start and end times, and the error of one call."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs), start, time.perf_counter(), ""
    except Exception as exc:  # a failed op is counted, not fatal
        return None, start, time.perf_counter(), f"{type(exc).__name__}: {exc}"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in sorted(set(lines)):
        h.update(line.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _queries(functions):
    return [q for base in synth.vocabulary(functions) for q in (base, base + "^-")]


def _atomic(text: str) -> AtomicQuery:
    return AtomicQuery(dsl.parse_atom_text(text), "a")


def _sample(keys, seed: int, count: int):
    """A seed-keyed, deterministic choice of ``count`` keys."""
    ranked = sorted(keys, key=lambda k: hashlib.sha256(f"{seed}|{k}".encode()).digest())
    return ranked[:count]


def _oracle_holds(kind: str, plan, query, budget) -> bool:
    if kind == "smart":
        return evaluate.oracle_is_smart(plan, query, **budget).verdict
    return evaluate.oracle_is_weakly_smart(plan, query, **budget).verdict


class Workload:
    name = ""
    tail_pct = 99.0
    trace_stride = 1

    def build(self, seed: int, workdir: str) -> list:
        raise NotImplementedError

    def run_round(self, index: int, rnd: Round) -> list:
        raise NotImplementedError

    def check(self, rounds: list, ops: list, seed: int) -> CheckReport:
        raise NotImplementedError


# -- enum-small -----------------------------------------------------------------


class EnumSmall(Workload):
    """The item-1 differential corpus through the CLI, plus the sweep.

    The catalogs are the upper half of the differential corpus: t from 150
    to 299, which holds its three known disagreements, and the four demo
    catalogs.  The seed orders the catalogs.
    """

    name = "enum-small"
    tail_pct = 99.0
    trace_stride = 2
    first, last = 150, 300
    oracle_sample = 120

    def __init__(self, root: str):
        self.root = root

    def build(self, seed, workdir):
        rounds = []
        for name in ("fig1", "music", "real_sample", "susie_miss"):
            path = os.path.join(self.root, "demo", f"{name}.cat")
            with open(path, encoding="utf-8") as fh:
                functions = list(dsl.parse_catalog(fh.read(), source_name=path))
            rounds.append(Round(f"demo/{name}", (path, functions)))
        for t in range(self.first, self.last):
            cfg = synth.SynthConfig(2 + t % 3, 3 + t % 5, 3, seed=20_000 + t)
            functions = synth.gen_catalog(cfg)
            path = os.path.join(workdir, f"c{t}.cat")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dsl.serialize_catalog(functions))
            rounds.append(Round(f"seed={cfg.seed}", (path, functions)))
        random.Random(seed).shuffle(rounds)
        return rounds

    def run_round(self, index, rnd):
        path, functions = rnd.payload
        ops = []
        for q in _queries(functions):
            for mode in ("weak", "smart", "one"):
                out, err = io.StringIO(), io.StringIO()
                argv = ["plans", "--functions", path, "--query", q, "--mode", mode]
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code, start, end, error = _timed(cli.main, argv)
                if not error and code not in (cli.EXIT_OK, cli.EXIT_NO_PLAN):
                    error = f"exit {code}: {err.getvalue().strip()}"
                ops.append(Op(index, mode, q, start, end, error, (code, out.getvalue())))
        point, start, end, error = _timed(
            synth.answered_fractions, functions, timeout_ms=SWEEP_TIMEOUT_MS
        )
        ops.append(Op(index, "sweep", "", start, end, error, point))
        return ops

    def check(self, rounds, ops, seed):
        report = CheckReport()
        by_round = {}
        for op in ops:
            by_round.setdefault((op.pass_no, op.round), []).append(op)
        plans = {}  # (round, query, kind, text) -> ops that emitted it
        digest = []
        for (_, index), round_ops in by_round.items():
            rnd = rounds[index]
            functions = rnd.payload[1]
            answers = {}  # query -> mode -> list of plan texts
            for op in round_ops:
                if op.kind == "sweep" or op.error:
                    continue
                text = op.data[1]
                blocks = [b if b.endswith("\n") else b + "\n" for b in text.split("\n\n") if b]
                answers.setdefault(op.query, {})[op.kind] = blocks
                for block in blocks:
                    kind = "smart" if op.kind == "smart" else "weak"
                    plans.setdefault((index, op.query, kind, block), []).append(op)
                    digest.append(f"{rnd.label}|{op.query}|{op.kind}|{block}")
            if rnd.label == "demo/fig1":
                for mode, golden in FIG1_GOLDEN.items():
                    got = "".join(answers.get("jobTitle", {}).get(mode, []))
                    if got != golden:
                        report.violated(f"fig1 {mode} output differs from the golden text")
            self._existence(rnd, functions, round_ops, answers)
        self._oracle_sample(rounds, plans, seed, report)
        report.digest = _digest(digest)
        return report

    def _existence(self, rnd, functions, round_ops, answers):
        """Cross-check existence between find-one, weak and smart
        enumeration, and the sweep's fractions."""
        ops = {(op.query, op.kind): op for op in round_ops}

        def confirmed(query, kind, mode, blocks):
            """Oracle verdict on the first plan ``mode`` emitted; a refuted
            plan fails the op that emitted it."""
            plan = dsl.parse_plan(blocks[0], functions)
            if _oracle_holds(kind, plan, _atomic(query), ORACLE_BUDGET):
                return True
            ops[(query, mode)].failure = f"oracle refutes {_plan_names(blocks[0])}"
            return False

        for query, got in answers.items():
            weak, smart, one = got.get("weak"), got.get("smart"), got.get("one")
            if None in (weak, smart, one):
                continue  # an op raised and is failed already
            if weak and not one and confirmed(query, "weak", "weak", weak):
                ops[(query, "one")].failure = f"find-one missed {_plan_names(weak[0])}"
            if one and not weak and confirmed(query, "weak", "one", one):
                ops[(query, "weak")].failure = "weak enumeration missed the find-one plan"
            if smart and not weak and confirmed(query, "smart", "smart", smart):
                ops[(query, "weak")].failure = "weak enumeration missed a smart plan"
        sweep = ops.get(("", "sweep"))
        if sweep is None or sweep.error:
            return
        point = sweep.data
        if point.timeouts:
            sweep.failure = f"{point.timeouts} timeouts"
            return
        queries = _queries(functions)
        n = len(queries)
        expected = {
            "weaklySmart": sum(bool(answers.get(q, {}).get("weak")) for q in queries) / n,
            "smart": sum(bool(answers.get(q, {}).get("smart")) for q in queries) / n,
        }
        wrong = []
        for approach, value in expected.items():
            if abs(point.fractions[approach] - value) > 1e-9:
                wrong.append(
                    f"{approach} {point.fractions[approach]:.3f} vs plans {value:.3f}"
                    f" ({', '.join(self._suspects(approach, functions, answers))})"
                )
        if wrong:
            sweep.failure = "sweep disagrees with plans: " + "; ".join(wrong)

    @staticmethod
    def _suspects(approach, functions, answers):
        """The queries on which the sweep's existence check and the plans
        enumeration disagree."""
        out = []
        for q in _queries(functions):
            if approach == "smart":
                listed = bool(answers.get(q, {}).get("smart"))
                found = synth.smart_plan_exists(_atomic(q), functions)
            else:
                listed = bool(answers.get(q, {}).get("weak"))
                found = engine.find_one_weakly_smart(_atomic(q), functions).hit is not None
            if listed != found:
                out.append(f"{q}: sweep {'yes' if found else 'no'}")
        return out

    def _oracle_sample(self, rounds, plans, seed, report):
        keys = {k: "|".join(map(str, k)) for k in plans}
        chosen = set(_sample(list(keys.values()), seed, self.oracle_sample))
        for key, emitted_by in plans.items():
            if keys[key] not in chosen:
                continue
            index, query, kind, block = key
            plan = dsl.parse_plan(block, rounds[index].payload[1])
            if not _oracle_holds(kind, plan, _atomic(query), SAMPLE_BUDGET):
                for op in emitted_by:
                    op.failure = f"oracle refutes emitted plan {_plan_names(block)}"
        report.notes.append(
            f"oracle checked {len(chosen)} of {len(plans)} distinct emitted plans"
        )


def _plan_names(block: str) -> str:
    """Call names of a serialized plan, joined by dots, plus its filters."""
    names, filters = [], []
    for line in block.splitlines():
        if line.startswith("call "):
            names.append(line[5:].split("(", 1)[0])
        elif line.startswith("filter "):
            filters.append(line[7:])
    text = ".".join(names)
    return text + (f" [{', '.join(filters)}]" if filters else "")


# -- smart-dense ----------------------------------------------------------------


def _criterion5_bodies():
    atoms = [Atom("r"), Atom("r", True), Atom("s"), Atom("s", True)]
    bodies = [(a,) for a in atoms]
    bodies += [(a, b) for a in atoms for b in atoms if b != a.invert()]
    return bodies


class SmartDense(Workload):
    """Smart enumeration over catalogs whose every position is an output.

    The corpus is the exhaustive part of the acceptance suite's criterion-5
    corpus: every catalog of one to three bodies of length at most two over
    r and s.  The seed orders the catalogs.
    """

    name = "smart-dense"
    tail_pct = 99.8
    trace_stride = 1
    oracle_sample = 60

    def build(self, seed, workdir):
        bodies = _criterion5_bodies()
        selections = [
            combo
            for size in (1, 2, 3)
            for combo in itertools.combinations(range(len(bodies)), size)
        ]
        random.Random(seed).shuffle(selections)
        rounds = []
        for combo in selections:
            functions = [
                PathFunction(f"f{i}", bodies[b], tuple(range(1, len(bodies[b]) + 1)))
                for i, b in enumerate(combo)
            ]
            label = "+".join(".".join(map(str, bodies[b])) for b in combo)
            rounds.append(Round(label, functions))
        return rounds

    def run_round(self, index, rnd):
        ops = []
        for q in ("r", "r^-", "s", "s^-"):
            hits, start, end, error = _timed(
                engine.enumerate_minimal_smart, _atomic(q), rnd.payload
            )
            ops.append(Op(index, "smart", q, start, end, error, hits))
        return ops

    def check(self, rounds, ops, seed):
        report = CheckReport()
        plans = {}
        digest = []
        for op in ops:
            if op.error:
                continue
            functions = rounds[op.round].payload
            query = _atomic(op.query)
            susie = engine.susie_plans(query, functions)
            if bool(op.data) != bool(susie):
                report.violated(
                    f"{rounds[op.round].label} {op.query}: {len(op.data)} smart plans,"
                    f" {len(susie)} Susie plans"
                )
                if susie and _oracle_holds("smart", susie[0].plan, query, ORACLE_BUDGET):
                    op.failure = "missed an oracle-confirmed Susie plan"
            for hit in op.data:
                text = dsl.serialize_plan(hit.plan)
                plans.setdefault((op.round, op.query, text), (hit.plan, []))[1].append(op)
                digest.append(f"{rounds[op.round].label}|{op.query}|{text}")
        keys = {k: "|".join(map(str, k)) for k in plans}
        chosen = set(_sample(list(keys.values()), seed, self.oracle_sample))
        for key, (plan, emitted_by) in plans.items():
            if keys[key] in chosen and not _oracle_holds(
                "smart", plan, _atomic(key[1]), SAMPLE_BUDGET
            ):
                for op in emitted_by:
                    op.failure = f"oracle refutes emitted plan {_plan_names(key[2])}"
        report.notes.append(
            f"oracle checked {len(chosen)} of {len(plans)} distinct emitted plans"
        )
        report.digest = _digest(digest)
        return report


# -- sweep-heavy ------------------------------------------------------------------


class SweepHeavy(Workload):
    """The heavy sweep point: 4 relations x 30 functions, catalog seeds
    0-9.  The seed orders the catalogs."""

    name = "sweep-heavy"
    tail_pct = 93.0
    trace_stride = 1
    catalogs = 10

    def build(self, seed, workdir):
        order = list(range(self.catalogs))
        random.Random(seed).shuffle(order)
        return [
            Round(f"seed={s}", synth.gen_catalog(synth.SynthConfig(4, 30, 3, seed=s)))
            for s in order
        ]

    def run_round(self, index, rnd):
        point, start, end, error = _timed(
            synth.answered_fractions, rnd.payload, timeout_ms=SWEEP_TIMEOUT_MS
        )
        if error:
            return [Op(index, "sweep", q, start, end, error) for q in _queries(rnd.payload)]
        # One op per query: its four existence checks, as timed by
        # answered_fractions itself, which runs the queries one after the
        # other from ``start``.
        ops = []
        for i, q in enumerate(_queries(rnd.payload)):
            spent = sum(point.millis[a][i] for a in synth.APPROACHES) / 1000.0
            slow = [a for a in synth.APPROACHES if point.millis[a][i] > SWEEP_TIMEOUT_MS]
            failure = f"timeout: {slow}" if slow else ""
            ops.append(Op(index, "sweep", q, start, start + spent, "", point, failure))
            start += spent
        if point.timeouts and not any(op.failure for op in ops):
            for op in ops:  # an exception booked as a timeout
                op.failure = f"{point.timeouts} timeouts"
        return ops

    def check(self, rounds, ops, seed):
        report = CheckReport()
        digest = []
        seen = set()
        for op in ops:
            if op.error or op.round in seen:
                continue
            seen.add(op.round)
            f = op.data.fractions
            label = rounds[op.round].label
            if not (f["eqRewriting"] <= f["smart"] + 1e-9 <= f["weaklySmart"] + 2e-9):
                report.violated(f"{label}: eqRewriting <= smart <= weaklySmart fails: {f}")
            if f["susie"] > f["smart"] + 1e-9:
                report.violated(f"{label}: susie > smart: {f}")
            digest.append(f"{label}|" + ",".join(f"{a}={f[a]:.6f}" for a in synth.APPROACHES))
        report.digest = _digest(digest)
        return report


# -- oracle ----------------------------------------------------------------------


def chained_plan_cases():
    """The acceptance suite's criterion-2 plans: every skeleton of up to 4
    atoms over r and s, split into calls every legal way, with its filter
    variants."""
    atoms = [Atom("r"), Atom("r", True), Atom("s"), Atom("s", True)]
    seen = set()
    plans = []
    for length in range(1, 5):
        for skeleton in itertools.product(atoms, repeat=length):
            for cuts in itertools.product([False, True], repeat=length - 1):
                bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [length]
                segments = [tuple(skeleton[a:b]) for a, b in zip(bounds, bounds[1:])]
                try:
                    fns = [
                        PathFunction(f"f{i}", seg, tuple(range(1, len(seg) + 1)))
                        for i, seg in enumerate(segments)
                    ]
                except model.MultiPivotError:
                    continue
                key = tuple(f.skeleton for f in fns)
                if key in seen:
                    continue
                seen.add(key)
                plans.extend(_filter_variants(fns))
    return plans


def _filter_variants(fns):
    views = [SubFunction(f, len(f)) for f in fns]
    base = model.chain_plan(views, "a")
    variants = [base]
    if len(base.calls[-1].view) >= 2:
        two = model.chain_plan(views, "a", two_output_last=True)
        pair = two.calls[-1].outputs
        variants.append(ExecutionPlan(two.calls, ((pair[0], "a"),), pair[1]))
        variants.append(ExecutionPlan(two.calls, ((pair[1], "a"),), pair[0]))
        variants.append(ExecutionPlan(two.calls, ((pair[0], "b"),), pair[1]))
    else:
        out_var = base.calls[-1].outputs[-1]
        variants.append(ExecutionPlan(base.calls, ((out_var, "a"),), out_var))
        if len(base.calls) >= 2:
            prev = base.calls[-2].outputs[-1]
            variants.append(ExecutionPlan(base.calls, ((prev, "a"),), base.output))
            variants.append(ExecutionPlan(base.calls, ((prev, "b"),), base.output))
    return variants


class Oracle(Workload):
    """Characterization against the brute-force oracles, plan by plan."""

    name = "oracle"
    tail_pct = 99.8
    trace_stride = 2
    block = 24

    def build(self, seed, workdir):
        plans = chained_plan_cases()
        order = list(range(len(plans)))
        random.Random(seed).shuffle(order)
        return [
            Round(f"block{i // self.block}", [(k, plans[k]) for k in order[i : i + self.block]])
            for i in range(0, len(order), self.block)
        ]

    def run_round(self, index, rnd):
        query = AtomicQuery(Atom("r"), "a")
        ops = []
        for number, plan in rnd.payload:
            verdicts, start, end, error = _timed(self._verdicts, plan, query)
            ops.append(Op(index, "plan", str(number), start, end, error, verdicts))
        return ops

    @staticmethod
    def _verdicts(plan, query):
        return (
            characterize.is_weakly_smart(plan, query),
            characterize.is_smart(plan, query).level == characterize.SMART,
            evaluate.oracle_is_weakly_smart(plan, query, **ORACLE_BUDGET).verdict,
            evaluate.oracle_is_smart(plan, query, **ORACLE_BUDGET).verdict,
        )

    def check(self, rounds, ops, seed):
        report = CheckReport()
        digest = []
        for op in ops:
            if op.error:
                continue
            weak, smart, oracle_weak, oracle_smart = op.data
            if weak != oracle_weak or smart != oracle_smart:
                op.failure = f"characterize {(weak, smart)} vs oracle {(oracle_weak, oracle_smart)}"
                report.violated(f"plan #{op.query}: {op.failure}")
            digest.append(f"{op.query}|{op.data}")
        report.digest = _digest(digest)
        return report


def make(name: str, root: str) -> Workload:
    table = {
        "enum-small": lambda: EnumSmall(root),
        "smart-dense": SmartDense,
        "sweep-heavy": SweepHeavy,
        "oracle": Oracle,
    }
    return table[name]()
