"""Text formats: the function-definition DSL, instance files, and plan files.

Catalog grammar (line oriented, ``#`` starts a comment):

    functionDef := NAME "=" atom ("." atom)* ("|" "out" INT+)?
    atom        := IDENT ("^-")?

Without an ``out`` clause only the last position is an output.  Instance
files hold one ``rel(subj, obj)`` fact per line; inverse atoms are rejected
there since facts are stored forward.  Plan files list calls, filters, and
the output variable; ``NAME[k]`` names the length-k prefix view of NAME and
``_`` skips an output position the call does not bind.  A plan that
parses has a semantics (``model.plan_semantics``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .model import (
    Atom,
    ExecutionPlan,
    FunctionCall,
    ModelError,
    MultiPivotError,
    PathFunction,
    SubFunction,
    plan_semantics,
)
from .evaluate import Fact, Instance


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}" if line else message)
        self.line = line
        self.column = column
        self.reason = message


class DuplicateNameError(ParseError):
    pass


class MultiPivotLoopError(ParseError):
    pass


class InverseFactError(ParseError):
    pass


class UnknownFunctionError(ParseError):
    pass


@dataclass(frozen=True)
class CatalogDocument:
    functions: tuple
    source_name: str

    def __iter__(self):
        return iter(self.functions)

    def __len__(self):
        return len(self.functions)


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>" + _NAME + r")(?P<inv>\^-)?|(?P<int>\d+)|(?P<punct>[=.|])|(?P<bad>\S))"
)


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _tokenize(line: str, lineno: int) -> List[tuple]:
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if not m:
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", lineno, m.start("bad") + 1)
        if m.group("name"):
            kind = "atom" if m.group("inv") else "name"
            tokens.append((kind, m.group("name") + (m.group("inv") or ""), m.start("name") + 1))
        elif m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int") + 1))
        else:
            tokens.append((m.group("punct"), m.group("punct"), m.start("punct") + 1))
        pos = m.end()
    return tokens


def parse_atom_text(text: str) -> Atom:
    if text.endswith("^-"):
        return Atom(text[:-2], True)
    return Atom(text)


def parse_catalog(text: str, source_name: str = "<catalog>") -> CatalogDocument:
    functions = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        tokens = _tokenize(line, lineno)
        if len(tokens) < 3 or tokens[0][0] not in ("name",) or tokens[1][0] != "=":
            raise ParseError("expected NAME = atom (. atom)* (| out INT+)?", lineno, 1)
        name = tokens[0][1]
        if name in names:
            raise DuplicateNameError(f"duplicate function name {name!r}", lineno, 1)
        idx = 2
        atoms = []
        expect_atom = True
        outputs: Optional[List[int]] = None
        while idx < len(tokens):
            kind, value, col = tokens[idx]
            if expect_atom:
                if kind not in ("name", "atom"):
                    raise ParseError("expected relation atom", lineno, col)
                atoms.append(parse_atom_text(value))
                expect_atom = False
                idx += 1
            elif kind == ".":
                expect_atom = True
                idx += 1
            elif kind == "|":
                idx += 1
                if idx >= len(tokens) or tokens[idx][1] != "out":
                    raise ParseError("expected 'out' after '|'", lineno, col)
                idx += 1
                outputs = []
                while idx < len(tokens):
                    kind2, value2, col2 = tokens[idx]
                    if kind2 != "int":
                        raise ParseError("expected output position", lineno, col2)
                    outputs.append(int(value2))
                    idx += 1
                if not outputs:
                    raise ParseError("empty output list", lineno, col)
            else:
                raise ParseError(f"unexpected token {value!r}", lineno, col)
        if expect_atom:
            raise ParseError("dangling '.'", lineno, len(line))
        if outputs is None:
            outputs = [len(atoms)]
        try:
            fn = PathFunction(name, tuple(atoms), tuple(outputs))
        except MultiPivotError as exc:
            raise MultiPivotLoopError(str(exc), lineno, 1) from exc
        except ModelError as exc:
            raise ParseError(str(exc), lineno, 1) from exc
        functions.append(fn)
        names.add(name)
    return CatalogDocument(tuple(functions), source_name)


def serialize_catalog(functions: Sequence[PathFunction]) -> str:
    lines = []
    for fn in functions:
        body = " . ".join(str(a) for a in fn.skeleton)
        if fn.outputs == (len(fn.skeleton),):
            lines.append(f"{fn.name} = {body}")
        else:
            outs = " ".join(str(p) for p in fn.outputs)
            lines.append(f"{fn.name} = {body} | out {outs}")
    return "\n".join(lines) + "\n"


_FACT_RE = re.compile(
    r"^\s*(" + _NAME + r")(\^-)?\s*\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)\s*$"
)


def parse_instance(text: str, source_name: str = "<instance>") -> Instance:
    facts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _FACT_RE.match(line)
        if not m:
            raise ParseError("expected rel(subject, object)", lineno, 1)
        rel, inv, subj, obj = m.groups()
        if inv:
            raise InverseFactError("inverse atoms are not allowed in fact files", lineno, 1)
        facts.append(Fact(rel, subj, obj))
    return Instance(facts)


def serialize_instance(instance: Instance) -> str:
    return "\n".join(sorted(str(f) for f in instance.facts)) + "\n"


_CALL_RE = re.compile(
    r"^call\s+(" + _NAME + r")(?:\[(\d+)\])?\s*\(\s*([^\s,()]+)\s*->\s*([^()]*)\)\s*$"
)
_FILTER_RE = re.compile(r"^filter\s+(" + _NAME + r")\s*=\s*([^\s]+)\s*$")
_OUTPUT_RE = re.compile(r"^output\s+(" + _NAME + r")\s*$")


def serialize_plan(plan: ExecutionPlan, note: str = "") -> str:
    lines = []
    if note:
        lines.append(f"# {note}")
    for call in plan.calls:
        cells = []
        bound = dict(zip(call.bind, call.outputs))
        for p in call.view.bindable:
            cells.append(bound.get(p, "_"))
        lines.append(f"call {call.view.name}({call.source} -> {', '.join(cells)})")
    for var, const in plan.filters:
        lines.append(f"filter {var} = {const}")
    lines.append(f"output {plan.output}")
    return "\n".join(lines) + "\n"


def parse_plan(text: str, catalog: Sequence[PathFunction]) -> ExecutionPlan:
    by_name = {fn.name: fn for fn in catalog}
    calls = []
    filters = []
    output = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _CALL_RE.match(line)
        if m:
            name, prefix, source, cells_text = m.groups()
            if name not in by_name:
                raise UnknownFunctionError(f"unknown function {name!r}", lineno, 1)
            parent = by_name[name]
            prefix_len = int(prefix) if prefix else len(parent.skeleton)
            try:
                view = SubFunction(parent, prefix_len)
            except ModelError as exc:
                raise ParseError(str(exc), lineno, 1) from exc
            cells = [c.strip() for c in cells_text.split(",")] if cells_text.strip() else []
            if len(cells) != len(view.bindable):
                raise ParseError(
                    f"{view.name} exposes {len(view.bindable)} outputs, got {len(cells)}",
                    lineno,
                    1,
                )
            bind = []
            outputs = []
            for p, cell in zip(view.bindable, cells):
                if cell == "_":
                    continue
                bind.append(p)
                outputs.append(cell)
            if not bind:
                raise ParseError("call binds no outputs", lineno, 1)
            calls.append(FunctionCall(view, source, tuple(bind), tuple(outputs)))
            continue
        m = _FILTER_RE.match(line)
        if m:
            filters.append((m.group(1), m.group(2)))
            continue
        m = _OUTPUT_RE.match(line)
        if m:
            output = m.group(1)
            continue
        raise ParseError("expected call/filter/output line", lineno, 1)
    if not calls:
        raise ParseError("plan has no calls")
    if output is None:
        raise ParseError("plan has no output line")
    plan = ExecutionPlan(tuple(calls), tuple(filters), output)
    try:
        plan_semantics(plan)
    except ModelError as exc:
        raise ParseError(str(exc)) from exc
    return plan
