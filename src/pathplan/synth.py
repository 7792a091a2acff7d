"""Synthetic catalog generation and the answered-queries sweep.

Catalogs are random path functions over oriented relation atoms, every
position existential except the last.  For each oriented relation the sweep
asks whether an equivalent rewriting, a Susie plan, a smart plan, or a
weakly smart plan exists, and records per-query runtimes.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .engine import (
    find_one_weakly_smart,
    has_trivial_equivalent_rewriting,
    smart_plan_exists,
    susie_plans,
)
from .model import Atom, AtomicQuery, PathFunction, pivot_positions

APPROACHES = ("eqRewriting", "susie", "smart", "weaklySmart")


class SplitMix64:
    """Tiny portable 64-bit generator (splitmix64), so catalogs reproduce
    across implementations regardless of the host RNG."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n


@dataclass(frozen=True)
class SynthConfig:
    relation_count: int
    function_count: int
    max_length: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.relation_count < 1 or self.function_count < 1 or self.max_length < 1:
            raise ValueError("counts and max_length must be positive")


def gen_catalog(cfg: SynthConfig) -> List[PathFunction]:
    """Deterministic random catalog; output position is always the last.

    Bodies with more than one x.x^- pivot are resampled, since the plan
    search splits a body at a unique pivot.
    """
    rng = SplitMix64(cfg.seed)
    atoms = [Atom(f"r{i}") for i in range(1, cfg.relation_count + 1)]
    atoms += [a.invert() for a in atoms]
    catalog = []
    for i in range(cfg.function_count):
        while True:
            length = 1 + rng.below(cfg.max_length)
            skeleton = tuple(atoms[rng.below(len(atoms))] for _ in range(length))
            if len(pivot_positions(skeleton)) <= 1:
                break
        catalog.append(PathFunction(f"f{i + 1}", skeleton, (length,)))
    return catalog


@dataclass
class PointResult:
    fractions: Dict[str, float]
    millis: Dict[str, List[float]] = field(default_factory=dict)
    timeouts: int = 0


def vocabulary(catalog: Sequence[PathFunction]) -> List[str]:
    names = {a.base for f in catalog for a in f.skeleton}
    return sorted(names)


def answered_fractions(
    catalog: Sequence[PathFunction],
    constant: str = "a",
    timeout_ms: float = 2000.0,
) -> PointResult:
    """For every oriented relation in the catalog's vocabulary, run each
    approach's existence check and record fractions and runtimes.

    A check that runs past ``timeout_ms`` counts as a timeout; its search
    stops at the deadline and its answer so far is kept.  Errors propagate.
    """
    queries = []
    for base in vocabulary(catalog):
        queries.append(AtomicQuery(Atom(base), constant))
        queries.append(AtomicQuery(Atom(base, True), constant))
    counts = {a: 0 for a in APPROACHES}
    millis = {a: [] for a in APPROACHES}
    timeouts = 0
    for query in queries:
        for approach in APPROACHES:
            start = time.monotonic()
            deadline = start + timeout_ms / 1000.0
            if approach == "eqRewriting":
                answered = has_trivial_equivalent_rewriting(query, catalog)
            elif approach == "susie":
                answered = bool(susie_plans(query, catalog))
            elif approach == "smart":
                answered = smart_plan_exists(query, catalog, deadline)
            else:
                answered = bool(find_one_weakly_smart(query, catalog, deadline=deadline))
            elapsed = (time.monotonic() - start) * 1000.0
            if elapsed > timeout_ms:
                timeouts += 1
            counts[approach] += 1 if answered else 0
            millis[approach].append(elapsed)
    total = len(queries) or 1
    fractions = {a: counts[a] / total for a in APPROACHES}
    return PointResult(fractions, millis, timeouts)


@dataclass
class SweepRow:
    axis_value: int
    approach: str
    fraction: float
    median_ms: float
    p95_ms: float


@dataclass
class SweepResult:
    axis: str
    rows: List[SweepRow]
    timeouts: int
    query_count: int


def _mix_seed(seed: int, point: int) -> int:
    return SplitMix64((seed << 20) ^ point).next_u64()


def sweep(
    axis: str,
    fixed: int,
    values: Sequence[int],
    seeds: int = 20,
    max_length: int = 3,
    timeout_ms: float = 2000.0,
) -> SweepResult:
    """Average answered fractions over seeds at each axis point."""
    if axis not in ("relations", "functions"):
        raise ValueError("axis must be 'relations' or 'functions'")
    if not values:
        raise ValueError("empty sweep range")
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    rows = []
    timeouts = 0
    query_count = 0
    for value in values:
        merged = {a: [] for a in APPROACHES}
        millis = {a: [] for a in APPROACHES}
        counts = (value, fixed) if axis == "relations" else (fixed, value)
        for seed in range(seeds):
            cfg = SynthConfig(*counts, max_length, seed=_mix_seed(seed, value))
            res = answered_fractions(gen_catalog(cfg), timeout_ms=timeout_ms)
            timeouts += res.timeouts
            query_count += len(res.millis["weaklySmart"])
            for a in APPROACHES:
                merged[a].append(res.fractions[a])
                millis[a].extend(res.millis[a])
        for a in APPROACHES:
            avg = sum(merged[a]) / len(merged[a])
            med = statistics.median(millis[a]) if millis[a] else 0.0
            p95 = sorted(millis[a])[int(0.95 * (len(millis[a]) - 1))] if millis[a] else 0.0
            rows.append(SweepRow(value, a, avg, med, p95))
    return SweepResult(axis, rows, timeouts, query_count)


def sweep_csv(result: SweepResult) -> str:
    lines = ["axisValue,approach,fractionAnswered,medianMs,p95Ms"]
    for row in result.rows:
        lines.append(
            f"{row.axis_value},{row.approach},{row.fraction:.6f},"
            f"{row.median_ms:.3f},{row.p95_ms:.3f}"
        )
    return "\n".join(lines) + "\n"
