"""Query rewriting over path views with binding patterns.

Given an atomic query and a catalog of path-shaped view functions, this
package enumerates the minimal plans that are guaranteed to deliver the
query's answers (smart plans) or at least one of them (weakly smart plans)
whenever their calls succeed, without assuming any integrity constraints,
and verifies those guarantees with executable oracles.
"""

from .model import (
    Atom,
    AtomicQuery,
    ExecutionPlan,
    FunctionCall,
    PathFunction,
    PathSemantics,
    SubFunction,
    catalog_closure,
    chain_plan,
    derive_sub_functions,
    plan_semantics,
    reverse_skeleton,
    skeleton_text,
    sub_function_transformation,
    validate_plan,
)
from .characterize import (
    Verdict,
    find_walk,
    is_bounded,
    is_smart,
    is_weakly_smart,
    is_well_filtering,
    weakly_smart_semantics,
    weakly_smart_skeleton,
)
from .engine import (
    BoundEstimate,
    EmptyCatalogError,
    Hit,
    Hits,
    bound_estimate,
    enumerate_minimal_smart,
    enumerate_minimal_weakly_smart,
    find_one_weakly_smart,
    has_trivial_equivalent_rewriting,
    smart_plan_exists,
    susie_plans,
)
from .evaluate import (
    Fact,
    Instance,
    call_function,
    canonical_weak_database,
    eval_plan,
    oracle_is_smart,
    oracle_is_weakly_smart,
    query_answers,
)
from .synth import SynthConfig, answered_fractions, gen_catalog, sweep

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
