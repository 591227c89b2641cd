"""AIG optimisation passes: balance, rewrite, refactor.

These passes play the role of the ABC commands of the same names that the
paper's synthesis script uses.  Each pass is functional: it consumes an AIG
and returns a new, compacted AIG.

* :func:`balance` rebuilds maximal AND trees as balanced trees (with
  structural hashing this also merges duplicated subtrees).
* :func:`rewrite` enumerates 4-input cuts per node, resynthesises the cut
  function through ISOP + algebraic factoring, and accepts the replacement
  when the resynthesised cone is smaller than the logic it frees (the
  maximum fanout-free cone bounded by the cut).
* :func:`refactor` does the same with a single, larger cone per node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..logic.expr import Expression
from ..logic.factoring import factor_table
from ..logic.truthtable import TruthTable
from .aig import FALSE_LIT, TRUE_LIT, Aig, is_complemented, negate, node_of
from .build import build_expression
from .cuts import collect_cone_cut, enumerate_cuts, mffc_size, simulate_cone

__all__ = ["balance", "rewrite", "refactor", "strash", "apply_pass", "known_passes"]


def strash(aig: Aig) -> Aig:
    """Re-hash the AIG (removes dead and duplicate nodes)."""
    return aig.compact()


def apply_pass(aig: Aig, pass_name: str) -> Aig:
    """Apply a named optimisation pass (the registry behind the schedulers)."""
    try:
        return _PASS_REGISTRY[pass_name](aig)
    except KeyError:
        raise ValueError(f"unknown synthesis pass {pass_name!r}") from None


def known_passes() -> List[str]:
    """Names of every registered optimisation pass, in canonical order."""
    return list(_PASS_REGISTRY)


def balance(aig: Aig) -> Aig:
    """Rebuild maximal AND trees as balanced trees."""
    result = Aig(aig.name)
    mapping: Dict[int, int] = {0: FALSE_LIT}
    for index in range(aig.num_inputs):
        node = node_of(aig.input_literal(index))
        mapping[node] = result.add_input(aig.input_names[index])

    reference = aig.reference_counts()
    level_cache: Dict[int, int] = {0: 0}

    def _level_of(literal: int) -> int:
        """Logic level of a node in the new AIG (memoised; AIG is append-only)."""
        node = node_of(literal)
        cached = level_cache.get(node)
        if cached is not None:
            return cached
        if result.is_and_node(node):
            fanin0, fanin1 = result.fanins(node)
            value = 1 + max(_level_of(fanin0), _level_of(fanin1))
        else:
            value = 0
        level_cache[node] = value
        return value

    def _map_literal(literal: int) -> int:
        mapped = mapping[node_of(literal)]
        return negate(mapped) if is_complemented(literal) else mapped

    def _collect_tree(literal: int, root: bool) -> List[int]:
        """Collect the leaves of the maximal single-fanout AND tree under ``literal``."""
        node = node_of(literal)
        if (
            is_complemented(literal)
            or not aig.is_and_node(node)
            or (not root and reference.get(node, 0) > 1)
        ):
            return [literal]
        fanin0, fanin1 = aig.fanins(node)
        return _collect_tree(fanin0, False) + _collect_tree(fanin1, False)

    for node in aig.and_nodes():
        leaves = _collect_tree(Aig.lit(node), True)
        mapped_leaves = [_map_literal(leaf) for leaf in leaves]
        # Sort by level in the new AIG so the tree is balanced by arrival time.
        mapped_leaves.sort(key=_level_of)
        mapping[node] = result.and_many(mapped_leaves)

    for literal, name in zip(aig.outputs, aig.output_names):
        result.add_output(_map_literal(literal), name)
    return result.compact()


#: (num_vars, bits) -> (factored expression, AND-node cost).  Algebraic
#: factoring through ISOP is the single most expensive step of the rewrite
#: and refactor passes, and the same small cut functions recur across every
#: pass invocation and every Phase II genotype evaluation, so the cache is a
#: process-wide singleton rather than per-pass state.  Expressions are
#: immutable, making sharing safe; the bound keeps memory in check.
_FACTORED_FORM_CACHE: Dict[Tuple[int, int], Tuple[Expression, int]] = {}
_FACTORED_FORM_CACHE_LIMIT = 1 << 16


def clear_factored_form_cache() -> None:
    """Drop the global factored-form cache (mainly for tests/benchmarks)."""
    _FACTORED_FORM_CACHE.clear()


def factored_form_cache_size() -> int:
    """Number of memoised factored forms currently held."""
    return len(_FACTORED_FORM_CACHE)


class _Resynthesizer:
    """Shared machinery: resynthesise a cut function and estimate its cost."""

    def factored_form(self, num_vars: int, bits: int) -> Tuple[Expression, int]:
        """Return the factored expression of a packed table and its AND-node cost."""
        key = (num_vars, bits)
        cached = _FACTORED_FORM_CACHE.get(key)
        if cached is not None:
            return cached
        expression = factor_table(TruthTable(num_vars, bits))
        cost = self._count_cost(expression, num_vars)
        if len(_FACTORED_FORM_CACHE) >= _FACTORED_FORM_CACHE_LIMIT:
            _FACTORED_FORM_CACHE.clear()
        _FACTORED_FORM_CACHE[key] = (expression, cost)
        return expression, cost

    @staticmethod
    def _count_cost(expression: Expression, num_vars: int) -> int:
        scratch = Aig("scratch")
        literals = {f"x{index}": scratch.add_input() for index in range(num_vars)}
        output = build_expression(scratch, expression, literals)
        scratch.add_output(output)
        return scratch.num_live_ands()


def rewrite(
    aig: Aig,
    max_leaves: int = 4,
    max_cuts_per_node: int = 8,
    zero_gain: bool = False,
) -> Aig:
    """Cut-based resynthesis (the ABC ``rewrite`` analogue)."""
    cuts = enumerate_cuts(aig, max_leaves=max_leaves, max_cuts_per_node=max_cuts_per_node)
    plans = _plan_replacements(aig, cuts, zero_gain)
    return _rebuild(aig, plans)


def refactor(
    aig: Aig,
    max_leaves: int = 8,
    zero_gain: bool = False,
) -> Aig:
    """Cone-based resynthesis (the ABC ``refactor`` analogue)."""
    cone_cuts: Dict[int, List] = {}
    for node in aig.and_nodes():
        cut = collect_cone_cut(aig, node, max_leaves)
        if len(cut) >= 2 and cut != frozenset({node}):
            cone_cuts[node] = [frozenset({node}), cut]
        else:
            cone_cuts[node] = [frozenset({node})]
    plans = _plan_replacements(aig, cone_cuts, zero_gain)
    return _rebuild(aig, plans)


def _rewrite_z(aig: Aig) -> Aig:
    return rewrite(aig, zero_gain=True)


def _refactor_z(aig: Aig) -> Aig:
    return refactor(aig, zero_gain=True)


#: Canonical pass registry.  The scheduler layer in :mod:`repro.synth.script`
#: draws its arms from here; adding a pass makes it schedulable everywhere.
_PASS_REGISTRY = {
    "balance": balance,
    "rewrite": rewrite,
    "rewrite-z": _rewrite_z,
    "refactor": refactor,
    "refactor-z": _refactor_z,
}


def _plan_replacements(
    aig: Aig,
    cuts: Dict[int, List],
    zero_gain: bool,
) -> Dict[int, Tuple[Expression, List[int]]]:
    """Select, per node, the best resynthesis (if any improves on the MFFC)."""
    resynthesizer = _Resynthesizer()
    reference = aig.reference_counts()
    plans: Dict[int, Tuple[Expression, List[int]]] = {}
    minimum_gain = 0 if zero_gain else 1
    for node in aig.and_nodes():
        best_gain = minimum_gain - 1
        best_plan: Optional[Tuple[Expression, List[int]]] = None
        for cut in cuts.get(node, []):
            if len(cut) < 2 or node in cut:
                continue
            leaves = sorted(cut)
            bits, cone_ands = simulate_cone(aig, node, leaves)
            expression, cost = resynthesizer.factored_form(len(leaves), bits)
            # The MFFC lies inside the cut-bounded cone, so a cut whose whole
            # cone cannot beat the best gain is skipped before the MFFC walk.
            if cone_ands - cost <= best_gain:
                continue
            gain = mffc_size(aig, node, cut, reference) - cost
            if gain > best_gain:
                best_gain = gain
                best_plan = (expression, leaves)
        if best_plan is not None:
            plans[node] = best_plan
    return plans


def _rebuild(aig: Aig, plans: Dict[int, Tuple[Expression, List[int]]]) -> Aig:
    """Rebuild the AIG applying the chosen per-node resyntheses."""
    result = Aig(aig.name)
    mapping: Dict[int, int] = {0: FALSE_LIT}
    for index in range(aig.num_inputs):
        node = node_of(aig.input_literal(index))
        mapping[node] = result.add_input(aig.input_names[index])

    def _map_literal(literal: int) -> int:
        mapped = mapping[node_of(literal)]
        return negate(mapped) if is_complemented(literal) else mapped

    for node in aig.and_nodes():
        plan = plans.get(node)
        if plan is None:
            fanin0, fanin1 = aig.fanins(node)
            mapping[node] = result.and_(_map_literal(fanin0), _map_literal(fanin1))
            continue
        expression, leaves = plan
        literals = {f"x{index}": mapping[leaf] for index, leaf in enumerate(leaves)}
        mapping[node] = build_expression(result, expression, literals)

    for literal, name in zip(aig.outputs, aig.output_names):
        result.add_output(_map_literal(literal), name)
    return result.compact()
