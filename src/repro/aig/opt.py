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

from typing import Dict, Iterable, List, Optional, Tuple

from ..logic.factoring import AND, FactoredForm, factored_form
from .aig import FALSE_LIT, TRUE_LIT, Aig
from .cuts import CutRecord, collect_cone_cut, mffc_size, sweep_cuts, walked_cut

__all__ = ["balance", "rewrite", "refactor", "strash", "apply_pass", "known_passes"]


def strash(aig: Aig) -> Aig:
    """Compact the AIG: drop the nodes no output reaches.

    Structural hashing at construction already keeps duplicate nodes out.
    """
    return aig.compact()


def apply_pass(aig: Aig, pass_name: str) -> Aig:
    """Apply a named optimisation pass (the registry behind the synthesis scripts)."""
    try:
        return _PASS_REGISTRY[pass_name](aig)
    except KeyError:
        raise ValueError(f"unknown synthesis pass {pass_name!r}") from None


def known_passes() -> List[str]:
    """Names of every registered optimisation pass, in canonical order."""
    return list(_PASS_REGISTRY)


def balance(aig: Aig) -> Aig:
    """Rebuild maximal AND trees as balanced trees."""
    fanins0, fanins1, is_input = aig.node_arrays()
    result = Aig(aig.name)
    # Old node -> its literal in ``result``; the constant node stays 0.
    mapping = [FALSE_LIT] * len(fanins0)
    for index, name in enumerate(aig.input_names):
        mapping[aig.input_literal(index) >> 1] = result.add_input(name)
    reference = aig.reference_counts()
    new_fanins0, new_fanins1, _ = result.node_arrays()
    # Logic level of every node of ``result``; it only grows, so each new
    # node's level is set once, after the tree that added it.
    levels = [0] * len(new_fanins0)

    for node in range(1, len(fanins0)):
        if is_input[node]:
            continue
        # The leaves of the maximal single-fanout AND tree under ``node``,
        # left to right, mapped into ``result``.
        leaves = []
        stack = [fanins1[node], fanins0[node]]
        while stack:
            literal = stack.pop()
            child = literal >> 1
            if literal & 1 or not child or is_input[child] or reference[child] > 1:
                leaves.append(mapping[child] ^ (literal & 1))
            else:
                stack.append(fanins1[child])
                stack.append(fanins0[child])
        # Sort by level in the new AIG so the tree is balanced by arrival time.
        leaves.sort(key=lambda literal: levels[literal >> 1])
        mapping[node] = result.and_many(leaves)
        for new_node in range(len(levels), len(new_fanins0)):
            levels.append(
                1 + max(levels[new_fanins0[new_node] >> 1], levels[new_fanins1[new_node] >> 1])
            )

    for literal, name in zip(aig.outputs, aig.output_names):
        result.add_output(mapping[literal >> 1] ^ (literal & 1), name)
    return result.compact()


#: (num_vars, bits) -> (factored form, AND-node cost).  Algebraic
#: factoring through ISOP is the single most expensive step of the rewrite
#: and refactor passes, and the same small cut functions recur across every
#: pass invocation and every Phase II genotype evaluation, so the cache is a
#: process-wide singleton rather than per-pass state.  Forms are immutable,
#: making sharing safe; the bound keeps memory in check.
_FACTORED_FORM_CACHE: Dict[Tuple[int, int], Tuple[FactoredForm, int]] = {}
_FACTORED_FORM_CACHE_LIMIT = 1 << 16


def clear_factored_form_cache() -> None:
    """Drop the global factored-form cache (mainly for tests/benchmarks)."""
    _FACTORED_FORM_CACHE.clear()


def factored_form_cache_size() -> int:
    """Number of memoised factored forms currently held."""
    return len(_FACTORED_FORM_CACHE)


def _resynthesis(num_vars: int, bits: int) -> Tuple[FactoredForm, int]:
    """The factored form of a packed cut function and its AND-node cost."""
    key = (num_vars, bits)
    cached = _FACTORED_FORM_CACHE.get(key)
    if cached is not None:
        return cached
    form = factored_form(num_vars, bits)
    # The cost is the number of AND nodes the form builds over fresh inputs
    # that its output reaches; they follow the inputs in node order.
    scratch = Aig("scratch")
    output = _build_form(scratch, form, [scratch.add_input() for _ in range(num_vars)])
    fanins0, fanins1, _ = scratch.node_arrays()
    live = [False] * len(fanins0)
    live[output >> 1] = True
    cost = 0
    for node in range(len(fanins0) - 1, num_vars, -1):
        if live[node]:
            cost += 1
            live[fanins0[node] >> 1] = live[fanins1[node] >> 1] = True
    if len(_FACTORED_FORM_CACHE) >= _FACTORED_FORM_CACHE_LIMIT:
        _FACTORED_FORM_CACHE.clear()
    _FACTORED_FORM_CACHE[key] = (form, cost)
    return form, cost


def _build_form(aig: Aig, form: FactoredForm, leaves: List[int]) -> int:
    """Build a factored form in ``aig``; variable ``i`` is the literal ``leaves[i]``."""
    if form is True:
        return TRUE_LIT
    if form is False:
        return FALSE_LIT
    if isinstance(form, int):
        return leaves[form >> 1] ^ (form & 1)
    tag, operands = form
    literals = [_build_form(aig, operand, leaves) for operand in operands]
    return aig.and_many(literals) if tag == AND else aig.or_many(literals)


def rewrite(
    aig: Aig,
    max_leaves: int = 4,
    max_cuts_per_node: int = 8,
    zero_gain: bool = False,
) -> Aig:
    """Cut-based resynthesis (the ABC ``rewrite`` analogue)."""
    cuts = sweep_cuts(aig, max_leaves=max_leaves, max_cuts_per_node=max_cuts_per_node)
    return _rebuild(aig, _plan_replacements(aig, cuts, zero_gain))


def refactor(
    aig: Aig,
    max_leaves: int = 8,
    zero_gain: bool = False,
) -> Aig:
    """Cone-based resynthesis (the ABC ``refactor`` analogue)."""
    cone_cuts = (
        (node, [walked_cut(aig, node, collect_cone_cut(aig, node, max_leaves))])
        for node in aig.and_nodes()
    )
    return _rebuild(aig, _plan_replacements(aig, cone_cuts, zero_gain))


def _rewrite_z(aig: Aig) -> Aig:
    return rewrite(aig, zero_gain=True)


def _refactor_z(aig: Aig) -> Aig:
    return refactor(aig, zero_gain=True)


#: Canonical pass registry.  The effort-level pass sequences in
#: :mod:`repro.synth.script` name their passes from here.
_PASS_REGISTRY = {
    "balance": balance,
    "rewrite": rewrite,
    "rewrite-z": _rewrite_z,
    "refactor": refactor,
    "refactor-z": _refactor_z,
}


def _plan_replacements(
    aig: Aig,
    cuts: Iterable[Tuple[int, List[CutRecord]]],
    zero_gain: bool,
) -> Dict[int, Tuple[FactoredForm, Tuple[int, ...]]]:
    """Select, per node, the best resynthesis (if any improves on the MFFC).

    ``cuts`` gives nodes in order, each with its cut records as
    :func:`~repro.aig.cuts.sweep_cuts` yields them; leaf ``i`` is variable
    ``i`` of the resynthesised form.  A node is planned as soon as it comes,
    against the reference counts of the unchanged AIG.
    """
    reference = aig.reference_counts()
    plans: Dict[int, Tuple[FactoredForm, Tuple[int, ...]]] = {}
    minimum_gain = 0 if zero_gain else 1
    for node, records in cuts:
        best_gain = minimum_gain - 1
        best_plan: Optional[Tuple[FactoredForm, Tuple[int, ...]]] = None
        for _, leaves, bits, cone in records:
            if len(leaves) < 2 or node in leaves:
                continue
            form, cost = _resynthesis(len(leaves), bits)
            # The MFFC lies inside the cut-bounded cone, so a cut whose whole
            # cone cannot beat the best gain is skipped before the MFFC walk.
            if cone.bit_count() - cost <= best_gain:
                continue
            gain = mffc_size(aig, node, leaves, reference) - cost
            if gain > best_gain:
                best_gain = gain
                best_plan = (form, leaves)
        if best_plan is not None:
            plans[node] = best_plan
    return plans


def _rebuild(aig: Aig, plans: Dict[int, Tuple[FactoredForm, Tuple[int, ...]]]) -> Aig:
    """Rebuild the AIG applying the chosen per-node resyntheses."""
    fanins0, fanins1, is_input = aig.node_arrays()
    result = Aig(aig.name)
    # Old node -> its literal in ``result``; the constant node stays 0.
    mapping = [FALSE_LIT] * len(fanins0)
    for index, name in enumerate(aig.input_names):
        mapping[aig.input_literal(index) >> 1] = result.add_input(name)
    for node in range(1, len(fanins0)):
        if is_input[node]:
            continue
        plan = plans.get(node)
        if plan is None:
            fanin0 = fanins0[node]
            fanin1 = fanins1[node]
            mapping[node] = result.and_(
                mapping[fanin0 >> 1] ^ (fanin0 & 1), mapping[fanin1 >> 1] ^ (fanin1 & 1)
            )
        else:
            form, leaves = plan
            mapping[node] = _build_form(result, form, [mapping[leaf] for leaf in leaves])

    for literal, name in zip(aig.outputs, aig.output_names):
        result.add_output(mapping[literal >> 1] ^ (literal & 1), name)
    return result.compact()
