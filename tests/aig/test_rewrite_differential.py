"""Differential test: ``rewrite`` and ``refactor`` against the two-walk planner.

``rewrite`` plans each AND node's replacement while the cut sweep is at that
node.  ``_plan_replacements`` and ``_rebuild`` below are the planner and
rebuild as they were when the pass first enumerated every node's cuts and
then walked the nodes a second time to plan: they take a dict of cut tables,
built here from the cut test's ``reference_cuts`` and ``simulate_cone``, and
``refactor``'s cone cuts as ``collect_cone_cut`` and ``simulate_cone`` give
them.  Both passes must give the same structure key, input and output names
in both gain modes, ``rewrite`` at every cut limit of the cut test and at
``(5, 3)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings

from repro.aig import Aig, refactor, rewrite
from repro.aig.aig import FALSE_LIT, negate
from repro.aig.cuts import CutTable, collect_cone_cut, mffc_size, simulate_cone
from repro.aig.opt import _build_form, _resynthesis
from repro.logic.factoring import FactoredForm
from repro.synth.script import _aig_structure_key

from test_cuts_differential import LIMITS, aigs, reference_cuts

REWRITE_LIMITS = LIMITS + [(5, 3)]


def _plan_replacements(
    aig: Aig,
    cuts: Dict[int, List[CutTable]],
    zero_gain: bool,
) -> Dict[int, Tuple[FactoredForm, Tuple[int, ...]]]:
    """Select, per node, the best resynthesis (if any improves on the MFFC).

    Each cut is ``(leaves, bits, cone_ands)`` as
    :func:`~repro.aig.cuts.enumerate_cut_tables` gives it; leaf ``i`` is
    variable ``i`` of the resynthesised form.
    """
    reference = aig.reference_counts()
    plans: Dict[int, Tuple[FactoredForm, Tuple[int, ...]]] = {}
    minimum_gain = 0 if zero_gain else 1
    for node in aig.and_nodes():
        best_gain = minimum_gain - 1
        best_plan: Optional[Tuple[FactoredForm, Tuple[int, ...]]] = None
        for leaves, bits, cone_ands in cuts.get(node, []):
            if len(leaves) < 2 or node in leaves:
                continue
            form, cost = _resynthesis(len(leaves), bits)
            # The MFFC lies inside the cut-bounded cone, so a cut whose whole
            # cone cannot beat the best gain is skipped before the MFFC walk.
            if cone_ands - cost <= best_gain:
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


def reference_rewrite(aig: Aig, max_leaves: int, max_cuts_per_node: int, zero_gain: bool) -> Aig:
    cut_tables: Dict[int, List[CutTable]] = {}
    for node, cuts in reference_cuts(aig, max_leaves, max_cuts_per_node).items():
        sorted_cuts = [tuple(sorted(cut)) for cut in cuts]
        cut_tables[node] = [(leaves,) + simulate_cone(aig, node, leaves) for leaves in sorted_cuts]
    return _rebuild(aig, _plan_replacements(aig, cut_tables, zero_gain))


def reference_refactor(aig: Aig, zero_gain: bool, max_leaves: int = 8) -> Aig:
    cone_cuts: Dict[int, List[CutTable]] = {}
    for node in aig.and_nodes():
        leaves = tuple(sorted(collect_cone_cut(aig, node, max_leaves)))
        cone_cuts[node] = [(leaves,) + simulate_cone(aig, node, leaves)]
    return _rebuild(aig, _plan_replacements(aig, cone_cuts, zero_gain))


def _state(aig: Aig):
    return _aig_structure_key(aig), aig.input_names, aig.output_names


def _assert_passes_match(aig: Aig) -> None:
    for zero_gain in (False, True):
        for max_leaves, max_cuts_per_node in REWRITE_LIMITS:
            assert _state(
                rewrite(aig, max_leaves, max_cuts_per_node, zero_gain=zero_gain)
            ) == _state(reference_rewrite(aig, max_leaves, max_cuts_per_node, zero_gain))
        assert _state(refactor(aig, zero_gain=zero_gain)) == _state(
            reference_refactor(aig, zero_gain)
        )


@given(aigs())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_passes_match_reference(aig):
    _assert_passes_match(aig)


def test_cone_walk_cut():
    """The cut test's fixed AIG, whose node z has a cut that takes the cone walk."""
    aig = Aig("overlap")
    a = aig.add_input("a")
    b = aig.add_input("b")
    x = aig.and_(a, b)
    y = aig.and_(b, negate(x))
    aig.add_output(aig.and_(negate(x), y), "z")
    _assert_passes_match(aig)
