"""And-Inverter Graph (AIG) with structural hashing.

The AIG is the internal representation of the synthesis engine
(:mod:`repro.synth`), playing the role ABC plays in the paper.  Nodes are
two-input AND gates; edges may be complemented.  Literals follow the usual
AIGER convention: literal ``2*n`` is node ``n`` and ``2*n + 1`` is its
complement; node 0 is the constant FALSE, so literal 0 is constant false and
literal 1 is constant true.

The class offers:

* construction with structural hashing and the standard local
  simplifications (idempotence, annihilation, complement cancellation);
* convenience builders for OR/XOR/MUX and balanced n-ary trees;
* bit-parallel evaluation into packed truth tables;
* cone extraction / compaction (dead-node elimination).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.boolfunc import BoolFunction
from ..logic.truthtable import TruthTable

__all__ = ["Aig", "AigError", "FALSE_LIT", "TRUE_LIT"]

FALSE_LIT = 0
TRUE_LIT = 1


class AigError(Exception):
    """Raised for malformed AIG operations."""


def lit_of(node: int, complemented: bool = False) -> int:
    """Build a literal from a node index and a complement flag."""
    return (node << 1) | (1 if complemented else 0)


def node_of(lit: int) -> int:
    """Return the node index of a literal."""
    return lit >> 1


def is_complemented(lit: int) -> bool:
    """Return True if the literal is complemented."""
    return bool(lit & 1)


def negate(lit: int) -> int:
    """Return the complement of a literal."""
    return lit ^ 1


class Aig:
    """A combinational And-Inverter Graph."""

    def __init__(self, name: str = "aig"):
        self.name = name
        # Parallel arrays indexed by node id.  Node 0 is the constant node.
        self._fanin0: List[int] = [0]
        self._fanin1: List[int] = [0]
        self._is_input: List[bool] = [False]
        self._input_nodes: List[int] = []
        self._input_names: List[str] = []
        self._outputs: List[int] = []  # literals
        self._output_names: List[str] = []
        self._strash: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------ #
    # Literal helpers re-exported as static methods for caller convenience
    # ------------------------------------------------------------------ #
    lit = staticmethod(lit_of)
    node = staticmethod(node_of)
    is_negated = staticmethod(is_complemented)
    negate = staticmethod(negate)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Total number of nodes including the constant and the inputs."""
        return len(self._fanin0)

    @property
    def num_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self._input_nodes)

    @property
    def num_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self._outputs)

    @property
    def num_ands(self) -> int:
        """Number of AND nodes (the usual AIG size metric)."""
        return self.num_nodes - 1 - self.num_inputs

    @property
    def input_names(self) -> List[str]:
        """Names of the primary inputs in order."""
        return list(self._input_names)

    @property
    def output_names(self) -> List[str]:
        """Names of the primary outputs in order."""
        return list(self._output_names)

    @property
    def outputs(self) -> List[int]:
        """Output literals in order."""
        return list(self._outputs)

    def input_literal(self, index: int) -> int:
        """Return the literal of primary input ``index``."""
        return lit_of(self._input_nodes[index])

    def is_input_node(self, node: int) -> bool:
        """Return True if ``node`` is a primary input."""
        return self._is_input[node]

    def is_and_node(self, node: int) -> bool:
        """Return True if ``node`` is an AND node."""
        return node != 0 and not self._is_input[node]

    def fanins(self, node: int) -> Tuple[int, int]:
        """Return the two fanin literals of an AND node."""
        if not self.is_and_node(node):
            raise AigError(f"node {node} is not an AND node")
        return self._fanin0[node], self._fanin1[node]

    def and_nodes(self) -> List[int]:
        """Return AND node indices in topological (creation) order."""
        return [n for n in range(1, self.num_nodes) if not self._is_input[n]]

    def node_arrays(self) -> Tuple[List[int], List[int], List[bool]]:
        """The per-node arrays ``(fanin0, fanin1, is_input)``, indexed by node.

        The fanin entries of the constant and input nodes are 0.  The lists
        are the AIG's own, shared with the hot cone walks of the
        optimisation passes, which must not modify them.
        """
        return self._fanin0, self._fanin1, self._is_input

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_input(self, name: Optional[str] = None) -> int:
        """Add a primary input and return its (non-complemented) literal."""
        node = len(self._fanin0)
        self._fanin0.append(0)
        self._fanin1.append(0)
        self._is_input.append(True)
        self._input_nodes.append(node)
        self._input_names.append(name if name is not None else f"i{len(self._input_names)}")
        return lit_of(node)

    def add_output(self, literal: int, name: Optional[str] = None) -> int:
        """Register a primary output; returns its index."""
        self._check_literal(literal)
        self._outputs.append(literal)
        self._output_names.append(
            name if name is not None else f"o{len(self._output_names)}"
        )
        return len(self._outputs) - 1

    def set_output(self, index: int, literal: int) -> None:
        """Redefine the literal of an existing output."""
        self._check_literal(literal)
        self._outputs[index] = literal

    def _check_literal(self, literal: int) -> None:
        if literal < 0 or node_of(literal) >= self.num_nodes:
            raise AigError(f"literal {literal} references a non-existent node")

    def and_(self, a: int, b: int) -> int:
        """Return a literal implementing ``a AND b`` (with strashing)."""
        num_nodes = len(self._fanin0)
        # The checks of ``_check_literal``, inline on this hot path.
        if a < 0 or a >> 1 >= num_nodes:
            raise AigError(f"literal {a} references a non-existent node")
        if b < 0 or b >> 1 >= num_nodes:
            raise AigError(f"literal {b} references a non-existent node")
        # Local simplifications.
        if a == FALSE_LIT or b == FALSE_LIT:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT:
            return a
        if a == b:
            return a
        if a == b ^ 1:
            return FALSE_LIT
        key = (a, b) if a <= b else (b, a)
        existing = self._strash.get(key)
        if existing is not None:
            return existing << 1
        self._fanin0.append(key[0])
        self._fanin1.append(key[1])
        self._is_input.append(False)
        self._strash[key] = num_nodes
        return num_nodes << 1

    def or_(self, a: int, b: int) -> int:
        """Return a literal implementing ``a OR b``."""
        return negate(self.and_(negate(a), negate(b)))

    def xor_(self, a: int, b: int) -> int:
        """Return a literal implementing ``a XOR b`` (3 AND nodes worst case)."""
        return self.or_(self.and_(a, negate(b)), self.and_(negate(a), b))

    def mux_(self, select: int, when_true: int, when_false: int) -> int:
        """Return ``select ? when_true : when_false``."""
        return self.or_(
            self.and_(select, when_true), self.and_(negate(select), when_false)
        )

    def and_many(self, literals: Sequence[int]) -> int:
        """Build a balanced AND tree over the literals."""
        return self._balanced_tree(list(literals), self.and_, TRUE_LIT)

    def or_many(self, literals: Sequence[int]) -> int:
        """Build a balanced OR tree over the literals."""
        return self._balanced_tree(list(literals), self.or_, FALSE_LIT)

    def _balanced_tree(self, literals: List[int], op, identity: int) -> int:
        if not literals:
            return identity
        layer = list(literals)
        while len(layer) > 1:
            next_layer: List[int] = []
            for index in range(0, len(layer) - 1, 2):
                next_layer.append(op(layer[index], layer[index + 1]))
            if len(layer) % 2:
                next_layer.append(layer[-1])
            layer = next_layer
        return layer[0]

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def levels(self) -> Dict[int, int]:
        """Return the logic level of every node (inputs and constant are 0)."""
        level: Dict[int, int] = {0: 0}
        for node in self._input_nodes:
            level[node] = 0
        for node in range(1, self.num_nodes):
            if self._is_input[node]:
                continue
            f0, f1 = self._fanin0[node], self._fanin1[node]
            level[node] = 1 + max(level[node_of(f0)], level[node_of(f1)])
        return level

    def depth(self) -> int:
        """Return the maximum logic level over the outputs."""
        if not self._outputs:
            return 0
        level = self.levels()
        return max(level[node_of(lit)] for lit in self._outputs)

    def reference_counts(self) -> Dict[int, int]:
        """Return the fanout count of every node (outputs count as fanout)."""
        counts: Dict[int, int] = {node: 0 for node in range(self.num_nodes)}
        for node in range(1, self.num_nodes):
            if self._is_input[node]:
                continue
            counts[node_of(self._fanin0[node])] += 1
            counts[node_of(self._fanin1[node])] += 1
        for literal in self._outputs:
            counts[node_of(literal)] += 1
        return counts

    def live_nodes(self) -> List[int]:
        """Return nodes reachable from the outputs (plus constant and inputs)."""
        live = set()
        stack = [node_of(lit) for lit in self._outputs]
        while stack:
            node = stack.pop()
            if node in live:
                continue
            live.add(node)
            if self.is_and_node(node):
                stack.append(node_of(self._fanin0[node]))
                stack.append(node_of(self._fanin1[node]))
        return sorted(live)

    def num_live_ands(self) -> int:
        """Return the number of AND nodes reachable from the outputs."""
        return sum(1 for node in self.live_nodes() if self.is_and_node(node))

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def node_tables(self) -> Dict[int, TruthTable]:
        """Return the truth table of every node over the primary inputs."""
        num_inputs = self.num_inputs
        tables: Dict[int, TruthTable] = {0: TruthTable.constant(num_inputs, False)}
        for index, node in enumerate(self._input_nodes):
            tables[node] = TruthTable.variable(index, num_inputs)
        for node in range(1, self.num_nodes):
            if self._is_input[node]:
                continue
            f0 = self._literal_table(self._fanin0[node], tables)
            f1 = self._literal_table(self._fanin1[node], tables)
            tables[node] = f0 & f1
        return tables

    def _literal_table(self, literal: int, tables: Dict[int, TruthTable]) -> TruthTable:
        table = tables[node_of(literal)]
        return ~table if is_complemented(literal) else table

    def output_tables(self) -> List[TruthTable]:
        """Return the truth tables of the primary outputs."""
        tables = self.node_tables()
        return [self._literal_table(literal, tables) for literal in self._outputs]

    def to_bool_function(self, name: Optional[str] = None) -> BoolFunction:
        """Return the AIG's function as a :class:`BoolFunction`."""
        return BoolFunction(
            self.output_tables(),
            name=name or self.name,
            input_names=self._input_names,
            output_names=self._output_names,
        )

    def evaluate_words(self, words: Sequence[int]) -> List[int]:
        """Evaluate the AIG on a batch of input words (one packed pass).

        Delegates to the word-parallel engine in :mod:`repro.sim.engine`:
        every node carries a packed bitvector over the whole batch, so the
        cost is one pass over the nodes regardless of the batch size.
        """
        from ..sim.engine import AigSimulator

        return AigSimulator(self).simulate_words(words)

    def evaluate_word(self, word: int) -> int:
        """Evaluate the AIG on an input word (bit k = input k)."""
        values: Dict[int, int] = {0: 0}
        for index, node in enumerate(self._input_nodes):
            values[node] = (word >> index) & 1
        for node in range(1, self.num_nodes):
            if self._is_input[node]:
                continue
            a = self._literal_value(self._fanin0[node], values)
            b = self._literal_value(self._fanin1[node], values)
            values[node] = a & b
        result = 0
        for index, literal in enumerate(self._outputs):
            if self._literal_value(literal, values):
                result |= 1 << index
        return result

    @staticmethod
    def _literal_value(literal: int, values: Dict[int, int]) -> int:
        value = values[node_of(literal)]
        return value ^ 1 if is_complemented(literal) else value

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self, name: Optional[str] = None) -> "Aig":
        """Return a copy containing only the logic reachable from the outputs.

        Every input comes first, then the live AND nodes in their order.  The
        nodes are copied, not rebuilt through :meth:`and_`: since only
        ``and_`` adds AND nodes, none has a constant, repeated or
        complementary fanin, nor the fanin pair of another, and an injective
        renumbering keeps that true.  Each pair is re-sorted, because an
        input added after an AND node moves in front of it.
        """
        fanins0, fanins1, is_input = self._fanin0, self._fanin1, self._is_input
        live = [False] * len(fanins0)
        stack = [literal >> 1 for literal in self._outputs]
        while stack:
            node = stack.pop()
            if live[node]:
                continue
            live[node] = True
            if node and not is_input[node]:
                stack.append(fanins0[node] >> 1)
                stack.append(fanins1[node] >> 1)
        result = Aig(name or self.name)
        # Old node -> its literal in ``result``; the constant node stays 0.
        mapping = [FALSE_LIT] * len(fanins0)
        for node, input_name in zip(self._input_nodes, self._input_names):
            mapping[node] = result.add_input(input_name)
        new_fanins0, new_fanins1 = result._fanin0, result._fanin1
        new_is_input, new_strash = result._is_input, result._strash
        for node in range(1, len(fanins0)):
            if not live[node] or is_input[node]:
                continue
            fanin0 = fanins0[node]
            fanin1 = fanins1[node]
            a = mapping[fanin0 >> 1] | (fanin0 & 1)
            b = mapping[fanin1 >> 1] | (fanin1 & 1)
            if a > b:
                a, b = b, a
            new_node = len(new_fanins0)
            new_fanins0.append(a)
            new_fanins1.append(b)
            new_is_input.append(False)
            new_strash[(a, b)] = new_node
            mapping[node] = new_node << 1
        for literal, output_name in zip(self._outputs, self._output_names):
            result.add_output(mapping[literal >> 1] | (literal & 1), output_name)
        return result

    def __repr__(self) -> str:
        return (
            f"Aig(name={self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, ands={self.num_ands})"
        )
