"""Reduced ordered binary decision diagrams with weighted model counting.

The third exact probability engine.  Expressions are compiled into a
ROBDD over an explicit variable order; the probability is then a single
bottom-up weighted count over the (shared) DAG, linear in the number of
BDD nodes.  Mutex groups are handled by first rewriting the expression
through the chain encoding of :func:`repro.events.space.chain_encode`,
after which all variables are independent.

This engine is the scalable one: for the conjunctive/disjunctive events
produced by view composition the BDD stays small, and repeated
sub-structure across tuples of one view is shared through the node
cache.
"""

from __future__ import annotations

from repro.errors import EventError
from repro.events.expr import And, Atom, EventExpr, FalseEvent, Not, Or, TrueEvent
from repro.events.space import EventSpace, chain_encode

__all__ = ["Bdd", "BddNode", "probability_by_bdd"]


class BddNode:
    """Internal node of a :class:`Bdd` (use the manager to create nodes)."""

    __slots__ = ("index", "variable", "low", "high")

    def __init__(self, index: int, variable: int, low: "BddNode | int", high: "BddNode | int"):
        self.index = index
        self.variable = variable
        self.low = low
        self.high = high


#: Terminal drains of every BDD.
ZERO = 0
ONE = 1


class Bdd:
    """A ROBDD manager over a fixed variable order.

    Parameters
    ----------
    order:
        Variable names, outermost first.  Every expression compiled by
        this manager may only mention these variables.
    """

    def __init__(self, order: list[str]):
        if len(set(order)) != len(order):
            raise EventError("BDD variable order contains duplicates")
        self._order = list(order)
        self._level: dict[str, int] = {name: i for i, name in enumerate(order)}
        self._unique: dict[tuple[int, int, int], BddNode] = {}
        self._apply_cache: dict[tuple, "BddNode | int"] = {}
        self._expr_cache: dict[EventExpr, "BddNode | int"] = {}
        self._nodes = 2  # the two terminals

    # -- node construction ----------------------------------------------
    def _id(self, node: "BddNode | int") -> int:
        return node if isinstance(node, int) else node.index

    def _make(self, variable: int, low: "BddNode | int", high: "BddNode | int") -> "BddNode | int":
        if self._id(low) == self._id(high):
            return low
        key = (variable, self._id(low), self._id(high))
        node = self._unique.get(key)
        if node is None:
            node = BddNode(self._nodes, variable, low, high)
            self._nodes += 1
            self._unique[key] = node
        return node

    def variable(self, name: str) -> "BddNode | int":
        """The BDD for a single variable."""
        try:
            level = self._level[name]
        except KeyError as exc:
            raise EventError(f"variable {name!r} not in BDD order") from exc
        return self._make(level, ZERO, ONE)

    # -- boolean combinators ---------------------------------------------
    def negate(self, node: "BddNode | int") -> "BddNode | int":
        if isinstance(node, int):
            return ONE - node
        key = ("not", node.index)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        result = self._make(node.variable, self.negate(node.low), self.negate(node.high))
        self._apply_cache[key] = result
        return result

    def _apply(self, op: str, left: "BddNode | int", right: "BddNode | int") -> "BddNode | int":
        if op == "and":
            if left is ZERO or right is ZERO or left == ZERO or right == ZERO:
                return ZERO
            if isinstance(left, int):  # left == ONE
                return right
            if isinstance(right, int):
                return left
        elif op == "or":
            if left == ONE or right == ONE:
                return ONE
            if isinstance(left, int):  # left == ZERO
                return right
            if isinstance(right, int):
                return left
        else:  # pragma: no cover - internal misuse
            raise EventError(f"unknown BDD operation {op!r}")

        key = (op, min(left.index, right.index), max(left.index, right.index))
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached

        if left.variable == right.variable:
            result = self._make(
                left.variable,
                self._apply(op, left.low, right.low),
                self._apply(op, left.high, right.high),
            )
        elif left.variable < right.variable:
            result = self._make(left.variable, self._apply(op, left.low, right), self._apply(op, left.high, right))
        else:
            result = self._make(right.variable, self._apply(op, left, right.low), self._apply(op, left, right.high))
        self._apply_cache[key] = result
        return result

    def conj(self, left: "BddNode | int", right: "BddNode | int") -> "BddNode | int":
        return self._apply("and", left, right)

    def disj(self, left: "BddNode | int", right: "BddNode | int") -> "BddNode | int":
        return self._apply("or", left, right)

    # -- compilation ------------------------------------------------------
    def compile(self, expr: EventExpr) -> "BddNode | int":
        """Compile an event expression (over independent vars) to a node.

        Sub-expressions are cached per manager, so shared (interned)
        subtrees across the expressions of one view compile once.
        """
        if isinstance(expr, TrueEvent):
            return ONE
        if isinstance(expr, FalseEvent):
            return ZERO
        cached = self._expr_cache.get(expr)
        if cached is not None:
            return cached
        node = self._compile(expr)
        self._expr_cache[expr] = node
        return node

    def _compile(self, expr: EventExpr) -> "BddNode | int":
        if isinstance(expr, Atom):
            return self.variable(expr.name)
        if isinstance(expr, Not):
            return self.negate(self.compile(expr.child))
        if isinstance(expr, And):
            node: BddNode | int = ONE
            for child in expr.children:
                node = self.conj(node, self.compile(child))
                if node == ZERO:
                    return ZERO
            return node
        if isinstance(expr, Or):
            node = ZERO
            for child in expr.children:
                node = self.disj(node, self.compile(child))
                if node == ONE:
                    return ONE
            return node
        raise EventError(f"cannot compile unknown expression node {expr!r}")

    # -- weighted model counting ------------------------------------------
    def probability(self, node: "BddNode | int", probabilities: dict[str, float]) -> float:
        """Weighted model count: P of the function rooted at ``node``.

        ``probabilities`` maps each variable name in the order to its
        (independent) marginal probability.
        """
        weights = [probabilities[name] for name in self._order]
        memo: dict[int, float] = {}

        def walk(current: "BddNode | int") -> float:
            if isinstance(current, int):
                return float(current)
            cached = memo.get(current.index)
            if cached is not None:
                return cached
            p = weights[current.variable]
            value = p * walk(current.high) + (1.0 - p) * walk(current.low)
            memo[current.index] = value
            return value

        return min(1.0, max(0.0, walk(node)))


def probability_by_bdd(expr: EventExpr, space: EventSpace | None = None) -> float:
    """Exact probability of ``expr`` via BDD weighted model counting.

    Mutex groups (when ``space`` is given) are removed up front by the
    chain encoding, so the count itself runs over independent variables.
    """
    encoded, probabilities = chain_encode(expr, space)
    if encoded.is_certain:
        return 1.0
    if encoded.is_impossible:
        return 0.0
    # Order variables by name: deterministic, and chain variables of one
    # group stay adjacent, which keeps group structure compact.
    order = sorted(encoded.atom_names())
    manager = Bdd(order)
    node = manager.compile(encoded)
    return manager.probability(node, probabilities)
