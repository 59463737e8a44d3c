"""Bottom-up Datalog evaluation with stratified negation.

Semi-naive evaluation within each stratum; strata are computed from the
program's dependency graph (an edge R → S when S's rules mention R, marked
"negative" when the mention is negated). Programs with negation inside a
recursive cycle are rejected, exactly as classic stratification demands.

This engine is small but complete enough to run the paper's Appendix-A
graphlet query over real traces; `repro.graphlets.datalog_rules` builds
the program and the test-suite checks it against the imperative
segmentation.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from .program import Program, Rule, Variable


class StratificationError(ValueError):
    """Raised when negation occurs inside a recursive cycle."""


def _stratify(program: Program) -> list[list[Rule]]:
    """Group rules into strata evaluated in order.

    Uses the standard algorithm: assign each IDB relation a stratum number
    s(R); for a rule head H with positive body atom B, s(H) >= s(B); with
    negated body atom B, s(H) >= s(B) + 1. Iterate to fixpoint; if a
    stratum number exceeds the relation count, the program is not
    stratifiable.
    """
    idb = program.idb_relations
    stratum: dict[str, int] = {rel: 0 for rel in idb}
    limit = len(idb) + 1
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            head_rel = rule.head.relation
            for atom in rule.body:
                if atom.relation not in idb:
                    continue
                required = stratum[atom.relation] + (1 if atom.negated else 0)
                if stratum[head_rel] < required:
                    stratum[head_rel] = required
                    if stratum[head_rel] > limit:
                        raise StratificationError(
                            "negation inside a recursive cycle; program is "
                            "not stratifiable")
                    changed = True
    buckets: dict[int, list[Rule]] = defaultdict(list)
    for rule in program.rules:
        buckets[stratum[rule.head.relation]].append(rule)
    return [buckets[level] for level in sorted(buckets)]


def _substitute(terms: tuple, binding: dict[Variable, object]) -> tuple:
    return tuple(binding.get(t, t) if isinstance(t, Variable) else t
                 for t in terms)


def _match(terms: tuple, row: tuple,
           binding: dict[Variable, object]) -> dict[Variable, object] | None:
    """Extend ``binding`` so ``terms`` unify with ``row``; None on failure."""
    extended = binding
    copied = False
    for term, value in zip(terms, row):
        if isinstance(term, Variable):
            bound = extended.get(term, _UNBOUND)
            if bound is _UNBOUND:
                if not copied:
                    extended = dict(extended)
                    copied = True
                extended[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extended


_UNBOUND = object()


class Evaluator:
    """Evaluates a :class:`Program` to a fixpoint.

    Example:
        >>> program = Program()
        >>> program.add_fact("edge", 1, 2)
        >>> program.add_fact("edge", 2, 3)
        >>> x, y, z = Variable("x"), Variable("y"), Variable("z")
        >>> program.add_rule(Atom("path", (x, y)), Atom("edge", (x, y)))
        >>> program.add_rule(Atom("path", (x, z)),
        ...                  Atom("edge", (x, y)), Atom("path", (y, z)))
        >>> sorted(Evaluator(program).run()["path"])
        [(1, 2), (1, 3), (2, 3)]
    """

    def __init__(self, program: Program) -> None:
        self._program = program

    def run(self) -> dict[str, set[tuple]]:
        """Evaluate and return all relations (EDB facts included)."""
        relations: dict[str, set[tuple]] = {
            name: set(rows) for name, rows in self._program.facts.items()
        }
        for rel in self._program.idb_relations:
            relations.setdefault(rel, set())
        for stratum_rules in _stratify(self._program):
            self._run_stratum(stratum_rules, relations)
        return relations

    # ------------------------------------------------------------------

    def _run_stratum(self, rules: list[Rule],
                     relations: dict[str, set[tuple]]) -> None:
        """Semi-naive iteration of one stratum to fixpoint."""
        head_rels = {rule.head.relation for rule in rules}
        delta: dict[str, set[tuple]] = {rel: set(relations.get(rel, ()))
                                        for rel in head_rels}
        # Seed: a first naive round so rules over only-EDB bodies fire.
        new_delta = self._round(rules, relations, None)
        for rel, rows in new_delta.items():
            fresh = rows - relations[rel]
            relations[rel] |= fresh
            delta[rel] = fresh
        while any(delta.values()):
            new_delta = self._round(rules, relations, delta)
            delta = {rel: set() for rel in head_rels}
            for rel, rows in new_delta.items():
                fresh = rows - relations[rel]
                relations[rel] |= fresh
                delta[rel] |= fresh

    def _round(self, rules: list[Rule], relations: dict[str, set[tuple]],
               delta: dict[str, set[tuple]] | None) -> dict[str, set[tuple]]:
        """One evaluation round; with ``delta``, require a delta atom."""
        produced: dict[str, set[tuple]] = defaultdict(set)
        for rule in rules:
            if delta is None:
                for binding in self._join(rule.body, relations, {}, None, -1):
                    produced[rule.head.relation].add(
                        _substitute(rule.head.terms, binding))
                continue
            # Semi-naive: for each positive body atom over a delta
            # relation, evaluate with that atom restricted to the delta.
            positive_positions = [
                i for i, atom in enumerate(rule.body)
                if not atom.negated and atom.relation in delta
            ]
            for position in positive_positions:
                for binding in self._join(rule.body, relations, delta,
                                          None, position):
                    produced[rule.head.relation].add(
                        _substitute(rule.head.terms, binding))
        return produced

    def _join(self, body: tuple, relations: dict[str, set[tuple]],
              delta: dict[str, set[tuple]] | None, _unused,
              delta_position: int):
        """Yield bindings satisfying the body left-to-right.

        When ``delta_position >= 0`` the atom at that index scans only the
        delta relation (semi-naive restriction); other atoms scan the full
        relation. Negated atoms filter.
        """
        bindings = [dict()]
        for index, atom in enumerate(body):
            if atom.negated:
                next_bindings = []
                rows = relations.get(atom.relation, set())
                for binding in bindings:
                    probe = _substitute(atom.terms, binding)
                    if any(isinstance(t, Variable) for t in probe):
                        raise ValueError(
                            f"negated atom {atom} not fully bound at "
                            "evaluation time")
                    if probe not in rows:
                        next_bindings.append(binding)
                bindings = next_bindings
                continue
            if index == delta_position and delta is not None:
                rows = delta.get(atom.relation, set())
            else:
                rows = relations.get(atom.relation, set())
            next_bindings = []
            for binding, row in itertools.product(bindings, rows):
                if len(row) != len(atom.terms):
                    continue
                extended = _match(atom.terms, row, binding)
                if extended is not None:
                    next_bindings.append(extended)
            bindings = next_bindings
            if not bindings:
                return
        yield from bindings


def evaluate(program: Program) -> dict[str, set[tuple]]:
    """Convenience wrapper: evaluate ``program`` and return all relations."""
    return Evaluator(program).run()
