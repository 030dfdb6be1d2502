"""The event language: expressions, semantics, programs, probability.

This package implements Section 3 of the paper: conditional values and
Boolean events (Sections 3.1–3.2), their probabilistic interpretation
(Section 3.3), and event programs (Section 3.4).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".expressions": (
            "FALSE",
            "TRUE",
            "And",
            "Atom",
            "CDist",
            "CInv",
            "CPow",
            "CProd",
            "CRef",
            "CSum",
            "Cond",
            "CVal",
            "Event",
            "Expression",
            "Guard",
            "Not",
            "Or",
            "Ref",
            "Var",
            "atom",
            "cdist",
            "cinv",
            "cond",
            "conj",
            "cpow",
            "cprod",
            "cref",
            "csum",
            "disj",
            "guard",
            "literal",
            "negate",
            "ref",
            "var",
        ),
        ".probability": (
            "cval_distribution",
            "event_probabilities",
            "event_probability",
            "expected_value",
        ),
        ".program": ("EventProgram", "eid"),
        ".semantics": ("Evaluator", "evaluate_cval", "evaluate_event"),
        ".values": ("UNDEFINED", "Value", "is_undefined"),
    },
)
