"""Exception types shared across the engine."""

from __future__ import annotations


class KcxError(Exception):
    pass


class WellDefinednessFailure(KcxError):
    """A generator-image map does not kill a defining relation."""

    def __init__(self, what: str, relation, residue):
        self.what = what
        self.relation = relation
        self.residue = residue
        super().__init__(f"{what}: relation {relation} has nonzero residue {residue}")


class SolverTooLarge(KcxError, ValueError):
    """A linear system would have more unknowns than the solvers accept."""


class ExpansionTooLarge(KcxError, ValueError):
    """A substitution could expand past `poly.MAX_TERMS` terms; refused before it does."""


class NotInverse(KcxError):
    """A gluing's transition and inverse do not compose to the identities."""


class OwnerMismatch(KcxError):
    pass


class BaseMismatch(KcxError):
    """Bundle combination of morphisms that disagree on a base generator."""

    def __init__(self, generator: str, left, right):
        self.generator = generator
        self.left = left
        self.right = right
        super().__init__(f"maps disagree on base generator {generator!r}: {left} vs {right}")


class BracketingConditionFailure(KcxError):
    def __init__(self, generator: str, value):
        self.generator = generator
        self.value = value
        super().__init__(f"bracketing condition fails: image of d({generator}) is {value}, not 0")


class SectionRetractionFailure(KcxError):
    pass


class ModuleNotKahler(KcxError):
    pass


class AxiomFailure(KcxError):
    def __init__(self, report):
        self.report = report
        failed = ", ".join(e.axiom_id for e in report.entries if e.status != "pass")
        super().__init__(f"axiom check failed: {failed}")
