"""Urn model parameters and validation.

An urn ``A(alpha, beta)`` evolves by uniform draws with replacement: drawing
a black ball adds ``2*alpha`` black and ``beta`` white balls, drawing a white
ball adds ``alpha`` black and ``alpha + beta`` white.  Both rows of the
replacement matrix add the same number of balls, so the urn size after ``n``
draws is deterministic.
"""
from __future__ import annotations

from ._record import record
from .errors import EmptyUrn, NonPositiveParameter, UnsupportedInitialConfig


@record
class UrnSpec:
    """Parameters of a balanced two-color additive urn.

    >>> u = UrnSpec(1, 1, 0, 1)
    >>> u.sigma
    3
    """

    alpha: int
    beta: int
    a0: int
    b0: int

    @property
    def sigma(self) -> int:
        """Balance: total balls added per draw (2*alpha + beta)."""
        return 2 * self.alpha + self.beta

    def size_after(self, n: int) -> int:
        """Deterministic total ball count after n draws."""
        return self.a0 + self.b0 + self.sigma * n

    def black_count(self, n: int, k: int) -> int:
        """Black balls held after n draws of which k drew black."""
        return self.a0 + self.alpha * n + self.alpha * k

    def white_count(self, n: int, k: int) -> int:
        """White balls held after n draws of which k drew black."""
        return self.b0 + (self.alpha + self.beta) * n - self.alpha * k

    def to_json_dict(self) -> dict:
        """The ``"spec"`` object of reports and table files."""
        return {"alpha": self.alpha, "beta": self.beta, "a0": self.a0, "b0": self.b0}

    def require_single_white(self, what: str) -> None:
        """Raise UnsupportedInitialConfig, naming ``what``, unless the urn
        starts as one white ball."""
        if (self.a0, self.b0) != (0, 1):
            raise UnsupportedInitialConfig(
                f"{what} holds for (a0, b0) = (0, 1); got ({self.a0}, {self.b0})"
            )


def validate_urn(alpha: int, beta: int, a0: int, b0: int) -> UrnSpec:
    """Check raw integers and return an UrnSpec.

    Raises NonPositiveParameter unless ``alpha >= 1`` and ``beta >= 1`` (both
    additions strictly positive) and initial counts are non-negative; raises
    EmptyUrn when the urn starts with no balls at all.
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("a0", a0), ("b0", b0)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise NonPositiveParameter(f"{name} must be an integer, got {value!r}")
    if alpha < 1 or beta < 1:
        raise NonPositiveParameter(
            f"need alpha >= 1 and beta >= 1, got alpha={alpha}, beta={beta}"
        )
    if a0 < 0 or b0 < 0:
        raise NonPositiveParameter(
            f"initial counts must be non-negative, got a0={a0}, b0={b0}"
        )
    if a0 + b0 == 0:
        raise EmptyUrn("initial urn holds no balls (a0 + b0 = 0)")
    return UrnSpec(alpha, beta, a0, b0)
