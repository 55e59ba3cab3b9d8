"""Differential current-sample representation.

The paper's cells are fully differential: every signal exists as a
(positive, negative) pair whose difference carries the signal and whose
average is the common-mode component that CMFF removes.
:class:`DifferentialSample` provides lossless conversion between the
pair view and the differential/common-mode view.

The class is a small immutable value object on the hot path of every
per-sample simulation loop, so it uses ``__slots__`` rather than a
dataclass for cheap allocation.
"""

from __future__ import annotations

__all__ = ["DifferentialSample"]


class DifferentialSample:
    """One differential current sample.

    Parameters
    ----------
    pos:
        Current of the positive half in amperes.
    neg:
        Current of the negative half in amperes.
    """

    __slots__ = ("pos", "neg")

    def __init__(self, pos: float, neg: float) -> None:
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DifferentialSample is immutable")

    def __repr__(self) -> str:
        return f"DifferentialSample(pos={self.pos!r}, neg={self.neg!r})"

    def __reduce__(self) -> tuple[type, tuple[float, float]]:
        # Copy and pickle through the constructor: the default slot
        # restore would go through the refusing __setattr__.
        return (DifferentialSample, (self.pos, self.neg))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DifferentialSample):
            return NotImplemented
        return self.pos == other.pos and self.neg == other.neg

    def __hash__(self) -> int:
        return hash((self.pos, self.neg))

    @property
    def differential(self) -> float:
        """Return the differential component ``pos - neg``."""
        return self.pos - self.neg

    @property
    def common_mode(self) -> float:
        """Return the common-mode component ``(pos + neg) / 2``."""
        return 0.5 * (self.pos + self.neg)

    @classmethod
    def from_components(
        cls, differential: float, common_mode: float = 0.0
    ) -> "DifferentialSample":
        """Build a sample from differential and common-mode values."""
        half = 0.5 * differential
        return cls(common_mode + half, common_mode - half)

    def __add__(self, other: "DifferentialSample") -> "DifferentialSample":
        return DifferentialSample(self.pos + other.pos, self.neg + other.neg)

    def __sub__(self, other: "DifferentialSample") -> "DifferentialSample":
        return DifferentialSample(self.pos - other.pos, self.neg - other.neg)

    def __neg__(self) -> "DifferentialSample":
        return DifferentialSample(-self.pos, -self.neg)

    def scaled(self, factor: float) -> "DifferentialSample":
        """Return the sample with both halves scaled by ``factor``."""
        return DifferentialSample(self.pos * factor, self.neg * factor)

    def crossed(self) -> "DifferentialSample":
        """Return the sample with the halves swapped (a -1 multiply).

        In a fully differential circuit a sign inversion is free: just
        cross the wires.  Chopper multiplication (Fig. 3b) is realised
        exactly this way.
        """
        return DifferentialSample(self.neg, self.pos)
