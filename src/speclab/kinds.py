"""The four matrices a weighted graph is assembled into (see `matrices`).

The enum has no numpy in it, so the CLI refuses an unknown `--kind` before
it loads the numeric layer.
"""

import enum

from .errors import DomainError


class MatrixKind(enum.Enum):
    ADJACENCY = "adjacency"
    DIFFERENCE = "difference"
    NORMALIZED = "normalized"
    SIGNLESS = "signless"

    @classmethod
    def parse(cls, text: str) -> "MatrixKind":
        try:
            return cls(text)
        except ValueError:
            names = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown matrix kind {text!r}; expected one of {names}")
