"""Parameter declarations and assignments.

A *parameter* (§II-A of the paper) is a design input that changes rarely —
here, the debug-network select inputs that change only between debugging
runs.  The flow treats parameters as constants folded into the
configuration, so a new parameter value means re-evaluating Boolean
functions and partially reconfiguring, never recompiling.

:class:`ParameterSpace` orders the parameters and converts between
name-keyed dicts and dense numpy vectors (the representation the SCG's
vectorized evaluator consumes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.errors import ParameterError

__all__ = ["Parameter", "ParameterSpace", "ParameterAssignment"]


@dataclass(frozen=True)
class Parameter:
    """A single named Boolean parameter with a dense index."""

    name: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ParameterError(f"parameter {self.name!r}: negative index")


class ParameterSpace:
    """An ordered collection of parameters.

    >>> sp = ParameterSpace(["sel_a", "sel_b"])
    >>> sp.index_of("sel_b")
    1
    >>> a = sp.assignment({"sel_a": 1})
    >>> a["sel_a"], a["sel_b"]
    (1, 0)
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._params: list[Parameter] = []
        self._by_name: dict[str, Parameter] = {}
        for n in names:
            self.add(n)

    def add(self, name: str) -> Parameter:
        """Declare a new parameter; returns its record."""
        if name in self._by_name:
            raise ParameterError(f"duplicate parameter {name!r}")
        p = Parameter(name, len(self._params))
        self._params.append(p)
        self._by_name[name] = p
        return p

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def names(self) -> list[str]:
        return [p.name for p in self._params]

    def get(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise ParameterError(f"unknown parameter {name!r}") from None

    def index_of(self, name: str) -> int:
        return self.get(name).index

    def assignment(
        self, values: Mapping[str, int] | None = None, *, default: int = 0
    ) -> "ParameterAssignment":
        """Build an assignment; unnamed parameters take ``default``."""
        vec = np.full(len(self._params), default, dtype=np.uint8)
        if values:
            for name, v in values.items():
                if v not in (0, 1):
                    raise ParameterError(
                        f"parameter {name!r}: value must be 0/1, got {v!r}"
                    )
                vec[self.index_of(name)] = v
        return ParameterAssignment(self, vec)

    def zeros(self) -> "ParameterAssignment":
        return self.assignment({})


class ParameterAssignment:
    """A concrete 0/1 value for every parameter of a space."""

    def __init__(self, space: ParameterSpace, vector: np.ndarray) -> None:
        if vector.shape != (len(space),):
            raise ParameterError(
                f"assignment vector has shape {vector.shape}, "
                f"space has {len(space)} parameters"
            )
        self.space = space
        self.vector = vector.astype(np.uint8, copy=True)

    def __getitem__(self, name: str) -> int:
        return int(self.vector[self.space.index_of(name)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ParameterAssignment)
            and self.space is other.space
            and np.array_equal(self.vector, other.vector)
        )

    def diff(self, other: "ParameterAssignment") -> list[str]:
        """Names of parameters whose values differ."""
        if self.space is not other.space:
            raise ParameterError("assignments from different spaces")
        idx = np.nonzero(self.vector != other.vector)[0]
        return [self.space.names[i] for i in idx]

    def as_dict(self) -> dict[str, int]:
        return {p.name: int(self.vector[p.index]) for p in self.space}

    def __repr__(self) -> str:
        on = [p.name for p in self.space if self.vector[p.index]]
        return f"ParameterAssignment(on={on[:8]}{'...' if len(on) > 8 else ''})"
