"""The parameterized bitstream (PConf).

A PConf (§I, §III) is ``an FPGA configuration bitstream with some of its
bits expressed as Boolean functions of parameters``.  Concretely:

* a dense *baseline* bit array (the static bits, packed ``uint64``);
* a sparse map ``bit index → BoolExpr`` for the tunable bits.

:meth:`ParameterizedBitstream.specialize` evaluates every tunable bit for a
parameter assignment and returns a concrete bit array — the operation the
embedded Specialized Configuration Generator performs on-device.  Distinct
bits frequently share expressions (all switches on one mux-tree branch
carry the same path condition), so evaluation memoizes per expression
object; the memoization also gives an honest operation count for the
§V-C.2 timing model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SpecializationError
from repro.core.boolfunc import BoolExpr
from repro.core.parameters import ParameterAssignment, ParameterSpace
from repro.util.bitops import words_for_bits

__all__ = ["ParameterizedBitstream", "SpecializeStats"]


@dataclass
class SpecializeStats:
    """Work accounting for one specialization (feeds the cost model)."""

    n_tunable_bits: int
    n_expr_nodes_evaluated: int
    n_bits_changed: int


class ParameterizedBitstream:
    """Bitstream with Boolean-function bits.

    >>> from repro.core.boolfunc import bf_var
    >>> from repro.core.parameters import ParameterSpace
    >>> sp = ParameterSpace(["p"])
    >>> pb = ParameterizedBitstream(sp, n_bits=8)
    >>> pb.set_constant(0, 1)
    >>> pb.set_tunable(3, bf_var(0))
    >>> bits, _ = pb.specialize(sp.assignment({"p": 1}))
    >>> int(bits[0]), int(bits[3])
    (1, 1)
    """

    def __init__(self, space: ParameterSpace, n_bits: int) -> None:
        if n_bits < 0:
            raise SpecializationError("n_bits must be non-negative")
        self.space = space
        self.n_bits = int(n_bits)
        self.baseline = np.zeros(self.n_bits, dtype=np.uint8)
        self.tunable: dict[int, BoolExpr] = {}

    # -- construction -------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n_bits:
            raise SpecializationError(
                f"bit index {index} out of range [0, {self.n_bits})"
            )

    def set_constant(self, index: int, value: int) -> None:
        """Pin a static bit."""
        self._check_index(index)
        if index in self.tunable:
            raise SpecializationError(f"bit {index} is already tunable")
        self.baseline[index] = 1 if value else 0

    def set_tunable(self, index: int, expr: BoolExpr) -> None:
        """Make a bit a Boolean function of the parameters."""
        self._check_index(index)
        n_params = len(self.space)
        bad = [i for i in expr.support() if not 0 <= i < n_params]
        if bad:
            raise SpecializationError(
                f"bit {index}: expression uses unknown parameter indices "
                f"{sorted(bad)[:4]}"
            )
        if expr.is_const():
            # constant expressions are static bits; keep the sparse map tight
            self.baseline[index] = expr.value
            self.tunable.pop(index, None)
        else:
            self.tunable[index] = expr

    @property
    def n_tunable(self) -> int:
        return len(self.tunable)

    @property
    def n_distinct_exprs(self) -> int:
        return len({id(e) for e in self.tunable.values()})

    # -- specialization ----------------------------------------------------------

    def specialize(
        self, assignment: ParameterAssignment
    ) -> tuple[np.ndarray, SpecializeStats]:
        """Evaluate every tunable bit; returns ``(bits, stats)``.

        ``bits`` is a dense ``uint8`` 0/1 array of length :attr:`n_bits`.
        """
        if assignment.space is not self.space:
            raise SpecializationError(
                "assignment belongs to a different parameter space"
            )
        bits = self.baseline.copy()
        vec = assignment.vector
        cache: dict[int, int] = {}
        nodes_evaluated = 0
        changed = 0
        for index, expr in self.tunable.items():
            key = id(expr)
            val = cache.get(key)
            if val is None:
                val = expr.evaluate(vec)
                nodes_evaluated += expr.n_nodes()
                cache[key] = val
            if bits[index] != val:
                changed += 1
            bits[index] = val
        stats = SpecializeStats(
            n_tunable_bits=len(self.tunable),
            n_expr_nodes_evaluated=nodes_evaluated,
            n_bits_changed=changed,
        )
        return bits, stats

    def specialize_packed(
        self, assignment: ParameterAssignment
    ) -> tuple[np.ndarray, SpecializeStats]:
        """Like :meth:`specialize` but returns packed ``uint64`` words."""
        from repro.util.bitops import pack_bits

        bits, stats = self.specialize(assignment)
        return pack_bits(bits), stats

    def __repr__(self) -> str:
        return (
            f"ParameterizedBitstream(bits={self.n_bits}, "
            f"tunable={self.n_tunable}, params={len(self.space)})"
        )
