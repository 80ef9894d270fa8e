"""The parameterized bitstream (PConf).

A PConf (§I, §III) is ``an FPGA configuration bitstream with some of its
bits expressed as Boolean functions of parameters``.  Concretely:

* a dense *baseline* bit array (the static bits, one ``uint8`` per bit);
* a sparse map ``bit index → BoolExpr`` for the tunable bits.

:meth:`ParameterizedBitstream.specialize` evaluates every tunable bit for a
parameter assignment and returns a concrete bit array — the operation the
embedded Specialized Configuration Generator performs on-device.  Distinct
bits frequently share expressions (all switches on one mux-tree branch
carry the same path condition), so a PConf is lowered once — on the first
``specialize`` after construction or after any mutation — into a flat
plan: one value slot per parameter and per distinct expression DAG node,
the nodes as ``(slot, fanins, cubes)`` ops in topological order, and each
tunable bit's source slot.  The ops become one straight-line kernel from
the code generator of the simulation kernels
(:class:`repro.netlist.compiled.KernelCode`), so a call is one kernel run
and two numpy scatters.  The work accounting the §V-C.2 timing model
reads (each distinct expression's node count, every tunable bit) is a
constant of the plan.  A PConf pickles with its plan, whose kernel code
follows :class:`~repro.netlist.compiled.KernelCode`'s ``.pyc`` rule — the
pipeline's ``emulation`` stage persists the virtual PConf lowered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import SpecializationError
from repro.core.boolfunc import BoolExpr
from repro.core.parameters import ParameterAssignment, ParameterSpace
from repro.netlist.compiled import KernelCode

__all__ = ["ParameterizedBitstream", "SpecializeStats"]


@dataclass
class SpecializeStats:
    """Work accounting for one specialization (feeds the cost model)."""

    n_tunable_bits: int
    n_expr_nodes_evaluated: int
    n_bits_changed: int


#: Two-input xor cover over fanin positions 0 and 1: ``a&~b | ~a&b``.
_XOR2 = ((0b11, 0b01), (0b11, 0b10))


def _cubes(e: BoolExpr, k: int) -> tuple:
    """The ``(mask, polarity)`` cover of one lowered node over its ``k``
    fanin positions (an xor has at most two after chaining)."""
    if e.op == "not":
        return ((1, 0),)
    if e.op == "and":
        full = (1 << k) - 1
        return ((full, full),)
    if e.op == "or":
        return tuple((1 << i, 1 << i) for i in range(k))
    if e.op == "xor":
        return _XOR2 if k == 2 else ((1, 1),) * k  # a copy, or 0 if none
    if e.op == "const":  # reachable only through BoolExpr._make
        return ((0, 0),) if e.value else ()
    raise SpecializationError(f"unknown expression op {e.op!r}")


class _Plan(NamedTuple):
    """A PConf lowered for :meth:`ParameterizedBitstream.specialize`."""

    code: KernelCode  # its clean kernel evaluates every internal slot of ``v``
    pad: list  # zeros for the internal slots after the parameters
    idx: np.ndarray  # tunable bit indices
    src: np.ndarray  # each tunable bit's value slot
    base: np.ndarray  # baseline[idx]
    n_tunable_bits: int
    n_expr_nodes: int  # summed n_nodes() of the distinct expressions


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
        self._plan: _Plan | None = None

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
        self._plan = None

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
        self._plan = None

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
        One call runs the plan's generated kernel once over the parameter
        values and scatters the expression values onto the tunable bits.
        """
        if assignment.space is not self.space:
            raise SpecializationError(
                "assignment belongs to a different parameter space"
            )
        plan = self._plan or self.lower()
        v = (assignment.vector & 1).tolist()
        v += plan.pad
        plan.code.kernel("clean")(v, 1)
        values = np.frombuffer(bytes(v), dtype=np.uint8)[plan.src]  # 0/1 slots
        bits = self.baseline.copy()
        bits[plan.idx] = values
        stats = SpecializeStats(
            n_tunable_bits=plan.n_tunable_bits,
            n_expr_nodes_evaluated=plan.n_expr_nodes,
            n_bits_changed=int(np.count_nonzero(values != plan.base)),
        )
        return bits, stats

    def lower(self) -> _Plan:
        """Build (and keep) the flat plan :meth:`specialize` runs, its
        kernel generated."""
        n_params = len(self.space)
        slot_of: dict[int, int] = {}  # id(non-var node) -> its value slot
        ops: list[tuple] = []
        n_slots = n_params

        def fanin(e: BoolExpr) -> int:
            return e.var if e.op == "var" else slot_of[id(e)]

        roots: dict[int, BoolExpr] = {}
        for expr in self.tunable.values():
            roots.setdefault(id(expr), expr)
        for root in roots.values():
            stack = [(root, False)]
            while stack:
                e, ready = stack.pop()
                if e.op == "var" or id(e) in slot_of:
                    continue
                if not ready:
                    stack.append((e, True))
                    stack.extend((a, False) for a in reversed(e.args))
                    continue
                args = tuple(fanin(a) for a in e.args)
                if e.op == "xor":
                    # a chain of two-input xors keeps code linear in the DAG
                    while len(args) > 2:
                        ops.append((n_slots, args[:2], _XOR2))
                        args = (n_slots,) + args[2:]
                        n_slots += 1
                ops.append((n_slots, args, _cubes(e, len(args))))
                slot_of[id(e)] = n_slots
                n_slots += 1

        order = sorted(self.tunable)
        idx = np.array(order, dtype=np.intp)
        code = KernelCode(tuple(ops), "pconf")
        code.generate("clean")
        self._plan = _Plan(
            code=code,
            pad=[0] * (n_slots - n_params),
            idx=idx,
            src=np.array(
                [fanin(self.tunable[i]) for i in order], dtype=np.intp
            ),
            base=self.baseline[idx],
            n_tunable_bits=len(order),
            n_expr_nodes=sum(e.n_nodes() for e in roots.values()),
        )
        return self._plan

    def __repr__(self) -> str:
        return (
            f"ParameterizedBitstream(bits={self.n_bits}, "
            f"tunable={self.n_tunable}, params={len(self.space)})"
        )
