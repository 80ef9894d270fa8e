"""Reference SCG evaluator (the pre-compilation implementation).

This is :meth:`repro.core.pconf.ParameterizedBitstream.specialize` and
the SCG's frame diff exactly as they shipped before a PConf was lowered
into a generated straight-line kernel: a Python loop over every tunable
bit that evaluates each distinct expression object once with the
recursive :meth:`~repro.core.boolfunc.BoolExpr.evaluate`, sums its
:meth:`~repro.core.boolfunc.BoolExpr.n_nodes` for the work accounting,
and counts the bits that differ from the baseline; then a set-based diff
of the old and new bit vectors into frame ids.  It shares no lowering or
code generation with the plan, which makes it useful twice:

* as an **independent oracle** — ``tests/test_parameters_pconf.py`` and
  ``tests/test_bitgen_emu.py`` diff the plan's bits, stats and frame sets
  against it;
* as a **benchmark denominator** — ``bench_runtime_overhead.py`` times
  the compiled respecializations of the §V-C.2 table against it.

Not part of the package — the SCG specializes through
:meth:`~repro.core.pconf.ParameterizedBitstream.specialize`.
"""

from __future__ import annotations

import numpy as np

from repro.core.costmodel import Virtex5Model
from repro.core.parameters import ParameterAssignment
from repro.core.pconf import ParameterizedBitstream, SpecializeStats
from repro.core.scg import SpecializedConfigGenerator
from repro.errors import SpecializationError

__all__ = ["ReferenceSCG", "frames_of_changes", "specialize"]


def specialize(
    pconf: ParameterizedBitstream, assignment: ParameterAssignment
) -> tuple[np.ndarray, SpecializeStats]:
    """Evaluate every tunable bit of ``pconf``; returns ``(bits, stats)``."""
    if assignment.space is not pconf.space:
        raise SpecializationError(
            "assignment belongs to a different parameter space"
        )
    bits = pconf.baseline.copy()
    vec = assignment.vector
    cache: dict[int, int] = {}
    nodes_evaluated = 0
    changed = 0
    for index, expr in pconf.tunable.items():
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
        n_tunable_bits=len(pconf.tunable),
        n_expr_nodes_evaluated=nodes_evaluated,
        n_bits_changed=changed,
    )
    return bits, stats


def frames_of_changes(
    old: np.ndarray, new: np.ndarray, frame_bits: int
) -> tuple[int, ...]:
    """Sorted ids of the frames holding a bit that differs."""
    changed = np.nonzero(old != new)[0]
    if changed.size == 0:
        return ()
    return tuple(sorted(set((changed // frame_bits).tolist())))


class _ReferencePConf:
    """What :class:`SpecializedConfigGenerator` reads of a PConf, with
    :func:`specialize` as its evaluator."""

    def __init__(self, pconf: ParameterizedBitstream) -> None:
        self.pconf = pconf
        self.n_bits = pconf.n_bits

    def specialize(self, assignment: ParameterAssignment):
        return specialize(self.pconf, assignment)


class ReferenceSCG(SpecializedConfigGenerator):
    """A :class:`SpecializedConfigGenerator` whose evaluation and frame
    diff are the reference ones; records, costs and timing otherwise go
    through the package's code."""

    def __init__(
        self,
        pconf: ParameterizedBitstream,
        frame_bits: int = 1312,
        model: Virtex5Model | None = None,
    ) -> None:
        super().__init__(
            _ReferencePConf(pconf), frame_bits, model or Virtex5Model()
        )

    def _frames_of_changes(self, old: np.ndarray, new: np.ndarray) -> tuple[int, ...]:
        return frames_of_changes(old, new, self.frame_bits)
