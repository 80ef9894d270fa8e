"""Compile-time model of the conventional debug cycle.

In the conventional flow every new observed-signal set requires re-running
synthesis + place and route.  The paper (citing Chin & Wilton's analytical
model, ref. [6]) treats FPGA compile time as strongly superlinear in design
size, "minutes to hours" in practice, which is what makes recompilation the
bottleneck of FPGA debugging.

:class:`RecompileModel` provides that cost analytically — calibrated so a
mid-size (~25k LUT) design recompiles in about one hour.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RecompileModel"]


@dataclass(frozen=True)
class RecompileModel:
    """Analytic recompilation-time model ``t = base + coeff * n**exponent``.

    Defaults give ≈3.6 ks (one hour) at 25k LUTs and ≈6 minutes at 2k
    LUTs — consistent with the "minutes to hours" the paper quotes for
    commercial tools on real designs.
    """

    base_s: float = 30.0
    coeff_s: float = 8.0e-4
    exponent: float = 1.51

    def compile_time_s(self, n_luts: int) -> float:
        """Modeled full recompilation time for an ``n_luts`` design."""
        if n_luts < 0:
            raise ValueError("n_luts must be non-negative")
        return self.base_s + self.coeff_s * float(n_luts) ** self.exponent
