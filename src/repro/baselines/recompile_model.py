"""Compile-time model of the conventional debug cycle.

In the conventional flow every new observed-signal set requires re-running
synthesis + place and route.  The paper (citing Chin & Wilton's analytical
model, ref. [6]) treats FPGA compile time as strongly superlinear in design
size, "minutes to hours" in practice, which is what makes recompilation the
bottleneck of FPGA debugging.

:class:`RecompileModel` provides that cost analytically — calibrated so a
mid-size (~25k LUT) design recompiles in about one hour — and can also be
anchored to a *measured* place-and-route runtime from our own TPaR so the
runtime-overhead benchmark can report both views.
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

    def scaled_to_measurement(
        self, n_luts: int, measured_s: float
    ) -> "RecompileModel":
        """Rescale the model so ``compile_time_s(n_luts) == measured_s``.

        Used to anchor the analytic curve to our own measured TPaR runtime
        for a given design, keeping the exponent (growth shape) intact.
        """
        cur = self.compile_time_s(n_luts)
        if cur <= self.base_s:
            return self
        scale = max(0.0, (measured_s - self.base_s)) / (cur - self.base_s)
        return RecompileModel(
            base_s=self.base_s,
            coeff_s=self.coeff_s * scale,
            exponent=self.exponent,
        )
