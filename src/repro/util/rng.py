"""Deterministic random-number streams.

Every stochastic component of the library (workload generation, placement
annealing, test-vector generation) draws from a named stream derived from a
single experiment seed.  Deriving streams by *name* rather than by call
order means adding a new consumer never perturbs existing results — a
requirement for regenerating the paper's tables bit-identically.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "RngHub"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a stream ``name``.

    The derivation hashes ``(root_seed, name)`` with BLAKE2b so that child
    seeds are statistically independent and stable across platforms and
    Python versions (unlike ``hash()``).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(root_seed.to_bytes(16, "little", signed=True))
    h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest(), "little") & 0x7FFF_FFFF_FFFF_FFFF


class RngHub:
    """A factory of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root experiment seed.  Two hubs with the same seed produce identical
        streams for identical names.

    Examples
    --------
    >>> hub = RngHub(42)
    >>> g1 = hub.stream("placement")
    >>> g2 = hub.stream("workload/clma")
    >>> float(g1.random()) != float(g2.random())
    True
    >>> hub2 = RngHub(42)
    >>> float(hub2.stream("placement").random()) == float(RngHub(42).stream("placement").random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object
        (stateful); use :meth:`fresh` for a restarted copy.
        """
        gen = self._cache.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.seed, name))
            self._cache[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name`` (position reset)."""
        return np.random.default_rng(derive_seed(self.seed, name))

    def child(self, name: str) -> "RngHub":
        """Return a hub whose root seed is derived from this hub and ``name``."""
        return RngHub(derive_seed(self.seed, f"hub/{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngHub(seed={self.seed}, streams={sorted(self._cache)})"
