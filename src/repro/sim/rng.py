"""Deterministic random-number streams for simulations.

Every stochastic component in :mod:`repro` draws from a named child stream of
a single master seed.  This gives two properties the paper's methodology
needs:

* **Reproducibility** — a whole experiment (graph construction, churn trace,
  every estimator run) is a pure function of one integer seed.
* **Isolation** — adding RNG consumption to one component (say, the churn
  scheduler) does not perturb the draws seen by another (say, the
  Sample&Collide walker), because each component owns its own
  :class:`numpy.random.Generator` spawned via ``SeedSequence``.

Example
-------
>>> hub = RngHub(42)
>>> g1 = hub.stream("overlay")
>>> g2 = hub.stream("walker")
>>> hub2 = RngHub(42)
>>> float(g1.random()) == float(hub2.stream("overlay").random())
True
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

__all__ = [
    "RngHub",
    "as_generator",
    "derive_seed",
    "generator_state",
    "generator_from_state",
]

#: Anything accepted where a random source is expected.
RngLike = Union[None, int, np.random.Generator, "RngHub"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``master_seed`` and a label.

    The derivation hashes the label so that stream identity depends only on
    the *name*, never on the order in which streams are requested.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def generator_state(gen: np.random.Generator) -> Dict[str, Any]:
    """Pure-data state capture of a generator (picklable, JSON-able).

    Returns the underlying bit generator's state dict — plain strings and
    (arbitrary-precision) ints, so it can be content-hashed and stored like
    any other snapshot payload (see ``docs/SNAPSHOTS.md``).
    :func:`generator_from_state` rebuilds a generator whose future draws
    are bit-identical to the captured one's.
    """
    return gen.bit_generator.state


def generator_from_state(state: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_state` payload.

    The bit-generator class is looked up by the name recorded in the
    state dict (``PCG64`` for every generator this package creates); a
    name that is not a :class:`numpy.random.BitGenerator` subclass raises
    ``ValueError`` before anything is called, since the state may come
    from a file.
    """
    name = str(state["bit_generator"])
    cls = getattr(np.random, name, None)
    if not (
        isinstance(cls, type)
        and issubclass(cls, np.random.BitGenerator)
        and cls is not np.random.BitGenerator
    ):
        raise ValueError(f"unknown bit generator {name!r}")
    bit_gen = cls()
    bit_gen.state = dict(state)
    return np.random.Generator(bit_gen)


class RngHub:
    """A factory of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Master seed for the experiment.  ``None`` draws entropy from the OS
        (useful interactively, never in tests).

    Notes
    -----
    Streams are cached: requesting the same name twice returns the *same*
    generator object, so components that share a name share a stream.  Use
    :meth:`fresh` when a brand-new generator of the same lineage is needed
    (e.g. one per estimation run).
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % (2**63)
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._fresh_counters: Dict[str, int] = {}

    @property
    def seed(self) -> int:
        """The master seed this hub was constructed with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for channel ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self._seed, name))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator each call, seeded from ``name`` lineage.

        The ``k``-th call for a given name is deterministic across hubs with
        the same master seed.
        """
        k = self._fresh_counters.get(name, 0)
        self._fresh_counters[name] = k + 1
        return np.random.default_rng(derive_seed(self._seed, f"{name}#{k}"))

    def child(self, name: str) -> "RngHub":
        """Return a sub-hub whose master seed is derived from ``name``.

        Useful to hand a whole subsystem (e.g. one estimator instance) its
        own namespace of streams.
        """
        return RngHub(derive_seed(self._seed, f"child:{name}"))

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data capture of the hub: seed, stream states, fresh counters.

        Covers the *consumed* lineage only — streams never requested are
        absent and will be derived on demand after :meth:`restore`, exactly
        as on the original hub (stream identity depends only on the name,
        never on request order).  Child hubs are stateless derivations of
        the seed and need no capture.
        """
        return {
            "seed": self._seed,
            "streams": {
                name: generator_state(gen) for name, gen in self._streams.items()
            },
            "fresh": dict(self._fresh_counters),
        }

    @classmethod
    def restore(cls, snap: Mapping[str, Any]) -> "RngHub":
        """Rebuild a hub from a :meth:`snapshot` payload.

        Future draws from every captured stream — and the next
        :meth:`fresh` generator of every counted lineage — are
        bit-identical to what the captured hub would have produced.
        """
        hub = cls(int(snap["seed"]))
        hub._streams = {
            str(name): generator_from_state(state)
            for name, state in snap.get("streams", {}).items()
        }
        hub._fresh_counters = {
            str(name): int(k) for name, k in snap.get("fresh", {}).items()
        }
        return hub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngHub(seed={self._seed}, streams={sorted(self._streams)})"


def as_generator(rng: RngLike, name: str = "default") -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh OS entropy), an integer seed, an existing
    generator (returned unchanged), or an :class:`RngHub` (its ``name``
    stream is used).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngHub):
        return rng.stream(name)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot interpret {rng!r} as a random generator")
