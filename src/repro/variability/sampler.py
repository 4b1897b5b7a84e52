"""Seeded, chunk-invariant V_th offset sample streams (MC and QMC).

The rare-event estimator needs two properties the ad-hoc
``sample_vth_offsets`` helper cannot give it:

* **index addressing** — trial ``i`` of a stream must be the same
  numbers whether the stream is evaluated in one array of 10^5 trials
  or in 64 chunks of 2^11, so chunked (memory-flat) evaluation is
  byte-for-byte reproducible; and
* **low discrepancy** — a scrambled Sobol' sequence fills the
  (ΔV_th,n, ΔV_th,p) plane far more evenly than pseudo-random pairs,
  which tightens the tail estimator's confidence interval at equal
  trial count (the QMC half of the QMC+IS engine).

Both stream flavours address trials by absolute index: ``take(start,
count)`` always returns trials ``start .. start+count-1`` of the same
conceptual infinite stream.  The Sobol' stream evaluates each point in
closed form from its index, bit for bit the point scipy's engine
draws (the tests hold ``scipy.stats.qmc.Sobol`` as the oracle); the
pseudo-random stream derives one child ``SeedSequence`` per fixed-size
block, so block ``k`` is independent of how many trials were drawn
before it.

Scrambling/entropy flows are all spawned from one root seed
(``np.random.SeedSequence(seed).spawn(...)``), mirroring the
per-device split of :func:`repro.variability.montecarlo.sample_vth_offsets`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .. import perf
from ..circuit.inverter import Inverter
from ..errors import ParameterError
from .rdf import rdf_sigma_vth

#: Trials per pseudo-random block; block ``k`` of a stream is drawn
#: from child ``k`` of the stream's root ``SeedSequence``, making the
#: stream a pure function of (seed, trial index).
MC_BLOCK_TRIALS: int = 4096

#: Uniform clip bound before the normal inverse-CDF: keeps ndtri
#: finite (|z| <= ~8.2 sigma) without measurably biasing the stream.
_UNIFORM_EPS: float = 1e-16

#: Bits per Sobol' coordinate (scipy's default): a point is an integer
#: times 2**-SOBOL_BITS, and a stream holds 2**SOBOL_BITS points.
SOBOL_BITS: int = 30

#: Joe-Kuo direction-number rows for Sobol' coordinates 1, 2, ...
#: (coordinate 0 is van der Corput): the primitive polynomial with its
#: leading and constant terms as bits, and the initial odd m_k.  They
#: are the first rows of scipy's ``_sobol_direction_numbers.npz``.
_JOE_KUO: tuple[tuple[int, tuple[int, ...]], ...] = (
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
)

#: Largest ``dim`` of a :class:`SobolNormalStream`.
SOBOL_MAX_DIM: int = 1 + len(_JOE_KUO)


def _clip_uniforms(u: np.ndarray) -> np.ndarray:
    return np.clip(u, _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)


def _sobol_directions(dim: int) -> np.ndarray:
    """Unscrambled direction numbers ``v[d, j] = m_j 2^(BITS-1-j)``,
    shape ``(dim, SOBOL_BITS)``: the Bratley-Fox recurrence
    ``m_j = 2^s m_(j-s) ^ m_(j-s) ^ XOR_k a_k 2^k m_(j-k)`` on each
    degree-``s`` polynomial's initial m."""
    m_rows = [[1] * SOBOL_BITS]
    for poly, m_init in _JOE_KUO[:dim - 1]:
        s = len(m_init)
        m = list(m_init)
        for j in range(s, SOBOL_BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if (poly >> (s - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        m_rows.append(m)
    weights = 1 << np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    return np.array(m_rows, dtype=np.uint32) * weights


@dataclass(frozen=True)
class SobolNormalStream:
    """Scrambled-Sobol' stream of standard-normal trial pairs.

    Point ``i`` is the digital shift XOR the scrambled direction
    numbers at the set bits of ``gray(i) = i ^ (i >> 1)``, times
    ``2**-SOBOL_BITS``, mapped through ``ndtri``.  Scrambling is scipy's
    linear-matrix scramble plus digital shift, drawn in scipy's order
    from scipy's own child of the replicate's generator, so the
    uniforms are bitwise those of
    ``scipy.stats.qmc.Sobol(d=dim, scramble=True, seed=rng)``.

    Parameters
    ----------
    seed:
        Root seed; the scrambling entropy is spawn child
        ``replicate`` of ``SeedSequence(seed)``.
    replicate:
        Which independent re-scrambling of the sequence this stream
        is.  Randomised-QMC error estimation averages a handful of
        replicates and reads the spread between them.
    dim:
        Number of coordinates per trial (one per perturbed device),
        at most :data:`SOBOL_MAX_DIM`.
    """

    seed: int = 2007
    replicate: int = 0
    dim: int = 2

    def __post_init__(self) -> None:
        if self.replicate < 0:
            raise ParameterError("replicate must be >= 0")
        if self.dim < 1:
            raise ParameterError("need at least one dimension")
        if self.dim > SOBOL_MAX_DIM:
            raise ParameterError(
                f"Sobol' streams have at most {SOBOL_MAX_DIM} dimensions")

    @functools.cached_property
    def _scrambled(self) -> tuple[np.ndarray, np.ndarray]:
        """(digital shift ``(dim,)``, scrambled directions
        ``(dim, SOBOL_BITS)``), built once per stream."""
        # scipy's engine spawns child 0 of the Generator it is given.
        rng = np.random.default_rng(np.random.SeedSequence(
            self.seed, spawn_key=(self.replicate, 0)))
        bits = SOBOL_BITS
        shift = (rng.integers(2, size=(self.dim, bits), dtype=np.uint32)
                 @ (1 << np.arange(bits, dtype=np.uint32)))
        ltm = np.tril(rng.integers(2, size=(self.dim, bits, bits),
                                   dtype=np.uint32))
        ltm |= np.eye(bits, dtype=np.uint32)
        # Each direction number's MSB-first bit vector x maps to L x
        # over GF(2).
        msb_first = np.arange(bits - 1, -1, -1, dtype=np.uint32)
        x = (_sobol_directions(self.dim)[:, :, None] >> msb_first) & 1
        y = (x @ ltm.transpose(0, 2, 1)) & 1
        return shift, y @ (np.uint32(1) << msb_first)

    def take(self, start: int, count: int) -> np.ndarray:
        """Standard-normal trials ``start .. start+count-1``, shape
        ``(count, dim)``.

        Identical for any chunking: each point is evaluated from its
        own index, so the values depend only on (seed, replicate,
        index).  A stream holds ``2**SOBOL_BITS`` points.
        """
        if start < 0 or count < 1:
            raise ParameterError("need start >= 0 and count >= 1")
        if start + count > 2 ** SOBOL_BITS:
            raise ParameterError(
                f"a Sobol' stream holds 2**{SOBOL_BITS} points")
        shift, directions = self._scrambled
        index = np.arange(start, start + count, dtype=np.uint32)
        gray = index ^ (index >> 1)
        q = np.tile(shift, (count, 1))
        for b in range(int(start + count - 1).bit_length()):
            q ^= ((gray >> b) & 1)[:, None] * directions[:, b]
        perf.bump("variability.qmc_points", count)
        return ndtri(_clip_uniforms(q * 2.0 ** -SOBOL_BITS))


@dataclass(frozen=True)
class PseudoNormalStream:
    """Block-seeded pseudo-random stream of standard-normal pairs.

    The brute-force counterpart of :class:`SobolNormalStream` with the
    same index-addressed contract: trial ``i`` lives in block
    ``i // MC_BLOCK_TRIALS``, and each block is drawn whole from its
    own spawned child stream, so chunked evaluation reproduces the
    one-shot stream bitwise.
    """

    seed: int = 2007
    replicate: int = 0
    dim: int = 2

    def __post_init__(self) -> None:
        if self.replicate < 0:
            raise ParameterError("replicate must be >= 0")
        if self.dim < 1:
            raise ParameterError("need at least one dimension")

    def _block(self, index: int) -> np.ndarray:
        root = np.random.SeedSequence(
            self.seed, spawn_key=(self.replicate, index))
        rng = np.random.default_rng(root)
        return rng.standard_normal((MC_BLOCK_TRIALS, self.dim))

    def take(self, start: int, count: int) -> np.ndarray:
        """Standard-normal trials ``start .. start+count-1``, shape
        ``(count, dim)`` (chunk-invariant, see class docstring)."""
        if start < 0 or count < 1:
            raise ParameterError("need start >= 0 and count >= 1")
        first = start // MC_BLOCK_TRIALS
        last = (start + count - 1) // MC_BLOCK_TRIALS
        blocks = [self._block(b) for b in range(first, last + 1)]
        stacked = np.concatenate(blocks, axis=0)
        offset = start - first * MC_BLOCK_TRIALS
        perf.bump("variability.mc_points", count)
        return stacked[offset:offset + count]


def qmc_vth_offsets(inverter: Inverter, n_trials: int, seed: int = 2007,
                    replicate: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Scrambled-Sobol' (NFET, PFET) V_th offset pairs [V].

    Drop-in alternative to
    :func:`repro.variability.montecarlo.sample_vth_offsets`: the same
    ``(offs_n, offs_p)`` contract, but the pairs are a low-discrepancy
    set, so Monte Carlo summaries converge faster in ``n_trials``
    (keep it a power of two for the Sobol' balance guarantee).  The
    offsets scale the devices' RDF sigmas; the underlying
    standard-normal stream is :class:`SobolNormalStream`.
    """
    if n_trials < 1:
        raise ParameterError("need at least one trial")
    z = SobolNormalStream(seed=seed, replicate=replicate).take(0, n_trials)
    sigma_n = rdf_sigma_vth(inverter.nfet)
    sigma_p = rdf_sigma_vth(inverter.pfet)
    return sigma_n * z[:, 0], sigma_p * z[:, 1]
