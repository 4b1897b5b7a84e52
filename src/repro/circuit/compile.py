"""Netlist lowering: compile a :class:`Circuit` to integer index arrays.

The scalar :class:`~repro.circuit.mna.NodalSolver` walks python lists
of elements and a name->index dict on every residual evaluation.  That
is fine for a handful of nodes, but an N-row SRAM column evaluates
thousands of device currents per Newton sweep.  This module lowers the
netlist **once** into flat numpy index arrays so the batched engine
(:mod:`repro.circuit.mna_batch`) can stamp every element of every
batch lane with a few vectorised calls:

* a full-vector node numbering — unknown nodes first (in the exact
  order of :meth:`Circuit.unknown_nodes`), then ground, then source
  nodes — so gathering element terminal voltages is integer indexing;
* dense linear stamp matrices for resistors and capacitors (residual
  contribution is one matmul; their Jacobian block is constant);
* one :class:`TransistorTable` row per transistor: full-vector
  terminal indices, a ±1 polarity sign and the device's
  :class:`~repro.device.iv.IVParams` as parameter columns, so one
  :func:`~repro.device.iv.ids_with_partials` call evaluates every
  transistor of every lane;
* two sparse incidence matrices that stamp those per-transistor
  currents into the KCL residual and their conductances into the
  flattened Jacobian, one sparse product each.  Fixed nodes map to
  the discard row/column ``n_unknown`` and drop out of the Jacobian.

Compilation is **canonical**: elements are processed in name-sorted
order, so two circuits with the same elements added in different
orders lower to bitwise-identical stamps — DC results are invariant
to insertion order (property-tested in ``tests/test_properties_mna.py``).

Memory note: the batched Jacobian is dense, ``(lanes, n, n)`` floats;
at 512 lanes a 16-row column (34 unknowns) costs ~5 MB, a 256-row
column ~1 GB.  Columns beyond ~100 rows should shrink the lane count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from ..device.iv import IVParams
from ..device.mosfet import Polarity
from .netlist import GROUND, Circuit, Transistor

__all__ = ["CompiledCircuit", "TransistorTable", "compile_circuit"]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.intp]


@dataclass(frozen=True)
class TransistorTable:
    """Every transistor of a circuit, one row each, name-sorted.

    Attributes
    ----------
    names:
        Instance names in canonical (sorted) order.
    terminals:
        ``(3, T)`` full-vector indices of drain, gate and source.
    jacobian_index:
        ``(3, T)`` Jacobian row/column of the same terminals, with
        fixed-node terminals mapped to the discard index
        ``n_unknown``.
    sign:
        ``(T, 1)`` polarity sign, +1 for NFETs and -1 for PFETs; a
        PFET is the NFET model evaluated on negated node voltages,
        with its drain current negated.
    params:
        The devices' :class:`~repro.device.iv.IVParams` as ``(T, 1)``
        parameter columns.
    """

    names: tuple[str, ...]
    terminals: IntArray
    jacobian_index: IntArray
    sign: FloatArray
    params: IVParams

    @property
    def size(self) -> int:
        """Number of transistor instances."""
        return len(self.names)

    @property
    def is_nfet(self) -> npt.NDArray[np.bool_]:
        """``(T, 1)`` mask of the NFET rows."""
        return self.sign > 0.0


@dataclass(frozen=True)
class CompiledCircuit:
    """A :class:`Circuit` lowered to index arrays and stamp matrices.

    Attributes
    ----------
    unknowns:
        Unknown node names; full-vector indices ``0 .. n_unknown-1``.
    fixed:
        Fixed node names (ground first, then source nodes sorted);
        full-vector indices ``n_unknown ..``.
    g_linear:
        ``(n_total, n_total)`` conductance stamps [S]: the resistor
        residual contribution is ``g_linear @ v_full``.
    c_linear:
        ``(n_total, n_total)`` capacitance stamps [F] (backward-Euler
        companion currents are ``c_linear @ (v - v_prev) / dt``).
    transistors:
        The :class:`TransistorTable`, in canonical (name-sorted) order.
    residual_incidence:
        Sparse ``(n_total, T)`` KCL incidence: +1 at each drain row, -1
        at each source row, so ``residual_incidence @ i_drain`` adds
        the currents flowing into the drains to the residual.
    jacobian_incidence:
        Sparse ``(n_unknown**2, 3T)`` map from the drain, gate and
        source conductances (stacked in that order) to the cells of
        the row-major flattened unknown-block Jacobian; fixed rows and
        columns are dropped.
    waveforms:
        Per-fixed-node source waveform, aligned with ``fixed``
        (``None`` for ground).
    source_names:
        Per-fixed-node source name, aligned with ``fixed`` (``None``
        for ground).
    source_position:
        Source name *and* source node -> index into ``fixed``.
    """

    unknowns: tuple[str, ...]
    fixed: tuple[str, ...]
    g_linear: FloatArray
    c_linear: FloatArray
    transistors: TransistorTable
    residual_incidence: sp.csr_matrix
    jacobian_incidence: sp.csr_matrix
    waveforms: tuple[Callable[[float], float] | None, ...]
    source_names: tuple[str | None, ...]
    source_position: Mapping[str, int]

    @property
    def n_unknown(self) -> int:
        """Number of unknown nodes (Newton system size)."""
        return len(self.unknowns)

    @property
    def n_total(self) -> int:
        """Full voltage-vector length (unknown + fixed nodes)."""
        return len(self.unknowns) + len(self.fixed)

    @property
    def node_names(self) -> tuple[str, ...]:
        """All node names in full-vector order."""
        return self.unknowns + self.fixed

    def fixed_base(self, time_s: float) -> FloatArray:
        """Fixed-node voltages [V] from the source waveforms at
        ``time_s`` [s] (ground is 0)."""
        return np.array([0.0 if w is None else float(w(time_s))
                         for w in self.waveforms], dtype=float)


def _full_index(unknowns: list[str], fixed: list[str]) -> dict[str, int]:
    index = {name: i for i, name in enumerate(unknowns)}
    for j, name in enumerate(fixed):
        index[name] = len(unknowns) + j
    return index


def _transistor_table(members: Sequence[Transistor], index: Mapping[str, int],
                      n: int) -> TransistorTable:
    terminals = np.array([[index[t.drain] for t in members],
                          [index[t.gate] for t in members],
                          [index[t.source] for t in members]],
                         dtype=np.intp).reshape(3, len(members))
    return TransistorTable(
        names=tuple(t.name for t in members),
        terminals=terminals,
        jacobian_index=np.minimum(terminals, n),
        sign=np.array([1.0 if t.device.polarity is Polarity.NFET else -1.0
                       for t in members]).reshape(-1, 1),
        params=IVParams.stack([t.device.iv.params for t in members]),
    )


def _incidences(table: TransistorTable, n: int, n_total: int
                ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The KCL and flat-Jacobian incidence matrices of ``table``."""
    size = table.size
    cols = np.arange(size)
    drain, _gate, source = table.terminals
    kcl = sp.csr_matrix(
        (np.concatenate([np.ones(size), -np.ones(size)]),
         (np.concatenate([drain, source]), np.concatenate([cols, cols]))),
        shape=(n_total, size))
    rows_out, cols_out, vals_out = [], [], []
    jac_index = table.jacobian_index
    for row_terminal, sign in ((0, 1.0), (2, -1.0)):
        row = jac_index[row_terminal]
        for k, col in enumerate(jac_index):
            keep = (row < n) & (col < n)
            rows_out.append(row[keep] * n + col[keep])
            cols_out.append(k * size + cols[keep])
            vals_out.append(np.full(int(keep.sum()), sign))
    jac = sp.csr_matrix(
        (np.concatenate(vals_out),
         (np.concatenate(rows_out), np.concatenate(cols_out))),
        shape=(n * n, 3 * size))
    return kcl, jac


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` into a :class:`CompiledCircuit`.

    Validates the topology first (same checks as the scalar solver).
    The lowering is pure — the circuit is not mutated and may keep
    being extended; recompile to pick up new elements.
    """
    circuit.validate()
    unknowns = circuit.unknown_nodes()
    sources = sorted(circuit.sources, key=lambda s: s.name)
    fixed = [GROUND] + sorted({s.node for s in sources})
    index = _full_index(unknowns, fixed)
    n = len(unknowns)
    n_total = len(unknowns) + len(fixed)

    g_linear = np.zeros((n_total, n_total))
    for r in sorted(circuit.resistors, key=lambda e: e.name):
        g = 1.0 / r.ohms
        a, b = index[r.node_a], index[r.node_b]
        g_linear[a, a] += g
        g_linear[a, b] -= g
        g_linear[b, a] -= g
        g_linear[b, b] += g

    c_linear = np.zeros((n_total, n_total))
    for c in sorted(circuit.capacitors, key=lambda e: e.name):
        a, b = index[c.node_a], index[c.node_b]
        c_linear[a, a] += c.farads
        c_linear[a, b] -= c.farads
        c_linear[b, a] -= c.farads
        c_linear[b, b] += c.farads

    transistors = _transistor_table(
        sorted(circuit.transistors, key=lambda e: e.name), index, n)
    residual_incidence, jacobian_incidence = _incidences(transistors, n,
                                                         n_total)

    waveforms: list[Callable[[float], float] | None] = [None] * len(fixed)
    names: list[str | None] = [None] * len(fixed)
    position: dict[str, int] = {}
    for s in sources:
        pos = index[s.node] - n
        waveforms[pos] = s.waveform
        names[pos] = s.name
        position[s.name] = pos
        position[s.node] = pos

    return CompiledCircuit(
        unknowns=tuple(unknowns),
        fixed=tuple(fixed),
        g_linear=g_linear,
        c_linear=c_linear,
        transistors=transistors,
        residual_incidence=residual_incidence,
        jacobian_incidence=jacobian_incidence,
        waveforms=tuple(waveforms),
        source_names=tuple(names),
        source_position=position,
    )
