"""Weighted space-time least squares for the third-order operator.

The unknown lives in a constrained trajectory space: zero at the initial
level, zero on the boundary columns, with a ghost convention that encodes a
vanishing initial velocity.  The quadratic objective is half of |M y - b|^2:
M stacks the operator rows and, per observed side, the trace and trace-rate
rows, each times its square-root weight, and b is the weighted data
[g; mu; mu_t].  It is minimized by LSMR (Fong & Saunders, SIAM J. Sci.
Comput. 33, 2011) on M R^-1; the normal equations are never formed.  R^T R
is block diagonal: one block per group of adjacent interior nodes (counted
from the observed end, so the one group that may be shorter sits at the end
nearer to x0), made of those nodes' time series in M^T M.  M^T M couples
unknowns at most four time levels and two nodes apart, so with a group's
unknowns ordered time-major each block of q nodes is one band of
half-width kd = 4q + 2.  M^T M itself is never formed: M depends on gamma only
through alpha = gamma + c^2/b, as W^1/2 (F + A D_alpha), so each band entry is
P0_ij + alpha_j Q_ij + alpha_i Q_ji + alpha_i alpha_j P2_ij with P0 = F^T W F,
Q = F^T W A and P2 = A^T W A independent of gamma.  An assembly combines these
pieces with alpha and scatters them into the bands; their diagonal is scaled
by 1 + 1e-10 (without it the steepest weights leave a block numerically
indefinite), and they are factored by banded Cholesky.

An engine starts with groups of seven nodes (kd = 30): the widest group whose
band, 31 stored rows per unknown, stays below the about 32 nonzeros per row
of M^T M, and enough where solves take a few iterations (s >= 2 on
criterion 5's datum).  The groups are counted from the observed end, the
end farther from x0, where the weight is steepest and the trace rows sit:
the iteration count follows the width of the group there, so the group that
may be shorter goes to the other end.  On 49 interior nodes (7 x 7) the
origin changes nothing.  At small s the seven-node blocks leave hundreds of
iterations per solve.  So when a solve has taken more LSMR iterations than
``_widen_threshold(grid)``, the next ``update_gamma`` regroups the engine into
one group over every interior node, and the engine keeps that width.  That
one block is all of M^T M, whose factor is exact up to the shift (kd = 198 at
51x101), and the solves after it take a handful of iterations.  The
threshold is 64 iterations on every grid that widens, above the break-even
of the pinned factor (below): 17-19 seven-node iterations per whole-width
assembly at 51x101 and 40-41 at 71x101, so the rule widens later than
break-even.  A grid whose whole-width band would pass 2^21 values (16 MiB:
51x201 fits, 101x101 does not) never widens.  The rule counts iterations,
never time, so a run's reports do not depend on the machine.

Every band is factored by LAPACK's ``dpbtrf`` with SciPy's OpenBLAS pinned
to one thread by ``openblas_set_num_threads_local``, and the previous setting
restored.  For kd <= 31 ``dpbtrf`` runs the unblocked ``dpbtf2``, so the
seven-node factor is that routine's.  At whole width it runs a blocked
update, whose factor differed between one and two OpenBLAS threads when left
to the BLAS threads; pinned, it is the same under any thread count.  On the
whole-width band at 51x101 (2-core Xeon) pinned ``dpbtrf`` takes 7-11 ms,
against 11-13 ms on two threads unpinned; an engine widens at most once and
then refactors once per outer step.

Each LSMR iteration costs one product with M, one with M^T and the two
triangular solves: R^-1 v for the product with M, and R^-T M^T u.  LSMR's
iterate is carried as y = R^-1 x and its two search directions as their
images under R^-1, updated from the R^-1 v the iteration already has, so a
certificate makes no further R^-1 solve.  The engine keeps each operation in
the form LAPACK and the sparse kernels run fastest.  At seven-node width the
factor L is stored twice, in lower band storage and transposed in upper band
storage: R^-1 = L^-T and R^-T = L^-1 are then each an untransposed banded
solve, about half the time of LAPACK's transposed one.  A wider engine, the
memoized one (below) or a widened one, stores L once, (kd + 1) n values
(7.8 MB at 51x101 when widened), and R^-1 is LAPACK's transposed solve,
whose lower speed its few iterations per solve do not feel.  M^T is stored
as CSR beside M, whose CSC view multiplies at about half the speed.  M's
columns and M^T's rows are permuted once into group order, and LSMR runs in
that order throughout, so no vector is reordered inside the loop; y goes
back to time-major order once per solve.  LSMR is the engine's own loop: its
norms are elementwise sums, not BLAS dot products, the triangular solves
split no sum across BLAS threads, and the factorization runs on one, so its
iterates do not depend on the BLAS thread count.

M's unweighted rows are built once per (grid, c, b, observed sides) and
cached read-only, so engines of every group width on that key hold one copy.
The rest of the work that M's pattern alone fixes is done once per (grid, c,
b, observed sides, group width, origin) and cached read-only, shared by
every engine on that key: each entry's interior node, M's column indices in
group order, M^T's pattern with the permutation that fills it from M's
entries, and the band entries with their band positions, from the group
blocks of the product of M's pattern with unit entries.  The pieces P0, Q
and P2 at the band entries are built once per pattern key and row weights,
forming only the group blocks of one product at a time, and the last ones
built are kept read-only.  An assembly does the work alpha changes: it
refills M's entries (and M^T's) in place, combines the pieces, checks the
band for finite values and a positive diagonal, and factors it.

Every solve is certified by the backward error of the preconditioned
problem, |R^-T M^T r| / (sqrt(n) |r|) with r = b - M y recomputed from the
returned y; sqrt(n) is |M R^-1|_F, since the trace of (R^T R)^-1 M^T M is n
for a block-diagonal R^T R made of M^T M's own blocks.  It is invariant under
scaling the data and the weights, and it is LSMR's stop rule: LSMR's
|zetabar_k| is |R^-T M^T r_k|, so whenever |zetabar_k| / (sqrt(n) times its
estimate of |r_k|) is at most the target, the certificate is recomputed from
the iterate, and the solve returns at the first iterate that meets it.  A
certificate costs one product with M, one with M^T and an R^-T solve; the
minimization reads its M y for the diagnostics instead of forming it again.
LSMR's own stop tests are not used.  Every solve starts from y = 0 (zero data
stop LSMR after no iteration); data holding a NaN or an infinity are rejected
before LSMR starts, and a solve that reaches its iteration cap with a
certificate above the target, NaN included, raises.

All weighted sums use weights normalized by the global minimum exponent, a
positive rescaling of the objective that does not move the minimizer; every
reported weighted value therefore carries the common factor
exp(-log_weight_min).  The table is ``carleman.normalized_weight_table``,
built once per engine.  The solve, the objective, the graph norm and the
minimizer diagnostics all evaluate an engine's assembled M and weighted data.
``weighted_data_norms`` takes no coefficients, so it has no engine: it builds
its own table and weights the data at s = 1.

``CarlemanLeastSquares.minimize`` is the one minimization: it weights the
data, solves and computes the diagnostics with one assembled engine, which
the reconstruction loop keeps across its iterations.  ``minimize_J``,
``minimizer_difference_check``, ``evaluate_J`` and ``v_norm_sq`` use a
memoized engine, keyed on the whole problem: (grid, c, b, the bytes of
gamma, box bound, Carleman setup).  Two entries are kept, so a batch of
minimizations and evaluations on one problem, or alternating between two,
assembles once per problem and builds one weight table, and the diagnostics
at a minimizer equal ``evaluate_J`` and ``v_norm_sq`` there bit for bit.
Evaluating a problem not seen before assembles and factors its engine, so it
raises :class:`MinimizationError` where that band cannot be factored.  That
engine is factored once for many solves, so it is built on groups of
``_SHARED_GROUP_NODES`` = 16 nodes (kd = 66), counted from the observed end,
with L stored once: criterion 2's 60 solves at 51x201 take 70 LSMR
iterations, against 395 on seven-node groups.  The products only read the
engine's arrays.  A solve records only its iteration count, which matters
only to ``update_gamma``, and the M y of its certificate, which only the
minimization that made the solve reads.  The engine is never returned and
never updated, so it keeps its width, and a reused engine gives the bits a
fresh one on that width would.
Gamma is keyed by its bytes at call time: a caller who edits their array in
place gets a new engine.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import _flapack
from scipy.linalg.lapack import dpbtrf, dtbtrs

from .carleman import CarlemanSetup, admissible_geometry, normalized_weight_table
from .grid import (SpaceTimeGrid, apply_laplacian, boundary_normal_derivative,
                   time_derivative_matrix_zero_start, trapezoid_weights,
                   zero_start_acceleration)
from .observation import zero_mu
from .solver import MGTCoefficients


# Farthest time-level coupling within a node's series in M^T M:
# the third difference spans five levels, so its Gram product spans +-4.
_TIME_BANDWIDTH = 4

# Interior nodes per preconditioner block of a new engine, counted from the
# observed end; _widen_threshold says when it widens.  M^T M couples nodes
# at most two apart, so a group of q nodes in time-major order is one band
# with kd = 4q + 2: 4q + 3 = 31 stored rows per unknown, below the about 32
# nonzeros per row of M^T M.
_GROUP_NODES = 7

# Interior nodes per block of the memoized engine (kd = 66), which is
# factored once for every solve on its problem.  Criterion 2's 60 solves at
# 51x201 take 395 LSMR iterations on seven-node groups (0.45 s on a 2-core
# Xeon), 136 on 13-node ones (0.32 s), 70 on 16 (0.19 s) and 60 on 19
# (0.21 s): past 16 the wider solves cost more than the iterations saved.
_SHARED_GROUP_NODES = 16

# Entries kept by the cache of M's unweighted rows and by that of the plans
_PATTERN_KEYS = 4

# Relative shift of the blocks' diagonal before factoring: without it the
# steepest weights (s = 4) leave a group block numerically indefinite.
_BLOCK_SHIFT = 1e-10

# After a solve of more LSMR iterations than _widen_threshold(grid),
# ``update_gamma`` regroups the engine into one group over every interior
# node; see _widen_threshold for the break-evens below this threshold.
_WIDEN_ITERATIONS = 64

# Largest whole-width band, in stored values (16 MiB): 51x201 (1.95e6) and
# 71x101 (1.93e6) fit, 101x101 (3.9e6) does not.
_WIDE_BAND_VALUES = 2 ** 21


def _widen_threshold(grid: SpaceTimeGrid) -> Optional[int]:
    """LSMR iterations of one solve above which an engine on ``grid`` widens
    to one group over every interior node, or None if it never widens.

    An engine whose interior nodes fit one seven-node group is already
    whole; one whose whole-width band would exceed ``_WIDE_BAND_VALUES``
    keeps seven-node groups; every other engine widens after a solve of more
    than 64 iterations.  Measured on a 2-core Xeon with ``dpbtrf`` on one
    thread, the break-even (the extra time of a whole-width ``update_gamma``
    over a seven-node one, in seven-node LSMR iterations) is 9-10 at 31x61,
    13-17 at 41x81, 17-19 at 51x101, 26 at 51x201 and 40-41 at 71x101, so the
    rule widens late rather than early on every grid it lets widen.
    """
    nodes = grid.nx - 2
    kd = _band_kd(nodes)
    if nodes <= _GROUP_NODES or (kd + 1) * nodes * (grid.nt - 1) > _WIDE_BAND_VALUES:
        return None
    return _WIDEN_ITERATIONS


# Half-width of the seven-node band.  Bands up to it keep L in lower and in
# upper storage; wider ones, the memoized engine's and a widened one's, keep
# L alone.
_BOTH_STORAGES_KD = _TIME_BANDWIDTH * _GROUP_NODES + 2


def _blas_thread_setter(library: str):
    """OpenBLAS's ``openblas_set_num_threads_local``, found in ``library`` or
    the libraries it links; ImportError if none exports it."""
    try:
        setter = ctypes.CDLL(library).openblas_set_num_threads_local
    except AttributeError:
        raise ImportError(f"{library} links no OpenBLAS exporting "
                          "openblas_set_num_threads_local") from None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


# looked up through the extension that holds dpbtrf, so it sets SciPy's
# OpenBLAS, not the separate ILP64 one numpy loads.  In SciPy's OpenBLAS
# 0.3.30 the setting, despite its name, is seen by every thread.
_set_blas_threads = _blas_thread_setter(_flapack.__file__)


def _band_cholesky(band: np.ndarray) -> int:
    """Factor a Fortran-ordered lower band in place by LAPACK's ``dpbtrf`` on
    one OpenBLAS thread; returns its info.  Up to kd = 31 ``dpbtrf`` runs the
    unblocked ``dpbtf2``; above it, its blocked update run on two OpenBLAS
    threads gave another factor than on one (whole width, kd = 198), and on
    one thread it is the same factor under every ``OPENBLAS_NUM_THREADS``.
    The previous thread setting is restored, whatever the outcome."""
    # SciPy would factor any other array in a copy, leaving ``band`` as it was
    if band.ndim != 2 or band.dtype != np.float64 or not band.flags.f_contiguous:
        raise ValueError("the band must be a Fortran-ordered 2-D float64 array")
    previous = _set_blas_threads(1)
    try:
        return dpbtrf(band, lower=1, overwrite_ab=1)[1]
    finally:
        _set_blas_threads(previous)


class MinimizationError(RuntimeError):
    """Assembly breakdown or failure to reach the requested backward error."""


@dataclass
class MinimizerDiagnostics:
    j_value: float
    v_norm_sq: float
    el_residual: float
    solver_iterations: int
    bound_slack: float


@dataclass
class TrajectoryVariable:
    """Interior unknowns at time levels 1..nt-1; level 0 and boundary fixed."""

    grid: SpaceTimeGrid
    values: np.ndarray      # shape (nt - 1, nx - 2)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt - 1, self.grid.nx - 2)
        if self.values.shape != expected:
            raise ValueError(f"values have shape {self.values.shape}, expected {expected}")

    @classmethod
    def from_vector(cls, vec: np.ndarray, grid: SpaceTimeGrid) -> "TrajectoryVariable":
        return cls(grid, np.asarray(vec, dtype=float).reshape(grid.nt - 1, grid.nx - 2))

    @classmethod
    def from_full_field(cls, field: np.ndarray, grid: SpaceTimeGrid) -> "TrajectoryVariable":
        field = np.asarray(field, dtype=float)
        if field.shape != (grid.nt, grid.nx):
            raise ValueError(f"field has shape {field.shape}, expected ({grid.nt}, {grid.nx})")
        if not np.all(np.isfinite(field)):
            raise ValueError("field must be finite")
        scale = max(np.abs(field).max(), 1.0)
        if np.abs(field[0]).max() > 1e-12 * scale:
            raise ValueError("field must vanish at the initial time level")
        if max(np.abs(field[:, 0]).max(), np.abs(field[:, -1]).max()) > 1e-12 * scale:
            raise ValueError("field must vanish on the boundary columns")
        return cls(grid, field[1:, 1:-1].copy())

    def to_vector(self) -> np.ndarray:
        return self.values.ravel()


def initial_second_derivative(y_star: TrajectoryVariable, dt: float) -> np.ndarray:
    """Recovered initial acceleration, :func:`grid.zero_start_acceleration`
    at the interior nodes, zero at the boundary."""
    out = np.zeros(y_star.grid.nx)
    out[1:-1] = zero_start_acceleration(y_star.values[0], dt)
    return out


def _as_mu_list(mu, sides: Sequence[str], nt: int, dt: float) -> list:
    """The trace targets, None (zero) or one MuPair per observed side,
    checked against the grid's sides, length and time step."""
    if mu is None:
        return [zero_mu(side, nt, dt) for side in sides]
    mu = list(mu)
    got = sorted(pair.side for pair in mu)
    if got != sorted(sides):
        raise ValueError(f"trace targets cover sides {got}, geometry observes {sorted(sides)}")
    for pair in mu:
        if pair.mu.shape != (nt,) or pair.mu_t.shape != (nt,):
            raise ValueError("trace target length does not match the grid")
        if pair.dt != dt:
            raise ValueError(f"trace target time step {pair.dt} does not match the "
                             f"grid's time step {dt}")
    return mu


@functools.lru_cache(maxsize=_PATTERN_KEYS)
def _unweighted_rows(grid: SpaceTimeGrid, c: float, b: float, sides: tuple):
    """Read-only unweighted rows of M: the operator at every level and interior
    node (time-major), then per observed side the trace at every level and its
    rate.  Returns (fixed, alpha_rows), the gamma-independent rows and the
    second-derivative rows whose columns alpha scales: M is the square-root
    weights times fixed + alpha_rows diag(alpha).  Both are stored on one
    shared pattern, the union of their own, so they share ``indices`` and
    ``indptr`` and M's entries are their data combined entry by entry.
    The stencils are the ``grid`` functions applied to the identity.  Cached
    per key, so the plans of every group width on it hold one copy.
    """
    nt, nt1, m = grid.nt, grid.nt - 1, grid.nx - 2
    embed = sp.csr_matrix((np.ones(nt1), (np.arange(1, nt), np.arange(nt1))),
                          shape=(nt, nt1))
    d1e, d2e, d3e = (sp.csr_matrix(time_derivative_matrix_zero_start(nt, grid.dt, k))
                     @ embed for k in (1, 2, 3))
    # the stencil applied to each unit field gives the Laplacian's transpose,
    # equal to it on the interior nodes
    lap_int = sp.csr_matrix(apply_laplacian(np.eye(grid.nx), grid)[1:-1, 1:-1])
    eye_m = sp.identity(m, format="csr")
    trace_rows = []
    for side in sides:
        # the trace stencil's interior coefficients; the boundary node is held
        # at zero, so only two survive
        stencil = boundary_normal_derivative(np.eye(grid.nx), grid, side)[1:-1]
        row = sp.csr_matrix(stencil[None, :])
        trace_rows += [sp.kron(embed, row), sp.kron(d1e, row)]
    fixed = sp.vstack([sp.kron(d3e, eye_m) - c ** 2 * sp.kron(embed, lap_int)
                       - b * sp.kron(d1e, lap_int)] + trace_rows, format="csr")
    zero_rows = sp.csr_matrix((nt * len(trace_rows), nt1 * m))
    alpha_rows = sp.vstack([sp.kron(d2e, eye_m), zero_rows], format="csr")
    # the real and imaginary parts of one complex matrix share the union of
    # both patterns, and their sum cancels no entry
    both = (fixed + 1j * alpha_rows).tocsr()
    both.sort_indices()
    parts = both.data.real.copy(), both.data.imag.copy()
    for array in (both.indices, both.indptr, *parts):
        array.flags.writeable = False
    return tuple(sp.csr_matrix((data, both.indices, both.indptr), shape=both.shape)
                 for data in parts)


@dataclass(frozen=True)
class _PatternPlan:
    """Read-only structure of M that its pattern alone fixes, shared by every
    engine on one (grid, c, b, observed sides, group width, origin).

    Unknowns are numbered time-major (level t of interior node j at t * m + j)
    or in group order: groups of ``group_nodes`` adjacent interior nodes
    counted from the right end if ``from_right``, else from the left, so that
    the one group possibly shorter sits at the other end; each group's
    unknowns are contiguous and time-major within it, so that level t of node
    j, in the group of nodes start to start + width - 1, sits at
    nt1 * start + t * width + j - start.  ``position`` maps each time-major
    index there and ``group_order`` back; ``bounds`` holds each group's first
    group-order index, then n.

    The band entries are the entries of M^T M's structural pattern on or
    above the diagonal whose two unknowns share a group.  ``slots`` holds
    their flat positions in the group band's Fortran-ordered lower storage:
    the entries whose two unknowns sit at one node first, then those one node
    apart, then those two apart, each kind sorted by the row's node and then
    the column's.  Alpha reaches only the entries at most one node apart;
    ``alpha_runs`` splits them into runs of one (row node, column node) pair.
    """

    fixed: sp.csr_matrix            # M's unweighted rows, see _unweighted_rows
    alpha_rows: sp.csr_matrix
    entry_node: np.ndarray          # the interior node of each entry's column
    row_sizes: np.ndarray           # the number of entries in each row
    grouped_indices: np.ndarray     # M's column indices in group order
    transpose_indptr: np.ndarray    # M^T as CSR with its rows in group order;
    transpose_indices: np.ndarray   # its entries are M's in transpose_order
    transpose_order: np.ndarray
    position: np.ndarray
    group_order: np.ndarray
    bounds: np.ndarray
    group_nodes: int
    from_right: bool
    slots: np.ndarray
    alpha_runs: np.ndarray          # rows: row node, column node, run length


def _band_kd(group_nodes: int) -> int:
    """Half-width of a group band: M^T M couples levels four apart, nodes two."""
    return _TIME_BANDWIDTH * group_nodes + 2


def _group_blocks(left_t: sp.csr_matrix, right_t: sp.csr_matrix,
                  bounds: np.ndarray) -> sp.coo_matrix:
    """The entries of left_t right_t^T whose two unknowns share a group.

    Both arguments are n x rows, their rows in group order.  Only the group
    blocks are formed: each argument's columns are split by group, row i's
    entries moving to columns group(i) * rows + k, so that unknowns of two
    groups share no column."""
    rows, groups = left_t.shape[1], bounds.size - 1
    shift = np.repeat(np.arange(0, groups * rows, rows, dtype=left_t.indices.dtype),
                      np.diff(bounds))

    def split(matrix):
        return sp.csr_matrix((matrix.data, matrix.indices
                              + np.repeat(shift, np.diff(matrix.indptr)), matrix.indptr),
                             shape=(matrix.shape[0], groups * rows))

    return (split(left_t) @ split(right_t).T).tocoo()


def _upper_entries(block: sp.coo_matrix, kd: int) -> tuple:
    """(flat positions in the group band's Fortran-ordered lower storage,
    values) of a group-block matrix's entries on or above the diagonal; the
    position of (row, col) is row (kd + 1) + col - row."""
    upper = block.col >= block.row
    return block.row[upper] * kd + block.col[upper], block.data[upper]


@functools.lru_cache(maxsize=_PATTERN_KEYS)
def _pattern_plan(grid: SpaceTimeGrid, c: float, b: float, sides: tuple,
                  group_nodes: int, from_right: bool) -> _PatternPlan:
    """The pattern work of an engine, done once per key; see _PatternPlan.

    The band entries come from the group blocks of the product of M's
    pattern with unit entries: nothing cancels in it, so its pattern holds
    that of every numeric product of M's rows on this key.
    """
    fixed, alpha_rows = _unweighted_rows(grid, c, b, sides)
    nt1, m = grid.nt - 1, grid.nx - 2
    n = nt1 * m
    # counted from the right, the first group lacks ``missing`` nodes
    missing = -m % group_nodes if from_right else 0
    edges = np.clip(np.arange(-missing, m + group_nodes, group_nodes), 0, m)
    node = np.arange(m)
    group = (node + missing) // group_nodes
    start, width = edges[group], np.diff(edges)[group]
    position = (nt1 * start[None, :] + np.arange(nt1)[:, None] * width[None, :]
                + (node - start)[None, :]).ravel()
    group_order = np.empty(n, dtype=np.intp)
    group_order[position] = np.arange(n)
    bounds = nt1 * edges

    indices, indptr = fixed.indices, fixed.indptr
    grouped_indices = position[indices].astype(indices.dtype)
    # M^T on its own pattern: the transpose of a matrix whose entries are
    # their own numbers in M
    flipped = sp.csr_matrix((np.arange(fixed.nnz, dtype=np.int32), grouped_indices,
                             indptr), shape=fixed.shape).T.tocsr()
    unit_t = sp.csr_matrix((np.ones(fixed.nnz), flipped.indices, flipped.indptr),
                           shape=flipped.shape)
    kd = _band_kd(group_nodes)
    slots = _upper_entries(_group_blocks(unit_t, unit_t, bounds), kd)[0]
    del unit_t
    # the entries sorted by the distance of their two nodes, then by the
    # row's and the column's node; runs of one node pair among the entries
    # at most one node apart
    low, offset = np.divmod(slots, kd + 1)
    nodes = group_order % m
    row_node, col_node = nodes[low], nodes[low + offset]
    del low, offset, nodes
    apart = np.abs(row_node - col_node)
    key = ((apart * m + row_node) * m + col_node).astype(np.min_scalar_type(3 * m * m))
    order = np.argsort(key, kind="stable")
    del key
    coupled = np.count_nonzero(apart <= 1)
    row_node, col_node = row_node[order[:coupled]], col_node[order[:coupled]]
    first = np.flatnonzero(np.diff(row_node, prepend=-1) | np.diff(col_node, prepend=-1))
    runs = np.stack([row_node[first], col_node[first], np.diff(first, append=coupled)])
    plan = _PatternPlan(
        fixed=fixed, alpha_rows=alpha_rows,
        entry_node=(indices % m).astype(np.min_scalar_type(m)),
        row_sizes=np.diff(indptr),
        grouped_indices=grouped_indices,
        transpose_indptr=flipped.indptr, transpose_indices=flipped.indices,
        transpose_order=flipped.data,
        position=position, group_order=group_order, bounds=bounds,
        group_nodes=group_nodes, from_right=from_right,
        slots=slots[order].astype(np.int32),
        alpha_runs=runs)
    for array in (plan.entry_node, plan.row_sizes, grouped_indices, flipped.indptr,
                  flipped.indices, flipped.data, position, group_order, bounds,
                  plan.slots, runs):
        array.flags.writeable = False
    return plan


@dataclass(frozen=True)
class _BandPieces:
    """The gamma-independent parts of the band entries of M^T M, in the
    order of the plan's ``slots``.

    M is W^1/2 (F + A D_alpha), F the plan's ``fixed`` rows, A its
    ``alpha_rows`` and D_alpha the diagonal of alpha at each unknown's node,
    so band entry (i, j) is
    P0_ij + alpha_j Q_ij + alpha_i Q_ji + alpha_i alpha_j P2_ij
    with P0 = F^T W F, Q = F^T W A and P2 = A^T W A.  A's rows touch one node
    each, so Q vanishes on the entries more than one node apart and P2 on
    those at two nodes: each is stored on the leading entries where it can be
    nonzero.
    """

    fixed: np.ndarray       # P0 at every entry
    mixed: np.ndarray       # Q_ij at the entries at most one node apart
    mixed_t: np.ndarray     # Q_ji there
    alpha: np.ndarray       # P2 at the entries at one node


@functools.lru_cache(maxsize=1)
def _band_pieces(grid: SpaceTimeGrid, c: float, b: float, sides: tuple,
                 group_nodes: int, from_right: bool, root_weight: bytes) -> _BandPieces:
    """The band's pieces for the plan of (grid, c, b, sides, group_nodes,
    from_right) and the rows' square-root weights (as bytes, so that they key
    the cache).

    One entry is kept, so a change of weight table or of plan rebuilds it: a
    reconstruction keeps one table, but the scale sweep runs one per s value
    and rebuilds at each, and the memoized engine's sixteen-node groups are
    another plan than a new engine's seven-node ones.  A rebuild (about
    16 ms at 51x101, 26 ms at 51x201 on seven-node groups) costs what three
    to five assemblies save.

    Only the group blocks of each product are formed, one product at a
    time; each is read at the band entries through a zeroed band and
    dropped before the next.
    """
    plan = _pattern_plan(grid, c, b, sides, group_nodes, from_right)
    order = plan.transpose_order
    # W^1/2 F and W^1/2 A transposed, as CSR with their rows in group order;
    # A on its own entries, since the pattern it shares also holds F's
    weight = np.repeat(np.frombuffer(root_weight), plan.row_sizes)[order]
    shape = plan.fixed.shape[::-1]
    rows_f = sp.csr_matrix((plan.fixed.data[order] * weight, plan.transpose_indices,
                            plan.transpose_indptr), shape=shape)
    alpha_data = plan.alpha_rows.data[order]
    own = alpha_data != 0
    rows_a = sp.csr_matrix((alpha_data[own] * weight[own], plan.transpose_indices[own],
                            np.concatenate([[0], np.cumsum(own)])[plan.transpose_indptr]),
                           shape=shape)
    del weight, alpha_data, own
    kd = _band_kd(group_nodes)

    def read(slots, values, count):
        band = np.zeros(shape[0] * (kd + 1))
        band[slots] = values
        return band[plan.slots[:count]]

    # each piece read once the previous product is gone; Q and Q^T are the
    # upper entries of one product and of its transpose
    row_node, col_node, length = plan.alpha_runs
    fixed = read(*_upper_entries(_group_blocks(rows_f, rows_f, plan.bounds), kd),
                 plan.slots.size)
    block = _group_blocks(rows_f, rows_a, plan.bounds)
    mixed = read(*_upper_entries(block, kd), length.sum())
    mixed_t = read(*_upper_entries(block.T, kd), length.sum())
    del block
    pieces = _BandPieces(fixed=fixed, mixed=mixed, mixed_t=mixed_t, alpha=read(
        *_upper_entries(_group_blocks(rows_a, rows_a, plan.bounds), kd),
        length[row_node == col_node].sum()))
    for array in (pieces.fixed, pieces.mixed, pieces.mixed_t, pieces.alpha):
        array.flags.writeable = False
    return pieces


def _band_values(pieces: _BandPieces, plan: _PatternPlan, alpha: np.ndarray) -> np.ndarray:
    """The band entries of M^T M in ``slots`` order, from the pieces and alpha
    at the interior nodes: P0 + alpha_j Q_ij + alpha_i Q_ji + alpha_i^2 P2,
    alpha_i = alpha_j on the entries at one node."""
    row_node, col_node, length = plan.alpha_runs
    values = pieces.fixed.copy()
    near = values[:pieces.mixed.size]
    for nodes, mixed in ((col_node, pieces.mixed), (row_node, pieces.mixed_t)):
        term = np.repeat(alpha[nodes], length)
        term *= mixed
        near += term
        del term
    same = row_node == col_node
    term = np.repeat(np.square(alpha[row_node[same]]), length[same])
    term *= pieces.alpha
    near[:term.size] += term
    return values


def _row_weights(grid: SpaceTimeGrid, sides: Sequence[str], omega: np.ndarray,
                 s: float) -> np.ndarray:
    """Quadrature weight of each row of M: (1/s) q_t h omega at the operator
    rows, q_t omega at the observed column for each trace and rate row."""
    qt = trapezoid_weights(grid.nt, grid.dt)
    weights = [(1.0 / s) * qt[:, None] * grid.h * omega[:, 1:-1]]
    for side in sides:
        col = 0 if side == "left" else grid.nx - 1
        weights += [qt * omega[:, col]] * 2
    return np.concatenate([w.ravel() for w in weights])


def _weighted_data(root_weight: np.ndarray, grid: SpaceTimeGrid, sides: Sequence[str],
                   mu, g: Optional[np.ndarray]) -> np.ndarray:
    """Square-root weights times the data [g; mu; mu_t], row by row of M."""
    mu_list = _as_mu_list(mu, sides, grid.nt, grid.dt)
    g = np.zeros((grid.nt, grid.nx)) if g is None else np.asarray(g, dtype=float)
    if g.shape != (grid.nt, grid.nx):
        raise ValueError(f"target has shape {g.shape}, expected ({grid.nt}, {grid.nx})")
    parts = [g[:, 1:-1].ravel()]
    by_side = {pair.side: pair for pair in mu_list}
    for side in sides:
        parts += [by_side[side].mu, by_side[side].mu_t]
    return root_weight * np.concatenate(parts)


def _sum_of_squares(v: np.ndarray) -> float:
    """|v|^2 summed elementwise: OpenBLAS threads a dot product above 10,000
    entries, and waking its threads took about 8 ms per call on a busy 2-core
    machine, against 15 us for this sum."""
    return float(np.sum(v * v))


def _givens(a: float, b: float):
    """(c, s, r) with c a + s b = r = hypot(a, b) and s a = c b."""
    r = math.hypot(a, b)
    return a / r, b / r, r


def _weighting(carleman: CarlemanSetup, grid: SpaceTimeGrid):
    """Validated geometry and weight table."""
    geometry = admissible_geometry(carleman.geometry, grid)
    return geometry, normalized_weight_table(grid, geometry, carleman.scales)


class CarlemanLeastSquares:
    """Assembled quadratic objective for one (coefficients, weights, grid).

    ``operator`` is the stacked weighted residual map M: square-root weights
    times the operator rows and the value and rate trace rows of each
    observed side, so the objective is half of |M y - weighted_data|^2.  The
    engine also holds M with its columns in group order (on the same
    entries), M^T as CSR with its rows in group order, and the banded
    Cholesky factor of the node-group time-series blocks of M^T M, the right
    preconditioner of the solve: in lower and in upper band storage for
    seven-node groups, in lower storage alone for the memoized engine's
    sixteen-node groups and once a long solve has widened the engine to one
    group over every interior node.  The
    blocks are combined from gamma-independent pieces that engines with the
    same pattern and weights share; M^T M is never formed.  M depends on the
    zeroth-order coefficient only through alpha; ``update_gamma`` refills M
    and M^T in place and refactors, which is what the reconstruction loop
    needs.  ``minimize`` solves with the engine's own coefficients and
    weights.  ``omega`` is the normalized weight table;
    :func:`minimizer_difference_check` reuses it.  :func:`minimize_J`,
    :func:`minimizer_difference_check`, :func:`evaluate_J` and
    :func:`v_norm_sq` share one memoized engine per problem (see
    :func:`_shared_engine`), which is never updated.  Every engine counts
    its node groups from the observed end.
    """

    def __init__(self, coeffs: MGTCoefficients, carleman: CarlemanSetup,
                 grid: SpaceTimeGrid, group_nodes: Optional[int] = None):
        """``group_nodes`` (by default ``_GROUP_NODES``) is the width of the
        engine's first node groups; only :func:`_shared_engine` sets it."""
        self.geometry, self.omega = _weighting(carleman, grid)
        self.scales = carleman.scales
        self.grid = grid

        self._root_weight = np.sqrt(_row_weights(grid, self.geometry.gamma0_sides,
                                                 self.omega, self.scales.s))
        self.coeffs = coeffs
        self._group(min(_GROUP_NODES if group_nodes is None else group_nodes,
                        grid.nx - 2))
        self._widen_after = _widen_threshold(grid)
        self._last_iterations = 0
        self._last_image = None
        self._assemble(coeffs)

    def _group(self, group_nodes: int) -> None:
        """Lay the engine out in groups of ``group_nodes`` nodes counted from
        the observed end, the one farther from x0: M (time-major and in group
        order, on shared entries) and M^T on that group order's plan, with no
        factor yet."""
        plan = self._plan = _pattern_plan(self.grid, self.coeffs.c, self.coeffs.b,
                                          self.geometry.gamma0_sides, group_nodes,
                                          self.geometry.x0 < self.grid.x_left)
        rows = plan.fixed
        self.operator = sp.csr_matrix((np.empty(rows.nnz), rows.indices, rows.indptr),
                                      shape=rows.shape)
        # the same matrix on the same entries, its columns in group order
        self._operator_g = sp.csr_matrix((self.operator.data, plan.grouped_indices,
                                          rows.indptr), shape=rows.shape)
        self._n_unknowns = rows.shape[1]
        self._operator_t = sp.csr_matrix(
            (np.empty(rows.nnz), plan.transpose_indices, plan.transpose_indptr),
            shape=rows.shape[::-1])
        self._block_factor = self._block_factor_upper = self._upper_store = None

    def update_gamma(self, gamma: np.ndarray) -> None:
        """Swap the zeroth-order coefficient and refresh M and its preconditioner.

        If the last solve took more than ``_widen_threshold(grid)`` LSMR
        iterations, the engine is first regrouped into one group over every
        interior node, and it keeps that width."""
        if self._widen_after is not None and self._last_iterations > self._widen_after:
            self._widen_after = None
            self._group(self.grid.nx - 2)
        self._assemble(self.coeffs.with_gamma(gamma))

    def _assemble(self, coeffs: MGTCoefficients) -> None:
        """Refill M and M^T, combine the group blocks of M^T M from the pieces,
        and factor them by banded Cholesky."""
        # The new factor is written over the previous one, in each storage:
        # two fresh bands per assembly cost about 600 page faults at 51x101
        # and made a criterion-5 reconstruction 7 % slower.
        band, store = self._block_factor, self._upper_store
        self._block_factor = self._block_factor_upper = self._upper_store = None
        self.coeffs = coeffs
        plan, n = self._plan, self._n_unknowns
        data = self.operator.data
        # root weight * (fixed + alpha_rows * alpha), entry by entry, in place
        np.take(coeffs.alpha[1:-1], plan.entry_node, out=data)
        data *= plan.alpha_rows.data
        data += plan.fixed.data
        data *= np.repeat(self._root_weight, plan.row_sizes)
        np.take(data, plan.transpose_order, out=self._operator_t.data)

        pieces = _band_pieces(self.grid, coeffs.c, coeffs.b, self.geometry.gamma0_sides,
                              plan.group_nodes, plan.from_right, self._root_weight.tobytes())
        kd = _band_kd(plan.group_nodes)
        # a band wider than seven nodes keeps L alone: it is (kd + 1) n
        # values, and its solves take few iterations
        wide = kd > _BOTH_STORAGES_KD
        if band is None:
            band = np.zeros((kd + 1, n), order="F")
            # the transposed factor's storage, with room after it for the
            # corner of the lower storage that the strided copy also moves
            store = None if wide else np.zeros((kd + 1) * (n + kd))
        else:
            band.fill(0.0)
        values = _band_values(pieces, plan, coeffs.alpha[1:-1])
        band.ravel(order="F")[plan.slots] = values
        # every other band entry is a zero just written
        if not np.all(np.isfinite(values)) or np.any(band[0] <= 0):
            raise MinimizationError(
                "normal matrix has non-finite or non-positive diagonal entries; "
                "the weight range is too extreme for this grid")
        band[0] *= 1.0 + _BLOCK_SHIFT
        info = _band_cholesky(band)
        if info != 0:
            raise MinimizationError(
                f"node-group preconditioner is not positive definite "
                f"(banded Cholesky info {info})")
        self._block_factor = band
        if wide:
            return
        # The same factor transposed, in upper band storage: L[offset, k] goes
        # to U[kd - offset, k + offset], flat (k + offset) (kd + 1) + kd - offset
        # = kd + offset kd + k (kd + 1), one strided copy.  The unused corner
        # of L (k + offset >= n) lands past U's columns; U's own corner stays
        # zero.
        step = store.itemsize
        np.copyto(np.lib.stride_tricks.as_strided(
            store[kd:], shape=(kd + 1, n), strides=(kd * step, (kd + 1) * step)), band)
        self._upper_store = store
        self._block_factor_upper = store[:(kd + 1) * n].reshape((kd + 1, n), order="F")

    def weighted_data(self, mu, g: Optional[np.ndarray]) -> np.ndarray:
        """Square-root weights times the data [g; mu; mu_t], row by row of M."""
        return _weighted_data(self._root_weight, self.grid, self.geometry.gamma0_sides,
                              mu, g)

    def _right_solve(self, v: np.ndarray, trans: str) -> np.ndarray:
        """R^-1 v (``trans`` "T") or R^-T v ("N") for a vector in group order.

        R is the transpose of the group blocks' lower Cholesky factor L: R^-1
        is an upper-triangular solve with the stored transpose, R^-T a
        lower-triangular one with L, each untransposed.  In an engine wider
        than seven nodes, where only L is stored, R^-1 is LAPACK's transposed
        solve with L.
        """
        if trans == "T":
            if self._block_factor_upper is None:
                return dtbtrs(self._block_factor, v, uplo="L", trans="T")[0]
            return dtbtrs(self._block_factor_upper, v, uplo="U")[0]
        return dtbtrs(self._block_factor, v, uplo="L")[0]

    def _backward_error(self, residual: np.ndarray) -> float:
        """|R^-T M^T r| / (sqrt(n) |r|), sqrt(n) being |M R^-1|_F."""
        rnorm = np.sqrt(_sum_of_squares(residual))
        if rnorm == 0.0:
            return 0.0
        gradient = self._right_solve(self._operator_t @ residual, "N")
        return float(np.sqrt(_sum_of_squares(gradient)) / (np.sqrt(self._n_unknowns) * rnorm))

    def _lsmr(self, b: np.ndarray, tol: float, cap: int):
        """LSMR on A = M R^-1 with damp 0, from x = 0, in group order.

        The bidiagonalization and the recurrences are Fong & Saunders', with
        their h, hbar and x carried as R^-1 h, R^-1 hbar and y = R^-1 x: the
        update of h adds v, and each step already solves for R^-1 v to
        multiply it by M, so the step that makes that solve also finishes the
        previous step's update of R^-1 h.  A step costs one R^-1 and one R^-T
        solve.  Their |zetabar| is |A^T r_k|, and they also update an
        estimate of |r_k|, so |zetabar| / (sqrt(n) |r_k|) estimates the
        certificate.  Whenever that estimate is at most ``tol``, the
        certificate is recomputed from y itself, with no R^-1 solve, and the
        loop returns at the first iterate that meets it; the M y of that
        certificate is kept as ``_last_image``.  LSMR's own stop tests are
        not used: the least-squares and compatible-system tests rest on a
        running estimate of |A| that stays far below its value sqrt(n), so
        they stop too late or too early.  Returns (y in group order,
        iterations, certificate); at ``cap`` iterations it returns whatever
        certificate that iterate has.
        """
        def norm(v):
            return math.sqrt(_sum_of_squares(v))

        target = tol * math.sqrt(self._n_unknowns)
        y = np.zeros(self._n_unknowns)
        u = b.copy()
        beta = norm(u)
        if beta > 0:
            u /= beta
        v = self._right_solve(self._operator_t @ u, "N")
        alpha = norm(v)
        if alpha > 0:
            v /= alpha
        # R^-1 h and R^-1 hbar; h = v + 0 h, so the first step sets hy = R^-1 v
        hy, hbary = np.zeros_like(v), np.zeros_like(v)
        hcoef = 0.0
        # the scalars of the update of x, then those of the estimate of |r_k|
        zetabar, alphabar, zeta, sbar = alpha * beta, alpha, 0.0, 0.0
        rho = rhobar = cbar = 1.0
        betadd, betad, rhodold, tautildeold, thetatilde = beta, 0.0, 1.0, 0.0, 0.0
        normr = beta
        iteration = 0
        while True:
            if abs(zetabar) <= target * normr or iteration == cap:
                image = self._operator_g @ y
                error = self._backward_error(b - image)
                if error <= tol or iteration == cap:
                    self._last_image = image
                    return y, iteration, error
            iteration += 1
            # h = v - (thetanew / rho) h, deferred from the previous step to
            # reuse the product's R^-1 v
            p = self._right_solve(v, "T")
            hy *= -hcoef
            hy += p
            u *= -alpha
            u += self._operator_g @ p
            beta = norm(u)
            if beta > 0:
                u /= beta
                v *= -beta
                v += self._right_solve(self._operator_t @ u, "N")
                alpha = norm(v)
                if alpha > 0:
                    v /= alpha

            rhoold, rhobarold, zetaold = rho, rhobar, zeta
            c, s, rho = _givens(alphabar, beta)
            thetanew, alphabar = s * alpha, c * alpha
            thetabar = sbar * rho
            cbar, sbar, rhobar = _givens(cbar * rho, thetanew)
            zeta, zetabar = cbar * zetabar, -sbar * zetabar
            hbary *= -(thetabar * rho / (rhoold * rhobarold))
            hbary += hy
            y += (zeta / (rho * rhobar)) * hbary
            hcoef = thetanew / rho

            betahat, betadd = c * betadd, -s * betadd
            thetatildeold = thetatilde
            ctildeold, stildeold, rhotildeold = _givens(rhodold, thetabar)
            thetatilde, rhodold = stildeold * rhobar, ctildeold * rhobar
            betad = -stildeold * betad + ctildeold * betahat
            tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold
            taud = (zeta - thetatilde * tautildeold) / rhodold
            normr = math.hypot(betad - taud, betadd)

    def solve_normal_equations(self, b: np.ndarray, tol: float,
                               max_iterations: Optional[int] = None):
        """Least-squares solution of M y = b by LSMR on M R^-1, from y = 0.

        ``b`` is ``weighted_data(mu, g)``; the normal equations are never
        formed.  Returns (solution, iterations, backward error), the backward
        error being that of the preconditioned problem, recomputed from the
        returned solution.  LSMR stops at its first iterate whose backward
        error is at most ``tol``; if none is reached within ``max_iterations``
        (by default n) iterations, the solve raises.  A ``tol`` that is not
        positive and finite, which no iterate or every one would meet, and
        data holding a NaN or an infinity are rejected before LSMR starts.

        LSMR runs in group order throughout: its vectors, the products and the
        triangular solves.  Its norms are elementwise sums, so the solution
        does not depend on the BLAS thread count; y is put back in time-major
        order once.
        """
        if not (tol > 0 and math.isfinite(tol)):
            raise ValueError(f"the solver tolerance must be positive and finite, got {tol}")
        if not np.all(np.isfinite(b)):
            raise MinimizationError("the weighted data hold nan or inf entries; "
                                    "LSMR was not started")
        cap = self._n_unknowns if max_iterations is None else max_iterations
        y, iterations, error = self._lsmr(b, tol, cap)
        self._last_iterations = iterations
        if not error <= tol:
            raise MinimizationError(
                f"LSMR stopped at backward error {error:.3e} after {iterations} "
                f"iterations (target {tol:.1e}, cap {cap})")
        return y[self._plan.position], iterations, error

    def minimize(self, mu, g: Optional[np.ndarray], tol: float,
                 max_iterations: Optional[int] = None):
        """Minimizer of the weighted objective and its diagnostics.

        ``mu`` is None or one MuPair per observed side, ``g`` None or a full
        (nt, nx) field; None stands for zero.  ``tol`` and ``max_iterations``
        are those of :meth:`solve_normal_equations`.  The energy bound check
        uses the exact factor 4: ||y*||^2 <= (4/s) |g|_w^2 + 4 |mu|_w^2, a
        discrete inequality inherited from J(y*) <= J(0) plus Young's
        inequality.
        """
        b = self.weighted_data(mu, g)
        vec, iterations, rel = self.solve_normal_equations(b, tol, max_iterations)
        # M vec, formed by the certificate of the solve
        image = self._last_image
        norm_sq = _sum_of_squares(image)
        diagnostics = MinimizerDiagnostics(
            j_value=0.5 * _sum_of_squares(b - image),
            v_norm_sq=norm_sq,
            el_residual=float(rel),
            solver_iterations=int(iterations),
            bound_slack=4.0 * _sum_of_squares(b) - norm_sq,
        )
        return TrajectoryVariable.from_vector(vec, self.grid), diagnostics


# ---------------------------------------------------------------------------
# objective evaluation (the memoized engine's assembled M and weighted data)
# ---------------------------------------------------------------------------

def evaluate_J(y: TrajectoryVariable, mu, g, coeffs: MGTCoefficients,
               carleman: CarlemanSetup, grid: SpaceTimeGrid) -> float:
    """Value of the weighted least-squares objective at ``y``: half |M y - b|^2,
    with M and b those of the memoized engine of (grid, coeffs, carleman).
    A problem not seen before is assembled and factored first, so this raises
    :class:`MinimizationError` where its band cannot be factored."""
    engine = _engine(coeffs, carleman, grid)
    return 0.5 * _sum_of_squares(engine.operator @ y.to_vector()
                                 - engine.weighted_data(mu, g))


def v_norm_sq(y: TrajectoryVariable, coeffs: MGTCoefficients,
              carleman: CarlemanSetup, grid: SpaceTimeGrid) -> float:
    """Squared weighted graph norm |M y|^2: twice the objective at zero data.
    M is the memoized engine's, as in :func:`evaluate_J`."""
    return _sum_of_squares(_engine(coeffs, carleman, grid).operator @ y.to_vector())


def weighted_data_norms(mu, g, carleman: CarlemanSetup, grid: SpaceTimeGrid):
    """Weighted squared norms of the data pair: interior target and traces.

    Returns (g_norm_sq, mu_norm_sq) without the 1/s factor (the rows'
    weights at s = 1); these are the ingredients of the minimizer energy
    bound.
    """
    geometry, omega = _weighting(carleman, grid)
    sides = geometry.gamma0_sides
    data = _weighted_data(np.sqrt(_row_weights(grid, sides, omega, 1.0)), grid, sides,
                          mu, g)
    interior, traces = np.split(data, [grid.nt * (grid.nx - 2)])
    return _sum_of_squares(interior), _sum_of_squares(traces)


@functools.lru_cache(maxsize=2)
def _shared_engine(grid: SpaceTimeGrid, c: float, b: float, gamma: bytes, box_bound: float,
                   carleman: CarlemanSetup) -> CarlemanLeastSquares:
    """The memoized engine of one problem, gamma given as its bytes, on
    ``_SHARED_GROUP_NODES``-node groups; see the module docstring."""
    coeffs = MGTCoefficients(c, b, np.frombuffer(gamma), box_bound)
    return CarlemanLeastSquares(coeffs, carleman, grid, group_nodes=_SHARED_GROUP_NODES)


def _engine(coeffs: MGTCoefficients, carleman: CarlemanSetup,
            grid: SpaceTimeGrid) -> CarlemanLeastSquares:
    return _shared_engine(grid, coeffs.c, coeffs.b, coeffs.gamma.tobytes(), coeffs.box_bound,
                          carleman)


def minimize_J(mu, g, coeffs: MGTCoefficients, carleman: CarlemanSetup,
               grid: SpaceTimeGrid, solver_tol: float = 1e-9):
    """Minimizer and diagnostics by :meth:`CarlemanLeastSquares.minimize` on
    the memoized engine of (grid, coeffs, carleman): a repeated problem is
    not assembled again."""
    return _engine(coeffs, carleman, grid).minimize(mu, g, solver_tol)


@dataclass
class DifferenceCheckReport:
    difference_energy: float       # (1/2s) weighted |L d|^2 + weighted traces of d
    bound: float                   # (2/s) weighted |g1 - g2|^2
    slack: float
    curvature_constant: float      # sqrt(s) * weighted initial curvature / bound norm
    minimizer_gap: float
    diagnostics_first: MinimizerDiagnostics
    diagnostics_second: MinimizerDiagnostics


def minimizer_difference_check(g1, g2, mu, coeffs: MGTCoefficients,
                               carleman: CarlemanSetup, grid: SpaceTimeGrid,
                               solver_tol: float = 1e-9) -> DifferenceCheckReport:
    """Compare the minimizers of two targets sharing the same trace data.

    Subtracting the two optimality systems bounds the weighted graph energy
    of the difference by (2/s) times the weighted energy of g1 - g2; the
    slack reported here must stay nonnegative up to solver tolerance.  Also
    reported: the ratio sqrt(s) * weighted |difference of recovered initial
    accelerations|^2 / weighted |g1 - g2|^2, the empirical constant of the
    corresponding stability statement.  Both minimizers come from the
    memoized engine that :func:`minimize_J` uses.
    """
    engine = _engine(coeffs, carleman, grid)
    y1, diag1 = engine.minimize(mu, g1, solver_tol)
    y2, diag2 = engine.minimize(mu, g2, solver_tol)
    s = engine.scales.s
    pde, traces = np.split(engine.operator @ (y1.to_vector() - y2.to_vector()),
                           [grid.nt * (grid.nx - 2)])
    difference_energy = 0.5 * _sum_of_squares(pde) + _sum_of_squares(traces)

    a = np.zeros((grid.nt, grid.nx)) if g1 is None else np.asarray(g1, dtype=float)
    b = np.zeros((grid.nt, grid.nx)) if g2 is None else np.asarray(g2, dtype=float)
    delta_sq = _sum_of_squares(engine.weighted_data(None, a - b))
    bound = 2.0 * delta_sq
    delta_norm = s * delta_sq     # without the rows' 1/s factor

    ytt_diff = (initial_second_derivative(y1, grid.dt)
                - initial_second_derivative(y2, grid.dt))
    qx = trapezoid_weights(grid.nx, grid.h)
    initial_term = np.sqrt(s) * float(qx @ (engine.omega[0] * ytt_diff ** 2))
    curvature_constant = initial_term / delta_norm if delta_norm > 0 else 0.0

    gap = float(np.abs(y1.values - y2.values).max())
    return DifferenceCheckReport(
        difference_energy=float(difference_energy),
        bound=float(bound),
        slack=float(bound - difference_energy),
        curvature_constant=float(curvature_constant),
        minimizer_gap=gap,
        diagnostics_first=diag1,
        diagnostics_second=diag2,
    )
