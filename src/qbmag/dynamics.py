"""Closed-system quantities for the charged oscillator in a magnetic field.

The trapped charge in a perpendicular field B has the two real mode
frequencies

    A' = (sqrt(4 w0^2 + wc^2) + wc) / 2,   B' = (sqrt(4 w0^2 + wc^2) - wc) / 2,

with wc = eB/m the cyclotron frequency.  They satisfy A'B' = w0^2 and
A'^2 + B'^2 = 2 w0^2 + wc^2, and reduce to w0 at wc = 0.  The kernel-weight
functions F1, F2 and the Heisenberg transfer matrix are built on the same
modes, so the transfer matrix solves the classical equations of motion
x'' = -w0^2 x + wc y', y'' = -w0^2 y - wc x' exactly.

``time_moments``, the one time-integration engine, integrates the kernels
of ``KernelPlan``s against F1 and F2 by the panel rules of ``_rules``,
taking the factor e^{i Lam tau} of a kernel split as
S + Re[a e^{i Lam tau}] exactly (Filon panels);
``decoherence._many_moments``, its one caller, builds the plans with
``decoherence._kernel_for`` and passes those of one ``layout`` together,
and one span rule (``_panel_edges``) reads them.  The plans of one pass
share their ``layout``, so one set of panel edges, nodes and F1, F2 values
serves them all; a curve is the one-plan pass.  Every panel of every plan is reduced on its own, so the
moments at a time depend only on its plan and the grid up to it.
"""

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from . import _rules
from .bath import _require_finite
from .errors import DegenerateSystemError, DomainError, RangeError


@dataclass(frozen=True)
class SystemParams:
    """Particle, trap and field parameters (frequencies in gamma/m), in
    units with hbar = 1: ``hbar`` is a class constant that names the unit,
    not a field, and no qbmag code reads it (a coupling gamma at another
    hbar is the bath's gamma/hbar).  ``omega_th`` is read by nothing (the
    thermal regime carries it); it stays because the benchmark's workloads
    pass it."""

    hbar: ClassVar[float] = 1.0
    omega0: float
    omega_c: float
    omega_th: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("omega0", "omega_c", "omega_th"))
        if self.omega0 < 0 or self.omega_c < 0:
            raise DomainError("omega0 and omega_c must be >= 0")
        if self.omega0 == 0 and self.omega_c == 0:
            raise DegenerateSystemError("omega0 = omega_c = 0 leaves the modes undefined")


@dataclass(frozen=True)
class ModeConstants:
    a_prime: float
    b_prime: float
    m_coef: float
    p_coef: float
    g_coef: float


def mode_constants(sys):
    """Mode frequencies A' >= B' >= 0 and the weights M, P (M + P = 1) and G,
    as Python floats (``math.sqrt`` gives numpy's bits at a fraction of the
    cost); root > 0, as SystemParams rejects omega0 = omega_c = 0."""
    root = math.sqrt(4.0 * sys.omega0**2 + sys.omega_c**2)
    a_prime = 0.5 * (root + sys.omega_c)
    b_prime = 0.5 * (root - sys.omega_c)
    m_coef = (root - sys.omega_c) / (2.0 * root)
    p_coef = (root + sys.omega_c) / (2.0 * root)
    g_coef = math.sqrt(2.0) * sys.omega0**2 / root
    return ModeConstants(a_prime, b_prime, m_coef, p_coef, g_coef)


def f_weight(sys, tau, which="F1"):
    """Kernel-weight functions F1, F2 of the decoherence master equation.

    F1 multiplies the position-position noise terms (F1(0) = 1), F2 the
    cross x-y terms (F2(0) = 0).  Accepts scalar or array tau >= 0;
    ValueError for any other ``which``.
    """
    tau = np.asarray(tau, dtype=float)
    mc = mode_constants(sys)
    ap, bp = mc.a_prime, mc.b_prime
    if which == "F1":
        out = mc.m_coef * np.cos(ap * tau) + mc.p_coef * np.cos(bp * tau)
    elif which == "F2":
        g = mc.g_coef
        if ap - bp < 1e-6 * ap:
            # cancellation-safe midpoint form of sin(b t)/b - sin(a t)/a
            zm = 0.5 * (ap + bp)
            out = g * (ap - bp) * (zm * tau * np.cos(zm * tau) - np.sin(zm * tau)) / zm**2
        elif bp > 0:
            out = g * (np.sin(bp * tau) / bp - np.sin(ap * tau) / ap)
        else:
            out = np.zeros_like(tau)  # B' = 0 means omega0 = 0, so G = 0
    else:
        raise ValueError("which must be 'F1' or 'F2', got %r" % (which,))
    return out if out.ndim else float(out)


def heisenberg_transfer(sys, tau):
    """Transfer matrix T(tau) with (x, y, vx, vy)(tau) = T(tau) (X, Y, Vx, Vy).

    T(0) is the identity and every column solves the classical equations of
    motion of the trapped charge.  The x-row coefficient of X equals
    F1(tau); the coefficient of Y equals -F2(tau)/sqrt(2).
    """
    tau = float(tau)
    mc = mode_constants(sys)
    w1, w2 = mc.a_prime, mc.b_prime
    root = w1 + w2
    c1, c2 = np.cos(w1 * tau), np.cos(w2 * tau)
    s1, s2 = np.sin(w1 * tau), np.sin(w2 * tau)
    # position rows from zeta = x + i y, zeta(t) = [(w1 e^{i w2 t} + w2 e^{-i w1 t}) Z
    #                                              + i (e^{-i w1 t} - e^{i w2 t}) W]/root
    xx = (w1 * c2 + w2 * c1) / root
    xy = -(w1 * s2 - w2 * s1) / root
    xvx = (s1 + s2) / root
    xvy = -(c1 - c2) / root
    # time derivatives of the four coefficients above
    dxx = (-w1 * w2 * s2 - w2 * w1 * s1) / root
    dxy = -(w1 * w2 * c2 - w2 * w1 * c1) / root
    dxvx = (w1 * c1 + w2 * c2) / root
    dxvy = (w1 * s1 - w2 * s2) / root
    return np.array(
        [
            [xx, xy, xvx, xvy],
            [-xy, xx, -xvy, xvx],
            [dxx, dxy, dxvx, dxvy],
            [-dxy, dxx, -dxvy, dxvx],
        ]
    )


#: kappa past ``until``: a panel there spans at most half its start plus the
#: floor, since the Filon panels integrate the interpolant of a F, which
#: converges at only half the order of the Gauss rule
_TAIL_SPAN = 0.5

#: kernel nodes evaluated at once; bounds the working memory of a curve
#: whatever its number of panels
_NODE_BLOCK = 1 << 14


@dataclass(frozen=True)
class KernelPlan:
    """How ``time_moments`` integrates a kernel; ``decoherence._kernel_for``
    builds every plan.  ``kernel`` is the vectorised kernel, ``lam`` its
    cutoff Lam; ``until`` and ``floor`` set the span rule of
    ``_panel_edges``.  ``parts``, if given, splits the kernel past
    ``until``: there it is S + Re[a e^{i Lam u}] with S and a smooth,
    (S, a) = parts(u).
    """

    kernel: Callable
    lam: float
    until: float
    floor: float
    parts: Optional[Callable] = None

    @property
    def layout(self):
        """What the panels take from the plan: plans that agree on it have
        the same panel edges on one grid and one set of modes, so
        ``time_moments`` integrates them in one pass."""
        return self.lam, self.until, self.floor, self.parts is not None


@dataclass(frozen=True)
class TimeMoments:
    """Running moments on a time grid, one row per grid point, columns F1, F2.

    c0 = int_0^t nu F du and c1 = int_0^t u nu F du from the 16-node panel
    rule; d0, d1 are the running differences between that rule and its
    embedded 8-node sub-rule on the same kernel values.  ``nodes`` kernel
    evaluations on ``panels`` panels produced them.
    """

    c0: np.ndarray
    c1: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    nodes: int
    panels: int


def _split(lo, hi, pieces):
    """Right ends of ``pieces`` equal parts of each [lo, hi], in order, as
    np.linspace(lo, hi, pieces + 1)[1:] gives them, and the segment of each."""
    seg = np.repeat(np.arange(len(pieces)), pieces)
    first = np.cumsum(pieces) - pieces
    j = np.arange(seg.size) - first[seg] + 1.0
    ends = lo[seg] + j * ((hi - lo) / pieces)[seg]
    ends[first + pieces - 1] = hi
    return ends, seg


@np.errstate(over="ignore")  # an overflow reads as an infinite count, which the check below refuses
def _panel_edges(grid, mode_freq, plan):
    """Gauss panel edges over [0, grid[-1]] for an increasing grid >= 0, and
    the number of panels up to and including each grid point.

    One span rule reads the plan.  A panel spans at most maxlen, half a
    period of the mode frequency A' + B', plus Lam on the grid intervals
    that start below ``until``, where the kernel still varies on the 1/Lam
    scale.  A panel that starts at c > 0 also spans at most
    kappa c + ``floor``, kappa = 1 on the grid intervals that start below
    ``until`` and _TAIL_SPAN past it, where the kernel's algebraic decay or
    its split's smooth factors, powers of u, are nearly polynomial.
    ``floor`` is 1/Lam for a kernel analytic for |Im u| < 1/Lam, whose
    singularities the panels [c, 2c + 1/Lam] keep clear of, and 0 for one
    with an integrable log or inverse-power singularity at 0.

    The first grid interval [0, b] is cut at b 2^-L ... b/2, b, with
    L = ceil(log2(b/floor)) clipped to [0, 42] (42 for floor 0), so that its
    innermost piece is at most ``floor`` unless L is 42.  Another grid
    interval [a, b] whose equal panels would break the rule starts with a
    ladder c -> (1 + kappa) c + floor, whose k-th panel spans
    (kappa a + floor)(1 + kappa)^k, up to the rung where that span reaches
    maxlen or the ladder reaches b.  Every part is then split into
    ceil(length/maxlen) equal panels, so an interval whose equal panels
    keep the rule, as on log grids whose points are 7% apart, gets no rung,
    and each interval's layout depends only on its ends.

    RangeError where a ladder's powers (1 + kappa)^k would overflow, as
    from a subnormal start under floor 0, or an int64 cannot count the panels.
    """
    grid = np.asarray(grid, dtype=float)
    a = np.concatenate([[0.0], grid[:-1]])
    live = grid > a
    below = a < plan.until
    maxlen = np.pi / np.maximum(mode_freq + np.where(below, plan.lam, 0.0), 1e-12)
    head = np.nonzero(live & (a == 0.0))[0]  # the first live interval, if any
    rest = np.nonzero(live & (a > 0.0))[0]
    levels = 42.0
    if plan.floor > 0.0 and head.size:
        levels = float(np.clip(np.ceil(np.log2(grid[head[0]] / plan.floor)), 0.0, 42.0))
    geometric = grid[head, None] * 2.0 ** -np.arange(levels, -1.0, -1.0)
    upper = np.concatenate([geometric.ravel(), grid[rest]])
    owner = np.concatenate([np.repeat(head, geometric.shape[1]), rest])
    # the intervals whose first equal panel spans more than kappa a + floor
    kappa = np.where(below[rest], 1.0, _TAIL_SPAN)
    first = kappa * a[rest] + plan.floor
    length = grid[rest] - a[rest]
    need = length / np.ceil(length / maxlen[rest]) > first
    if need.any():
        ladder, kappa, first = rest[need], kappa[need], first[need]
        ratio = 1.0 + kappa
        # the powers of ratio below reach (maxlen / first) ratio^2, past
        # 2^1024 for a first below about maxlen 2^-1022, as from a subnormal
        # start under floor 0; ratio^3 leaves one power of margin
        if not np.all(maxlen[ladder] / first * ratio**3 < np.inf):
            raise RangeError("the time grid starts too close to 0: a ladder of panels from %r climbs past the float range" % float(first.min()))
        # an upper bound on the rungs whose panel is shorter than maxlen
        rungs = np.ceil(np.log(maxlen[ladder] / first) / np.log(ratio)).astype(int) + 1
        at = np.repeat(np.arange(len(ladder)), rungs)
        k = np.arange(at.size) - np.repeat(np.cumsum(rungs) - rungs, rungs)
        span = first[at] * ratio[at] ** k
        rung = a[ladder][at] + first[at] * (ratio[at] ** (k + 1.0) - 1.0) / kappa[at]
        keep = (span < maxlen[ladder][at]) & (rung < grid[ladder][at])
        upper = np.concatenate([upper, rung[keep]])
        owner = np.concatenate([owner, ladder[at[keep]]])
        order = np.argsort(upper, kind="stable")
        upper, owner = upper[order], owner[order]
    low = np.concatenate([[0.0], upper])[:-1]
    pieces = np.ceil((upper - low) / maxlen[owner])
    if not np.all(pieces < 2.0**63):  # false at inf and nan too
        raise RangeError("the time grid needs more panels than an int64 counts, up to %g" % np.max(pieces))
    pieces = np.maximum(1, pieces.astype(int))
    upper, seg = _split(low, upper, pieces)
    return np.concatenate([[0.0], upper]), np.cumsum(np.bincount(owner[seg], minlength=len(grid)))


def _moment_values(values, fs, u):
    """nu F and u nu F for kernel values nu (panel, node), as (panel x moment x column, node)."""
    v = values[:, None] * fs
    return np.stack([v, v * u[:, None]], axis=1).reshape(4 * len(u), 16)


def time_moments(sys, plans, grid):
    """Integrate the kernel of each ``KernelPlan`` of ``plans`` against F1
    and F2 from 0 to each time of an increasing grid >= 0: one
    ``TimeMoments`` per plan, equal bit for bit to the one that plan gets in
    a pass of its own.  The plans must share their ``layout``, as
    ``decoherence._many_moments`` groups them; ValueError otherwise.

    The grid is cut into 16-node Gauss panels by the span rule of
    ``_panel_edges``; half a period of the fastest oscillation per panel
    keeps each panel at ~1e-12 relative.  A panel that starts at or past
    ``until`` calls a plan's ``parts``, if the plans have them, instead of
    its ``kernel``; its S takes the Gauss rule of the kernel values, and
    a F e^{i Lam u} the Filon weights of ``_rules._filon_weights``.

    The panels of the whole grid are laid out once for all plans and
    evaluated in blocks of at most ``_NODE_BLOCK`` nodes: per block, one F1,
    F2 evaluation and one set of Filon weights serve every plan, and each
    plan in turn takes one kernel call (one parts call for the block's split
    panels).  Each panel is reduced on its own, by the 16-node rule and the
    embedded 8-node rule on the same values: per block and plan one matrix
    product, each of whose rows is one moment column of one panel, takes
    every rule sum as one 16-term dot product of its own row (the product
    per panel gave the same bits).  A running sum per plan adds the panels
    in order, so a row
    of the moments depends only on its plan and the grid up to its time,
    and on no block size or other plan.  Memory is O(block) for the nodes,
    F1, F2 and one plan's kernel values at a time, plus a running sum and
    the moments of every plan, O(plans x grid), so callers bound the plans
    of a pass; time is O(nodes) for the layout plus O(nodes) per plan.  A
    kernel that overflows gives non-finite moments from that panel on,
    without numpy warnings; callers flag them.

    RangeError, besides ``_panel_edges``'s, where a plan of floor 0, whose
    kernel diverges at tau = 0, would meet a node that rounds to 0: the
    innermost head panel spans the first grid time over 2^42, and below a
    first time of about 2e-309 its lowest node rounds to 0.
    """
    layout = plans[0].layout
    if any(plan.layout != layout for plan in plans):
        raise ValueError("the plans of one pass must share their layout, got %r" % [p.layout for p in plans])
    lam, until, floor, split = layout
    mc = mode_constants(sys)
    edges, counts = _panel_edges(grid, mc.a_prime + mc.b_prime, plans[0])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    n_panels = len(mid)
    # the lowest node, of the first panel, as the blocks below form it
    if floor == 0.0 and n_panels and not mid[0] + half[0] * _rules._GX16[0] > 0.0:
        start = float(grid[grid > 0][0])
        raise RangeError("the time grid starts too close to 0: under its first time %r a Gauss node rounds to tau = 0, where the kernel diverges" % start)
    # the panels that take the kernel; the rest take its split
    n_head = int(np.searchsorted(edges[:-1], until)) if split else n_panels
    per_block = max(1, _NODE_BLOCK // 16)
    runs = [np.zeros((1, 4, 2), dtype=complex) for _ in plans]  # (panel, moment x column, rule)
    outs = [np.zeros((len(counts), 4, 2), dtype=complex) for _ in plans]
    for p0 in range(0, n_panels, per_block):
        p1 = min(n_panels, p0 + per_block)
        u = mid[p0:p1, None] + half[p0:p1, None] * _rules._GX16
        fs = np.stack([f_weight(sys, u, "F1"), f_weight(sys, u, "F2")], axis=1)  # (panel, column, node)
        cut = min(max(n_head - p0, 0), p1 - p0)  # the block's kernel panels
        tail = cut < p1 - p0
        rows = slice(np.searchsorted(counts, p0, "right"), np.searchsorted(counts, p1, "right"))
        with np.errstate(over="ignore", invalid="ignore"):
            if tail:
                # the split panels add a F e^{i Lam u} by the Filon weights
                # of their Lam h, computed once per distinct h (and spread
                # to the panels per plan, so that no kernel call runs while
                # a copy per panel is held)
                theta, which = np.unique(lam * half[p0 + cut : p1], return_inverse=True)
                filon = _rules._filon_weights(theta)
                phase = np.exp(1j * lam * mid[p0 + cut : p1])[:, None, None]
            for plan, run, out in zip(plans, runs, outs):
                vals = [np.asarray(plan.kernel(u[:cut].ravel())).reshape(cut, 16)] if cut else []
                if tail:
                    smooth, amp = (v.reshape(u[cut:].shape) for v in plan.parts(u[cut:].ravel()))
                    vals.append(smooth)
                # the kernel values, S on the split panels, by both rules, in
                # one product whose rows are the panels' four moment columns
                part = (_moment_values(np.concatenate(vals), fs, u) @ _rules._PANEL_W).reshape(-1, 4, 2)
                if tail:
                    osc = _moment_values(amp, fs[cut:], u[cut:]).reshape(-1, 4, 16) @ filon[which]
                    part[cut:] += (osc * phase).real
                part = part * half[p0:p1, None, None]
                total = np.cumsum(np.concatenate([run, part]), axis=0)
                out[rows] = total[counts[rows] - p0]
                run[...] = total[-1:]
    return [
        TimeMoments(c[:, :2], c[:, 2:], d[:, :2], d[:, 2:], nodes=16 * n_panels, panels=n_panels)
        for c, d in ((out[..., 0], out[..., 1]) for out in outs)
    ]
