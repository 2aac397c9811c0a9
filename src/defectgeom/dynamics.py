"""Overdamped motion of discretized dislocation lines under the
curvature-induced transverse force.

The velocity closure is v = M (F_ext + F_curv(v)). The transverse force is
linear and antisymmetric in v, so the closure is an exactly solvable 3x3
linear system per node and the force can never do work or increase speed.
Positions advance by explicit Euler after the exact velocity solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CROSS_PRODUCT = "cross"
DERIVATION_CONSISTENT = "derivation"

_TINY = 1e-300


@dataclass
class DislocationLine:
    """Polyline defect line with Burgers vector, mobility and identity."""

    nodes: np.ndarray
    burgers: np.ndarray
    closed: bool = False
    mobility: float = 1.0
    id: str = "line"

    def __post_init__(self):
        self.nodes = np.array(self.nodes, float)
        self.burgers = np.asarray(self.burgers, float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise ValueError("nodes must be an (m, 3) array")
        need = 3 if self.closed else 2
        if len(self.nodes) < need:
            raise ValueError(f"line needs at least {need} nodes")
        seg = np.linalg.norm(np.diff(self.nodes, axis=0), axis=1)
        # a non-finite node makes a segment next to it inf or NaN, so
        # finite segment lengths need no pass over the nodes
        if not seg.max() < np.inf and not np.all(np.isfinite(self.nodes)):
            raise ValueError("nodes must be finite")
        if not seg.min() > 0:
            raise ValueError("consecutive nodes must be distinct")
        if self.burgers.shape != (3,) or not np.all(np.isfinite(self.burgers)) \
                or not np.any(self.burgers):
            raise ValueError("Burgers vector must be finite and nonzero")
        if not self.mobility > 0:
            raise ValueError("mobility must be positive")

    def tangents(self) -> np.ndarray:
        """Unit tangent per node from central differences of neighbors."""
        m = len(self.nodes)
        t = np.empty_like(self.nodes)
        if self.closed:
            t = np.roll(self.nodes, -1, axis=0) - np.roll(self.nodes, 1, axis=0)
        else:
            t[1:-1] = self.nodes[2:] - self.nodes[:-2]
            t[0] = self.nodes[1] - self.nodes[0]
            t[-1] = self.nodes[-1] - self.nodes[-2]
        norms = np.linalg.norm(t, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return t / norms


@dataclass(frozen=True)
class DisclinationSource:
    """Static z-aligned wedge line: transverse position, Frank angle, core size."""

    position: tuple
    frank: float
    core_radius: float

    def __post_init__(self):
        pos = np.asarray(self.position, float)
        if pos.shape != (2,) or not np.all(np.isfinite(pos)):
            raise ValueError("position must be a finite transverse point")
        if not np.isfinite(self.frank):
            raise ValueError("Frank angle must be finite")
        if not (self.core_radius > 0 and np.isfinite(self.core_radius)):
            raise ValueError("core radius must be positive and finite")
        object.__setattr__(self, "position", (float(pos[0]), float(pos[1])))


class DisclinationField:
    """Frank-vector sources with a Gaussian-core local evaluation rule.

    theta_at weights each source's axial vector Theta z-hat by the core
    density times the regularized core area pi eps^2, i.e. by
    exp(-r^2 / 2 eps^2) / 2, so the force acts only within a few core radii.
    """

    def __init__(self, sources):
        self.sources = tuple(sources)

    def theta_at(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, float)
        out = np.zeros(points.shape)
        for s in self.sources:
            dx = points[..., 0] - s.position[0]
            dy = points[..., 1] - s.position[1]
            r2 = dx * dx + dy * dy
            weight = 0.5 * np.exp(-r2 / (2.0 * s.core_radius ** 2))
            out[..., 2] += s.frank * weight
        return out


@dataclass(frozen=True)
class DynamicsParams:
    """Stepping parameters for the overdamped line integrator.

    external_force is one uniform 3-vector applied to every node.
    """

    Gamma: float
    time_step: float
    steps: int
    force_law: str = CROSS_PRODUCT
    external_force: np.ndarray = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.force_law not in (CROSS_PRODUCT, DERIVATION_CONSISTENT):
            raise ValueError(f"unknown force law {self.force_law!r}")
        if not (self.time_step > 0 and np.isfinite(self.time_step)):
            raise ValueError("time step must be positive and finite")
        if self.steps < 0:
            raise ValueError("step count must be nonnegative")
        ext = np.array(self.external_force, float)
        if ext.shape != (3,):
            raise ValueError("external force must be a 3-vector")
        object.__setattr__(self, "external_force", ext)


def magnus_force(theta, burgers, velocity, Gamma, law=CROSS_PRODUCT,
                 tangent=None) -> np.ndarray:
    """Transverse configurational force on a moving dislocation.

    cross law:       F = Gamma (Theta x b) x v
    derivation law:  F = Gamma (Theta . t) (b . t) (t x v)

    The two differ when Theta and b are parallel: the cross form vanishes
    there while the projected form keeps the transverse magnitude
    Gamma Theta b v_perp. Both are exactly work-free.
    """
    theta = np.asarray(theta, float)
    burgers = np.asarray(burgers, float)
    velocity = np.asarray(velocity, float)
    if law == CROSS_PRODUCT:
        return Gamma * np.cross(np.cross(theta, burgers), velocity)
    if tangent is None:
        raise ValueError("derivation-consistent law needs the line tangent")
    tangent = np.asarray(tangent, float)
    coeff = Gamma * float(np.dot(theta, tangent)) * float(np.dot(burgers, tangent))
    return coeff * np.cross(tangent, velocity)


def _magnus_matrix(theta, burgers, Gamma, law, tangent):
    """Antisymmetric A with F_curv(v) = A v."""
    if law == CROSS_PRODUCT:
        w = Gamma * np.cross(theta, burgers)
    else:
        if tangent is None:
            raise ValueError("derivation-consistent law needs the line tangent")
        w = Gamma * float(np.dot(theta, tangent)) \
            * float(np.dot(burgers, tangent)) * np.asarray(tangent, float)
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def solve_velocity(f_ext, theta, burgers, Gamma, mobility,
                   law=CROSS_PRODUCT, tangent=None) -> np.ndarray:
    """Exact solution of v = M (F_ext + F_curv(v)).

    The system matrix I - M A is nonsingular for every finite Gamma because
    A is antisymmetric (its eigenvalues are imaginary), which also bounds
    the speed by M |F_ext|.
    """
    f_ext = np.asarray(f_ext, float)
    A = _magnus_matrix(theta, burgers, Gamma, law, tangent)
    lhs = np.eye(3) - mobility * A
    try:
        return np.linalg.solve(lhs, mobility * f_ext)
    except np.linalg.LinAlgError as err:  # unreachable for antisymmetric A
        raise ValueError("singular velocity system") from err


@dataclass
class ClipEvent:
    step: int
    line_id: str
    node: int
    position: np.ndarray


def transversality_defect(f_magnus, velocity) -> float:
    fm = np.asarray(f_magnus, float)
    v = np.asarray(velocity, float)
    return float(abs(np.dot(fm, v))
                 / (np.linalg.norm(fm) * np.linalg.norm(v) + _TINY))


@dataclass
class NodeStep:
    """Per-node record of one integration step, stacked in (line, node) order.

    Row i belongs to node node[i] of the line line_ids[i]; position is the
    node before the step.
    """

    line_ids: list
    node: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    f_ext: np.ndarray
    f_magnus: np.ndarray
    transversality: np.ndarray

    def __len__(self):
        """Number of node rows."""
        return len(self.node)


def _dot(a, b):
    """Row-wise dot products of (n, 3) arrays, bit-equal to np.dot per row.

    matmul of (1, 3) by (3, 1) runs the same dot kernel as np.dot on 1-D
    arrays; einsum and sum(axis=1) add in another order.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _stacked(parts):
    """Concatenate (m, 3) arrays; an empty line set gives shape (0, 3)."""
    return np.concatenate([np.empty((0, 3)), *parts])


def step_lines(lines, disclinations: DisclinationField, params: DynamicsParams,
               extents=None, step: int = 0):
    """Advance every node of every line by one explicit-Euler step.

    Returns (new_lines, NodeStep, clip_events). Nodes leaving the extents
    are clipped from their line and logged; a line left with fewer than two
    nodes, or three if it is closed, is dropped. The step size must satisfy
    dt * M * |F| <= 0.1 * min extent, and a non-finite velocity, force or
    transversality raises ValueError naming the node. `step` labels clips
    and errors; params.steps is not read, so callers loop over the steps.

    All nodes are solved as one stacked (n, 3, 3) system with the arithmetic
    of solve_velocity, magnus_force and transversality_defect, so each node
    gets the bits of the per-node functions.
    """
    lines = [DislocationLine(np.array(l.nodes), np.array(l.burgers), l.closed,
                             l.mobility, l.id) for l in lines]
    counts = np.array([len(l.nodes) for l in lines], int)
    line_of = np.repeat(np.arange(len(lines)), counts)
    node = np.arange(len(line_of)) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
    nodes = _stacked(l.nodes for l in lines)
    tans = _stacked(l.tangents() for l in lines)
    burgers = _stacked(np.broadcast_to(l.burgers, l.nodes.shape)
                       for l in lines)
    mobility = np.repeat([float(l.mobility) for l in lines], counts)
    thetas = disclinations.theta_at(nodes)
    f_ext = np.broadcast_to(params.external_force, nodes.shape)
    Gamma = params.Gamma

    if params.force_law == CROSS_PRODUCT:
        theta_x_b = np.cross(thetas, burgers)
        w = Gamma * theta_x_b
    else:
        coeff = Gamma * _dot(thetas, tans) * _dot(burgers, tans)
        w = coeff[:, None] * tans
    A = np.zeros((len(nodes), 3, 3))
    A[:, 0, 1], A[:, 0, 2] = -w[:, 2], w[:, 1]
    A[:, 1, 0], A[:, 1, 2] = w[:, 2], -w[:, 0]
    A[:, 2, 0], A[:, 2, 1] = -w[:, 1], w[:, 0]
    lhs = np.eye(3) - mobility[:, None, None] * A
    rhs = mobility[:, None] * f_ext
    try:
        v = np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as err:  # unreachable for antisymmetric A
        raise ValueError("singular velocity system") from err
    if params.force_law == CROSS_PRODUCT:
        fm = Gamma * np.cross(theta_x_b, v)
    else:
        fm = coeff[:, None] * np.cross(tans, v)

    bad = ~(np.isfinite(v).all(axis=1) & np.isfinite(fm).all(axis=1))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"non-finite dynamics at step {step}: line "
            f"{lines[line_of[i]].id!r} node {node[i]} has velocity "
            f"{v[i].tolist()} and force {fm[i].tolist()}")
    speed = np.sqrt(_dot(v, v))
    if extents is not None:
        min_span = min(hi - lo for lo, hi in extents)
        travel = params.time_step * speed
        too_far = travel > 0.1 * min_span
        if too_far.any():
            raise ValueError(
                "time step too large: node displacement "
                f"{travel[np.argmax(too_far)]:.3g} exceeds 0.1 * domain span")
    transversality = np.abs(_dot(fm, v)) \
        / (np.sqrt(_dot(fm, fm)) * speed + _TINY)
    # |F|^2 and F . v can overflow although F and v are finite
    bad = ~np.isfinite(transversality)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"non-finite transversality at step {step}: line "
            f"{lines[line_of[i]].id!r} node {node[i]} has velocity "
            f"{v[i].tolist()} and force {fm[i].tolist()}")
    moved = nodes + params.time_step * v

    inside = np.ones(len(moved), bool)
    for i, (lo, hi) in enumerate(() if extents is None else extents):
        inside &= (moved[:, i] >= lo) & (moved[:, i] <= hi)
    clips = [ClipEvent(step=step, line_id=lines[line_of[i]].id,
                       node=int(node[i]), position=moved[i].copy())
             for i in np.flatnonzero(~inside)]
    survivors = []
    stop = 0
    for line, count in zip(lines, counts):
        start, stop = stop, stop + count
        kept = moved[start:stop][inside[start:stop]]
        if len(kept) >= (3 if line.closed else 2):
            line.nodes = kept
            survivors.append(line)
    ids = [line.id for line in lines]
    return survivors, NodeStep(
        line_ids=[ids[k] for k in line_of.tolist()], node=node,
        position=nodes, velocity=v, f_ext=f_ext, f_magnus=fm,
        transversality=transversality), clips
