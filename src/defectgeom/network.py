"""Topological bookkeeping of defect networks.

Reconnection and annihilation of dislocation lines exchange Burgers charge
with enclosed curvature: the outgoing Burgers vector of a merge event is
b_f = b_1 + b_2 + db where db = -integral_V R^a_b ^ e^b over a volume around
the contact. The running ledger sum(lines b) - sum(events db) changes only
by the rounding of those float additions, two per component and event. It
is exact when every sum is representable, as for dyadic charges (small
integers times a power of two); otherwise a cascade drifts by at most
(number of additions) * 2^-53 * (sum of all |b| and |db|), per component.
An annihilation drops a merged vector of norm at most 1e-12 as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forms import ANTISYM, SCALAR, VECTOR, FormField, wedge
from .geometry import Box, box_integral
from .dynamics import DislocationLine


def curvature_screened_flux(r: FormField, e: FormField, volume: Box) -> np.ndarray:
    """db^a = -integral_V sum_b R^a_b ^ e^b, one component per frame index."""
    if r.value_type != ANTISYM or r.degree != 2:
        raise ValueError("curvature input must be a matrix-valued 2-form")
    if e.value_type != VECTOR or e.degree != 1:
        raise ValueError("coframe input must be a frame-vector 1-form")
    if r.grid != e.grid:
        raise ValueError("grid mismatch")
    source = wedge(r, e)
    out = np.empty(r.grid.dim)
    for a in range(r.grid.dim):
        comp = FormField._from_rows(r.grid, source.degree, SCALAR,
                                    source._block(a))
        out[a] = -box_integral(comp, volume)
    return out


@dataclass(frozen=True)
class ReconnectionEvent:
    """Charge bookkeeping of one merge or annihilation."""

    incoming: tuple
    outgoing: tuple
    delta_b: tuple
    volume: Optional[Box]
    step: int = 0

    def balance_defect(self) -> np.ndarray:
        """sum(in) - sum(out) + delta_b: the rounding error of the merge,
        exactly zero on dyadic charges."""
        total_in = np.sum([np.asarray(v) for v in self.incoming], axis=0)
        total_out = (np.sum([np.asarray(v) for v in self.outgoing], axis=0)
                     if self.outgoing else np.zeros(3))
        return total_in - total_out + np.asarray(self.delta_b)

    def as_record(self) -> dict:
        return {
            "incoming": [list(map(float, v)) for v in self.incoming],
            "outgoing": [list(map(float, v)) for v in self.outgoing],
            "deltaB": list(map(float, self.delta_b)),
            "volume": ({"lo": list(self.volume.lo), "hi": list(self.volume.hi)}
                       if self.volume else None),
            "step": self.step,
        }


def reconnect(b1, b2, delta_b, volume: Optional[Box] = None,
              step: int = 0):
    """Merge two Burgers vectors through enclosed curvature.

    Returns (b_f, event) with b_f = b1 + b2 + delta_b, evaluated by plain
    float vector addition: exact on dyadic charges, otherwise rounded as the
    module docstring bounds.
    """
    b1 = np.asarray(b1, float)
    b2 = np.asarray(b2, float)
    delta_b = np.asarray(delta_b, float)
    b_f = b1 + b2 + delta_b
    event = ReconnectionEvent(incoming=(tuple(b1), tuple(b2)),
                              outgoing=(tuple(b_f),),
                              delta_b=tuple(delta_b), volume=volume, step=step)
    return b_f, event


def _smooth_once(nodes: np.ndarray) -> np.ndarray:
    """Single midpoint-averaging pass over interior nodes."""
    if len(nodes) < 3:
        return nodes
    out = np.array(nodes)
    out[1:-1] = 0.5 * (nodes[:-2] + nodes[2:])
    return _dedup_consecutive(out)


def detect_and_reconnect(lines, threshold: float, r: FormField, e: FormField,
                         step: int = 0):
    """One deterministic proximity-reconnection pass over a line set.

    Scans line pairs in (line index, node index) order; the first node pair
    within `threshold` triggers a merge and a rescan. Pairs whose bounding
    boxes are `threshold` apart on some axis are skipped before the node
    test. The exchanged charge comes from the curvature flux through a cube
    of side 2*threshold at the contact point. A merged Burgers vector of
    norm at most 1e-12 removes both lines. Returns (new_lines, events).
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    lines = list(lines)
    events = []
    merged = True
    while merged:
        merged = False
        for i, j in _candidate_pairs(lines, threshold):
            contact = _find_contact(lines[i], lines[j], threshold)
            if contact is None:
                continue
            ni, nj = contact
            point = 0.5 * (lines[i].nodes[ni] + lines[j].nodes[nj])
            grid = r.grid
            volume = Box(tuple(max(point[k] - threshold, grid.extents[k][0])
                               for k in range(3)),
                         tuple(min(point[k] + threshold, grid.extents[k][1])
                               for k in range(3)))
            delta_b = curvature_screened_flux(r, e, volume)[:3]
            b_f, event = reconnect(lines[i].burgers, lines[j].burgers,
                                   delta_b, volume, step)
            events.append(event)
            line_i, line_j = lines[i], lines[j]
            del lines[j], lines[i]
            if np.linalg.norm(b_f) > 1e-12:
                nodes = np.vstack([line_i.nodes[: ni + 1],
                                   line_j.nodes[nj:]])
                nodes = _dedup_consecutive(nodes)
                nodes = _smooth_once(nodes)
                if len(nodes) >= 2:
                    lines.append(DislocationLine(
                        nodes, b_f, closed=False,
                        mobility=line_i.mobility,
                        id=f"{line_i.id}+{line_j.id}"))
            merged = True
            break
    return lines, events


def _candidate_pairs(lines, threshold):
    """Line pairs i < j, in scan order, whose bounding boxes are closer than
    `threshold` on every axis.

    For nodes a of line i and b of line j, fl(lo_i - hi_j) <= fl(a_k - b_k)
    because rounding is monotone, and a node distance below the threshold
    bounds every |a_k - b_k| unless a_k - b_k squares below the normal range;
    the 1e-150 floor covers that case. So no pair with a contact is skipped.
    fmin/fmax ignore NaN nodes, which never make a contact.
    """
    if len(lines) < 2:
        return []
    lo = np.array([np.fmin.reduce(l.nodes) for l in lines])
    hi = np.array([np.fmax.reduce(l.nodes) for l in lines])
    near = np.all(lo[:, None, :] - hi[None, :, :] < max(threshold, 1e-150),
                  axis=2)
    return np.argwhere(np.triu(near & near.T, 1)).tolist()


def _find_contact(line_a, line_b, threshold):
    diff = line_a.nodes[:, None, :] - line_b.nodes[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    hits = np.argwhere(dist < threshold)
    if len(hits) == 0:
        return None
    return tuple(hits[0])


def _dedup_consecutive(nodes):
    keep = np.ones(len(nodes), bool)
    seg = np.linalg.norm(np.diff(nodes, axis=0), axis=1)
    keep[1:][seg == 0] = False
    return nodes[keep]


def charge_ledger(lines, events) -> np.ndarray:
    """Conserved total: sum of line Burgers vectors minus all exchanged db."""
    total = np.zeros(3)
    for line in lines:
        total = total + np.asarray(line.burgers, float)
    for ev in events:
        total = total - np.asarray(ev.delta_b, float)
    return total

