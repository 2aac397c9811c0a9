"""Reconnection algebra, curvature-screened Burgers exchange, line-set
reconnection and the charge ledger."""

import json

import numpy as np
import pytest

import defectgeom as dg
from defectgeom.forms import FormField
from defectgeom.geometry import Box
from defectgeom.network import (
    charge_ledger,
    curvature_screened_flux,
    detect_and_reconnect,
    reconnect,
    _candidate_pairs,
    _dedup_consecutive,
    _find_contact,
    _smooth_once,
)
from defectgeom.dynamics import DislocationLine

from conftest import EPS, tilted_coframe


# ---------------------------------------------------------------------------
# reconnection algebra
# ---------------------------------------------------------------------------

def test_reconnect_examples():
    bf, ev = reconnect([1, 0, 0], [0, 1, 0], [0, 0, 0])
    assert np.array_equal(bf, [1, 1, 0])
    assert np.array_equal(ev.balance_defect(), np.zeros(3))
    bf, _ = reconnect([0, 0, 1], [0, 0, -1], [0, 0, 0])
    assert np.array_equal(bf, np.zeros(3))
    # annihilation with curvature absorbing the net charge
    bf, _ = reconnect([0, 0, 0.3], [0, 0, 0.2], [0, 0, -0.5])
    assert np.array_equal(bf, np.zeros(3))


def test_reconnect_commutative_exact():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        b1, b2, db = rng.normal(size=(3, 3))
        f1, _ = reconnect(b1, b2, db)
        f2, _ = reconnect(b2, b1, db)
        assert np.array_equal(f1, f2)
        assert np.array_equal(f1, b1 + b2 + db)


def test_reconnect_cascade_conserves_ledger():
    rng = np.random.default_rng(6)
    lines = [DislocationLine(np.array([[0.1 * i, 0, -0.2],
                                       [0.1 * i, 0, 0.2]]),
                             rng.normal(size=3), id=f"l{i}")
             for i in range(4)]
    events = []
    total0 = charge_ledger(lines, events)
    for _ in range(3):
        db = rng.normal(size=3) * 0.1
        b1, b2 = lines[0].burgers, lines[1].burgers
        bf, ev = reconnect(b1, b2, db)
        events.append(ev)
        merged = DislocationLine(lines[0].nodes, bf, id="m")
        lines = [merged] + lines[2:]
    drift = charge_ledger(lines, events) - total0
    assert np.max(np.abs(drift)) < 1e-12


def test_reconnect_associativity_dyadic():
    # dyadic inputs make float addition exact, so cascaded merges agree
    b1, b2, b3 = (np.array(v) for v in ([1.5, 0.25, 0],
                                        [0.5, -0.75, 1.0],
                                        [-2.0, 0.5, 0.125]))
    left, _ = reconnect(reconnect(b1, b2, np.zeros(3))[0], b3, np.zeros(3))
    right, _ = reconnect(b1, reconnect(b2, b3, np.zeros(3))[0], np.zeros(3))
    assert np.array_equal(left, right)


# ---------------------------------------------------------------------------
# curvature-screened flux
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wedge_tilted(grid128):
    cfg = dg.DefectConfiguration(grid128, [dg.DefectSpec("wedge", (0, 0),
                                                         0.1, EPS)])
    omega = dg.build_connection(cfg)
    r = dg.curvature(omega)
    e = tilted_coframe(grid128, tilt=0.3)
    return r, e


def test_flux_zero_curvature(grid64):
    r = FormField.zeros(grid64, 2, "antisym")
    e = dg.identity_coframe(grid64)
    db = curvature_screened_flux(r, e, Box((-0.3, -0.3, -0.2),
                                           (0.3, 0.3, 0.2)))
    assert np.array_equal(db, np.zeros(3))


def test_flux_tube_matches_analytic_oracle(wedge_tilted):
    """Wedge core inside a tube against a coframe with a dz-weighted e^2.

    Analytic oracle for the regularized fields: the curvature block
    R^1_2 = 2 pi Theta g_eps(r) dx^dy wedges the tilt c dz of e^2, so

      db_1 = -2 pi Theta c L erf(w / sqrt(2) eps)^2

    over a box of transverse half-width w and height L; all other
    components vanish identically.
    """
    r, e = wedge_tilted
    theta, c, w, z0, z1 = 0.1, 0.3, 0.5, -0.3, 0.2
    from math import erf, sqrt
    oracle = -2 * np.pi * theta * c * (z1 - z0) * erf(w / (sqrt(2) * EPS)) ** 2
    db = curvature_screened_flux(r, e, Box((-w, -w, z0), (w, w, z1)))
    assert abs(db[0] - oracle) / abs(oracle) < 1e-3
    assert abs(db[1]) < 1e-9
    assert db[2] == 0.0


def test_flux_additive_over_disjoint_volumes(wedge_tilted):
    r, e = wedge_tilted
    lo = curvature_screened_flux(r, e, Box((-0.5, -0.5, -0.3), (0.5, 0.5, 0.0)))
    hi = curvature_screened_flux(r, e, Box((-0.5, -0.5, 0.0), (0.5, 0.5, 0.2)))
    full = curvature_screened_flux(r, e, Box((-0.5, -0.5, -0.3),
                                             (0.5, 0.5, 0.2)))
    assert np.max(np.abs(lo + hi - full)) < 1e-12 * np.max(np.abs(full))


def test_flux_vanishes_for_curvature_free_volume(wedge_tilted):
    r, e = wedge_tilted
    db = curvature_screened_flux(r, e, Box((0.8, 0.8, -0.2), (1.2, 1.2, 0.2)))
    assert np.max(np.abs(db)) < 1e-6


def test_flux_volume_must_stay_inside(wedge_tilted):
    r, e = wedge_tilted
    with pytest.raises(ValueError, match="exits"):
        curvature_screened_flux(r, e, Box((-3, -0.3, -0.2), (0.3, 0.3, 0.2)))


# ---------------------------------------------------------------------------
# detection and reconnection of line sets
# ---------------------------------------------------------------------------

def zero_background(grid):
    return (FormField.zeros(grid, 2, "antisym"), dg.identity_coframe(grid))


def vertical_line(x, b, id_):
    z = np.linspace(-0.3, 0.3, 5)
    nodes = np.stack([np.full(5, x), np.zeros(5), z], -1)
    return DislocationLine(nodes, np.array(b, float), id=id_)


def test_annihilation_of_antiparallel_pair(grid64):
    r, e = zero_background(grid64)
    lines = [vertical_line(-0.005, [0, 0, 1], "plus"),
             vertical_line(0.005, [0, 0, -1], "minus")]
    total0 = charge_ledger(lines, [])
    out, events = detect_and_reconnect(lines, 0.02, r, e)
    assert out == []
    assert len(events) == 1
    assert np.max(np.abs(charge_ledger(out, events) - total0)) < 1e-12


def test_merge_perpendicular_burgers(grid64):
    r, e = zero_background(grid64)
    lines = [vertical_line(-0.005, [1, 0, 0], "a"),
             vertical_line(0.005, [0, 1, 0], "b")]
    out, events = detect_and_reconnect(lines, 0.02, r, e)
    assert len(out) == 1
    assert np.array_equal(out[0].burgers, [1, 1, 0])
    assert len(events) == 1
    assert np.array_equal(events[0].balance_defect(), np.zeros(3))


def test_distant_lines_untouched(grid64):
    r, e = zero_background(grid64)
    lines = [vertical_line(-0.5, [1, 0, 0], "a"),
             vertical_line(0.5, [0, 1, 0], "b")]
    out, events = detect_and_reconnect(lines, 0.02, r, e)
    assert events == []
    assert len(out) == 2
    assert np.array_equal(out[0].nodes, lines[0].nodes)


def test_reconnect_threshold_validation(grid64):
    r, e = zero_background(grid64)
    with pytest.raises(ValueError):
        detect_and_reconnect([], -0.1, r, e)


def test_screened_annihilation_requires_matching_delta(wedge_tilted):
    """With enclosed curvature the merged charge is offset by delta b; lines
    whose sum equals -delta b annihilate exactly."""
    r, e = wedge_tilted
    db = curvature_screened_flux(r, e, Box((-0.02, -0.02, -0.02),
                                           (0.02, 0.02, 0.02)))
    lines = [vertical_line(-0.005, [0.2, 0, 0.5], "a"),
             vertical_line(0.005, -np.array([0.2, 0, 0.5]) - db, "b")]
    out, events = detect_and_reconnect(lines, 0.02, r, e)
    assert out == []
    assert len(events) == 1
    # the event volume sits at the contact, shifted in z; the flux matches
    # the precomputed one by z-independence of the wedge field
    assert np.max(np.abs(np.asarray(events[0].delta_b) - db)) < 1e-12


def test_smoothing_preserves_charges(grid64):
    r, e = zero_background(grid64)
    # crossing polylines with a kink at the contact
    n1 = np.array([[-0.3, 0, -0.2], [-0.005, 0, 0.0], [-0.3, 0, 0.2]])
    n2 = np.array([[0.3, 0, -0.2], [0.005, 0, 0.0], [0.3, 0, 0.2]])
    lines = [DislocationLine(n1, np.array([1.0, 0, 0]), id="a"),
             DislocationLine(n2, np.array([0.0, 1.0, 0]), id="b")]
    out, events = detect_and_reconnect(lines, 0.02, r, e)
    assert len(out) == 1 and len(events) == 1
    assert np.array_equal(out[0].burgers, [1, 1, 0])
    assert len(out[0].nodes) >= 2


# ---------------------------------------------------------------------------
# pruned contact scan against the all-pairs scan
# ---------------------------------------------------------------------------

def _all_pairs_reconnect(lines, threshold, r, e, step=0):
    """detect_and_reconnect with every line pair tested by _find_contact."""
    lines = list(lines)
    events = []
    merged = True
    while merged:
        merged = False
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                contact = _find_contact(lines[i], lines[j], threshold)
                if contact is None:
                    continue
                ni, nj = contact
                point = 0.5 * (lines[i].nodes[ni] + lines[j].nodes[nj])
                ext = r.grid.extents
                box = Box(tuple(max(point[k] - threshold, ext[k][0])
                                for k in range(3)),
                          tuple(min(point[k] + threshold, ext[k][1])
                                for k in range(3)))
                delta_b = curvature_screened_flux(r, e, box)[:3]
                b_f, event = reconnect(lines[i].burgers, lines[j].burgers,
                                       delta_b, box, step)
                events.append(event)
                line_i, line_j = lines[i], lines[j]
                del lines[j], lines[i]
                if np.linalg.norm(b_f) > 1e-12:
                    nodes = _smooth_once(_dedup_consecutive(np.vstack(
                        [line_i.nodes[: ni + 1], line_j.nodes[nj:]])))
                    if len(nodes) >= 2:
                        lines.append(DislocationLine(
                            nodes, b_f, mobility=line_i.mobility,
                            id=f"{line_i.id}+{line_j.id}"))
                merged = True
                break
            if merged:
                break
    return lines, events


def _near_threshold_lines(rng, threshold):
    """Random walks inside the grid plus planted node pairs just inside, at
    and just outside the threshold, along an axis or a random direction."""
    lines = []
    for i in range(rng.integers(6, 13)):
        m = rng.integers(2, 7)
        start = rng.uniform([-1.2, -1.2, -0.3], [1.2, 1.2, 0.3])
        nodes = start + np.cumsum(rng.normal(scale=0.08, size=(m, 3)), axis=0)
        nodes = np.clip(nodes, [-1.3, -1.3, -0.25], [1.3, 1.3, 0.25])
        b = rng.integers(-1, 2, size=3).astype(float)
        if not b.any():
            b[0] = 1.0
        lines.append([nodes, b])
    for _ in range(rng.integers(1, 5)):
        i, j = rng.choice(len(lines), 2, replace=False)
        a = lines[i][0][rng.integers(len(lines[i][0]))]
        if rng.integers(2):
            step = np.zeros(3)
            step[rng.integers(3)] = rng.choice([-1.0, 1.0])
        else:
            step = rng.normal(size=3)
            step /= np.linalg.norm(step)
        scale = rng.choice([1 - 1e-12, 1.0, 1 + 1e-12, 0.5, 1.5])
        nodes_j = lines[j][0]
        nodes_j[rng.integers(len(nodes_j))] = a + threshold * scale * step
        if rng.integers(2):
            lines[j][1] = -lines[i][1]
    return [DislocationLine(nodes, b, mobility=float(k % 3 + 1), id=f"l{k}")
            for k, (nodes, b) in enumerate(lines)]


def _event_json(events):
    return [json.dumps(ev.as_record(), sort_keys=True) for ev in events]


def test_pruned_scan_matches_all_pairs_scan(grid64):
    r, e = zero_background(grid64)
    rng = np.random.default_rng(3)
    total_events = 0
    for _ in range(60):
        threshold = rng.uniform(0.01, 0.08)
        lines = _near_threshold_lines(rng, threshold)
        out, events = detect_and_reconnect(lines, threshold, r, e, step=2)
        ref_out, ref_events = _all_pairs_reconnect(lines, threshold, r, e,
                                                   step=2)
        assert _event_json(events) == _event_json(ref_events)
        assert [l.id for l in out] == [l.id for l in ref_out]
        for got, want in zip(out, ref_out):
            assert got.nodes.tobytes() == want.nodes.tobytes()
            assert got.burgers.tobytes() == want.burgers.tobytes()
            assert got.mobility == want.mobility
        total_events += len(events)
    assert total_events > 20


def test_candidate_pairs_skip_distant_lines():
    lines = [vertical_line(x, [1, 0, 0], f"l{k}")
             for k, x in enumerate((-0.5, 0.0, 0.015, 0.5))]
    assert _candidate_pairs(lines, 0.02) == [[1, 2]]
    assert _candidate_pairs(lines[:1], 0.02) == []


def test_candidate_pairs_match_per_line_boxes():
    """The stacked reduceat boxes give the pairs of per-line fmin/fmax
    boxes, also when NaN nodes (set after construction) sit in the lines."""
    rng = np.random.default_rng(4)
    found = 0
    for trial in range(200):
        threshold = rng.uniform(0.01, 0.08)
        lines = _near_threshold_lines(rng, threshold)
        for line in lines[:trial % 3]:
            line.nodes[rng.integers(len(line.nodes)),
                       rng.integers(3)] = np.nan
        if trial % 5 == 4:
            lines[-1].nodes[:, rng.integers(3)] = np.nan
        lo = np.array([np.fmin.reduce(l.nodes) for l in lines])
        hi = np.array([np.fmax.reduce(l.nodes) for l in lines])
        near = np.all(lo[:, None, :] - hi[None, :, :] < threshold, axis=2)
        want = np.argwhere(np.triu(near & near.T, 1)).tolist()
        assert _candidate_pairs(lines, threshold) == want
        found += len(want)
    assert found > 200
