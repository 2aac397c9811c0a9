"""Line dynamics: transverse force laws, implicit velocity solve and the
stacked explicit-Euler step."""

import numpy as np
import pytest

from defectgeom.dynamics import (
    CROSS_PRODUCT,
    DERIVATION_CONSISTENT,
    DisclinationField,
    DisclinationSource,
    DislocationLine,
    DynamicsParams,
    magnus_force,
    solve_velocity,
    step_lines,
    transversality_defect,
)

from conftest import EXTENTS, run_steps

ZHAT = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# force laws
# ---------------------------------------------------------------------------

def test_force_zero_velocity():
    for law in (CROSS_PRODUCT, DERIVATION_CONSISTENT):
        f = magnus_force([0, 0, 0.1], [1, 0, 0], [0, 0, 0], 2.0, law, ZHAT)
        assert np.array_equal(f, np.zeros(3))


def test_cross_law_arithmetic():
    # Theta = (0,0,0.1), b = (1,0,0), v = (0.5,0,0):
    # Theta x b = (0,0.1,0); (Theta x b) x v = (0,0,-0.05)
    for Gamma in (1.0, 2.5):
        f = magnus_force([0, 0, 0.1], [1, 0, 0], [0.5, 0, 0], Gamma,
                         CROSS_PRODUCT)
        assert np.array_equal(f, Gamma * np.array([0.0, 0.0, -0.05]))


def test_cross_law_parallel_theta_b_vanishes():
    # screw near a coaxial wedge: Theta parallel to b kills the cross form
    f = magnus_force([0, 0, 0.1], [0, 0, 1.0], [0.5, 0.2, 0], 3.0,
                     CROSS_PRODUCT)
    assert np.array_equal(f, np.zeros(3))
    # the projected law keeps the transverse magnitude Gamma Theta b v_perp
    fd = magnus_force([0, 0, 0.1], [0, 0, 1.0], [0.5, 0, 0], 3.0,
                      DERIVATION_CONSISTENT, ZHAT)
    assert abs(np.linalg.norm(fd) - 3.0 * 0.1 * 1.0 * 0.5) < 1e-15
    assert abs(np.dot(fd, [0.5, 0, 0])) < 1e-15


def test_derivation_law_needs_tangent():
    with pytest.raises(ValueError, match="tangent"):
        magnus_force([0, 0, 0.1], [0, 0, 1], [1, 0, 0], 1.0,
                     DERIVATION_CONSISTENT)


def test_both_laws_do_no_work():
    rng = np.random.default_rng(11)
    for _ in range(200):
        theta, b, v = rng.normal(size=(3, 3))
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        for law in (CROSS_PRODUCT, DERIVATION_CONSISTENT):
            f = magnus_force(theta, b, v, 1.7, law, t)
            assert transversality_defect(f, v) < 1e-12


# ---------------------------------------------------------------------------
# velocity solve
# ---------------------------------------------------------------------------

def test_velocity_gamma_zero():
    v = solve_velocity([2.0, -1.0, 0.5], [0, 0, 0.1], [1, 0, 0], 0.0, 1.5)
    assert np.allclose(v, 1.5 * np.array([2.0, -1.0, 0.5]), atol=1e-15)


def test_velocity_no_drive_is_zero():
    v = solve_velocity([0, 0, 0], [0, 0, 0.3], [1, 0, 0], 5.0, 2.0)
    assert np.array_equal(v, np.zeros(3))


def test_velocity_hand_solved_2x2():
    """W = Theta x b = (0,0,c): the in-plane block solves to
    v = M f/(1+s^2) (1, s, 0) with s = M Gamma c."""
    M, Gamma, c, f = 1.5, 2.0, 0.1, 1.0
    theta = np.array([0.0, -c, 0.0])   # theta x (1,0,0) = (0,0,c)
    b = np.array([1.0, 0.0, 0.0])
    v = solve_velocity([f, 0, 0], theta, b, Gamma, M)
    s = M * Gamma * c
    expected = M * f / (1 + s ** 2) * np.array([1.0, s, 0.0])
    assert np.max(np.abs(v - expected)) < 1e-14
    res = v - M * (np.array([f, 0, 0])
                   + magnus_force(theta, b, v, Gamma))
    assert np.linalg.norm(res) < 1e-12


def test_velocity_randomized_residual_and_speed_bound():
    """1000 random draws: exact back-substitution and the antisymmetric
    force never increases speed beyond M |F_ext|."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        f_ext = rng.normal(size=3)
        theta = rng.normal(size=3) * rng.uniform(0, 0.5)
        b = rng.normal(size=3)
        Gamma = rng.uniform(0.0, 3.0)
        M = rng.uniform(0.1, 2.0)
        v = solve_velocity(f_ext, theta, b, Gamma, M)
        res = v - M * (f_ext + magnus_force(theta, b, v, Gamma))
        assert np.linalg.norm(res) < 1e-12
        assert np.linalg.norm(v) <= M * np.linalg.norm(f_ext)


# ---------------------------------------------------------------------------
# disclination sampling
# ---------------------------------------------------------------------------

def test_disclination_field_weight():
    field = DisclinationField([DisclinationSource((0.0, 0.0), 0.2, 0.1)])
    # Gaussian core density times pi eps^2 gives weight exp(-r^2/2eps^2)/2
    at_core = field.theta_at(np.array([[0.0, 0.0, 0.3]]))[0]
    assert np.allclose(at_core, [0, 0, 0.1], atol=1e-15)
    far = field.theta_at(np.array([[1.0, 0.0, 0.0]]))[0]
    assert abs(far[2] - 0.1 * np.exp(-50.0)) < 1e-30


def test_disclination_field_superposition():
    field = DisclinationField([DisclinationSource((0.0, 0.0), 0.2, 0.1),
                               DisclinationSource((0.5, 0.0), -0.2, 0.1)])
    mid = field.theta_at(np.array([[0.25, 0.0, 0.0]]))[0]
    assert abs(mid[2]) < 1e-15   # symmetric cancellation


# ---------------------------------------------------------------------------
# line stepping
# ---------------------------------------------------------------------------

def straight_line(x0=0.0, b=(1.0, 0.0, 0.0), n=4, mobility=1.0):
    z = np.linspace(-0.3, 0.3, n)
    nodes = np.stack([np.full(n, x0), np.zeros(n), z], -1)
    return DislocationLine(nodes, np.array(b), mobility=mobility, id="L")


def test_line_validation():
    with pytest.raises(ValueError):
        DislocationLine(np.zeros((1, 3)), np.array([1, 0, 0]))
    with pytest.raises(ValueError):
        DislocationLine(np.array([[0, 0, 0], [0, 0, 0]]),
                        np.array([1.0, 0, 0]))
    with pytest.raises(ValueError):
        DislocationLine(np.array([[0, 0, 0], [0, 0, 1]]),
                        np.array([0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        DislocationLine(np.array([[0, 0, 0], [0, 0, 1]]),
                        np.array([1.0, 0, 0]), closed=True)


def test_dynamics_inputs_reject_non_finite_values():
    with pytest.raises(ValueError, match="nodes must be finite"):
        DislocationLine(np.array([[0, 0, 0], [0, np.nan, 1]]),
                        np.array([1.0, 0, 0]))
    with pytest.raises(ValueError, match="core radius"):
        DisclinationSource((0.0, 0.0), 0.1, np.inf)
    with pytest.raises(ValueError, match="time step"):
        DynamicsParams(Gamma=1.0, time_step=np.inf, steps=1)


def test_line_accepts_subnormal_burgers():
    """A subnormal Burgers vector is nonzero although its norm underflows."""
    for b in ([0.0, 0.0, 1.1e-308], [5e-324, 0.0, -0.0]):
        line = DislocationLine(np.array([[0, 0, 0], [0, 0, 1.0]]), np.array(b))
        assert np.array_equal(line.burgers, b)


def test_line_tangents():
    line = straight_line()
    t = line.tangents()
    assert np.allclose(t, np.broadcast_to(ZHAT, t.shape), atol=1e-15)


def test_step_zero_force_keeps_positions():
    line = straight_line()
    params = DynamicsParams(Gamma=1.0, time_step=0.1, steps=5)
    disc = DisclinationField([])
    out, node_steps, clips = run_steps([line], disc, params, EXTENTS)
    assert np.array_equal(out[0].nodes, line.nodes)
    assert not clips
    assert all(np.all(s.transversality == 0.0) for s in node_steps)


def test_step_rigid_translation_gamma_zero():
    line = straight_line(mobility=2.0)
    params = DynamicsParams(Gamma=0.0, time_step=0.05, steps=4,
                            external_force=np.array([0.5, 0.0, 0.0]))
    disc = DisclinationField([])
    out, _, _ = run_steps([line], disc, params, EXTENTS)
    moved = out[0].nodes - line.nodes
    assert np.allclose(moved[:, 0], 2.0 * 0.5 * 0.05 * 4, atol=1e-14)
    assert np.allclose(moved[:, 1:], 0.0, atol=1e-15)


def test_step_transversality_along_deflected_trajectory():
    line = straight_line(x0=-0.2)
    disc = DisclinationField([DisclinationSource((0.1, 0.0), 0.2, 0.15)])
    params = DynamicsParams(Gamma=2.0, time_step=0.02, steps=60,
                            external_force=np.array([0.4, 0.0, 0.0]))
    out, node_steps, _ = run_steps([line], disc, params, EXTENTS)
    assert max(s.transversality.max() for s in node_steps) < 1e-12
    # Theta x b points along y here, so passing the core deflects along z
    assert abs(out[0].nodes[0, 2] - line.nodes[0, 2]) > 1e-3


def test_step_clips_exiting_nodes():
    line = straight_line(x0=1.5)
    params = DynamicsParams(Gamma=0.0, time_step=0.05, steps=3,
                            external_force=np.array([1.0, 0.0, 0.0]))
    out, _, clips = run_steps([line], DisclinationField([]), params, EXTENTS)
    assert clips and clips[0].line_id == "L"
    assert not out     # every node exits together


def test_step_rejects_oversized_step():
    line = straight_line()
    params = DynamicsParams(Gamma=0.0, time_step=10.0, steps=1,
                            external_force=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="time step"):
        step_lines([line], DisclinationField([]), params, EXTENTS)


def _endpoint_after(gamma, dt=0.02, steps=50):
    line = straight_line(x0=-0.2)
    disc = DisclinationField([DisclinationSource((0.1, 0.0), 0.2, 0.15)])
    params = DynamicsParams(Gamma=gamma, time_step=dt, steps=steps,
                            external_force=np.array([0.4, 0.0, 0.0]))
    out, _, _ = run_steps([line], disc, params, EXTENTS)
    return out[0].nodes[0]


def test_gamma_to_zero_continuity():
    """Endpoint deviation from the Gamma = 0 trajectory scales linearly in
    Gamma for small Gamma."""
    base = _endpoint_after(0.0)
    d1 = np.linalg.norm(_endpoint_after(0.2) - base)
    d2 = np.linalg.norm(_endpoint_after(0.1) - base)
    assert 1.8 <= d1 / d2 <= 2.2


def test_time_step_first_order_convergence():
    """Explicit Euler: halving dt halves the endpoint difference."""
    ends = {}
    for dt, steps in ((0.04, 25), (0.02, 50), (0.01, 100)):
        ends[dt] = _endpoint_after(2.0, dt=dt, steps=steps)
    d1 = np.linalg.norm(ends[0.04] - ends[0.02])
    d2 = np.linalg.norm(ends[0.02] - ends[0.01])
    assert 1.7 <= d1 / d2 <= 2.3


# ---------------------------------------------------------------------------
# stacked step against the per-node functions
# ---------------------------------------------------------------------------

def _bits(a):
    return np.asarray(a, float).tobytes()


def _per_node_step(lines, disc, params):
    """One Euler step node by node with solve_velocity, magnus_force and
    transversality_defect: rows (line id, node, position, v, F, defect)."""
    rows, moved = [], []
    for line in lines:
        tans = line.tangents()
        thetas = disc.theta_at(line.nodes)
        new = np.array(line.nodes)
        for k in range(len(line.nodes)):
            v = solve_velocity(params.external_force, thetas[k], line.burgers,
                               params.Gamma, line.mobility, params.force_law,
                               tans[k])
            fm = magnus_force(thetas[k], line.burgers, v, params.Gamma,
                              params.force_law, tans[k])
            rows.append((line.id, k, line.nodes[k], v, fm,
                         transversality_defect(fm, v)))
            new[k] = line.nodes[k] + params.time_step * v
        moved.append(new)
    return rows, moved


def _random_lines(rng):
    lines = []
    for i in range(rng.integers(1, 6)):
        closed = bool(rng.integers(2))
        m = rng.integers(3 if closed else 2, 9)
        start = rng.uniform([-1.0, -1.0, -0.3], [1.0, 1.0, 0.3])
        nodes = start + np.cumsum(rng.normal(scale=0.1, size=(m, 3)), axis=0)
        lines.append(DislocationLine(nodes, rng.normal(size=3), closed=closed,
                                     mobility=rng.uniform(0.3, 2.0),
                                     id=f"l{i}"))
    return lines


def test_stacked_step_bit_equal_to_per_node_solve():
    """Random lines, both force laws, closed lines and mixed mobilities:
    every diagnostic and every moved node has the per-node bits."""
    rng = np.random.default_rng(7)
    for trial in range(150):
        lines = _random_lines(rng)
        disc = DisclinationField([
            DisclinationSource(tuple(rng.uniform(-1.0, 1.0, 2)),
                               rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.3),
                               rng.uniform(0.1, 0.4))
            for _ in range(rng.integers(0, 4))])
        params = DynamicsParams(
            Gamma=rng.uniform(0.0, 3.0), time_step=0.01, steps=1,
            force_law=(CROSS_PRODUCT, DERIVATION_CONSISTENT)[trial % 2],
            external_force=rng.normal(scale=0.5, size=3))
        out, node_step, clips = step_lines(lines, disc, params)
        rows, moved = _per_node_step(lines, disc, params)
        assert not clips and len(node_step) == len(rows)
        for i, (line_id, k, pos, v, fm, tr) in enumerate(rows):
            assert (node_step.line_ids[i], node_step.node[i]) \
                == (line_id, k)
            assert _bits(node_step.position[i]) == _bits(pos)
            assert _bits(node_step.velocity[i]) == _bits(v)
            assert _bits(node_step.f_ext[i]) == _bits(params.external_force)
            assert _bits(node_step.f_magnus[i]) == _bits(fm)
            assert _bits(node_step.transversality[i]) == _bits(tr)
        assert [l.id for l in out] == [l.id for l in lines]
        for line, new in zip(out, moved):
            assert _bits(line.nodes) == _bits(new)


def test_step_size_error_reports_first_node_in_line_order():
    slow = straight_line(x0=-0.5, mobility=1.0)
    fast = straight_line(x0=0.5, mobility=3.0)
    params = DynamicsParams(Gamma=0.0, time_step=1.0, steps=1,
                            external_force=np.array([1.0, 0.0, 0.0]))
    # both lines travel more than 0.1 * 0.8; the first line is reported
    with pytest.raises(ValueError, match="displacement 1 exceeds"):
        step_lines([slow, fast], DisclinationField([]), params, EXTENTS)
    with pytest.raises(ValueError, match="displacement 3 exceeds"):
        step_lines([fast, slow], DisclinationField([]), params, EXTENTS)


def test_step_rejects_non_finite_velocity():
    # Gamma (Theta . t)(b . t) overflows, so the velocity solve yields NaN
    line = straight_line(b=(0.0, 0.0, 100.0))
    disc = DisclinationField([DisclinationSource((0.0, 0.0), 0.1, 0.05)])
    params = DynamicsParams(Gamma=1e308, time_step=0.01, steps=2,
                            force_law=DERIVATION_CONSISTENT,
                            external_force=np.array([0.3, 0.0, 0.0]))
    with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
        run_steps([line], disc, params, EXTENTS)
    assert "non-finite dynamics at step 0: line 'L' node 0 " in str(err.value)


def test_external_force_must_be_a_3_vector():
    with pytest.raises(ValueError, match="3-vector"):
        DynamicsParams(Gamma=1.0, time_step=0.1, steps=1,
                       external_force=np.zeros(2))
