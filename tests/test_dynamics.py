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
    _stack_lines,
    _tangents,
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


@pytest.mark.parametrize("law", ["crossproduct", "Cross"])
def test_unknown_force_law_is_refused(law):
    """A law name that is neither 'cross' nor 'derivation' is an error, not
    the derivation law."""
    with pytest.raises(ValueError, match=f"^unknown force law '{law}'$"):
        magnus_force([0, 0, 0.1], [0, 0, 1], [0.5, 0, 0], 1.0, law, ZHAT)
    with pytest.raises(ValueError, match=f"^unknown force law '{law}'$"):
        solve_velocity([0.3, 0, 0], [0, 0, 0.1], [0, 0, 1], 1.0, 1.0, law,
                       ZHAT)


def _per_row(f, *operands):
    """f called once per row of the (n, 3) and (n,) operands, stacked."""
    return np.array([f(*row) for row in zip(*operands)])


@pytest.mark.parametrize("law", [CROSS_PRODUCT, DERIVATION_CONSISTENT])
def test_stacked_calls_bit_equal_to_per_row_calls(law):
    """magnus_force, solve_velocity and transversality_defect on stacked
    operands give every row the bits of a call on that row alone, with
    magnitudes from 1e-3 to 1e3."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        f_ext, theta, b, t = rng.normal(size=(4, n, 3)) \
            * 10.0 ** rng.uniform(-3, 3, (4, n, 1))
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        mobility = 10.0 ** rng.uniform(-3, 3, n)
        Gamma = float(10.0 ** rng.uniform(-3, 3))
        v = solve_velocity(f_ext, theta, b, Gamma, mobility, law, t)
        assert _bits(v) == _bits(_per_row(
            lambda fi, th, bi, mi, ti: solve_velocity(fi, th, bi, Gamma, mi,
                                                      law, ti),
            f_ext, theta, b, mobility, t))
        f = magnus_force(theta, b, v, Gamma, law, t)
        assert _bits(f) == _bits(_per_row(
            lambda th, bi, vi, ti: magnus_force(th, bi, vi, Gamma, law, ti),
            theta, b, v, t))
        d = transversality_defect(f, v)
        assert d.shape == (n,)
        assert _bits(d) == _bits(_per_row(transversality_defect, f, v))


@pytest.mark.parametrize("law", [CROSS_PRODUCT, DERIVATION_CONSISTENT])
def test_single_operands_broadcast_against_stacked_velocities(law):
    """Theta, b and t of shape (3,) against velocities of shape (n, 3), as
    the transversality map calls them: each row has its per-row bits, and a
    single pair of vectors gives a float."""
    rng = np.random.default_rng(13)
    theta, b, t = rng.normal(size=(3, 3))
    t /= np.linalg.norm(t)
    v = rng.normal(size=(64, 3))
    f = magnus_force(theta, b, v, 1.7, law, t)
    assert _bits(f) == _bits(_per_row(
        lambda vi: magnus_force(theta, b, vi, 1.7, law, t), v))
    assert _bits(transversality_defect(f, v)) \
        == _bits(_per_row(transversality_defect, f, v))
    assert type(transversality_defect(f[0], v[0])) is float
    u = solve_velocity(v, theta, b, 1.7, 0.8, law, t)
    assert _bits(u) == _bits(_per_row(
        lambda fi: solve_velocity(fi, theta, b, 1.7, 0.8, law, t), v))


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


@pytest.mark.parametrize("mobility", [np.inf, np.nan, -np.inf, 0.0, -1.0])
def test_line_mobility_must_be_finite_and_positive(mobility):
    """An infinite mobility used to pass and make every velocity NaN."""
    with pytest.raises(ValueError, match=r"^mobility must be finite and "
                                         r"positive, got "):
        DislocationLine(np.array([[0, 0, 0], [0, 0, 1.0]]),
                        np.array([1.0, 0, 0]), mobility=mobility)


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


# ---------------------------------------------------------------------------
# stacked checks and tangents against DislocationLine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("change", [
    lambda l: {"nodes": np.vstack([l.nodes[:2], l.nodes[1:]])},
    lambda l: {"nodes": np.where([[0], [0], [1], [0]], np.nan, l.nodes)},
    lambda l: {"nodes": l.nodes[:, :2]},
    lambda l: {"nodes": l.nodes[:1]},
    lambda l: {"nodes": l.nodes[:2], "closed": True},
    lambda l: {"burgers": np.zeros(3)},
    lambda l: {"burgers": np.array([1.0, np.nan, 0.0])},
    lambda l: {"mobility": 0.0},
    lambda l: {"nodes": np.vstack([l.nodes, l.nodes[:1]]), "closed": True},
    lambda l: {"mobility": np.inf},
    lambda l: {"mobility": np.nan},
], ids=["repeated_node", "nan_node", "two_columns", "open_one_node",
        "closed_two_nodes", "zero_burgers", "nan_burgers", "zero_mobility",
        "closed_repeated_endpoint", "inf_mobility", "nan_mobility"])
def test_stacked_checks_raise_the_constructor_message(change):
    """A line changed after construction so that DislocationLine rejects it
    makes step_lines raise the constructor's text, for the first such line
    even when a later line is bad in another way."""
    lines = [straight_line(x0=x) for x in (-0.5, 0.0, 0.5)]
    for attr, value in change(lines[1]).items():
        setattr(lines[1], attr, value)
    lines[2].mobility = -1.0
    with pytest.raises(ValueError) as want:
        DislocationLine(lines[1].nodes, lines[1].burgers, lines[1].closed,
                        lines[1].mobility, lines[1].id)
    params = DynamicsParams(Gamma=1.0, time_step=0.01, steps=1)
    with pytest.raises(ValueError) as got:
        step_lines(lines, DisclinationField([]), params, EXTENTS)
    assert str(got.value) == str(want.value)


def test_step_leaves_input_lines_unchanged_and_unshared():
    rng = np.random.default_rng(8)
    lines = _random_lines(rng)
    before = [(np.array(l.nodes), np.array(l.burgers)) for l in lines]
    params = DynamicsParams(Gamma=1.5, time_step=0.01, steps=1,
                            external_force=np.array([0.3, -0.2, 0.1]))
    out, node_step, _ = step_lines(lines, DisclinationField([]), params)
    assert len(out) == len(lines)
    for line, (nodes, burgers) in zip(lines, before):
        assert _bits(line.nodes) == _bits(nodes)
        assert _bits(line.burgers) == _bits(burgers)
    inputs = [a for l in lines for a in (l.nodes, l.burgers)]
    for line in out:
        for a in (line.nodes, line.burgers):
            assert not any(np.shares_memory(a, b) for b in inputs)
    assert not any(np.shares_memory(node_step.position, b) for b in inputs)


def _line_tangents(line):
    """Central differences of one line's nodes, rolled if it is closed: the
    per-line reference for the stacked tangents."""
    nodes = line.nodes
    if line.closed:
        t = np.roll(nodes, -1, axis=0) - np.roll(nodes, 1, axis=0)
    else:
        t = np.empty_like(nodes)
        t[1:-1] = nodes[2:] - nodes[:-2]
        t[0] = nodes[1] - nodes[0]
        t[-1] = nodes[-1] - nodes[-2]
    norms = np.linalg.norm(t, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return t / norms


def test_stacked_tangents_bit_equal_to_per_line_tangents():
    """Random open and closed lines, plus a closed line that doubles back
    (A, B, C, B), whose tangent at C is zero."""
    rng = np.random.default_rng(9)
    back = DislocationLine([[0, 0, 0], [0.1, 0, 0], [0.1, 0.1, 0],
                            [0.1, 0, 0]], [0, 0, 1.0], closed=True)
    for _ in range(100):
        lines = _random_lines(rng) + [back]
        nodes, _, _, closed, counts = _stack_lines(lines)
        want = np.concatenate([_line_tangents(l) for l in lines])
        assert _bits(_tangents(nodes, closed, counts)) == _bits(want)
        assert _bits(np.concatenate([l.tangents() for l in lines])) \
            == _bits(want)
    assert not back.tangents()[2].any()


def test_lines_that_meet_end_to_start_pass_the_checks():
    """The step from one line's last node to the next line's first node is
    no segment of either line, so a zero length there is not checked."""
    line = straight_line()
    back = DislocationLine(line.nodes[::-1], line.burgers, id="back")
    params = DynamicsParams(Gamma=1.0, time_step=0.01, steps=1)
    out, node_step, _ = step_lines([line, back], DisclinationField([]),
                                   params, EXTENTS)
    assert [l.id for l in out] == ["L", "back"] and len(node_step) == 8


def test_step_of_no_lines_is_empty():
    params = DynamicsParams(Gamma=1.0, time_step=0.01, steps=1)
    out, node_step, clips = step_lines([], DisclinationField([]), params,
                                       EXTENTS)
    assert out == [] and clips == [] and len(node_step) == 0
    assert node_step.position.shape == (0, 3)
