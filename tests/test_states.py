import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinsqueeze import (
    CoupledState,
    DegenerateDenominatorError,
    Spin1State,
    Spinor,
    StateFormatError,
    canonical_squeezed,
    complete_z_alignment_numeric,
    config,
    is_oriented,
    load_state,
    majorana,
    mean_spin,
    product,
    save_state,
    schmidt,
    schwinger,
    solve_z_alignment,
    transverse_expectations,
    z_alignment_audit,
)

from conftest import random_coupled, random_unit

ANGLE = st.floats(0.0, math.pi)
PHASE = st.floats(0.0, 2.0 * math.pi)


def _fidelity(a: Spin1State, b: Spin1State) -> float:
    return abs(np.vdot(a.amps, b.amps))


# ---------------------------------------------------------------- spinors


def test_spinor_amplitudes():
    s = Spinor(0.7, 1.2)
    a, b = s.amplitudes()
    assert a == pytest.approx(math.cos(0.35))
    assert b == pytest.approx(math.sin(0.35) * np.exp(1.2j))


def test_spinor_direction():
    s = Spinor(0.7, 1.2)
    d = s.direction()
    npt.assert_allclose(
        d,
        [math.sin(0.7) * math.cos(1.2), math.sin(0.7) * math.sin(1.2), math.cos(0.7)],
        atol=1e-15,
    )


def test_spinor_rejects_out_of_range():
    with pytest.raises(ValueError):
        Spinor(-0.1, 0.0)
    with pytest.raises(ValueError):
        Spinor(math.pi + 0.2, 0.0)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phi"):
            Spinor(0.5, phi)


# ------------------------------------------------- schwinger / majorana


def test_schwinger_identical_spinors_is_coherent():
    # twin spinors give the spin-1 coherent state along their direction
    u = Spinor(0.9, 0.4)
    state = schwinger(u, u)
    coupled = product(state, state)
    v, mag = mean_spin(coupled, 1)
    assert mag == pytest.approx(1.0, abs=1e-12)
    npt.assert_allclose(v, u.direction(), atol=1e-12)


def test_schwinger_poles():
    top = schwinger(Spinor(0.0, 0.0), Spinor(0.0, 0.0))
    npt.assert_allclose(top.amps, [1, 0, 0], atol=1e-15)
    antipodal = schwinger(Spinor(0.0, 0.0), Spinor(math.pi, 0.0))
    npt.assert_allclose(np.abs(antipodal.amps), [0, 1, 0], atol=1e-15)


def test_majorana_of_basis_states():
    s1, s2 = majorana(Spin1State.basis(1))
    assert s1.theta == pytest.approx(0.0) and s2.theta == pytest.approx(0.0)
    s1, s2 = majorana(Spin1State.basis(-1))
    assert s1.theta == pytest.approx(math.pi) and s2.theta == pytest.approx(math.pi)
    s1, s2 = majorana(Spin1State.basis(0))
    assert s1.theta == pytest.approx(0.0) and s2.theta == pytest.approx(math.pi)


@given(t1=ANGLE, p1=PHASE, t2=ANGLE, p2=PHASE)
def test_majorana_schwinger_round_trip(t1, p1, t2, p2):
    state = schwinger(Spinor(t1, p1), Spinor(t2, p2))
    back = schwinger(*majorana(state))
    assert _fidelity(state, back) >= 1.0 - 1e-10


def test_majorana_random_states(rng):
    for _ in range(200):
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        state = Spin1State.normalized(raw)
        back = schwinger(*majorana(state))
        assert _fidelity(state, back) >= 1.0 - 1e-10


def test_canonical_squeezed_family():
    npt.assert_allclose(canonical_squeezed(0.0).amps, [1, 0, 0], atol=1e-15)
    s = canonical_squeezed(1.3)
    assert np.linalg.norm(s.amps) == pytest.approx(1.0, abs=1e-14)
    # equals the two-spinor construction with one spinor pinned at the pole
    alt = schwinger(Spinor(0.0, 0.0), Spinor(1.3, 0.0))
    assert _fidelity(s, alt) >= 1.0 - 1e-12
    with pytest.raises(ValueError):
        canonical_squeezed(3.5)


# ------------------------------------------------------ product / schmidt


def test_schmidt_flags_product_states(rng):
    for _ in range(30):
        s1 = Spin1State.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        s2 = Spin1State.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        info = schmidt(product(s1, s2))
        assert info.product_flag
        assert info.singular_values[0] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_flags_entangled_state():
    bell = CoupledState.normalized(np.diag([1.0, 1.0, 1.0]))
    info = schmidt(bell)
    assert not info.product_flag
    npt.assert_allclose(info.singular_values, np.full(3, 1 / math.sqrt(3)), atol=1e-12)


def test_schmidt_agrees_with_minors(rng):
    # product <=> every 2x2 minor of the amplitude matrix vanishes
    for _ in range(40):
        state = random_coupled(rng)
        c = state.c
        minors = [
            c[i1, j1] * c[i2, j2] - c[i1, j2] * c[i2, j1]
            for i1 in range(3)
            for i2 in range(i1 + 1, 3)
            for j1 in range(3)
            for j2 in range(j1 + 1, 3)
        ]
        all_zero = max(abs(m) for m in minors) < 1e-10
        assert schmidt(state).product_flag == all_zero


def test_is_oriented_basis_and_rotations(rng):
    z = np.array([0.0, 0.0, 1.0])
    assert is_oriented(CoupledState.basis(1, -1), z, z)
    assert is_oriented(CoupledState.basis(0, 0), z, z)
    bell = CoupledState.normalized(np.diag([1.0, 1.0, 1.0]))
    assert not is_oriented(bell, z, z)
    # coherent product along random axes is oriented exactly there
    n1, n2 = random_unit(rng), random_unit(rng)
    th1, ph1 = math.acos(n1[2]), math.atan2(n1[1], n1[0]) % (2 * math.pi)
    th2, ph2 = math.acos(n2[2]), math.atan2(n2[1], n2[0]) % (2 * math.pi)
    state = product(
        schwinger(Spinor(th1, ph1), Spinor(th1, ph1)),
        schwinger(Spinor(th2, ph2), Spinor(th2, ph2)),
    )
    assert is_oriented(state, n1, n2)
    assert not is_oriented(state, n2, n1) or abs(np.dot(n1, n2)) > 0.999


# ------------------------------------------------------- configurations


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_config_mean_spins_on_z(kind):
    state = config(kind, 0.8, 1.1, 0.5, 2.0)
    npt.assert_allclose(transverse_expectations(state), np.zeros(4), atol=1e-12)
    assert np.linalg.norm(state.vec) == pytest.approx(1.0, abs=1e-14)


def test_config_support_patterns():
    c1 = config(1, 0.7, 0.9).c
    assert np.count_nonzero(np.abs(c1) > 1e-14) == 3
    assert all(abs(c1[i, j]) > 1e-14 for i, j in ((0, 0), (1, 1), (2, 2)))
    c2 = config(2, 0.7, 0.9).c
    assert all(abs(c2[i, j]) > 1e-14 for i, j in ((0, 0), (0, 2), (1, 1)))
    c3 = config(3, 0.7, 0.9, 0.3, 0.4).c
    assert all(abs(c3[i, j]) > 1e-14 for i, j in ((0, 1), (1, 0), (1, 2)))
    with pytest.raises(ValueError):
        config(4, 0.7, 0.9)


# -------------------------------------------------------- z-alignment


def test_solve_z_alignment_transcription():
    # hand-checked: den1 = 0.2, c23 = (0.019 + 0.174)/0.2, c21 = -0.136/0.6
    c23, c21 = solve_z_alignment(
        c11=0.4, c12=0.1, c13=-0.3, c22=0.5, c31=0.2, c32=-0.6, c33=0.7
    )
    assert c23 == pytest.approx(0.965, abs=1e-12)
    assert c21 == pytest.approx(-0.136 / 0.6, abs=1e-12)


def test_solve_z_alignment_degenerate_denominator():
    with pytest.raises(DegenerateDenominatorError):
        solve_z_alignment(c11=0.3, c12=0.1, c13=0.3, c22=0.5, c31=0.2, c32=0.4, c33=0.2)
    # a non-finite amplitude is rejected, not completed with nan
    knowns = dict(c11=0.4, c12=0.1, c13=-0.3, c22=0.5, c31=0.2, c32=-0.6, c33=0.7)
    for name, bad in (("c11", math.nan), ("c11", math.inf), ("c32", complex(0.1, -math.inf))):
        for complete in (solve_z_alignment, complete_z_alignment_numeric):
            with pytest.raises(ValueError, match="finite"):
                complete(**{**knowns, name: bad})


def test_numeric_completion_zeroes_transverse_means(rng):
    for _ in range(25):
        vals = rng.uniform(-1.0, 1.0, size=7)
        kw = dict(zip(("c11", "c12", "c13", "c22", "c31", "c32", "c33"), vals))
        if abs(kw["c22"]) < 0.1:
            continue
        c23, c21 = complete_z_alignment_numeric(**kw)
        c = np.array(
            [
                [kw["c11"], kw["c12"], kw["c13"]],
                [c21, kw["c22"], c23],
                [kw["c31"], kw["c32"], kw["c33"]],
            ],
            dtype=complex,
        )
        state = CoupledState.normalized(c)
        npt.assert_allclose(transverse_expectations(state), np.zeros(4), atol=1e-10)


def test_z_alignment_audit_is_deterministic():
    a = z_alignment_audit(n_samples=20, seed=11)
    b = z_alignment_audit(n_samples=20, seed=11)
    assert len(a) == len(b) == 20
    for ra, rb in zip(a, b):
        assert ra.inputs == rb.inputs
        assert ra.closed_residual == rb.closed_residual
    # numeric completion is the oracle: residuals at machine precision
    assert max(r.numeric_residual for r in a) < 1e-12


# ------------------------------------------------------------ invariants


@pytest.mark.parametrize("cls,size", [(Spin1State, 3), (CoupledState, 9)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constructor_rejects_non_finite_amplitudes(cls, size, bad):
    with pytest.raises(ValueError):
        cls(np.full(size, bad))
    amps = np.zeros(size, dtype=complex)
    amps[0] = complex(1.0, bad)
    with pytest.raises(ValueError):
        cls(amps)


def test_normalized_accepts_non_contiguous_amplitudes(rng):
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    npt.assert_array_equal(CoupledState.normalized(c.T).c, CoupledState.normalized(c.T.copy()).c)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    npt.assert_array_equal(Spin1State.normalized(x[::2]).amps, Spin1State.normalized(x[::2].copy()).amps)
    c[2, 1] = complex(1.0, math.nan)
    with pytest.raises(ValueError, match="non-finite"):
        CoupledState.normalized(c.T)
    x[4] = math.inf
    with pytest.raises(ValueError, match="non-finite"):
        Spin1State.normalized(x[::2])


@pytest.mark.filterwarnings("error")
def test_normalized_scales_amplitudes_whose_norm_overflows():
    """Finite amplitudes whose sum of squares overflows are normalized, with
    no overflow warning."""
    npt.assert_allclose(CoupledState.normalized(np.full(9, 1e200)).c, np.full((3, 3), 1.0 / 3.0),
                        rtol=1e-15)
    npt.assert_allclose(Spin1State.normalized(np.full(3, 1e300)).amps,
                        np.full(3, 1.0 / math.sqrt(3.0)), rtol=1e-15)
    amps = np.array([1e300j, -2e300, 0.0])
    npt.assert_allclose(Spin1State.normalized(amps).amps, amps / 1e300 / math.sqrt(5.0), rtol=1e-15)


# ------------------------------------------------------------ file io


def test_save_load_round_trip(tmp_path, rng):
    state = random_coupled(rng)
    path = tmp_path / "state.json"
    save_state(path, state)
    back = load_state(path)
    assert abs(np.vdot(state.vec, back.vec)) == pytest.approx(1.0, abs=1e-12)


def test_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(StateFormatError):
        load_state(p)
    p.write_text('{"basis_order": "m=+1,0,-1", "amps": [[0, 0], [0, 0]]}')
    with pytest.raises(StateFormatError):
        load_state(p)
    p.write_text('{"basis_order": "m=-1,0,+1", "amps": []}')
    with pytest.raises(StateFormatError):
        load_state(p)


def test_load_rejects_json_booleans(tmp_path):
    p = tmp_path / "bools.json"
    amps = [[True, False]] + [[0, 0]] * 8
    p.write_text(json.dumps({"basis_order": "m=+1,0,-1", "amps": amps}))
    with pytest.raises(StateFormatError):
        load_state(p)


def test_load_renormalizes(tmp_path):
    p = tmp_path / "scaled.json"
    save_state(p, CoupledState.basis(1, 1))
    doc = json.loads(p.read_text())
    doc["amps"][0] = [2.0, 0.0]
    p.write_text(json.dumps(doc))
    state = load_state(p)
    assert np.linalg.norm(state.vec) == pytest.approx(1.0, abs=1e-14)
