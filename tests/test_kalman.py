from dataclasses import replace

import numpy as np
import pytest

from feederdispatch.battery import (TABLE1, KalmanState, kalman_update,
                                    reduce_and_discretize, voltage_step)

from oracles import information_kalman, matrix_kalman, textbook_kalman


def _simulate_measurements(m, rng, steps=50):
    x = rng.uniform(-1, 1, 2)
    currents, voltages = [], []
    for _ in range(steps):
        i = float(rng.uniform(-400, 400))
        x_next = m.a @ x + m.b_i * i + m.b_1
        v = float(m.c @ x_next + m.d_i * i + m.d_1 + m.g * rng.standard_normal())
        currents.append(i)
        voltages.append(v)
        x = x_next
    return currents, voltages


def test_matches_textbook_recursion(rng):
    m = reduce_and_discretize(TABLE1[2])
    currents, voltages = _simulate_measurements(m, rng)
    st = KalmanState.initial()
    xs_ref, ps_ref = textbook_kalman(m.a, m.b_i, m.b_1, m.c, m.d_i, m.d_1, m.k,
                                     m.g, st.x, st.p, currents, voltages)
    for i_prev, v_meas, x_ref, p_ref in zip(currents, voltages, xs_ref, ps_ref):
        st = kalman_update(st, m, i_prev, v_meas)
        assert st.x == pytest.approx(x_ref, abs=1e-10)
        assert st.p == pytest.approx(p_ref, abs=1e-10)


@pytest.mark.parametrize("params", TABLE1, ids=lambda p: p.soc_range)
def test_scalar_update_matches_matrix_oracle(params, rng):
    # the update on Python floats against the numpy matrix form, on random
    # states, covariances (spanning twelve decades), currents and voltages;
    # every other draw replaces the models' diagonal a and k and their c of
    # ones by full random ones
    model = reduce_and_discretize(params)
    for j in range(500):
        m = model if j % 2 else replace(model, a=rng.normal(size=(2, 2)) * 0.6,
                                        k=rng.normal(size=(2, 2)), c=rng.normal(size=2))
        x = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 2)
        f = rng.normal(size=(2, 2))
        p = f @ f.T * 10.0 ** rng.uniform(-6, 6)
        i_prev, v_meas = float(rng.uniform(-810, 810)), float(rng.uniform(530, 750))
        x_ref, p_ref = matrix_kalman(x, p, m, i_prev, v_meas)
        st = kalman_update(KalmanState(x=x.copy(), p=p.copy()), m, i_prev, v_meas)
        # relative to the predicted covariance too: the update cancels it
        # down to the posterior, and the rounding of its terms with it
        p_pred = m.a @ p @ m.a.T + m.k @ m.k.T
        assert np.abs(st.x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
        assert np.abs(st.p - p_ref).max() <= 1e-12 * max(np.abs(p_ref).max(),
                                                         np.abs(p_pred).max())
        assert st.p[0, 1] == st.p[1, 0]


def test_covariance_trace_non_increasing(rng):
    m = reduce_and_discretize(TABLE1[1])
    currents, voltages = _simulate_measurements(m, rng)
    st = KalmanState.initial()
    for i_prev, v_meas in zip(currents, voltages):
        p_pred = m.a @ st.p @ m.a.T + m.k @ m.k.T
        st = kalman_update(st, m, i_prev, v_meas)
        assert np.trace(st.p) <= np.trace(p_pred) + 1e-12


def test_huge_noise_ignores_measurement():
    m = reduce_and_discretize(TABLE1[2])
    noisy = type(m)(a=m.a, b_i=m.b_i, b_1=m.b_1, c=m.c, d_i=m.d_i, d_1=m.d_1,
                    k=m.k, g=1e9, label=m.label)
    st = KalmanState.initial()
    st2 = kalman_update(st, noisy, 100.0, 1e5)
    x_pred = m.a @ st.x + m.b_i * 100.0 + m.b_1
    assert st2.x == pytest.approx(x_pred, abs=1e-4)


def test_tiny_noise_trusts_measurement():
    m = reduce_and_discretize(TABLE1[2])
    sharp = type(m)(a=m.a, b_i=m.b_i, b_1=m.b_1, c=m.c, d_i=m.d_i, d_1=m.d_1,
                    k=m.k, g=1e-6, label=m.label)
    st = KalmanState.initial()
    v_meas = 655.0
    st2 = kalman_update(st, sharp, 50.0, v_meas)
    predicted_output = float(m.c @ st2.x) + m.d_i * 50.0 + m.d_1
    assert predicted_output == pytest.approx(v_meas, abs=1e-4)


def test_information_and_joseph_agree(rng):
    # the library's Joseph-form update against the information form
    m = reduce_and_discretize(TABLE1[4])
    currents, voltages = _simulate_measurements(m, rng)
    st = KalmanState.initial()
    xs_ref, ps_ref = information_kalman(m.a, m.b_i, m.b_1, m.c, m.d_i, m.d_1, m.k,
                                        m.g, st.x, st.p, currents, voltages)
    for i_prev, v_meas, x_ref, p_ref in zip(currents, voltages, xs_ref, ps_ref):
        st = kalman_update(st, m, i_prev, v_meas)
        assert st.x == pytest.approx(x_ref, abs=1e-8)
        assert st.p == pytest.approx(p_ref, abs=1e-8)


def test_covariance_stays_symmetric_psd(rng):
    m = reduce_and_discretize(TABLE1[0])
    st = KalmanState.initial()
    for _ in range(200):
        st = kalman_update(st, m, float(rng.uniform(-800, 800)),
                           float(rng.uniform(560, 640)))
        assert st.p == pytest.approx(st.p.T, abs=1e-12)
        assert np.linalg.eigvalsh(st.p).min() >= -1e-12


def test_state_tracks_true_plant(rng):
    # matched model, moderate noise: estimate converges toward the true state
    m = reduce_and_discretize(TABLE1[2])
    x_true = np.array([0.5, -0.3])
    st = KalmanState.initial()
    for _ in range(300):
        i = float(rng.uniform(-300, 300))
        x_true = m.a @ x_true + m.b_i * i + m.b_1
        v = float(m.c @ x_true + m.d_i * i + m.d_1)
        st = kalman_update(st, m, i, v)
    assert float(m.c @ st.x) == pytest.approx(float(m.c @ x_true), abs=0.05)


def test_psd_guard_agrees_with_eigh(rng):
    # trace/determinant test against eigenvalues, on random symmetric
    # matrices and on ones with an eigenvalue of -1e-12 or +1e-12
    from feederdispatch.battery import _is_psd
    for _ in range(2000):
        m = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3)
        m = 0.5 * (m + m.T)
        assert _is_psd(m) == (np.linalg.eigvalsh(m).min() >= 0.0)
    for sign in (-1.0, 1.0):
        for _ in range(200):
            c, s = np.cos(rng.uniform(0, np.pi)), np.sin(rng.uniform(0, np.pi))
            rot = np.array([[c, -s], [s, c]])
            m = rot @ np.diag([sign * 1e-12, rng.uniform(0.1, 10.0)]) @ rot.T
            m = 0.5 * (m + m.T)
            assert _is_psd(m) == (sign > 0.0) == (np.linalg.eigvalsh(m).min() >= 0.0)


def test_indefinite_covariance_is_clipped():
    # a = I, no process noise and a measurement noise so large that the gain
    # underflows: the update returns the prior covariance, here indefinite,
    # with its negative eigenvalue clipped to zero
    m = reduce_and_discretize(TABLE1[2])
    blind = type(m)(a=np.eye(2), b_i=m.b_i, b_1=m.b_1, c=m.c, d_i=m.d_i, d_1=m.d_1,
                    k=np.zeros((2, 2)), g=1e150, label=m.label)
    p = np.array([[1.0, 2.0], [2.0, 1.0]])          # eigenvalues 3 and -1
    w, vecs = np.linalg.eigh(p)
    with pytest.warns(RuntimeWarning, match="positive semidefiniteness"):
        st = kalman_update(KalmanState(x=np.zeros(2), p=p), blind, 10.0, 650.0)
    assert np.array_equal(st.p, (vecs * np.maximum(w, 0.0)) @ vecs.T)
    assert np.linalg.eigvalsh(st.p).min() >= -1e-12


def test_nan_reading_runs_the_predict_step_only(rng):
    # no voltage reading: the state and covariance are the predicted ones
    m = reduce_and_discretize(TABLE1[2])
    for _ in range(20):
        x = rng.normal(size=2) * 3.0
        f = rng.normal(size=(2, 2))
        p = f @ f.T
        i_prev = float(rng.uniform(-810, 810))
        st = kalman_update(KalmanState(x=x.copy(), p=p.copy()), m, i_prev, float("nan"))
        x_pred = m.a @ x + m.b_i * i_prev + m.b_1
        p_pred = m.a @ p @ m.a.T + m.k @ m.k.T
        assert np.abs(st.x - x_pred).max() <= 1e-12 * np.abs(x_pred).max()
        assert np.abs(st.p - p_pred).max() <= 1e-12 * np.abs(p_pred).max()
        assert st.p[0, 1] == st.p[1, 0]
