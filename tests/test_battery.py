import numpy as np
import pytest
from scipy.linalg import expm

from feederdispatch.battery import (C_NOM_AH, TABLE1, ModelBank, TtcParameters,
                                    build_transition, load_parameter_table,
                                    reduce_and_discretize, save_parameter_table,
                                    schedule_index, soc_statespace, soc_step, voltage_step)
from feederdispatch.mpc import ALPHA


def test_table_values():
    table = TABLE1
    assert len(table) == 5
    p = table[2]
    assert p.soc_range == "40-60%"
    assert (p.e, p.rs, p.r1, p.c1) == (652.9, 0.015, 0.090, 13996)
    assert (p.r2, p.c2, p.r3, p.c3) == (0.009, 2482, 2.4e-4, 2959.7)
    assert (table[0].e, table[0].rs) == (592.2, 0.029)
    assert (table[4].e, table[4].k3) == (733.2, -0.24)


def test_parameter_validation():
    with pytest.raises(ValueError):
        TtcParameters("bad", e=650, rs=-0.01, r1=0.1, c1=1000, r2=0.01, c2=1000,
                      r3=0.001, c3=1000, k1=0, k2=0, k3=0, sigma2=0.0)


def test_schedule_boundaries():
    assert TABLE1[schedule_index(0.50)].soc_range == "40-60%"
    assert TABLE1[schedule_index(0.20)].soc_range == "20-40%"
    assert TABLE1[schedule_index(1.00)].soc_range == "80-100%"
    assert TABLE1[schedule_index(0.00)].soc_range == "0-20%"
    assert TABLE1[schedule_index(0.80)].soc_range == "80-100%"
    assert TABLE1[schedule_index(0.1999)].soc_range == "0-20%"
    for bad in (1.2, -0.01):
        with pytest.raises(ValueError):
            schedule_index(bad)


def test_discretization_euler_entries():
    m = reduce_and_discretize(TABLE1[2], 10.0)
    p = TABLE1[2]
    assert m.a[0, 0] == pytest.approx(1.0 - 10.0 / (p.r1 * p.c1))
    assert m.a[1, 1] == pytest.approx(1.0 - 10.0 / (p.r2 * p.c2))
    assert m.d_i == pytest.approx(p.rs + p.r3)
    assert m.d_1 == pytest.approx(p.e)


def test_discretization_stability_all_sets():
    for p in TABLE1:
        m = reduce_and_discretize(p, 10.0)
        assert np.max(np.abs(np.linalg.eigvals(m.a))) < 1.0


def test_discretization_rejects_unstable():
    p = TABLE1[1]
    with pytest.raises(ValueError):
        reduce_and_discretize(p, 60.0)   # ts beyond 2*tau2 flips the pole


def test_dc_gain_preserved_exactly():
    # steady state under constant current must match the full-circuit DC gain
    for p in TABLE1:
        m = reduce_and_discretize(p, 10.0)
        for i in (-500.0, 120.0):
            x_ss = np.linalg.solve(np.eye(2) - m.a, m.b_i * i + m.b_1)
            v_ss = float(m.c @ x_ss + m.d_i * i + m.d_1)
            v_ref = p.e + i * (p.rs + p.r1 + p.r2 + p.r3)
            assert abs(v_ss - v_ref) <= 1e-9 * abs(v_ref)


def test_euler_limit_small_ts():
    m = reduce_and_discretize(TABLE1[2], 1e-7)
    assert m.a == pytest.approx(np.eye(2), abs=1e-8)
    assert m.b_i == pytest.approx(np.zeros(2), abs=1e-8)


def test_euler_vs_expm_entrywise():
    # the slow branch is tight; the 19-36 s branch is 2-4x the sampling period
    # and a single Euler step is off by 4-20% there
    for p in TABLE1:
        a_r = np.diag([-1.0 / (p.r1 * p.c1), -1.0 / (p.r2 * p.c2)])
        euler = np.eye(2) + a_r * 10.0
        exact = expm(a_r * 10.0)
        rel11 = abs(euler[0, 0] - exact[0, 0]) / abs(exact[0, 0])
        rel22 = abs(euler[1, 1] - exact[1, 1]) / abs(exact[1, 1])
        assert rel11 < 0.005
        assert 0.04 < rel22 < 0.20


def test_noise_discretization():
    p = TABLE1[2]
    m = reduce_and_discretize(p, 10.0)
    a_r = np.diag([-1.0 / (p.r1 * p.c1), -1.0 / (p.r2 * p.c2)])
    k_r = np.diag([p.k1, p.k2])
    expected = (np.eye(2) + k_r * 10.0) @ (np.eye(2) + a_r.T * 10.0).T
    assert m.k == pytest.approx(expected)


def test_voltage_step_open_circuit():
    m = reduce_and_discretize(TABLE1[2], 10.0)
    _, v = voltage_step(m, np.zeros(2), 0.0)
    assert v == pytest.approx(652.9)


def test_voltage_step_converges_to_dc_gain():
    p = TABLE1[2]
    m = reduce_and_discretize(p, 10.0)
    x = np.zeros(2)
    i = 200.0
    for _ in range(20000):
        x, v = voltage_step(m, x, i)
    assert v == pytest.approx(p.e + i * (p.rs + p.r1 + p.r2 + p.r3), rel=1e-9)


def test_voltage_step_superposition():
    m = reduce_and_discretize(TABLE1[0], 10.0)
    x = np.zeros(2)
    x1, v1 = voltage_step(m, x, 100.0)
    x2, v2 = voltage_step(m, x, 40.0)
    x3, v3 = voltage_step(m, x, 140.0)
    off_x, off_v = voltage_step(m, x, 0.0)
    assert x3 == pytest.approx(x1 + x2 - off_x, abs=1e-12)
    assert v3 == pytest.approx(v1 + v2 - off_v, abs=1e-9)


def test_transition_horizon_one():
    m = reduce_and_discretize(TABLE1[2], 10.0)
    tm = build_transition(m, 1)
    assert np.allclose(tm.phi, m.c.reshape(1, 2))
    assert np.allclose(tm.psi_i, [[m.d_i]])
    assert np.allclose(tm.psi_1, [[m.d_1]])


def test_transition_matches_chained_steps(rng):
    m = reduce_and_discretize(TABLE1[3], 10.0)
    x0 = rng.uniform(-2, 2, 2)
    currents = rng.uniform(-300, 300, 5)
    tm = build_transition(m, 5)
    stacked = tm.phi @ x0 + tm.psi_i @ currents + tm.psi_1 @ np.ones(5)
    x = x0.copy()
    direct = []
    for i in currents:
        x, v = voltage_step(m, x, i)
        direct.append(v)
    assert stacked == pytest.approx(np.array(direct), abs=1e-12)


def test_soc_transition_is_scaled_lower_triangular():
    tm = build_transition(soc_statespace(), 3)
    b = 10.0 / 3600.0 / C_NOM_AH
    assert tm.psi_i == pytest.approx(np.tril(np.full((3, 3), b)))
    assert tm.phi == pytest.approx(np.ones((3, 1)))
    # diagonal carries the feedthrough, per the end-of-step output convention
    assert np.all(np.diag(tm.psi_i) == pytest.approx(b))


def test_soc_step():
    assert soc_step(0.4, 0.0) == 0.4
    soc = 0.0
    for _ in range(360):
        soc = soc_step(soc, 810.0)
    assert abs(soc - 1.0) <= 1e-12
    assert soc_step(0.5, -405.0) - 0.5 == pytest.approx(-10.0 / 7200.0)


def test_bank_psd_for_all_sets(bank):
    for m in bank.voltage_models:
        tm = bank.transitions(m, 30)
        w = np.linalg.eigvalsh(0.5 * (tm.psi_i + tm.psi_i.T))
        assert w.min() >= -1e-9


def test_throughput_monotone_in_constant_current(bank):
    # energy over a constant-current horizon increases with the current level
    # throughout the operating range (max power transfer point is beyond it)
    for m in bank.voltage_models:
        tm = bank.transitions(m, 30)
        ones = np.ones(30)
        levels = np.linspace(-1000.0, 1000.0, 401)
        e = [ALPHA / 1000.0 * float((tm.psi_i @ (ones * c) + tm.psi_1 @ ones)
                                    @ (ones * c)) for c in levels]
        assert np.all(np.diff(e) > 0.0)


def test_transition_cache_reuse(bank):
    a = bank.transitions(bank.voltage_models[0], 12)
    b = bank.transitions(bank.voltage_models[0], 12)
    assert a is b


def test_parameter_file_roundtrip(tmp_path):
    path = tmp_path / "params.csv"
    save_parameter_table(path)
    table = load_parameter_table(path)
    assert table == TABLE1


def test_parameter_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("parameter,a,b,c,d,e\nnot_a_param,1,2,3,4,5\n")
    with pytest.raises(ValueError):
        load_parameter_table(path)


def test_schedule_index_matches_model():
    # the index names the set whose printed range "lo-hi%" holds the SOC, the
    # lower bound included and the upper excluded except at 100 %
    ranges = [[int(v) / 100.0 for v in p.soc_range.rstrip("%").split("-")] for p in TABLE1]
    for soc in (0.0, 0.05, 0.2, 0.35, 0.6, 0.79, 0.8, 1.0):
        held = [j for j, (lo, hi) in enumerate(ranges) if lo <= soc < hi or soc == hi == 1.0]
        assert held == [schedule_index(soc)]
