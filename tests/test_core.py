import math

import numpy as np
import pytest

import resonatorlab as rl
from resonatorlab.core import dip_frequency


def test_dbm_to_watts_definition():
    assert rl.dbm_to_watts(0.0) == pytest.approx(1.0e-3, rel=1e-15)
    assert rl.dbm_to_watts(-30.0) == pytest.approx(1.0e-6, rel=1e-15)
    assert rl.dbm_to_watts(-133.0) == pytest.approx(5.012e-17, rel=1e-3)


def test_dbm_watts_round_trip():
    rng = np.random.default_rng(0)
    for p in 10.0 ** rng.uniform(-20, 0, 200):
        assert rl.dbm_to_watts(rl.watts_to_dbm(p)) == pytest.approx(p, rel=1e-12)


def test_dbm_to_watts_rejects_non_finite():
    with pytest.raises(ValueError):
        rl.dbm_to_watts(math.nan)


class TestContainers:
    def test_trace_requires_increasing_frequencies(self):
        with pytest.raises(ValueError):
            rl.FrequencyTrace(frequencies=[1e9, 1e9, 2e9], values=[1, 1, 1])

    def test_trace_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            rl.FrequencyTrace(frequencies=[1e9, 2e9], values=[1.0, complex("nan")])

    def test_trace_is_immutable(self):
        tr = rl.FrequencyTrace(frequencies=[1e9, 2e9], values=[1.0, 1.0], drive_power=-140.0)
        with pytest.raises(ValueError):
            tr.frequencies[0] = 5e8
        assert len(tr) == 2

    def test_sweep_requires_increasing_power_and_common_grid(self):
        t1 = rl.FrequencyTrace(frequencies=[1e9, 2e9], values=[1, 1], drive_power=-140.0)
        t2 = rl.FrequencyTrace(frequencies=[1e9, 2e9], values=[1, 1], drive_power=-130.0)
        sweep = rl.PowerSweep(traces=(t1, t2))
        assert [t.drive_power for t in sweep.traces] == [-140.0, -130.0]
        with pytest.raises(ValueError):
            rl.PowerSweep(traces=(t2, t1))
        t3 = rl.FrequencyTrace(frequencies=[1e9, 3e9], values=[1, 1], drive_power=-120.0)
        with pytest.raises(ValueError):
            rl.PowerSweep(traces=(t1, t3))

    def test_field_point_validation(self):
        rl.FieldSweepPoint(field=0.0, resonance=7e9, sigma=1.0)
        with pytest.raises(ValueError):
            rl.FieldSweepPoint(field=-1e-3, resonance=7e9, sigma=1.0)
        with pytest.raises(ValueError):
            rl.FieldSweepPoint(field=0.0, resonance=7e9, sigma=0.0)

    def test_resonator_params_validation_and_qs(self):
        res = rl.LinearResonatorParams(f_r=6e9, kappa_c=2e7, kappa_int=2e6)
        assert res.q_c == pytest.approx(2 * math.pi * 6e9 / 2e7, rel=1e-15)
        assert res.q_i == pytest.approx(2 * math.pi * 6e9 / 2e6, rel=1e-15)
        assert res.kappa_l == 2.2e7
        with pytest.raises(ValueError):
            rl.LinearResonatorParams(f_r=6e9, kappa_c=0.0, kappa_int=1e6)
        with pytest.raises(ValueError):
            rl.LinearResonatorParams(f_r=6e9, kappa_c=1e7, kappa_int=1e6, phi0=2.0)

    def test_reparameterization_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f_r = rng.uniform(4e9, 8e9)
            kc = rng.uniform(1e5, 1e8)
            ki = rng.uniform(0.0, 1e7)
            res = rl.LinearResonatorParams(f_r=f_r, kappa_c=kc, kappa_int=ki)
            assert 2 * math.pi * f_r / res.q_c == pytest.approx(kc, rel=1e-12)
            if ki > 0:
                assert 2 * math.pi * f_r / res.q_i == pytest.approx(ki, rel=1e-12)


class TestFromQ:
    def test_rates_follow_the_quality_factors(self):
        res = rl.LinearResonatorParams.from_q(6.117e9, 1500.0, 15800.0, 0.2)
        assert res.kappa_c == 2.0 * math.pi * 6.117e9 / 1500.0
        assert res.kappa_int == 2.0 * math.pi * 6.117e9 / 15800.0
        assert res.phi0 == 0.2
        assert (res.q_c, res.q_i) == pytest.approx((1500.0, 15800.0), rel=1e-15)

    def test_infinite_q_i_is_lossless(self):
        res = rl.LinearResonatorParams.from_q(6e9, 1e3, math.inf)
        assert res.kappa_int == 0.0
        assert res.q_i == math.inf

    @pytest.mark.parametrize(
        "q_c, q_i", [(0.0, 1e4), (1e3, 0.0), (-1e3, 1e4), (1e3, -1e4), (math.nan, 1e4)]
    )
    def test_non_positive_q_rejected(self, q_c, q_i):
        with pytest.raises(ValueError, match="must be positive"):
            rl.LinearResonatorParams.from_q(6e9, q_c, q_i)


def test_dip_frequency_of_a_trace_and_of_each_row():
    f = np.array([1e9, 2e9, 3e9, 4e9])
    rows = np.array([[1.0, 0.5, 0.2j, 1.0], [1.0, -0.1, 1.0, 0.3]])
    assert dip_frequency(f, rows[0]) == 3e9
    assert dip_frequency(f, rows).tolist() == [3e9, 2e9]
    assert dip_frequency(f, list(rows)).tolist() == [3e9, 2e9]


def test_linewidth_is_the_loaded_rate_in_hz():
    res = rl.LinearResonatorParams.from_q(6.117e9, 1500.0, 15800.0)
    assert res.linewidth_hz == res.kappa_l / (2.0 * math.pi)
    assert res.linewidth_hz == pytest.approx(res.f_r / res.q_l, rel=1e-15)
