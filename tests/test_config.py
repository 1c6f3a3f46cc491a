import numpy as np
import pytest

from lisopt import (
    CONTINUOUS,
    Geometry,
    PathlossParams,
    SystemConfig,
    dbm_to_watts,
)
from util import make_config


def test_dbm_to_watts_reference_points():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, abs=0)
    assert dbm_to_watts(0.0) == pytest.approx(0.001, rel=1e-15)
    # 5 dBm = 10^(-2.5) W, evaluated independently
    assert dbm_to_watts(5.0) == pytest.approx(0.0031622776601683794, rel=1e-14)


def test_dbm_round_trip():
    for x in np.linspace(-50.0, 100.0, 301):
        assert abs(10.0 * np.log10(dbm_to_watts(x)) + 30.0 - x) < 1e-12


def test_config_broadcasts_scalars():
    cfg = make_config(k=3, m=3, n=4)
    assert cfg.mu.shape == (3,)
    assert np.all(cfg.mu == 1.1)
    assert cfg.r_min.shape == (3,)
    assert np.all(cfg.r_min == 0.0)


def test_config_accepts_vectors():
    cfg = make_config(k=2, mu=[1.0, 2.0], r_min=[0.5, 0.0])
    assert np.array_equal(cfg.mu, [1.0, 2.0])
    assert np.array_equal(cfg.r_min, [0.5, 0.0])


def test_config_dimension_invariants():
    with pytest.raises(ValueError):
        make_config(k=3, m=3, n=2)  # n < k
    with pytest.raises(ValueError):
        make_config(k=3, m=2, n=4)  # m < k


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        make_config(mu=0.9)
    with pytest.raises(ValueError):
        make_config(r_min=-0.1)
    with pytest.raises(ValueError):
        make_config(sigma2=0.0)
    with pytest.raises(ValueError):
        make_config(b=0)
    with pytest.raises(ValueError):
        make_config(mu=[1.1, 1.1, 1.1])  # wrong length for k=2


def test_config_requires_p_n_entry_for_resolution():
    with pytest.raises(ValueError):
        make_config(b=3)  # default map only has 1, 2, continuous
    cfg = make_config(b=CONTINUOUS)
    assert cfg.b == CONTINUOUS


def test_default_p_n_map_reference_values():
    cfg = SystemConfig(m=2, k=2, n=4, b=1, p_budget=1.0, sigma2=1e-3)
    assert cfg.p_n_of_b[1] == pytest.approx(dbm_to_watts(5.0))
    assert cfg.p_n_of_b[2] == pytest.approx(dbm_to_watts(15.0))
    assert cfg.p_n_of_b[CONTINUOUS] == pytest.approx(dbm_to_watts(45.0))
    # circuit power default kept verbatim from the reference operating point
    assert cfg.p_c == pytest.approx(dbm_to_watts(100.0))


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(user_box=(5.0, 5.0, 0.0, 1.0))


def test_pathloss_params_validation():
    with pytest.raises(ValueError):
        PathlossParams(exponent=-1.0)
    with pytest.raises(ValueError):
        PathlossParams(exponent=2.0, d0=0.0)
    with pytest.raises(ValueError, match="beyond the float range"):
        PathlossParams(exponent=2.0, ref_loss_db=-5000.0)  # beta0 = 10^500
    assert PathlossParams(exponent=2.0, ref_loss_db=30.0).beta0 == pytest.approx(1e-3)
