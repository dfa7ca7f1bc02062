import json
import math
from dataclasses import asdict

import pytest

from hexdrop import UnknownPresetError, load_preset
from hexdrop.presets import BUILTIN_PRESETS, read_presets_file, validate_cell_radius

EXPECTED = {
    "suburban-macro": (31.5, 35.0, 10.0, 35.0, 600.0, 3500.0, "COST-231 Hata-Model"),
    "urban-macro": (34.5, 35.0, 10.0, 35.0, 600.0, 3500.0, "COST-231 Hata-Model"),
    "urban-micro-nlos": (34.53, 38.0, 10.0, 20.0, 200.0, 300.0, "COST-231 Walfish-Ikegami"),
    "urban-micro-los": (30.18, 26.0, 4.0, 20.0, 200.0, 300.0, "COST-231 Walfish-Ikegami"),
}


def test_exactly_four_presets():
    assert set(BUILTIN_PRESETS) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_preset_constants(name):
    p = load_preset(name)
    ap, beta, sigma, r0, lmin, lmax, label = EXPECTED[name]
    assert p.alpha_prime_db == ap
    assert p.beta_db_per_decade == beta
    assert p.sigma_psi_db == sigma
    assert p.r0_m == r0
    assert (p.cell_radius_min_m, p.cell_radius_max_m) == (lmin, lmax)
    assert p.model_label == label


def test_unknown_preset_lists_names():
    with pytest.raises(UnknownPresetError) as exc:
        load_preset("bogus")
    for name in EXPECTED:
        assert name in str(exc.value)


def test_radius_validation():
    assert validate_cell_radius(load_preset("suburban-macro"), 1000.0)
    assert validate_cell_radius(load_preset("urban-micro-nlos"), 250.0)
    assert not validate_cell_radius(load_preset("urban-macro"), 100.0)
    with pytest.raises(ValueError):
        validate_cell_radius(load_preset("urban-macro"), 0.0)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_close_in_distance_inside_smallest_cell(name):
    p = load_preset(name)
    assert p.r0_m < math.sqrt(3.0) * p.cell_radius_min_m / 2.0


def test_pathloss_params_bridge():
    p = load_preset("suburban-macro").pathloss_params()
    assert p.alpha == pytest.approx(85.54238155225966, rel=1e-14)
    assert p.beta == 35.0
    assert p.sigma_psi == 10.0


def test_json_round_trip(tmp_path):
    path = tmp_path / "presets.json"
    path.write_text(json.dumps([asdict(p) for p in BUILTIN_PRESETS.values()]), encoding="utf-8")
    loaded = read_presets_file(path)
    assert loaded == BUILTIN_PRESETS
    # and through the name lookup with an override path
    p = load_preset("urban-micro-los", path)
    assert p == BUILTIN_PRESETS["urban-micro-los"]
    with pytest.raises(UnknownPresetError):
        load_preset("bogus", path)
