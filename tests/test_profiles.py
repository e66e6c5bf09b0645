import hashlib
import json

import numpy as np
import pytest

from rtopf.profiles import (HORIZON_S, HOURLY_BAND, ProfileError,
                            ProfileGenConfig, SIGMA_D, SLOTS_PER_DAY,
                            UPDATE_S, UPDATES_PER_DAY, UPDATES_PER_SLOT,
                            gen_actual_wind, gen_day_profiles, gen_demand,
                            gen_wind_forecast, load_profiles, save_profiles,
                            validate_profiles)

from conftest import DATA, chain_net

SHAPE = [0.6 + 0.01 * h for h in range(24)]
BASE = [5.0 + 0.1 * h for h in range(24)]


def small_net(stations=(3,)):
    return chain_net(4, station_buses=stations,
                     demand={2: (4.0, 1.5)})


def test_counts_are_consistent():
    assert SLOTS_PER_DAY == 720
    assert UPDATES_PER_DAY == 4320
    assert SLOTS_PER_DAY * UPDATES_PER_SLOT == UPDATES_PER_DAY
    assert SLOTS_PER_DAY * HORIZON_S == 86400
    assert UPDATES_PER_SLOT * UPDATE_S == HORIZON_S


def test_same_seed_reproduces_everything():
    net = small_net()
    cfg = ProfileGenConfig(seed=11)
    a = gen_day_profiles(net, SHAPE, BASE, cfg)
    b = gen_day_profiles(net, SHAPE, BASE, cfg)
    for series in ("demand_p", "demand_q", "wind_forecast", "wind_actual"):
        for bus in getattr(a, series):
            assert np.array_equal(getattr(a, series)[bus],
                                  getattr(b, series)[bus])


def test_different_seeds_differ():
    net = small_net()
    a = gen_day_profiles(net, SHAPE, BASE, ProfileGenConfig(seed=1))
    b = gen_day_profiles(net, SHAPE, BASE, ProfileGenConfig(seed=2))
    assert not np.array_equal(a.wind_forecast[3], b.wind_forecast[3])
    assert not np.array_equal(a.demand_p[2], b.demand_p[2])


def test_adding_a_station_does_not_perturb_existing_streams():
    # streams are keyed by bus id, so the shared station's series match
    one = gen_day_profiles(small_net((3,)), SHAPE, BASE,
                           ProfileGenConfig(seed=5))
    two = gen_day_profiles(small_net((3, 4)), SHAPE, BASE,
                           ProfileGenConfig(seed=5))
    assert np.array_equal(one.wind_forecast[3], two.wind_forecast[3])
    assert np.array_equal(one.wind_actual[3], two.wind_actual[3])
    assert np.array_equal(one.demand_p[2], two.demand_p[2])


def test_noise_free_demand_is_exactly_shape_times_peak(monkeypatch):
    monkeypatch.setattr("rtopf.profiles.SIGMA_D", 0.0)
    dp, dq = gen_demand(SHAPE, {2: 4.0}, {2: 1.5}, ProfileGenConfig(seed=0))
    hourly = np.repeat(np.asarray(SHAPE), SLOTS_PER_DAY // 24)
    assert np.array_equal(dp[2], hourly * 4.0)
    assert np.array_equal(dq[2], hourly * 1.5)


def test_demand_noise_magnitude():
    cfg = ProfileGenConfig(seed=9)
    dp, _ = gen_demand([1.0] * 24, {2: 1.0}, {2: 0.0}, cfg)
    rel = dp[2] - 1.0
    assert abs(float(np.std(rel)) - SIGMA_D) < 0.3 * SIGMA_D
    assert abs(float(np.mean(rel))) < 3 * SIGMA_D / np.sqrt(SLOTS_PER_DAY)


def test_forecast_hourly_band_containment(monkeypatch):
    # with no per-slot noise, each hour's forecast stays in the uniform band
    monkeypatch.setattr("rtopf.profiles.SIGMA_W", 0.0)
    net = small_net()
    fc = gen_wind_forecast(BASE, net, ProfileGenConfig(seed=4))[3]
    per_hour = fc.reshape(24, SLOTS_PER_DAY // 24)
    for h in range(24):
        assert np.all(per_hour[h] == per_hour[h][0])
        ratio = per_hour[h][0] / BASE[h]
        assert 1 - HOURLY_BAND - 1e-12 <= ratio <= 1 + HOURLY_BAND + 1e-12


def test_actual_wind_band_around_forecast():
    net = small_net()
    prof = gen_day_profiles(net, SHAPE, BASE, ProfileGenConfig(seed=3))
    parent = np.repeat(prof.wind_forecast[3], UPDATES_PER_SLOT)
    mask = parent > 0
    ratio = prof.wind_actual[3][mask] / parent[mask]
    assert np.all(ratio >= 1 - 0.15 - 1e-12)
    # clamping at rated power can only reduce values
    assert np.all(ratio <= 1 + 0.15 + 1e-12)
    assert np.all(prof.wind_actual[3] <= 10.0 + 1e-9)


def test_forecast_clamped_to_rated():
    net = small_net()
    fc = gen_wind_forecast([9.9] * 24, net, ProfileGenConfig(seed=8))[3]
    assert np.all(fc <= 10.0)
    assert np.all(fc >= 0.0)


def test_round_trip(tmp_path):
    net = small_net()
    prof = gen_day_profiles(net, SHAPE, BASE, ProfileGenConfig(seed=6))
    path = tmp_path / "day.json"
    save_profiles(prof, path)
    again = load_profiles(path, net)
    for series in ("demand_p", "demand_q", "wind_forecast", "wind_actual"):
        for bus in getattr(prof, series):
            assert np.array_equal(getattr(prof, series)[bus],
                                  getattr(again, series)[bus])
    assert again.meta["seed"] == 6


def test_shape_errors():
    net = small_net()
    cfg = ProfileGenConfig()
    with pytest.raises(ProfileError, match="24"):
        gen_demand([1.0] * 23, {2: 1.0}, {2: 0.0}, cfg)
    with pytest.raises(ProfileError, match=r"\[0, 1\]"):
        gen_demand([2.0] * 24, {2: 1.0}, {2: 0.0}, cfg)
    with pytest.raises(ProfileError, match="24"):
        gen_wind_forecast([5.0] * 10, net, cfg)
    with pytest.raises(ProfileError, match="rated"):
        gen_wind_forecast([50.0] * 24, net, cfg)
    with pytest.raises(ProfileError, match="negative"):
        gen_demand(SHAPE, {2: -1.0}, {2: 0.0}, cfg)


def test_validate_profiles_catches_corruption():
    net = small_net()
    prof = gen_day_profiles(net, SHAPE, BASE, ProfileGenConfig(seed=2))
    bad = type(prof)(demand_p=prof.demand_p, demand_q=prof.demand_q,
                     wind_forecast={3: prof.wind_forecast[3][:100]},
                     wind_actual=prof.wind_actual)
    with pytest.raises(ProfileError, match="expected 720"):
        validate_profiles(bad, net)
    wrong_bus = type(prof)(demand_p=prof.demand_p, demand_q=prof.demand_q,
                           wind_forecast={9: prof.wind_forecast[3]},
                           wind_actual=prof.wind_actual)
    with pytest.raises(ProfileError, match="station buses"):
        validate_profiles(wrong_bus, net)


def test_load_rejects_malformed_bundle(tmp_path):
    net = small_net()
    path = tmp_path / "bad.json"
    path.write_text('{"demand_p": {"2": [1, 2, 3]}}')
    with pytest.raises(ProfileError, match="expected 720"):
        load_profiles(path, net)
    path.write_text('{"unexpected": 1}')
    with pytest.raises(ProfileError, match="unknown section"):
        load_profiles(path, net)
    path.write_text("[]")
    with pytest.raises(ProfileError, match="JSON object"):
        load_profiles(path, net)


BUNDLE_SHA256 = {
    0: "ca80bf666ae650ca34e39c3a02120b1d1e71c5455b1afcc3c90017772dd53d1c",
    11172: "046cdc72e89c96229c8dfb33f344d80cdfb3687e57b0aa78204845568028e587",
}


@pytest.mark.parametrize("seed", sorted(BUNDLE_SHA256))
def test_seeded_bundle_is_pinned(net41, tmp_path, seed):
    # the saved case41 day at the bundled shape and wind base, byte for
    # byte: any drift in the generator's draws or arithmetic shows here
    with open(DATA / "hourly_demand_shape.json") as fh:
        shape = json.load(fh)["hourly_shape"]
    with open(DATA / "hourly_wind_base.json") as fh:
        base = json.load(fh)["hourly_base_mw"]
    path = tmp_path / "day.json"
    save_profiles(gen_day_profiles(net41, shape, base,
                                   ProfileGenConfig(seed=seed)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUNDLE_SHA256[seed]
