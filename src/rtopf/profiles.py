"""Synthetic demand and wind profiles for one simulated day.

The day is ``HOURS`` hours of ``HORIZON_S`` horizons (slots), each of
``UPDATES_PER_SLOT`` updates of ``UPDATE_S``; the slot and update counts
derive from those three values. Demand follows a 24-value hourly shape
scaled by per-bus peaks with per-slot multiplicative Gaussian noise
(``SIGMA_D``). Wind forecasts start from a shared hourly base curve,
randomized per station and hour within a uniform +-``HOURLY_BAND``, then
perturbed per slot (``SIGMA_W``); actual wind adds a second uniform
+-``HOURLY_BAND`` around the forecast every update. Every generator draws
from its own seeded substream keyed by (purpose, bus/station), so adding a
station never perturbs the other series.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .network import Network

HOURS = 24
HORIZON_S = 120.0         # prediction horizon, one slot
UPDATE_S = 20.0           # update interval
SLOTS_PER_DAY = int(HOURS * 3600 / HORIZON_S)        # 720
UPDATES_PER_SLOT = int(HORIZON_S / UPDATE_S)         # 6
UPDATES_PER_DAY = SLOTS_PER_DAY * UPDATES_PER_SLOT   # 4320

SIGMA_D = 0.01       # demand noise, fraction of hourly value
SIGMA_W = 0.1        # forecast wind noise, fraction of hourly value
HOURLY_BAND = 0.15   # uniform +-band, per-hour wind and actual wind

_STREAM_DEMAND_P = 0
_STREAM_DEMAND_Q = 1
_STREAM_WIND_HOURLY = 2
_STREAM_WIND_SLOT = 3
_STREAM_WIND_ACTUAL = 4


class ProfileError(Exception):
    """Raised for malformed profile bundles or generator inputs."""


@dataclass(frozen=True)
class ProfileGenConfig:
    """The generator's seed; the noise levels are the module constants."""
    seed: int = 0


@dataclass(frozen=True)
class DayProfiles:
    demand_p: dict[int, np.ndarray]       # MW per demand bus, 720 slots
    demand_q: dict[int, np.ndarray]       # Mvar per demand bus, 720 slots
    wind_forecast: dict[int, np.ndarray]  # MW per station bus, 720 slots
    wind_actual: dict[int, np.ndarray]    # MW per station bus, 4320 slots
    meta: dict = field(default_factory=dict)


def validate_profiles(profiles: DayProfiles, net: Network) -> DayProfiles:
    for name, series, count in (("demand_p", profiles.demand_p, SLOTS_PER_DAY),
                                ("demand_q", profiles.demand_q, SLOTS_PER_DAY),
                                ("wind_forecast", profiles.wind_forecast,
                                 SLOTS_PER_DAY),
                                ("wind_actual", profiles.wind_actual,
                                 UPDATES_PER_DAY)):
        for bus, arr in series.items():
            if arr.shape != (count,):
                raise ProfileError(
                    f"{name}[{bus}]: expected {count} slots, got {arr.shape}")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ProfileError(f"{name}[{bus}]: negative or non-finite value")
    rated = {s.bus: s.rated_power for s in net.stations}
    for name, series in (("wind_forecast", profiles.wind_forecast),
                         ("wind_actual", profiles.wind_actual)):
        if set(series) != set(rated):
            raise ProfileError(f"{name}: station buses do not match case")
        for bus, arr in series.items():
            if np.any(arr > rated[bus] + 1e-9):
                raise ProfileError(f"{name}[{bus}]: value above rated power")
    return profiles


def _rng(cfg: ProfileGenConfig, stream: int, entity: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((cfg.seed, stream, entity)))


def _check_shape(hourly_shape: Sequence[float]) -> np.ndarray:
    shape = np.asarray(hourly_shape, dtype=float)
    if shape.shape != (HOURS,):
        raise ProfileError(f"hourly shape must have {HOURS} values")
    if np.any(shape < 0) or np.any(shape > 1):
        raise ProfileError("hourly shape values must lie in [0, 1]")
    return shape


def gen_demand(hourly_shape: Sequence[float],
               peaks_p: Mapping[int, float], peaks_q: Mapping[int, float],
               cfg: ProfileGenConfig):
    """Per-bus demand at 120 s resolution: hourly value x peak x noise."""
    shape = _check_shape(hourly_shape)
    hourly = np.repeat(shape, SLOTS_PER_DAY // HOURS)
    demand_p, demand_q = {}, {}
    for bus in sorted(peaks_p):
        if peaks_p[bus] < 0 or peaks_q.get(bus, 0.0) < 0:
            raise ProfileError(f"negative demand peak at bus {bus}")
        for peaks, stream, out in ((peaks_p, _STREAM_DEMAND_P, demand_p),
                                   (peaks_q, _STREAM_DEMAND_Q, demand_q)):
            noise = _rng(cfg, stream, bus).normal(0.0, SIGMA_D, SLOTS_PER_DAY)
            out[bus] = np.maximum(0.0, hourly * peaks.get(bus, 0.0)
                                  * (1 + noise))
    return demand_p, demand_q


def gen_wind_forecast(base_hourly: Sequence[float], net: Network,
                      cfg: ProfileGenConfig) -> dict[int, np.ndarray]:
    """Per-station forecast at 120 s resolution.

    The shared base curve is randomized per station and hour within
    +-HOURLY_BAND, then per-slot Gaussian noise (SIGMA_W) is applied;
    values are clamped to [0, rated].
    """
    base = np.asarray(base_hourly, dtype=float)
    if base.shape != (HOURS,):
        raise ProfileError(f"wind base must have {HOURS} values")
    out = {}
    for st in net.stations:
        if np.any(base < 0) or np.any(base > st.rated_power):
            raise ProfileError(
                f"wind base outside [0, rated] for station at bus {st.bus}")
        hr_rng = _rng(cfg, _STREAM_WIND_HOURLY, st.bus)
        hourly = base * (1 + hr_rng.uniform(-HOURLY_BAND, HOURLY_BAND, HOURS))
        per_slot = np.repeat(hourly, SLOTS_PER_DAY // HOURS)
        slot_rng = _rng(cfg, _STREAM_WIND_SLOT, st.bus)
        noisy = per_slot * (1 + slot_rng.normal(0.0, SIGMA_W, SLOTS_PER_DAY))
        out[st.bus] = np.clip(noisy, 0.0, st.rated_power)
    return out


def gen_actual_wind(forecast: Mapping[int, np.ndarray], net: Network,
                    cfg: ProfileGenConfig) -> dict[int, np.ndarray]:
    """Actual wind at 20 s resolution: forecast parent x uniform band."""
    rated = {s.bus: s.rated_power for s in net.stations}
    out = {}
    for bus in sorted(forecast):
        parent = np.repeat(np.asarray(forecast[bus], dtype=float),
                           UPDATES_PER_SLOT)
        rng = _rng(cfg, _STREAM_WIND_ACTUAL, bus)
        actual = parent * (1 + rng.uniform(-HOURLY_BAND, HOURLY_BAND,
                                           parent.size))
        out[bus] = np.clip(actual, 0.0, rated.get(bus, np.inf))
    return out


def gen_day_profiles(net: Network, hourly_shape: Sequence[float],
                     wind_base_hourly: Sequence[float],
                     cfg: ProfileGenConfig) -> DayProfiles:
    """Full seeded bundle: demand, wind forecast, and actual wind."""
    loads = [net.buses[net.index_of(b)] for b in net.demand_buses]
    peaks_p = {b.id: b.demand_peak_p for b in loads}
    peaks_q = {b.id: b.demand_peak_q for b in loads}
    demand_p, demand_q = gen_demand(hourly_shape, peaks_p, peaks_q, cfg)
    forecast = gen_wind_forecast(wind_base_hourly, net, cfg)
    actual = gen_actual_wind(forecast, net, cfg)
    profiles = DayProfiles(
        demand_p=demand_p, demand_q=demand_q,
        wind_forecast=forecast, wind_actual=actual,
        meta={"seed": cfg.seed, "sigma_d": SIGMA_D,
              "sigma_w": SIGMA_W, "hourly_band": HOURLY_BAND})
    return validate_profiles(profiles, net)


# --- bundle I/O -------------------------------------------------------------

def _series_to_lists(series: Mapping[int, np.ndarray]) -> dict:
    return {str(bus): arr.tolist() for bus, arr in series.items()}


def _series_from_lists(data, name: str, count: int) -> dict[int, np.ndarray]:
    if not isinstance(data, dict):
        raise ProfileError(f"{name}: expected an object of bus -> series")
    out = {}
    for bus, vals in data.items():
        try:
            arr = np.asarray(vals, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProfileError(f"{name}[{bus}]: {exc}") from None
        if arr.shape != (count,):
            raise ProfileError(
                f"{name}[{bus}]: expected {count} values, got {arr.shape}")
        out[int(bus)] = arr
    return out


def save_profiles(profiles: DayProfiles, path) -> None:
    data = {
        "meta": profiles.meta,
        "demand_p": _series_to_lists(profiles.demand_p),
        "demand_q": _series_to_lists(profiles.demand_q),
        "wind_forecast": _series_to_lists(profiles.wind_forecast),
        "wind_actual": _series_to_lists(profiles.wind_actual),
    }
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def load_profiles(path, net: Network) -> DayProfiles:
    try:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ProfileError(
                    f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
                ) from None
    except OSError as exc:
        raise ProfileError(f"cannot read profile bundle: {exc}") from None
    if not isinstance(data, dict):
        raise ProfileError("profile bundle must be a JSON object")
    unknown = set(data) - {"meta", "demand_p", "demand_q",
                           "wind_forecast", "wind_actual"}
    if unknown:
        raise ProfileError(f"unknown section(s) {sorted(unknown)}")
    profiles = DayProfiles(
        demand_p=_series_from_lists(data.get("demand_p", {}),
                                    "demand_p", SLOTS_PER_DAY),
        demand_q=_series_from_lists(data.get("demand_q", {}),
                                    "demand_q", SLOTS_PER_DAY),
        wind_forecast=_series_from_lists(data.get("wind_forecast", {}),
                                         "wind_forecast", SLOTS_PER_DAY),
        wind_actual=_series_from_lists(data.get("wind_actual", {}),
                                       "wind_actual", UPDATES_PER_DAY),
        meta=data.get("meta", {}))
    return validate_profiles(profiles, net)
