"""Experiment configuration.

One YAML file describes an experiment end to end. Loading merges the user
file over the packaged defaults (mappings merge key by key, lists and
scalars replace wholesale), rejects keys the schema does not know, and
materializes typed objects. ``name`` and ``schemes`` must always come from
the user file so no experiment silently runs under a default identity.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional

import yaml

from .analysis import AnalysisOptions
from .channel import InterfererField, LinkModel
from .fec import RatelessModel
from .phy import PhyProfile, check_sf
from .schemes import FixedSfScheme, GroupBasedScheme, ProposedScheme, Scheme


class ConfigError(ValueError):
    """The experiment description is missing, malformed, or inconsistent."""


MODES = ("analysis", "simulate", "both")
LAYOUT_KINDS = ("grid", "disc")


@dataclass(frozen=True)
class NetworkConfig:
    """Cell geometry, downlink channel, interference, and control traffic."""

    cell_radius_m: float
    link: LinkModel
    interferers: InterfererField
    duty_cycle_max_percent: float = 1.0
    control_listen_s: float = 60.0
    ack_payload_bytes: int = 12
    ack_uplink_sf: int = 12

    def __post_init__(self) -> None:
        if self.cell_radius_m <= 0.0:
            raise ValueError("cell_radius_m must be positive")
        if not 0.0 < self.duty_cycle_max_percent <= 100.0:
            raise ValueError("duty_cycle_max_percent must be in (0, 100]")
        if self.control_listen_s < 0.0:
            raise ValueError("control_listen_s must be nonnegative")
        if self.ack_payload_bytes < 0:
            raise ValueError("ack_payload_bytes must be nonnegative")
        check_sf(self.ack_uplink_sf)


@dataclass(frozen=True)
class FirmwareConfig:
    """Image size, fragmentation, and the rateless code carrying it."""

    image_bytes: int
    fragments: int
    fragment_payload_bytes: int
    code: RatelessModel

    def __post_init__(self) -> None:
        if self.image_bytes < 1:
            raise ValueError("image_bytes must be at least 1")
        if self.fragments < 1:
            raise ValueError("fragments must be at least 1")
        if self.fragment_payload_bytes < 1:
            raise ValueError("fragment_payload_bytes must be at least 1")
        if self.code.fragments != self.fragments:
            raise ValueError("the code must be sized for the configured fragment count")


@dataclass(frozen=True)
class LayoutConfig:
    """How recipients are placed inside the cell and binned for reporting."""

    kind: str = "grid"
    recipients: int = 100
    distance_bins: int = 10

    def __post_init__(self) -> None:
        if self.kind not in LAYOUT_KINDS:
            raise ValueError(f"layout kind must be one of {LAYOUT_KINDS}")
        if self.recipients < 1:
            raise ValueError("recipients must be at least 1")
        if self.distance_bins < 1:
            raise ValueError("distance_bins must be at least 1")

    def bin_distances(self, cell_radius_m: float) -> tuple[float, ...]:
        step = cell_radius_m / self.distance_bins
        return tuple(step * j for j in range(1, self.distance_bins + 1))


@dataclass(frozen=True)
class SimOptions:
    runs: int = 100
    transmission_cap_factor: float = 50.0
    chunk_frames: int = 512

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.transmission_cap_factor <= 0.0:
            raise ValueError("transmission_cap_factor must be positive")
        if self.chunk_frames < 1:
            raise ValueError("chunk_frames must be at least 1")


@dataclass(frozen=True)
class SweepOptions:
    """Axes of the round-length / starting-SF design sweep."""

    frames_per_round: tuple[int, ...]
    min_sf: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.frames_per_round) == 0 or len(self.min_sf) == 0:
            raise ValueError("both sweep axes must be nonempty")
        if any(w < 1 for w in self.frames_per_round):
            raise ValueError("frames_per_round values must be at least 1")
        for sf in self.min_sf:
            check_sf(sf)
        object.__setattr__(
            self, "frames_per_round", tuple(int(w) for w in self.frames_per_round)
        )
        object.__setattr__(self, "min_sf", tuple(int(s) for s in self.min_sf))


@dataclass(frozen=True)
class LifetimeLocation:
    label: str
    distance_fraction: float
    uplink_sf: int

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("location label must be nonempty")
        if not 0.0 < self.distance_fraction <= 1.0:
            raise ValueError("distance_fraction must be in (0, 1]")
        check_sf(self.uplink_sf)


@dataclass(frozen=True)
class LifetimeConfig:
    """Battery budget of a recipient that also runs a periodic uplink duty."""

    battery_mah: float = 1200.0
    updates_per_month: float = 1.0
    uplink_period_hr: float = 0.5
    uplink_payload_bytes: int = 50
    tx_current_ma: float = 83.0
    rx_current_ma: float = 38.0
    sleep_current_ma: float = 0.045
    locations: tuple[LifetimeLocation, ...] = ()

    def __post_init__(self) -> None:
        if self.battery_mah <= 0.0:
            raise ValueError("battery_mah must be positive")
        if self.updates_per_month < 0.0:
            raise ValueError("updates_per_month must be nonnegative")
        if self.uplink_period_hr <= 0.0:
            raise ValueError("uplink_period_hr must be positive")
        if self.uplink_payload_bytes < 0:
            raise ValueError("uplink_payload_bytes must be nonnegative")
        for name in ("tx_current_ma", "rx_current_ma", "sleep_current_ma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if len(self.locations) == 0:
            raise ValueError("at least one lifetime location is required")


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, validated description of one experiment."""

    name: str
    mode: str
    seed: int
    output_dir: str
    schemes: tuple[Scheme, ...]
    phy: PhyProfile
    network: NetworkConfig
    firmware: FirmwareConfig
    layout: LayoutConfig
    analysis: AnalysisOptions
    sim: SimOptions
    sweep: SweepOptions
    lifetime: LifetimeConfig

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("experiment name must be nonempty")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.output_dir:
            raise ValueError("output_dir must be nonempty")
        if len(self.schemes) == 0:
            raise ValueError("at least one scheme is required")
        labels = [s.label for s in self.schemes]
        if len(set(labels)) != len(labels):
            raise ValueError("scheme labels must be unique within one experiment")

    def grid_distances(self) -> tuple[float, ...]:
        return self.layout.bin_distances(self.network.cell_radius_m)

    def to_dict(self) -> dict:
        phy, net, fld, fw = self.phy, self.network, self.network.interferers, self.firmware
        return {
            "name": self.name,
            "mode": self.mode,
            "seed": int(self.seed),
            "output_dir": self.output_dir,
            "schemes": [_scheme_to_dict(s) for s in self.schemes],
            "phy": {
                "bandwidth_hz": float(phy.bandwidth_hz),
                "preamble_symbols": int(phy.preamble_symbols),
                "header_flag": int(phy.header_flag),
                "coding_rate_index": int(phy.coding_rate_index),
                "ldro_sfs": [int(s) for s in phy.ldro_sfs],
                "rx_power_w": float(phy.rx_power_w),
                "tx_power_w": float(phy.tx_power_w),
                "tx_rf_power_dbm": float(phy.tx_rf_power_dbm),
                "sensitivity_dbm": {int(k): float(v) for k, v in phy.sensitivity_dbm.items()},
                "capture_threshold_db": {
                    int(i): {int(j): float(v) for j, v in row.items()}
                    for i, row in phy.capture_threshold_db.items()
                },
            },
            "network": {
                "cell_radius_m": float(net.cell_radius_m),
                "path_loss_exponent": float(net.link.path_loss_exponent),
                "link_gain": float(net.link.link_gain),
                "duty_cycle_max_percent": float(net.duty_cycle_max_percent),
                "control_listen_s": float(net.control_listen_s),
                "ack_payload_bytes": int(net.ack_payload_bytes),
                "ack_uplink_sf": int(net.ack_uplink_sf),
            },
            "interferers": {
                "intensity_per_m2": float(fld.intensity_per_m2),
                "frame_rate_hz": float(fld.frame_rate_hz),
                "channel_count": int(fld.channel_count),
                "payload_bytes": int(fld.payload_bytes),
                "detection_epsilon": float(fld.detection_epsilon),
                "sf_probabilities": {
                    int(k): float(v) for k, v in fld.sf_probabilities.items()
                },
            },
            "firmware": {
                "image_bytes": int(fw.image_bytes),
                "fragments": int(fw.fragments),
                "fragment_payload_bytes": int(fw.fragment_payload_bytes),
                "code": {
                    "mode": fw.code.mode,
                    "failure_at_k": float(fw.code.failure_at_k),
                    "failure_beyond_k": float(fw.code.failure_beyond_k),
                },
            },
            "layout": {
                "kind": self.layout.kind,
                "recipients": int(self.layout.recipients),
                "distance_bins": int(self.layout.distance_bins),
            },
            "analysis": {
                "eta_denominator": self.analysis.eta_denominator,
                "energy_formula": self.analysis.energy_formula,
                "count_tail_mass": float(self.analysis.count_tail_mass),
                "quadrature_rtol": float(self.analysis.quadrature_rtol),
            },
            "sim": {
                "runs": int(self.sim.runs),
                "transmission_cap_factor": float(self.sim.transmission_cap_factor),
                "chunk_frames": int(self.sim.chunk_frames),
            },
            "sweep": {
                "frames_per_round": [int(w) for w in self.sweep.frames_per_round],
                "min_sf": [int(s) for s in self.sweep.min_sf],
            },
            "lifetime": {
                "battery_mah": float(self.lifetime.battery_mah),
                "updates_per_month": float(self.lifetime.updates_per_month),
                "uplink_period_hr": float(self.lifetime.uplink_period_hr),
                "uplink_payload_bytes": int(self.lifetime.uplink_payload_bytes),
                "tx_current_ma": float(self.lifetime.tx_current_ma),
                "rx_current_ma": float(self.lifetime.rx_current_ma),
                "sleep_current_ma": float(self.lifetime.sleep_current_ma),
                "locations": [
                    {
                        "label": loc.label,
                        "distance_fraction": float(loc.distance_fraction),
                        "uplink_sf": int(loc.uplink_sf),
                    }
                    for loc in self.lifetime.locations
                ],
            },
        }

    def fingerprint(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# config ``type`` of each scheme; its keys are the dataclass's fields
_SCHEMES = {"proposed": ProposedScheme, "fixed_sf": FixedSfScheme, "group_based": GroupBasedScheme}


def _scheme_to_dict(scheme: Scheme) -> dict:
    kind = next(k for k, cls in _SCHEMES.items() if type(scheme) is cls)
    casts = typing.get_type_hints(type(scheme))
    return {
        "type": kind,
        **{f.name: casts[f.name](getattr(scheme, f.name)) for f in dataclasses.fields(scheme)},
    }


_LOCATION_FIELDS = frozenset({"label", "distance_fraction", "uplink_sf"})

# mappings whose keys are data (spreading factors), not schema fields
_LEAF_MAPS = {
    ("phy", "sensitivity_dbm"),
    ("phy", "capture_threshold_db"),
    ("interferers", "sf_probabilities"),
}


def _join(path: tuple) -> str:
    return ".".join(str(p) for p in path) if path else "<root>"


def _check_keys(user, defaults, path: tuple = ()) -> None:
    if path in _LEAF_MAPS:
        if not isinstance(user, Mapping):
            raise ConfigError(f"config key '{_join(path)}' must be a mapping")
        return
    if isinstance(defaults, Mapping):
        if not isinstance(user, Mapping):
            raise ConfigError(f"config key '{_join(path)}' must be a mapping")
        for key, value in user.items():
            if key not in defaults:
                allowed = sorted(str(k) for k in defaults)
                hint = difflib.get_close_matches(str(key), allowed, n=1)
                msg = f"unknown config key '{_join((*path, key))}'"
                if hint:
                    msg += f"; did you mean '{_join((*path, hint[0]))}'?"
                else:
                    msg += f"; allowed keys here: {', '.join(allowed)}"
                raise ConfigError(msg)
            _check_keys(value, defaults[key], (*path, key))
    elif isinstance(defaults, list):
        if not isinstance(user, list):
            raise ConfigError(f"config key '{_join(path)}' must be a list")
    else:
        if isinstance(user, (Mapping, list)):
            raise ConfigError(f"config key '{_join(path)}' must be a scalar")


def _deep_merge(base: Mapping, override: Mapping) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(out.get(key), Mapping):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _scheme_from_entry(entry, index: int) -> Scheme:
    if not isinstance(entry, Mapping):
        raise ConfigError(f"schemes[{index}] must be a mapping with a 'type' key")
    kind = entry.get("type")
    if kind not in _SCHEMES:
        raise ConfigError(
            f"schemes[{index}].type must be one of {sorted(_SCHEMES)}, got {kind!r}"
        )
    cls = _SCHEMES[kind]
    fields = dataclasses.fields(cls)
    allowed = sorted({"type"} | {f.name for f in fields})
    for key in entry:
        if key not in allowed:
            hint = difflib.get_close_matches(str(key), allowed, n=1)
            msg = f"unknown key '{key}' in schemes[{index}] ({kind})"
            if hint:
                msg += f"; did you mean '{hint[0]}'?"
            raise ConfigError(msg)
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in entry:
            raise ConfigError(f"schemes[{index}] of type {kind} requires an '{f.name}' key")
    casts = typing.get_type_hints(cls)
    return cls(**{f.name: casts[f.name](entry[f.name]) for f in fields if f.name in entry})


def _location_from_entry(entry, index: int) -> LifetimeLocation:
    if not isinstance(entry, Mapping):
        raise ConfigError(f"lifetime.locations[{index}] must be a mapping")
    for key in entry:
        if key not in _LOCATION_FIELDS:
            hint = difflib.get_close_matches(str(key), sorted(_LOCATION_FIELDS), n=1)
            msg = f"unknown key '{key}' in lifetime.locations[{index}]"
            if hint:
                msg += f"; did you mean '{hint[0]}'?"
            raise ConfigError(msg)
    missing = sorted(_LOCATION_FIELDS - set(entry))
    if missing:
        raise ConfigError(
            f"lifetime.locations[{index}] is missing: {', '.join(missing)}"
        )
    return LifetimeLocation(
        label=str(entry["label"]),
        distance_fraction=float(entry["distance_fraction"]),
        uplink_sf=int(entry["uplink_sf"]),
    )


def _spec_from_dict(data: Mapping) -> ExperimentSpec:
    phy_d = data["phy"]
    phy = PhyProfile(
        sensitivity_dbm={int(k): float(v) for k, v in phy_d["sensitivity_dbm"].items()},
        capture_threshold_db={
            int(i): {int(j): float(v) for j, v in row.items()}
            for i, row in phy_d["capture_threshold_db"].items()
        },
        bandwidth_hz=float(phy_d["bandwidth_hz"]),
        preamble_symbols=int(phy_d["preamble_symbols"]),
        header_flag=int(phy_d["header_flag"]),
        coding_rate_index=int(phy_d["coding_rate_index"]),
        ldro_sfs=tuple(int(s) for s in phy_d["ldro_sfs"]),
        rx_power_w=float(phy_d["rx_power_w"]),
        tx_power_w=float(phy_d["tx_power_w"]),
        tx_rf_power_dbm=float(phy_d["tx_rf_power_dbm"]),
    )

    net_d = data["network"]
    link = LinkModel(
        path_loss_exponent=float(net_d["path_loss_exponent"]),
        link_gain=float(net_d["link_gain"]),
        tx_rf_power_w=phy.tx_rf_power_w,
    )
    int_d = data["interferers"]
    field = InterfererField.from_phy(
        phy,
        intensity_per_m2=float(int_d["intensity_per_m2"]),
        frame_rate_hz=float(int_d["frame_rate_hz"]),
        channel_count=int(int_d["channel_count"]),
        sf_probabilities={int(k): float(v) for k, v in int_d["sf_probabilities"].items()},
        payload_bytes=int(int_d["payload_bytes"]),
        detection_epsilon=float(int_d["detection_epsilon"]),
    )
    network = NetworkConfig(
        cell_radius_m=float(net_d["cell_radius_m"]),
        link=link,
        interferers=field,
        duty_cycle_max_percent=float(net_d["duty_cycle_max_percent"]),
        control_listen_s=float(net_d["control_listen_s"]),
        ack_payload_bytes=int(net_d["ack_payload_bytes"]),
        ack_uplink_sf=int(net_d["ack_uplink_sf"]),
    )

    fw_d = data["firmware"]
    image_bytes = int(fw_d["image_bytes"])
    fragments = int(fw_d["fragments"])
    payload = fw_d.get("fragment_payload_bytes")
    if payload is None:
        payload = -(-image_bytes // fragments)
    code_d = fw_d["code"]
    code = RatelessModel(
        fragments=fragments,
        mode=str(code_d["mode"]),
        failure_at_k=float(code_d["failure_at_k"]),
        failure_beyond_k=float(code_d["failure_beyond_k"]),
    )
    firmware = FirmwareConfig(
        image_bytes=image_bytes,
        fragments=fragments,
        fragment_payload_bytes=int(payload),
        code=code,
    )

    lay_d = data["layout"]
    layout = LayoutConfig(
        kind=str(lay_d["kind"]),
        recipients=int(lay_d["recipients"]),
        distance_bins=int(lay_d["distance_bins"]),
    )
    ana_d = data["analysis"]
    analysis = AnalysisOptions(
        eta_denominator=str(ana_d["eta_denominator"]),
        energy_formula=str(ana_d["energy_formula"]),
        count_tail_mass=float(ana_d["count_tail_mass"]),
        quadrature_rtol=float(ana_d["quadrature_rtol"]),
    )
    sim_d = data["sim"]
    sim = SimOptions(
        runs=int(sim_d["runs"]),
        transmission_cap_factor=float(sim_d["transmission_cap_factor"]),
        chunk_frames=int(sim_d["chunk_frames"]),
    )
    sweep_d = data["sweep"]
    sweep = SweepOptions(
        frames_per_round=tuple(int(w) for w in sweep_d["frames_per_round"]),
        min_sf=tuple(int(s) for s in sweep_d["min_sf"]),
    )
    life_d = data["lifetime"]
    locations_d = life_d["locations"]
    if not isinstance(locations_d, list):
        raise ConfigError("lifetime.locations must be a list")
    lifetime = LifetimeConfig(
        battery_mah=float(life_d["battery_mah"]),
        updates_per_month=float(life_d["updates_per_month"]),
        uplink_period_hr=float(life_d["uplink_period_hr"]),
        uplink_payload_bytes=int(life_d["uplink_payload_bytes"]),
        tx_current_ma=float(life_d["tx_current_ma"]),
        rx_current_ma=float(life_d["rx_current_ma"]),
        sleep_current_ma=float(life_d["sleep_current_ma"]),
        locations=tuple(
            _location_from_entry(loc, i) for i, loc in enumerate(locations_d)
        ),
    )

    schemes_d = data["schemes"]
    if not isinstance(schemes_d, list) or len(schemes_d) == 0:
        raise ConfigError("schemes must be a nonempty list")
    schemes = tuple(_scheme_from_entry(s, i) for i, s in enumerate(schemes_d))

    return ExperimentSpec(
        name=str(data["name"]),
        mode=str(data["mode"]),
        seed=int(data["seed"]),
        output_dir=str(data["output_dir"]),
        schemes=schemes,
        phy=phy,
        network=network,
        firmware=firmware,
        layout=layout,
        analysis=analysis,
        sim=sim,
        sweep=sweep,
        lifetime=lifetime,
    )


# libyaml's loader parses the packaged defaults about 7x faster; user configs
# stay on the pure-Python SafeLoader, whose errors quote the offending line
_DEFAULTS_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def default_config_dict() -> dict:
    """The packaged defaults, as a plain dict."""
    text = resources.files("fuotacast").joinpath("data/defaults.yaml").read_text("utf-8")
    return yaml.load(text, Loader=_DEFAULTS_LOADER)


def _materialize(merged: Mapping) -> ExperimentSpec:
    try:
        return _spec_from_dict(merged)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment configuration: {exc}") from exc


def spec_from_mapping(data: Mapping) -> ExperimentSpec:
    """Validate a user-supplied mapping and merge it over the defaults."""
    if not isinstance(data, Mapping):
        raise ConfigError("the experiment description must be a mapping")
    missing = [k for k in ("name", "schemes") if k not in data]
    if missing:
        raise ConfigError(
            "missing required config key"
            + ("s" if len(missing) > 1 else "")
            + ": "
            + ", ".join(f"'{k}'" for k in missing)
            + " (every experiment must state its own name and scheme list)"
        )
    defaults = default_config_dict()
    _check_keys(data, defaults)
    return _materialize(_deep_merge(defaults, data))


def load_config(path) -> ExperimentSpec:
    """Load an experiment description from a YAML file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {p} is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(
            f"config file {p} is empty; at minimum 'name' and 'schemes' are required"
        )
    if not isinstance(data, Mapping):
        raise ConfigError(f"top level of {p} must be a mapping")
    return spec_from_mapping(data)


def load_default_spec(overrides: Optional[Mapping] = None) -> ExperimentSpec:
    """The packaged default experiment, optionally with overrides merged in."""
    defaults = default_config_dict()
    if overrides:
        _check_keys(overrides, defaults)
        return _materialize(_deep_merge(defaults, overrides))
    return _materialize(defaults)
