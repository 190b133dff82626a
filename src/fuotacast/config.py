"""Experiment configuration.

One YAML file describes an experiment end to end, and the packaged
``defaults.yaml`` is its only schema. Loading merges the user file over the
defaults (mappings merge key by key, lists and scalars replace wholesale)
and then casts the merged dict to its canonical form in one walk against
the defaults: every key must be one the defaults have, every leaf takes the
type of its default, the spreading-factor maps get int keys, and each entry
of a list of mappings (``lifetime.locations``) must hold every key of the
default's first entry. No leaf may be null, a NaN or infinite float, or a
bool, except that a null ``firmware.fragment_payload_bytes`` becomes
ceil(image_bytes / fragments). The fingerprint is the sha256 of that
canonical dict as sorted, compact JSON, and every typed section is built by
keyword from it; the spec then derives its
:class:`~fuotacast.channel.ChannelLaw`. ``name`` and ``schemes`` must always
come from the user file so no experiment silently runs under a default
identity.
"""

from __future__ import annotations

import copy
import dataclasses
import difflib
import hashlib
import json
import math
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional

import yaml

from .analysis import AnalysisOptions
from .channel import ChannelLaw, InterfererField, LinkModel
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
    # the canonical config of the typed sections above, as they were built;
    # a dataclasses.replace of a section leaves it stale, so derive variants
    # with spec_from_mapping from to_dict() instead
    sections: dict = dataclasses.field(compare=False, repr=False)
    # the channel constants both engines read, derived from the sections
    law: ChannelLaw = dataclasses.field(init=False, compare=False, repr=False)

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
        law = ChannelLaw.build(
            self.phy,
            self.network.link,
            self.network.interferers,
            self.firmware.fragment_payload_bytes,
            self.network.duty_cycle_max_percent,
        )
        object.__setattr__(self, "law", law)

    def grid_distances(self) -> tuple[float, ...]:
        return self.layout.bin_distances(self.network.cell_radius_m)

    def to_dict(self) -> dict:
        """The canonical config: the sections as loaded, with the identity
        fields and the schemes read from this spec, so a
        ``dataclasses.replace`` of the seed shows in the fingerprint."""
        return {
            **copy.deepcopy(self.sections),
            "name": self.name,
            "mode": self.mode,
            "seed": int(self.seed),
            "output_dir": self.output_dir,
            "schemes": [_scheme_to_dict(s) for s in self.schemes],
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


# mappings keyed by spreading factors, as are their rows, not by schema fields
_LEAF_MAPS = {
    ("phy", "sensitivity_dbm"),
    ("phy", "capture_threshold_db"),
    ("interferers", "sf_probabilities"),
}

# the one leaf that may be null: ceil(image_bytes / fragments) stands in
_PAYLOAD = ("firmware", "fragment_payload_bytes")


def _join(path: tuple) -> str:
    return ".".join(str(p) for p in path).replace(".[", "[") if path else "<root>"


def _leaf(kind: type, value, path: tuple):
    """``value`` cast to ``kind``, the type of the leaf's default. Null, a
    bool where the default is not one, and a NaN or infinite float, given
    or cast, are rejected."""
    where = f"config key '{_join(path)}'"
    if value is None:
        raise ConfigError(f"{where} must not be null")
    if isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where} must not be a bool")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return out


def _canonical(value, default, path: tuple = ()):
    """``value`` checked against the shape of ``default`` and cast to its
    leaf types. Scheme entries pass through; ``_scheme_from_entry`` checks them."""
    if isinstance(default, Mapping):
        if not isinstance(value, Mapping):
            raise ConfigError(f"config key '{_join(path)}' must be a mapping")
        if path[:2] in _LEAF_MAPS:
            row = next(iter(default.values()))
            return {_leaf(int, k, path): _canonical(v, row, (*path, k)) for k, v in value.items()}
        for key in value:
            if key not in default:
                allowed = sorted(str(k) for k in default)
                hint = difflib.get_close_matches(str(key), allowed, n=1)
                msg = f"unknown config key '{_join((*path, key))}'"
                if hint:
                    msg += f"; did you mean '{_join((*path, hint[0]))}'?"
                else:
                    msg += f"; allowed keys here: {', '.join(allowed)}"
                raise ConfigError(msg)
        # merged sections hold every key; list entries must name them all
        missing = [str(k) for k in default if k not in value]
        if missing:
            raise ConfigError(f"config key '{_join(path)}' is missing: {', '.join(missing)}")
        return {k: _canonical(v, default[k], (*path, k)) for k, v in value.items()}
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key '{_join(path)}' must be a list")
        if path == ("schemes",):
            return value
        return [_canonical(v, default[0], (*path, f"[{i}]")) for i, v in enumerate(value)]
    if isinstance(value, (Mapping, list)):
        raise ConfigError(f"config key '{_join(path)}' must be a scalar")
    if value is None and path == _PAYLOAD:
        return None
    return _leaf(type(default), value, path)


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
    return cls(**{
        f.name: _leaf(casts[f.name], entry[f.name], ("schemes", f"[{index}]", f.name))
        for f in fields
        if f.name in entry
    })


def _build_spec(user: Mapping, defaults: dict) -> ExperimentSpec:
    """Merge ``user`` over ``defaults``, cast the result to its canonical
    form and build the typed sections from it by keyword."""
    canon = _canonical(_deep_merge(defaults, user), defaults)
    fw = canon["firmware"]
    if fw["fragment_payload_bytes"] is None and fw["fragments"] > 0:
        fw["fragment_payload_bytes"] = -(-fw["image_bytes"] // fw["fragments"])
    canon["phy"]["ldro_sfs"].sort()  # a set of SFs, which PhyProfile sorts too
    entries = canon.pop("schemes")
    if len(entries) == 0:
        raise ConfigError("schemes must be a nonempty list")
    try:
        phy = PhyProfile(**canon["phy"])
        network = dict(canon["network"])
        link = LinkModel(
            path_loss_exponent=network.pop("path_loss_exponent"),
            link_gain=network.pop("link_gain"),
            tx_rf_power_w=phy.tx_rf_power_w,
        )
        field = InterfererField.from_phy(phy, **canon["interferers"])
        firmware = dict(fw)
        code = RatelessModel(fragments=fw["fragments"], **firmware.pop("code"))
        lifetime = dict(canon["lifetime"])
        locations = tuple(LifetimeLocation(**loc) for loc in lifetime.pop("locations"))
        return ExperimentSpec(
            name=canon.pop("name"),
            mode=canon.pop("mode"),
            seed=canon.pop("seed"),
            output_dir=canon.pop("output_dir"),
            phy=phy,
            network=NetworkConfig(link=link, interferers=field, **network),
            firmware=FirmwareConfig(code=code, **firmware),
            layout=LayoutConfig(**canon["layout"]),
            analysis=AnalysisOptions(**canon["analysis"]),
            sim=SimOptions(**canon["sim"]),
            sweep=SweepOptions(**canon["sweep"]),
            lifetime=LifetimeConfig(locations=locations, **lifetime),
            schemes=tuple(_scheme_from_entry(s, i) for i, s in enumerate(entries)),
            sections=canon,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment configuration: {exc}") from exc


# libyaml's loader parses the packaged defaults about 7x faster; user configs
# stay on the pure-Python SafeLoader, whose errors quote the offending line
_DEFAULTS_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def default_config_dict() -> dict:
    """The packaged defaults, as a plain dict."""
    text = resources.files("fuotacast").joinpath("data/defaults.yaml").read_text("utf-8")
    return yaml.load(text, Loader=_DEFAULTS_LOADER)


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
    return _build_spec(data, default_config_dict())


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
    return _build_spec(overrides or {}, default_config_dict())
