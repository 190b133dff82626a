"""Configuration loading, fingerprinting, the command line surface, and the
package exports.

CLI tests run ``main()`` in process and assert on exit codes, the files
written, and the stable CSV schemas. Reproducibility is checked at the
byte level: the same config and seed must reproduce identical outputs.
"""

import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from fuotacast import benchmarks, cli, config
from fuotacast.config import (
    ConfigError,
    default_config_dict,
    load_config,
    load_default_spec,
    spec_from_mapping,
)
from fuotacast.schemes import ProposedScheme

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "configs" / "baseline.yaml"
EXAMPLE_FULL = REPO_ROOT / "configs" / "example_full.yaml"
BASELINE_FINGERPRINT = "11faf0ac1bce110da36370d304adc9efd41013ed40a27c5ef015711991c0aa7d"

PIN_SCHEMES = [
    {"type": "proposed", "min_sf": 7, "max_sf": 12, "frames_per_round": 300},
    {"type": "fixed_sf", "sf": 12},
]
# override merged into {name: pin, schemes: PIN_SCHEMES} (None: the packaged
# defaults as they are) -> its fingerprint; one case per cast of the loader
FINGERPRINT_PINS = {
    "defaults": (None, "b0e15a0ded49a033af3f9a727dc22c527e2456992a2c5afdfa3815cd44e36d8a"),
    "int-for-float": (
        {"network": {"cell_radius_m": 900}, "phy": {"bandwidth_hz": 125000}},
        "2b9fef3a4414e2ebd411ce30da0904c96d755bf197c34348d92b473a1b5e1714",
    ),
    "float-and-string-for-int": (
        {"layout": {"recipients": 40.0}, "firmware": {"fragments": "200"}},
        "b3ed1fecabcde4440c59553732ce55f1dbdbfbc796c098b0c850011d70a8835c",
    ),
    "null-payload": (
        {"firmware": {"image_bytes": 10050, "fragment_payload_bytes": None}},
        "6975940333870bfc3c51bd11aca215680a6d487c36ddf7ca48d6681158c1fbc8",
    ),
    "partial-leaf-map": (
        {"phy": {"sensitivity_dbm": {7: -124.0}}},
        "7db4d54deec0b5104e3012e530d20c2a67fecdb0ae0a78e7b158c72d1952f631",
    ),
    "quoted-sf-key": (
        {"phy": {"sensitivity_dbm": {"7": -124.0}}},
        "7db4d54deec0b5104e3012e530d20c2a67fecdb0ae0a78e7b158c72d1952f631",
    ),
    "unsorted-ldro-sfs": (
        {"phy": {"ldro_sfs": [12, 11]}},
        "149c746226004c84745719e6d673f89c745951343352472f074a08746e84d1c8",
    ),
    "scheme-defaults-omitted": (
        {"schemes": [{"type": "proposed"}]},
        "910153c43f8653ad26bcb240ff4b3983cdac97651f08e40402de8c01fa2436c9",
    ),
    "locations-replaced": (
        {"lifetime": {"locations": [{"label": "mid", "distance_fraction": 0.5, "uplink_sf": 9}]}},
        "4e7ad6c78168f9b684748a97ee28dab6d65c0c87d0be31ab91bb68880add5c7b",
    ),
}
# baseline.yaml with --seed 7, and baseline.yaml with a `seed: 7` line
SEED7_FINGERPRINT = "2bb6a6962b2f121bf5e80c46381829a6cfe5711add2f113b303a6adda51a05ad"

DISTANCE_HEADER = (
    "distance,scheme,reachable,EE_norm_analysis,EE_norm_sim,"
    "DT_hours_analysis,DT_hours_sim,EE_norm_sim_stderr,DT_hours_sim_stderr"
)
AVERAGES_HEADER = (
    "scheme,avg_EE_norm_analysis,avg_EE_norm_sim,avg_DT_hours_analysis,"
    "avg_DT_hours_sim,unreachable_bins,incomplete_sessions,unfinished_recipients"
)
SWEEP_HEADER = "w,L,avg_EE,avg_DT"
LIFETIME_HEADER = "location,scheme,distance_m,uplink_sf,rx_hours_per_update,lifetime_years"

SMALL_SIM_YAML = """\
name: smallsim
mode: both
seed: 7
schemes:
  - {type: proposed}
  - {type: fixed_sf, sf: 12}
layout: {recipients: 20}
sim: {runs: 3}
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestConfigRoundTrip:
    def test_defaults_round_trip(self, spec):
        again = spec_from_mapping(spec.to_dict())
        assert again == spec

    def test_baseline_round_trip_and_fingerprint(self):
        spec = load_config(BASELINE)
        assert spec_from_mapping(spec.to_dict()) == spec
        assert spec.fingerprint() == BASELINE_FINGERPRINT

    def test_fingerprint_shape_and_sensitivity(self, spec):
        fp = spec.fingerprint()
        assert len(fp) == 64
        assert all(c in "0123456789abcdef" for c in fp)
        assert fp == spec.fingerprint()
        assert dataclasses.replace(spec, seed=spec.seed + 1).fingerprint() != fp

    def test_payload_bytes_derived_when_null(self):
        spec = load_default_spec({"firmware": {"fragment_payload_bytes": None}})
        assert spec.firmware.fragment_payload_bytes == 50
        spec = load_default_spec(
            {"firmware": {"image_bytes": 10050, "fragment_payload_bytes": None}}
        )
        assert spec.firmware.fragment_payload_bytes == 51


class TestFingerprintPins:
    """Fingerprints pinned from the loader as it stood before the canonical
    walk replaced the per-field parser and serializer, recomputed from the
    same canonical dicts without the retired ``analysis.eta_denominator``
    and ``analysis.energy_formula`` keys."""

    @pytest.mark.parametrize("case", sorted(FINGERPRINT_PINS))
    def test_pinned(self, case):
        override, want = FINGERPRINT_PINS[case]
        if override is None:
            spec = load_default_spec()
        else:
            spec = spec_from_mapping({"name": "pin", "schemes": PIN_SCHEMES, **override})
        assert spec.fingerprint() == want
        assert spec_from_mapping(spec.to_dict()) == spec

    def test_seed_flag_matches_seed_key(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["analyze", "--config", str(BASELINE), "--seed", "7"]
        )
        assert cli._load_spec(args).fingerprint() == SEED7_FINGERPRINT
        seeded = _write(tmp_path, "seed7.yaml", BASELINE.read_text() + "seed: 7\n")
        assert load_config(seeded).fingerprint() == SEED7_FINGERPRINT

    def test_density_sweep_specs_are_canonical(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            benchmarks, "run_suite", lambda spec, mode: (seen.append(spec), ([], []))[1]
        )
        base = load_default_spec({"schemes": [{"type": "fixed_sf", "sf": 12}]})
        intensities = (1.0e-5, 5.0e-5, 2.0e-4)
        benchmarks.density_sweep(base, intensities)
        assert [s.network.interferers.intensity_per_m2 for s in seen] == list(intensities)
        for spec, lam in zip(seen, intensities):
            assert spec_from_mapping(spec.to_dict()) == spec
            assert spec.to_dict()["interferers"]["intensity_per_m2"] == lam
            direct = load_default_spec({
                "schemes": [{"type": "fixed_sf", "sf": 12}],
                "interferers": {"intensity_per_m2": lam},
            })
            assert spec.fingerprint() == direct.fingerprint()
        assert seen[1].fingerprint() == base.fingerprint()
        assert len({s.fingerprint() for s in seen}) == len(intensities)

    def test_example_full_states_every_default(self):
        full = load_config(EXAMPLE_FULL).to_dict()
        defaults = load_default_spec().to_dict()
        assert full.pop("name") == "example-full"
        assert defaults.pop("name") == "defaults"
        assert full == defaults


class TestYamlLoaders:
    """The packaged defaults go through libyaml, user configs through the
    pure-Python loader; both must read the same documents the same way."""

    @pytest.mark.parametrize(
        "path",
        [
            REPO_ROOT / "src" / "fuotacast" / "data" / "defaults.yaml",
            BASELINE,
            EXAMPLE_FULL,
        ],
        ids=lambda p: p.name,
    )
    def test_c_and_python_loaders_agree(self, path):
        loader = getattr(yaml, "CSafeLoader", None)
        if loader is None:
            pytest.skip("PyYAML built without libyaml")
        text = path.read_text()
        fast = yaml.load(text, Loader=loader)
        slow = yaml.safe_load(text)
        # repr also tells 1 from 1.0 and a list from a tuple
        assert fast == slow
        assert repr(fast) == repr(slow)
        if path.name == "defaults.yaml":
            assert repr(default_config_dict()) == repr(slow)


class TestConfigValidation:
    def test_missing_required_keys_are_both_named(self):
        with pytest.raises(ConfigError) as exc:
            spec_from_mapping({})
        assert "'name'" in str(exc.value) and "'schemes'" in str(exc.value)

    def test_typo_gets_a_suggestion(self):
        with pytest.raises(ConfigError) as exc:
            spec_from_mapping({"name": "x", "schemes": [{"type": "proposed"}], "netwrk": {}})
        assert "did you mean 'network'" in str(exc.value)

    def test_nested_typo_gets_a_scoped_suggestion(self):
        with pytest.raises(ConfigError) as exc:
            load_default_spec({"network": {"cell_radius": 5.0}})
        assert "network.cell_radius_m" in str(exc.value)

    def test_scheme_entry_validation(self):
        with pytest.raises(ConfigError) as exc:
            spec_from_mapping({"name": "x", "schemes": [{"type": "fixed_sf"}]})
        assert "requires an 'sf' key" in str(exc.value)
        with pytest.raises(ConfigError) as exc:
            spec_from_mapping({"name": "x", "schemes": [{"type": "adaptive"}]})
        assert "schemes[0].type" in str(exc.value)
        with pytest.raises(ConfigError) as exc:
            spec_from_mapping(
                {"name": "x", "schemes": [{"type": "proposed", "frames_per_rond": 9}]}
            )
        assert "did you mean 'frames_per_round'" in str(exc.value)

    def test_scheme_defaults_fill_in(self):
        spec = spec_from_mapping({"name": "x", "schemes": [{"type": "proposed"}]})
        assert spec.schemes == (ProposedScheme(7, 12, 300),)

    def test_duplicate_scheme_labels_rejected(self):
        with pytest.raises(ConfigError) as exc:
            spec_from_mapping(
                {
                    "name": "x",
                    "schemes": [{"type": "fixed_sf", "sf": 10}, {"type": "fixed_sf", "sf": 10}],
                }
            )
        assert "unique" in str(exc.value)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            load_default_spec({"mode": "quick"})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError) as exc:
            load_default_spec({"seed": -1})
        assert "seed must be nonnegative" in str(exc.value)

    def test_every_leaf_rejects_non_finite_bool_and_null(self, monkeypatch):
        defaults = default_config_dict()
        # parse the packaged defaults once, not once per case
        monkeypatch.setattr(config, "default_config_dict", lambda: copy.deepcopy(defaults))

        def leaves(node, path, key):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield from leaves(v, (*path, k), f"{key}.{k}" if key else str(k))
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    yield from leaves(v, (*path, i), f"{key}[{i}]")
            else:
                yield path, key

        found = list(leaves(defaults, (), ""))
        assert len(found) > 100
        for path, key in found:
            for bad in (math.nan, math.inf, -math.inf, True, None):
                if bad is None and key == "firmware.fragment_payload_bytes":
                    continue  # null derives the payload from the image
                data = copy.deepcopy(defaults)
                node = data
                for step in path[:-1]:
                    node = node[step]
                node[path[-1]] = bad
                with pytest.raises(ConfigError) as exc:
                    spec_from_mapping(data)
                assert f"{key}" in str(exc.value), (key, bad, str(exc.value))

    def test_location_entry_must_be_complete(self):
        with pytest.raises(ConfigError) as exc:
            load_default_spec(
                {"lifetime": {"locations": [{"label": "edge"}]}}
            )
        assert "missing" in str(exc.value)

    @pytest.mark.parametrize(
        "override, fragments",
        [
            (
                {"lifetime": {"locations": [
                    {"label": "a", "distance_fraction": 0.5, "uplink_sf": 9, "uplnk_sf": 9}
                ]}},
                ("lifetime.locations[0]", "uplnk_sf", "did you mean", "uplink_sf'?"),
            ),
            ({"lifetime": {"locations": ["edge"]}}, ("lifetime.locations[0]", "must be a mapping")),
            ({"lifetime": {"locations": "edge"}}, ("'lifetime.locations'", "must be a list")),
            ({"phy": {"sensitivity_dbm": 5}}, ("'phy.sensitivity_dbm'", "must be a mapping")),
            ({"network": 3}, ("'network'", "must be a mapping")),
            ({"sweep": {"min_sf": 7}}, ("'sweep.min_sf'", "must be a list")),
        ],
        ids=["location-key", "location-entry", "locations", "leaf-map", "section", "list"],
    )
    def test_shape_errors_name_the_key(self, tmp_path, capsys, override, fragments):
        data = {"name": "x", "schemes": [{"type": "proposed"}], **override}
        with pytest.raises(ConfigError) as exc:
            spec_from_mapping(data)
        for fragment in fragments:
            assert fragment in str(exc.value)
        cfg = _write(tmp_path, "bad.yaml", yaml.safe_dump(data))
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert all(fragment in err for fragment in fragments)

    @pytest.mark.parametrize(
        "override, fragment",
        [
            ({"phy": {"capture_threshold_db": {7: 5}}}, "'phy.capture_threshold_db.7' must be"),
            (
                {"firmware": {"fragments": 0, "fragment_payload_bytes": None}},
                "fragments must be at least 1",
            ),
        ],
        ids=["capture-row", "zero-fragments-null-payload"],
    )
    def test_former_tracebacks_exit_2(self, tmp_path, capsys, override, fragment):
        data = {"name": "x", "schemes": [{"type": "proposed"}], **override}
        with pytest.raises(ConfigError, match=fragment):
            spec_from_mapping(data)
        cfg = _write(tmp_path, "bad.yaml", yaml.safe_dump(data))
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert fragment in capsys.readouterr().err

    def test_file_loading_failures(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(tmp_path / "nope.yaml")
        assert "cannot read" in str(exc.value)
        empty = _write(tmp_path, "empty.yaml", "")
        with pytest.raises(ConfigError) as exc:
            load_config(empty)
        assert "empty" in str(exc.value)
        broken = _write(tmp_path, "broken.yaml", "a: [unclosed")
        with pytest.raises(ConfigError) as exc:
            load_config(broken)
        assert "not valid YAML" in str(exc.value)
        listy = _write(tmp_path, "listy.yaml", "- a\n- b\n")
        with pytest.raises(ConfigError) as exc:
            load_config(listy)
        assert "must be a mapping" in str(exc.value)


class TestAnalyzeVerb:
    def test_writes_csvs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["analyze", "--config", str(BASELINE), "--out", str(out)])
        assert rc == 0
        curves = (out / "distance_curves.csv").read_text().splitlines()
        assert curves[0] == "# fuotacast distance_curves v1"
        assert curves[1] == f"# fingerprint={BASELINE_FINGERPRINT} seed=20240"
        assert curves[2] == DISTANCE_HEADER
        assert len(curves) == 3 + 60
        averages = (out / "scheme_averages.csv").read_text().splitlines()
        assert averages[2] == AVERAGES_HEADER
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["config_fingerprint"] == BASELINE_FINGERPRINT
        assert manifest["runs"] == 0
        assert manifest["schema_version"] == 1
        assert manifest["outputs"] == ["distance_curves.csv", "scheme_averages.csv"]

    def test_manifest_keys_are_sorted(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["analyze", "--config", str(BASELINE), "--out", str(out)])
        text = (out / "manifest.json").read_text()
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"

    def test_booleans_and_nans_serialize_compactly(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["analyze", "--config", str(BASELINE), "--out", str(out)])
        body = (out / "distance_curves.csv").read_text().splitlines()[3:]
        assert all(",1," in line or ",0," in line for line in body)
        assert not any("True" in line or "nan" in line for line in body)
        # analysis-only output leaves every sim cell empty
        first = body[0].split(",")
        assert first[4] == "" and first[6] == ""

    def test_analyze_never_touches_the_rng(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("closed-form path must not draw random numbers")

        monkeypatch.setattr(np.random, "default_rng", boom)
        monkeypatch.setattr(np.random, "SeedSequence", boom)
        out = tmp_path / "out"
        rc = cli.main(["analyze", "--config", str(BASELINE), "--out", str(out)])
        assert rc == 0

    def test_seed_override_lands_in_outputs(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["analyze", "--config", str(BASELINE), "--seed", "555", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 555
        assert manifest["config_fingerprint"] != BASELINE_FINGERPRINT


class TestSimulateVerb:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, "small.yaml", SMALL_SIM_YAML)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("distance_curves.csv", "scheme_averages.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_different_seed_changes_results(self, tmp_path):
        cfg = _write(tmp_path, "small.yaml", SMALL_SIM_YAML)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(cfg), "--out", str(out1)])
        cli.main(["simulate", "--config", str(cfg), "--seed", "8", "--out", str(out2)])
        a = (out1 / "distance_curves.csv").read_text()
        b = (out2 / "distance_curves.csv").read_text()
        assert a != b

    def test_incomplete_simulation_exits_4_but_writes(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "short.yaml",
            "name: shortrange\n"
            "mode: simulate\n"
            "seed: 3\n"
            "schemes:\n"
            "  - {type: fixed_sf, sf: 7}\n"
            "layout: {recipients: 15}\n"
            "sim: {runs: 2}\n",
        )
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 4
        assert (out / "distance_curves.csv").exists()
        assert "incomplete" in capsys.readouterr().err


class TestSweepAndLifetimeVerbs:
    def test_sweep_csv_schema(self, tmp_path):
        cfg = _write(
            tmp_path,
            "sweep.yaml",
            "name: sweepsmall\n"
            "schemes:\n"
            "  - {type: proposed}\n"
            "sweep:\n"
            "  frames_per_round: [50, 100]\n"
            "  min_sf: [7, 8]\n",
        )
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# fuotacast sweep v1"
        assert lines[2] == SWEEP_HEADER
        assert len(lines) == 3 + 4

    @pytest.mark.parametrize("alpha", [3.5, 6.0])
    def test_sweep_skips_unreachable_bins(self, tmp_path, alpha):
        # at alpha 6 no design point reaches any bin: every average is empty
        cfg = _write(
            tmp_path,
            "steep.yaml",
            "name: steep\n"
            "schemes:\n"
            "  - {type: proposed}\n"
            f"network: {{path_loss_exponent: {alpha}}}\n",
        )
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        body = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[3:]]
        assert len(body) == 100
        if alpha == 6.0:
            assert all(row[2:] == ["", ""] for row in body)
            return
        # the configured design point averages the same bins as analyze
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        averages = (tmp_path / "a" / "scheme_averages.csv").read_text().splitlines()
        proposed = averages[3].split(",")
        assert proposed[0] == "proposed"
        configured = next(row for row in body if row[:2] == ["300", "7"])
        assert configured[2:] == [proposed[1], proposed[3]]
        assert configured[2] != ""

    def test_lifetime_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["lifetime", "--config", str(BASELINE), "--out", str(out)]) == 0
        lines = (out / "lifetime.csv").read_text().splitlines()
        assert lines[0] == "# fuotacast lifetime v1"
        assert lines[2] == LIFETIME_HEADER
        assert len(lines) == 3 + 12

    def test_lifetime_sim_mode_runs(self, tmp_path):
        cfg = _write(
            tmp_path,
            "lt.yaml",
            "name: ltsmall\n"
            "schemes:\n"
            "  - {type: proposed}\n"
            "layout: {recipients: 15}\n",
        )
        out = tmp_path / "out"
        rc = cli.main(
            ["lifetime", "--config", str(cfg), "--mode", "sim", "--runs", "4", "--out", str(out)]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "sim"
        assert manifest["runs"] == 4

    def test_lifetime_sim_mode_unreachable_group_location_writes_empty_row(self, tmp_path):
        # no SF reaches the 4000 m edge within the group stream's frame
        # budget; sim mode writes the same empty row as the analysis
        cfg = _write(
            tmp_path,
            "far.yaml",
            "name: farcell\n"
            "schemes:\n"
            "  - {type: group_based, criterion: energy}\n"
            "network: {cell_radius_m: 4000.0}\n"
            "layout: {recipients: 5}\n",
        )
        for mode in ("analysis", "sim"):
            out = tmp_path / mode
            rc = cli.main(
                ["lifetime", "--config", str(cfg), "--mode", mode, "--runs", "1",
                 "--out", str(out)]
            )
            assert rc == 0, mode
            lines = (out / "lifetime.csv").read_text().splitlines()
            assert lines[2] == LIFETIME_HEADER
            rows = {line.split(",")[0]: line.split(",") for line in lines[3:]}
            assert rows["edge"][4:] == ["", ""], mode
            assert rows["near"][4] != "", mode


    def test_lifetime_sim_mode_far_cell_without_completions_exits_4(self, tmp_path, capsys):
        # no recipient at the 4000 m edge completes under the ramp or fixed
        # SF12: their rows stay empty but reachable, and the verb exits 4
        cfg = _write(
            tmp_path,
            "far.yaml",
            "name: farcell\n"
            "schemes:\n"
            "  - {type: proposed}\n"
            "  - {type: fixed_sf, sf: 12}\n"
            "network: {cell_radius_m: 4000.0}\n"
            "layout: {recipients: 5}\n",
        )
        out = tmp_path / "out"
        rc = cli.main(
            ["lifetime", "--config", str(cfg), "--mode", "sim", "--runs", "3", "--out", str(out)]
        )
        assert rc == 4
        assert "no completed recipients" in capsys.readouterr().err
        lines = (out / "lifetime.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[3:]]
        assert [r[4:] for r in rows if r[0] == "edge"] == [["", ""], ["", ""]]
        assert all(r[4] != "" for r in rows if r[0] == "near")


class TestErrorExits:
    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["analyze", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_2_with_hint(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "typo.yaml",
            "name: t\nschemes:\n  - {type: proposed}\nnetwrk: {}\n",
        )
        rc = cli.main(["analyze", "--config", str(cfg)])
        assert rc == 2
        assert "did you mean 'network'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--runs", "0"], "--runs must be at least 1"),
            (["lifetime", "--mode", "sim", "--runs", "0"], "--runs must be at least 1"),
            (["simulate", "--seed", "-5"], "seed must be nonnegative"),
            (["lifetime", "--mode", "sim", "--seed", "-1"], "seed must be nonnegative"),
            (["analyze", "--seed", "-5"], "seed must be nonnegative"),
        ],
    )
    def test_bad_override_exits_2_before_any_output(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        rc = cli.main([*argv, "--config", str(BASELINE), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["simulate", "--runs", "1"], ["lifetime", "--mode", "sim", "--runs", "1"]],
    )
    def test_loss_free_link_under_failure_literal_exits_2(self, tmp_path, capsys, argv):
        # the literal failure-rate reading, whose denominator a link that
        # never loses a frame leaves at 0, is a test oracle now and not an
        # option: a config that asks for it names the retired key
        cfg = _write(
            tmp_path,
            "lossfree.yaml",
            "name: lossfree\n"
            "schemes:\n"
            "  - {type: proposed}\n"
            "  - {type: group_based, criterion: energy}\n"
            "phy:\n"
            "  sensitivity_dbm: {7: -995.0, 8: -996.0, 9: -997.0, 10: -998.0,"
            " 11: -999.0, 12: -1000.0}\n"
            "interferers: {intensity_per_m2: 0.0}\n"
            "analysis: {eta_denominator: failure_literal}\n",
        )
        out = tmp_path / "out"
        rc = cli.main([*argv, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "unknown config key 'analysis.eta_denominator'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, fragment",
        [
            ("interferers: {frame_rate_hz: 10000.0}", "interferers.frame_rate_hz"),
            ("phy: {rx_power_w: 0.0}", "rx_power_w must be positive"),
            ("phy: {rx_power_w: -0.1}", "rx_power_w must be positive"),
            ("network: {control_listen_s: .nan}", "'network.control_listen_s' must be finite"),
            ("sim: {runs: true}", "'sim.runs' must not be a bool"),
        ],
        ids=["window-above-one", "zero-rx-power", "negative-rx-power", "nan-leaf", "bool-leaf"],
    )
    def test_invalid_inputs_exit_2_before_any_output(self, tmp_path, capsys, override, fragment):
        cfg = _write(
            tmp_path, "bad.yaml", f"name: bad\nschemes:\n  - {{type: proposed}}\n{override}\n"
        )
        out = tmp_path / "out"
        for argv in (["analyze"], ["simulate", "--runs", "1"]):
            assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and fragment in err, err
            assert not out.exists()

    def test_quadrature_breakdown_exits_3(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "hostile.yaml",
            "name: hostile\n"
            "schemes:\n"
            "  - {type: fixed_sf, sf: 12}\n"
            "interferers: {intensity_per_m2: 0.05}\n"
            "analysis: {quadrature_rtol: 1.0e-13}\n",
        )
        rc = cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("compare")
    cfg = base / "small.yaml"
    cfg.write_text(SMALL_SIM_YAML)
    ana, both = base / "ana", base / "both"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(ana)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(both)]) == 0
    return base, ana, both


class TestCompareVerb:

    def test_identical_files_pass(self, outputs, capsys):
        _, ana, _ = outputs
        curves = str(ana / "distance_curves.csv")
        rc = cli.main(["compare", curves, curves])
        assert rc == 0
        assert "COMPARE PASS" in capsys.readouterr().out

    def test_analysis_against_simulation_cross_checks(self, outputs, capsys):
        _, ana, both = outputs
        rc = cli.main(
            [
                "compare",
                str(ana / "distance_curves.csv"),
                str(both / "distance_curves.csv"),
                "--tolerance",
                "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert "EE_norm_analysis vs EE_norm_sim" in out
        assert rc == 0

    def test_tampered_value_fails(self, outputs, tmp_path, capsys):
        _, ana, _ = outputs
        original = (ana / "distance_curves.csv").read_text()
        lines = original.splitlines()
        cells = lines[3].split(",")
        cells[3] = repr(float(cells[3]) * 2.0)
        lines[3] = ",".join(cells)
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(lines) + "\n")
        rc = cli.main(["compare", str(ana / "distance_curves.csv"), str(tampered)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "EXCEEDED" in out and "COMPARE FAIL" in out

    def test_unreadable_input_exits_2(self, outputs, tmp_path, capsys):
        _, ana, _ = outputs
        rc = cli.main(
            ["compare", str(ana / "distance_curves.csv"), str(tmp_path / "missing.csv")]
        )
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_disjoint_schemas_exit_2(self, outputs, tmp_path, capsys):
        base, ana, _ = outputs
        out = tmp_path / "sweepout"
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            "name: sweepsmall\n"
            "schemes:\n"
            "  - {type: proposed}\n"
            "sweep:\n"
            "  frames_per_round: [50]\n"
            "  min_sf: [7]\n"
        )
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rc = cli.main(
            ["compare", str(ana / "distance_curves.csv"), str(out / "sweep.csv")]
        )
        assert rc == 2
        assert "share no key columns" in capsys.readouterr().err


class TestPackageSurface:
    def test_every_exported_name_resolves(self):
        import fuotacast

        assert len(set(fuotacast.__all__)) == len(fuotacast.__all__)
        for name in fuotacast.__all__:
            assert hasattr(fuotacast, name), name
