from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference
from qbackbone import engine, scenario
from qbackbone.engine import run
from qbackbone.entanglement import FiberSource, coincidence_matrix
from qbackbone.linkbudget import DARK_FIBER_DB_PER_KM, FiberLink, FreeSpaceLinkParams
from qbackbone.scenario import (
    MAX_RUN_CELLS,
    MAX_RUN_COUNT,
    ConfigError,
    Policy,
    ScenarioConfig,
    TrafficConfig,
    active_sources,
    config_to_dict,
    fiber_source,
    load_config,
    load_config_file,
    builtin_sources,
    satellite_source,
    seed_from_env,
)

MICIUS_DOC = {
    "kind": "satellite-pass",
    "source_id": "Micius",
    "pass_model": {
        "altitude_km": 474.0,
        "egress": {"peak_elevation_deg": 83.0, "peak_time_s": 128.0},
        "ingress": {"peak_elevation_deg": 75.0, "peak_time_s": 128.0},
    },
}

ROOT = Path(__file__).resolve().parent.parent


def _with(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` (keys and list indexes) replaced."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


class Drawn(Exception):
    """Stage 1 of a run was entered: the run passed its ceilings."""


@pytest.fixture
def start_run(monkeypatch):
    """Load a document and start its run, stopping as stage 1 is entered;
    a ceiling raises its ConfigError before then.  Returns the config."""

    def draw(config):
        raise Drawn

    monkeypatch.setattr(engine, "_share", draw)

    def start(doc) -> ScenarioConfig:
        config = load_config(doc)
        with pytest.raises(Drawn):
            engine.run_many(config, [None])
        return config

    return start


def _paths(node, prefix=()):
    """Every key and list-index path below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


class TestDefaults:
    def test_empty_document_loads_defaults(self):
        config = load_config({})
        assert config == ScenarioConfig()
        assert config.traffic.payload_qubits == 100_000
        assert config.memory_capacity is None
        assert config.duration_s == 600.0
        assert config.bin_width_s == 8.0
        assert config.channel_step_s == 2.0
        assert config.p_teleport_success == 0.5
        assert config.traffic.mean_interarrival_s == 0.020
        assert len(config.sources) == 1
        source = config.sources[0]
        assert source.kind == "ground-fiber"
        assert source.emission_rate_hz == 2.0e5
        assert source.arm.length_km == 75.0
        assert source.arm.attenuation_db_per_km == 0.2
        assert config.ingress_access.length_km == 5.0
        assert config.policy == Policy("fiber-only")
        assert fiber_source() == FiberSource("fiber-standard")

    def test_partial_documents_load_dataclass_defaults(self):
        defaults = ScenarioConfig()
        config = load_config(
            {
                "traffic": {"qubit_rate_hz": 2.0e9},
                "egress_access": {"length_km": 7.0},
                "sources": [{"kind": "ground-fiber", "source_id": "f", "arm": {"length_km": 9.0}}],
            }
        )
        assert config.traffic == dataclasses.replace(defaults.traffic, qubit_rate_hz=2.0e9)
        assert config.ingress_access == defaults.ingress_access
        assert config.egress_access == dataclasses.replace(defaults.egress_access, length_km=7.0)
        assert config.sources == (fiber_source("f", arm_length_km=9.0),)
        assert load_config({"traffic": {}, "egress_access": {}}) == load_config({})

    def test_builtin_sources_roster(self):
        ids = [s.source_id for s in builtin_sources()]
        assert ids == ["fiber-standard", "fiber-dark", "Micius", "Starlink-2007", "Iridium-126"]

    def test_presets_match_the_shipped_configs(self):
        # The presets and configs/ hold the same sources twice; they must agree.
        presets = builtin_sources()
        assert load_config_file(str(ROOT / "configs" / "all_sources.json")).sources == presets
        by_id = {source.source_id: source for source in presets}
        for name, source_id in (
            ("default", "fiber-standard"),
            ("dark_fiber", "fiber-dark"),
            ("micius", "Micius"),
            ("starlink", "Starlink-2007"),
            ("iridium", "Iridium-126"),
        ):
            sources = load_config_file(str(ROOT / "configs" / f"{name}.json")).sources
            assert sources == (by_id[source_id],), name

    def test_builtin_satellite_parameters(self):
        micius = satellite_source("Micius")
        assert micius.pass_model.altitude_km == 474.0
        assert micius.pass_model.egress.peak_elevation_deg == 83.0
        assert micius.pass_model.ingress.peak_elevation_deg == 75.0
        iridium = satellite_source("Iridium-126")
        assert iridium.pass_model.altitude_km == 804.0
        starlink = satellite_source("Starlink-2007")
        assert starlink.pass_model.egress.peak_elevation_deg == 88.0


class TestValidation:
    def test_zero_memory_rejected(self):
        with pytest.raises(ConfigError, match="must be >= 1 or unlimited"):
            load_config({"memory_capacity": 0})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config({"memroy_capacity": 5})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="traffic"):
            load_config({"traffic": {"qubit_rate": 1.0}})

    def test_bad_type(self):
        with pytest.raises(ConfigError, match="duration_s"):
            load_config({"duration_s": "long"})

    def test_non_integer_payload(self):
        with pytest.raises(ConfigError, match="payload"):
            load_config({"traffic": {"qubit_rate_hz": 1.0e9, "frame_duration_s": 1.5e-9}})

    def test_bin_width_must_be_step_multiple(self):
        with pytest.raises(ConfigError, match="multiple"):
            load_config({"bin_width_s": 5.0, "channel_step_s": 2.0})

    def test_policy_missing_source(self):
        with pytest.raises(ConfigError, match="unknown source"):
            load_config({"policy": {"kind": "satellite-only", "source_id": "Micius"}})

    def test_policy_kind_checked(self):
        with pytest.raises(ConfigError, match="policy.kind"):
            load_config({"policy": {"kind": "cheapest"}})

    def test_satellite_only_config_loads(self):
        config = load_config(
            {"policy": {"kind": "satellite-only", "source_id": "Micius"}, "sources": [MICIUS_DOC]}
        )
        assert len(config.sources) == 1
        assert config.sources[0].source_id == "Micius"
        assert config.sources[0].kind == "satellite-pass"
        assert config.sources[0].pass_model.egress.peak_time_s == 128.0
        assert config.sources[0].pass_model.ingress.peak_time_s == 128.0

    def test_duplicate_source_ids(self):
        fiber = {"kind": "ground-fiber", "source_id": "f"}
        doc = {"sources": [fiber, fiber]}
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(doc)

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"sources": [{"kind": "ground-fiber"}]}, "config.sources[0].source_id"),
            (
                {"sources": [{"kind": "satellite-pass", "source_id": "s"}]},
                "config.sources[0].pass_model",
            ),
            (
                {"sources": [_with(MICIUS_DOC, ("pass_model", "ingress"), {"peak_time_s": 1.0})]},
                "config.sources[0].pass_model.ingress.peak_elevation_deg",
            ),
        ],
        ids=["fiber_id", "pass_model", "peak_elevation"],
    )
    def test_missing_required_field_names_its_path(self, doc, path):
        with pytest.raises(ConfigError, match=re.escape(f"{path} is required")):
            load_config(doc)

    def test_null_only_where_the_type_allows_none(self):
        assert load_config({"memory_capacity": None}).memory_capacity is None
        assert load_config({"policy": {"kind": "all-sources", "source_id": None}}).policy == Policy(
            "all-sources"
        )
        for doc, field in [
            ({"traffic": None}, "config.traffic"),
            ({"seed": None}, "config.seed"),
            ({"duration_s": None}, "config.duration_s"),
            ({"sources": None}, "config.sources"),
            ({"policy": {"kind": None}}, "config.policy.kind"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(field)):
                load_config(doc)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"policy": "best-source"}, "config.policy must be an object"),
            (
                {"sources": [_with(MICIUS_DOC, ("pass_model", "egress"), 83.0)]},
                "config.sources[0].pass_model.egress must be an object",
            ),
        ],
        ids=["bare_string_policy", "scalar_station_pass"],
    )
    def test_removed_shorthands_rejected(self, doc, field):
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config(doc)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config({"seed": -4})

    def test_unsupported_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            load_config({"schema_version": 99})

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_must_be_an_integer(self, version):
        with pytest.raises(ConfigError, match="schema_version"):
            load_config({"schema_version": version})

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"duration_s": 10**400}, "config.duration_s"),
            ({"traffic": {"qubit_rate_hz": 10**400}}, "traffic.qubit_rate_hz"),
            (
                {"sources": [_with(MICIUS_DOC, ("pass_model", "egress", "peak_time_s"), 10**400)]},
                r"sources\[0\].pass_model.egress.peak_time_s",
            ),
        ],
        ids=["duration", "traffic", "satellite_peak_time"],
    )
    def test_oversized_integer_names_its_field(self, doc, field):
        with pytest.raises(ConfigError, match=field):
            load_config(doc)

    def test_zero_duration_allowed(self):
        assert load_config({"duration_s": 0.0}).duration_s == 0.0

    def test_a_document_bounds_only_its_step_grid(self):
        # Every command builds the step grid from the document; the other
        # ceilings bound a run, which may hold fewer sources than it.
        with pytest.raises(ConfigError, match=f"channel step count 5e\\+11 exceeds the ceiling of {MAX_RUN_CELLS}"):
            load_config({"duration_s": 1.0e12})
        assert load_config({"duration_s": 2.0e5}).n_steps == 100_000  # 1e7 frames
        lossless = {"kind": "ground-fiber", "source_id": "f", "arm": {"length_km": 0.0}}
        assert load_config({"duration_s": 64.0, "sources": [dict(lossless, emission_rate_hz=2e15)]})
        assert load_config({"traffic": {"qubit_rate_hz": 2**42, "frame_duration_s": 1.0}})

    @pytest.mark.parametrize(
        "rejected, what, accepted",
        [
            # 1e7 frames on 1e5 steps: the document loads, its run does not
            ({"duration_s": 2.0e5}, "expected frame count", {"duration_s": 9.0e4}),
            (
                {"channel_step_s": 1.0e-5, "bin_width_s": 1.0e-5},
                "channel step count",
                {"channel_step_s": 1.25e-4, "bin_width_s": 1.25e-4},
            ),
        ],
    )
    def test_run_size_ceiling(self, start_run, rejected, what, accepted):
        with pytest.raises(ConfigError, match=what):
            start_run(rejected)
        assert start_run(accepted).n_steps <= MAX_RUN_CELLS

    def test_draw_count_ceiling(self, start_run):
        lossless = {"kind": "ground-fiber", "source_id": "f", "arm": {"length_km": 0.0}}
        accepted = {"duration_s": 16.0, "sources": [dict(lossless, emission_rate_hz=2e15)]}
        assert start_run(accepted).duration_s == 16.0
        rejected = dict(accepted, duration_s=64.0)
        with pytest.raises(ConfigError, match=f"expected pair count .* {MAX_RUN_COUNT}"):
            start_run(rejected)
        # the pair ceiling sums over the run's sources
        twins = [
            dict(lossless, emission_rate_hz=2.5e15),
            dict(lossless, source_id="g", emission_rate_hz=2.5e15),
        ]
        with pytest.raises(ConfigError, match="emission_rate_hz"):
            start_run({"duration_s": 16.0, "sources": twins})
        payload = 2**40  # x 30,000 expected frames is about 3.3e16, below 2**56
        assert start_run({"traffic": {"qubit_rate_hz": payload, "frame_duration_s": 1.0}})
        with pytest.raises(ConfigError, match="expected qubit count .*traffic.qubit_rate_hz"):
            start_run({"traffic": {"qubit_rate_hz": 4 * payload, "frame_duration_s": 1.0}})
        # a horizon below one frame gap still draws one payload
        with pytest.raises(ConfigError, match="expected qubit count"):
            start_run(
                {
                    "duration_s": 0.0,
                    "traffic": {"qubit_rate_hz": 2.0 * MAX_RUN_COUNT, "frame_duration_s": 1.0},
                }
            )


class TestLoaderFuzz:
    FUZZ_VALUES = (None, True, -1, 10**400, math.nan, math.inf, 1e308, "", [], {})

    def test_every_path_and_value_loads_or_raises_config_error(self):
        doc = config_to_dict(ScenarioConfig(sources=builtin_sources(), policy=Policy("best-source")))
        paths = list(_paths(doc))
        assert len(paths) > 80
        escaped = []
        for path in paths:
            for value in self.FUZZ_VALUES:
                try:
                    load_config(_with(doc, path, value))
                except ConfigError:
                    pass
                except Exception as exc:  # anything else reaches the user as a traceback
                    escaped.append((path, value, repr(exc)))
        assert escaped == []


class TestReaders:
    def test_a_second_load_resolves_no_type(self, monkeypatch):
        # Each field type's reader is built once, so a load after the first
        # inspects no annotation and asks no type what it is.
        doc = json.loads((ROOT / "configs" / "all_sources.json").read_text())
        for value in vars(scenario).values():  # cold caches: the first load builds the readers
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        calls = []

        def counted(name, function):
            def count(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return count

        for module, name in (
            (typing, "get_args"),
            (typing, "get_origin"),
            (typing, "get_type_hints"),
            (dataclasses, "is_dataclass"),
            (scenario, "is_dataclass"),  # the name scenario imported
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        first = load_config(doc)
        assert {"get_args", "get_origin", "get_type_hints", "is_dataclass"} <= set(calls)
        calls.clear()
        assert load_config(doc) == first
        assert calls == []


class TestRoundTrip:
    def test_shipped_configs_are_canonical(self):
        paths = sorted((ROOT / "configs").glob("*.json"))
        assert len(paths) == 7
        for path in paths:
            assert json.loads(path.read_text()) == json.loads(
                json.dumps(config_to_dict(load_config_file(str(path))))
            ), path.name

    def test_readme_example_loads(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1]
        example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
        config = load_config(json.loads(example))
        assert config.policy == Policy("satellite-only", "Micius")
        assert [s.source_id for s in config.sources] == ["fiber-dark", "Micius"]

    def test_default_round_trips(self):
        config = ScenarioConfig()
        assert load_config(config_to_dict(config)) == config

    def test_full_round_trip(self):
        config = ScenarioConfig(
            sources=builtin_sources(),
            policy=Policy("best-source"),
            memory_capacity=128,
            seed=9,
            duration_s=120.0,
        )
        doc = config_to_dict(config)
        assert load_config(doc) == config
        # and through actual JSON text
        assert load_config(json.loads(json.dumps(doc))) == config

    def test_json_file_and_parse_error_position(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(ScenarioConfig())))
        assert load_config_file(str(path)) == ScenarioConfig()
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1,\n  broken\n}')
        with pytest.raises(ConfigError, match=r"line 2"):
            load_config_file(str(bad))


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def scenario_configs(draw) -> ScenarioConfig:
    step = draw(st.sampled_from([0.3, 2.0, 0.25, 1.1]))
    sources = [
        fiber_source(
            "fiber",
            draw(st.floats(0.0, 1.0, **finite)),
            draw(st.floats(0.0, 200.0, **finite)),
            draw(st.floats(1.0, 1.0e9, **finite)),
        )
    ]
    names = draw(st.lists(st.sampled_from(["Micius", "Starlink-2007", "Iridium-126"]), unique=True))
    for name in names:
        link_params = FreeSpaceLinkParams(
            min_elevation_deg=draw(st.floats(0.0, 89.0, exclude_min=True, **finite))
        )
        peak_time_s = draw(st.floats(-1.0e4, 1.0e4, **finite))
        sources.append(
            dataclasses.replace(satellite_source(name, peak_time_s), link_params=link_params)
        )
    policy = draw(
        st.sampled_from(
            [Policy(kind) for kind in ("fiber-only", "best-source", "all-sources")]
            + [Policy("satellite-only", name) for name in names]
        )
    )
    return ScenarioConfig(
        sources=tuple(sources),
        policy=policy,
        traffic=TrafficConfig(mean_interarrival_s=draw(st.floats(0.001, 10.0, **finite))),
        ingress_access=FiberLink(draw(st.floats(0.0, 100.0, **finite)), 0.2),
        egress_access=FiberLink(7.5, draw(st.floats(0.0, 1.0, **finite))),
        memory_capacity=draw(st.one_of(st.none(), st.integers(1, 5))),
        p_teleport_success=draw(st.floats(0.0, 1.0, **finite)),
        duration_s=draw(st.floats(0.0, 600.0, **finite)),
        bin_width_s=step * draw(st.integers(1, 4)),
        channel_step_s=step,
        classical_distance_km=draw(st.floats(0.1, 1000.0, **finite)),
        seed=draw(st.integers(0, 2**63)),
    )


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=scenario_configs())
    def test_load_inverts_config_to_dict(self, config):
        doc = config_to_dict(config)
        assert load_config(doc) == config
        assert load_config(json.loads(json.dumps(doc))) == config


def decide(policy: Policy, t_s: float, sources) -> tuple[tuple[str, ...], dict[str, float]]:
    """Sorted active ids and every source's probability at one instant."""
    p = coincidence_matrix(sources, np.array([t_s]))
    mask = active_sources(policy, sources, p)
    active = tuple(sorted(s.source_id for s, on in zip(sources, mask[0]) if on))
    return active, {s.source_id: float(p[0, j]) for j, s in enumerate(sources)}


def policies(sources) -> list[Policy]:
    return [Policy(kind) for kind in ("fiber-only", "best-source", "all-sources")] + [
        Policy("satellite-only", s.source_id) for s in sources if s.kind == "satellite-pass"
    ]


def assert_matches_reference(sources, times: np.ndarray) -> None:
    """The matrix equals the scalar probabilities, and every policy's mask the
    per-step reference selection, at every step."""
    p = coincidence_matrix(sources, times)
    assert p.shape == (len(times), len(sources))
    masks = {policy: active_sources(policy, sources, p) for policy in policies(sources)}
    for k, t in enumerate(times.tolist()):
        probabilities = {s.source_id: _reference.coincidence_probability(s, t) for s in sources}
        assert p[k].tolist() == list(probabilities.values())
        for policy, mask in masks.items():
            active = tuple(sorted(s.source_id for s, on in zip(sources, mask[k]) if on))
            assert active == _reference.select_sources(policy, sources, probabilities), (policy, t)


class TestSelectSources:
    def test_fiber_only(self):
        sources = (fiber_source(), satellite_source("Micius"))
        assert decide(Policy("fiber-only"), 128.0, sources)[0] == ("fiber-standard",)

    def test_best_source_at_micius_peak(self):
        sources = (fiber_source("fiber-dark", DARK_FIBER_DB_PER_KM), satellite_source("Micius"))
        active, probs = decide(Policy("best-source"), 128.0, sources)
        assert active == ("Micius",)
        assert probs["Micius"] > probs["fiber-dark"]

    def test_best_source_without_visible_satellite(self):
        sources = (fiber_source("fiber-dark", DARK_FIBER_DB_PER_KM), satellite_source("Micius"))
        assert decide(Policy("best-source"), 5000.0, sources)[0] == ("fiber-dark",)

    def test_best_source_empty_when_nothing_available(self):
        sources = (satellite_source("Micius"),)
        assert decide(Policy("best-source"), 5000.0, sources)[0] == ()

    def test_satellite_only_invisible_is_empty(self):
        sources = (satellite_source("Micius"),)
        assert decide(Policy("satellite-only", "Micius"), 5000.0, sources)[0] == ()

    def test_all_sources_excludes_zero_probability(self):
        sources = (fiber_source(), fiber_source("fiber-dark", DARK_FIBER_DB_PER_KM), satellite_source("Micius"))
        at_peak = decide(Policy("all-sources"), 128.0, sources)[0]
        assert at_peak == ("Micius", "fiber-dark", "fiber-standard")
        later = decide(Policy("all-sources"), 5000.0, sources)[0]
        assert later == ("fiber-dark", "fiber-standard")

    def test_lexicographic_tie_break(self):
        twin_a = fiber_source("alpha")
        twin_b = fiber_source("beta")
        assert decide(Policy("best-source"), 0.0, (twin_b, twin_a))[0] == ("alpha",)
        assert_matches_reference((twin_b, twin_a), np.arange(4) * 0.25)

    def test_best_source_probability_dominates(self):
        sources = builtin_sources()
        for t in np.linspace(0.0, 599.0, 41):
            active, probs = decide(Policy("best-source"), float(t), sources)
            if not active:
                continue
            assert probs[active[0]] >= max(probs.values()) - 1e-15

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(peaks=st.lists(st.floats(-300.0, 900.0, **finite), min_size=3, max_size=3))
    def test_matches_reference_at_every_step(self, peaks):
        sources = builtin_sources()[:2] + tuple(
            satellite_source(name, peak_time_s=peak)
            for name, peak in zip(("Micius", "Starlink-2007", "Iridium-126"), peaks)
        )
        assert_matches_reference(sources, np.arange(2400) * 0.25)

    def test_no_sources_or_no_steps(self):
        for policy in policies(builtin_sources()):
            assert active_sources(policy, (), np.zeros((7, 0))).shape == (7, 0)
            p = coincidence_matrix(builtin_sources(), np.zeros(0))
            assert active_sources(policy, builtin_sources(), p).shape == (0, 5)
        assert_matches_reference((), np.arange(4) * 0.25)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=st.lists(st.sampled_from([0.0, 5e-324, 1e-9, 0.03, 1.0]), min_size=1, max_size=40))
    def test_lone_source_policies_keep_all_sources_mask(self, p):
        # ``sweep`` runs each source alone under all-sources: the policy of
        # its kind keeps the same steps, exactly those with p > 0.
        column = np.array(p)[:, None]
        for source in builtin_sources():
            if source.kind == "ground-fiber":
                own = Policy("fiber-only")
            else:
                own = Policy("satellite-only", source.source_id)
            mask = active_sources(own, (source,), column)
            assert np.array_equal(mask, active_sources(Policy("all-sources"), (source,), column))
            assert np.array_equal(mask, column > 0.0)


class TestPolicyMonotonicity:
    def test_more_sources_deliver_more(self):
        # 60 s window around the Micius peak, dark fiber as the floor
        base = dataclasses.replace(
            ScenarioConfig(),
            duration_s=60.0,
            sources=(fiber_source("fiber-dark", DARK_FIBER_DB_PER_KM), satellite_source("Micius", peak_time_s=30.0)),
        )
        totals = {"fiber-only": [], "best-source": [], "all-sources": []}
        for kind in totals:
            for seed in range(30):
                config = dataclasses.replace(base, policy=Policy(kind), seed=seed)
                totals[kind].append(run(config).totals.qubits_delivered)
        fiber = np.mean(totals["fiber-only"])
        best = np.mean(totals["best-source"])
        union = np.mean(totals["all-sources"])
        assert best > fiber
        assert union > best


class TestSeedEnv:
    def test_unset_returns_none(self, monkeypatch):
        monkeypatch.delenv("QBACKBONE_SEED", raising=False)
        assert seed_from_env() is None

    def test_set_value(self, monkeypatch):
        monkeypatch.setenv("QBACKBONE_SEED", "31")
        assert seed_from_env() == 31

    def test_invalid_value(self, monkeypatch):
        monkeypatch.setenv("QBACKBONE_SEED", "soon")
        with pytest.raises(ConfigError):
            seed_from_env()
