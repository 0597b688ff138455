"""Golden output bytes: sha256 of the CSVs the CLI writes for fixed inputs.

Every shipped config runs under ``simulate`` for seeds {0, 1} and memory
{unlimited, 1, 20}; memory is applied to a ``config_to_dict`` copy of the
shipped document.  The ``sweep`` of the dark-fiber config and of the
all-sources config over memory 1, 20 and unlimited is hashed as well,
and so are the sweep modes those leave out: each ``--policy`` over all
sources, and repeated, unsorted sizes with two seeds per point.  A
5-qubit payload pins the memory walk's Blelloch scan, which the shipped
payloads never reach.  A refactor that keeps these hashes keeps the
simulator's outputs byte for byte.

The hashes depend on the streams of numpy's ``Generator`` (PCG64 and its
Poisson, binomial and exponential samplers), so they hold for the numpy
version CI pins.  A change that alters random-number consumption on
purpose regenerates them and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from qbackbone import engine, ryu
from qbackbone.cli import main
from qbackbone.scenario import config_to_dict, load_config_file

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
SIMULATE_FILES = ("timeseries.csv", "frames.csv", "summary.csv")

# (config stem, seed, memory) -> sha256 over the three simulate CSVs.
GOLDEN_SIMULATE = {
    ("all_sources", 0, None): "060d9d74486e59cd66763ab9a02764d1c1d556dbadc948aeeb751e48fcf4b012",
    ("all_sources", 0, 1): "100900b377178d70e6f4ec34745186490861644d31994aab6943c0adb3021024",
    ("all_sources", 0, 20): "7f247582f9cbcd6214df4e2152b6def851786ef5096ce9976b05d130291d3218",
    ("all_sources", 1, None): "2c1854ec4b52dd60e7c8cb6f35a82a256d1bf53463893e3f47a4b6bf6dae09f3",
    ("all_sources", 1, 1): "85d3e7ac52245f9ad9cfd224f03e20301fc11530f06534babe30966b6ee28c06",
    ("all_sources", 1, 20): "a553f8b77b6d4ee6f6c1deb9e565a352469681b9bf4e9a707d5928b3e061ffd7",
    ("best_source", 0, None): "6ebefa23fb60125852218246a72843560c5461ca70b0cc05f09264623f23cef9",
    ("best_source", 0, 1): "b26c94827eb7c3be5a419c71f9faca080df10f7dd65fbd6dd88a0908a159cdf6",
    ("best_source", 0, 20): "1f4c57516ab4d29427c199cdc1de3952eac833cd027b2f62303a1892fcce896e",
    ("best_source", 1, None): "b12e34b046a3b129e2c43943e3131f7c8798cc3c902a5f8349138cf4e0d1a3f6",
    ("best_source", 1, 1): "56c93d0b6a4074fa7f4fa2c1b7172808d37da65cee74013a3e74af70407b9049",
    ("best_source", 1, 20): "162e3684e441439c9330ae1c2679be89983eb0f0ea189fe6f56f57350a830aad",
    ("dark_fiber", 0, None): "77d573671e656df4c3b77cb38d501112f5f14f93a6b14b04b3b9d01956d71358",
    ("dark_fiber", 0, 1): "8a64380992c85179c2dcff824c4e3779ae3c9b9cae0588620a4c764a538d0619",
    ("dark_fiber", 0, 20): "4f39064e05d3077c19b0b77d708c200197d516522ba806c6dffd048c701d93d8",
    ("dark_fiber", 1, None): "8006397285980fa7099ac54f100f54763db280b3b511ea4c26b911aa11931018",
    ("dark_fiber", 1, 1): "c95845d2953c1cfd624552e5cb7c35b4845439714c508013fb9acad5a00ac2ef",
    ("dark_fiber", 1, 20): "b7a9c83a8952c78225fab11e7cb0c7786a33132008040e453c55a35d9da611af",
    ("default", 0, None): "626e720100572d591996c0f12d6c36c106a6ef8fed3dd069ca5befcbcdcd0e3e",
    ("default", 0, 1): "e590ff15a848b442dac1064cae7b982f09902c2419190e7bb48a5cc3365b7d7b",
    ("default", 0, 20): "aa9859d964ab6f3b81323b1ee4ba516f944fc1a4697400ac75c81ea573ab3bd3",
    ("default", 1, None): "52688fb138f96620e43ca7ba787f2dcbc30ff945c19eb3ec989ec7575bf32615",
    ("default", 1, 1): "86bd43f86aebe3602b239428e888ce9f25160fa9196740e1a3aeb0a7b4892805",
    ("default", 1, 20): "ea0f3dcb7bfe7623a421b52ff98ac4801565f8b4b922179df1e38056ac5e0279",
    ("iridium", 0, None): "280cc9d84e2cee1a47fb106347860d593b89a6b406fdd199c360ffa920de6c39",
    ("iridium", 0, 1): "a13d72fdf77a8c81112b0306e74945d535066286a2f492d2d1009d12ee6caf8e",
    ("iridium", 0, 20): "cf8efbc18bb75548266118df7150857a974e20d335e18da8b40c18f2e620991a",
    ("iridium", 1, None): "817f4a092b3a12fbcc998adce256a89262cedb1e2f028c11efa1b403abf0845f",
    ("iridium", 1, 1): "81c0ebdea2dca92d46b1a4bd82bd95fe1a23b00a232c6936a242985d683595b9",
    ("iridium", 1, 20): "cdc543cb2daa47baec25c392601311522bff71f8a5380f6f0f0296ce200b75ec",
    ("micius", 0, None): "02a56ecf9d564beff66c3897b7fd329a43888e4f6643de0429a9d5ea7a1cf50c",
    ("micius", 0, 1): "4381010e7f3332c3de6e0a8aad57daad4dfcfd397adcd08dc3d8cc656eb9bbda",
    ("micius", 0, 20): "5d284ffaf06e8c80db6ff9e15f4654e10abe1549167a2512cab0e4e29a7465b8",
    ("micius", 1, None): "85979c2dd3bb5275fa103e319991763e3ad86902625fa5c86e2e1de37a3518d0",
    ("micius", 1, 1): "46f04adbed46bf612f6e8197354c7b20347675e084713f21086a5f5ebfb3b261",
    ("micius", 1, 20): "51762c73da49214ef61c83ecf70d5f583958f3de37e8e287803efd880194e6e6",
    ("starlink", 0, None): "80660cee29ca47f8e3b8970b31ad9d78a6c1cfe5dfdf70291b4e29ff1c5f4427",
    ("starlink", 0, 1): "5978e19f663036e40f55148dd4a7a0bb91fdc8a2198d5e8a6a3b50ca7052771b",
    ("starlink", 0, 20): "b2fd3dc93f7d00d7dabaacaf2d5c84598bc73f56031ea4585b095dd1505329b2",
    ("starlink", 1, None): "ae05c6a426231cabe403bb804823e5a6414d7e2596aa23c1791a4130bac79e8a",
    ("starlink", 1, 1): "ef4d12b37da95995ad755cf03bb9b0271ec3b6907bd15184ea7d0e16bb462eac",
    ("starlink", 1, 20): "4b151cb0a9d2c8f4a24ca5c61d5c2fbab446b84228199090da5cddbd5230ae65",
}
# Runs on 0.3 s steps and 0.9 s bins, neither exact in binary, so bin
# starts such as 0.8999999999999999 reach timeseries.csv: (config stem,
# memory) -> sha256 over the three simulate CSVs at seed 0.  Kept apart
# from GOLDEN_SIMULATE, which holds the shipped configs as they ship.
NON_DYADIC = {"channel_step_s": 0.3, "bin_width_s": 0.9}
GOLDEN_SIMULATE_NON_DYADIC = {
    ("micius", 20): "4d093d2e1c2439aa831abf92b1df27f7e03435b9dee7b331bcbdc3b3c21f86ba",
    ("best_source", None): "42eff3ea69ba96e6d6533be15d3ac9cb778ba73ee00957063165be234cbd16b6",
}
GOLDEN_SWEEP = "89c118b1469fa66f4875dcf1be6d2d49e2e6e781dbc14a889879b4fde6d1c2e7"
# The same sweep of all_sources.json, which runs each fiber and satellite source alone.
GOLDEN_SWEEP_ALL_SOURCES = "c9c337532debbbe3f36d513c4b0d16708e45e0c95a03e1d1357990dcc332a9e0"
# all_sources.json swept over memory 1, 20 and unlimited under each policy
# that runs the full source list: --policy -> sha256 of sweep.csv.
GOLDEN_SWEEP_POLICY = {
    "all-sources": "20cd64c40e2de463aba28c3f48177b237e4a7ad8a60f82fa6918b9c895c959e7",
    "best-source": "7d8d0a793c3fbd433b6e186734978572207c34bf2252774aa45cc45c4fce53b2",
}
# dark_fiber.json swept over repeated, unsorted sizes with two seeds per point.
REPEATED_SIZES = ("--memory", "20,1,unlimited,20,5", "--seeds-per-point", "2")
GOLDEN_SWEEP_REPEATED_SIZES = "8ff3560d6f19e8196dde85603abd42b19c10808fe631e3ab6e6887569421abfc"
# Dark fiber on a 60 s horizon with a 5-qubit payload: about 16 pairs
# arrive per frame gap and a frame takes at most 5, so every bounded memory
# fills and the walk leaves its closed form for the Blelloch scan
# (engine._occupancy).  Memory -> sha256 over the three simulate CSVs at
# seed 0, and the sha256 of the sweep over memory 1, 5, 20 and unlimited.
SMALL_PAYLOAD_QUBIT_RATE_HZ = 5e4
GOLDEN_SIMULATE_SMALL_PAYLOAD = {
    1: "f55faed8da18d2cf552d4b94dab0b3dfa1f5b5857b11da6ca52b84dffcb6cbf8",
    5: "051a52c0c6e132361bf60c5ae0f2ce449cf5aa3c5f9ea213c6e09633c505caca",
    20: "a8c9f3ab2d23299f1da908690ac50f546168caaddae1d137b6ad83c686b900bd",
}
GOLDEN_SWEEP_SMALL_PAYLOAD = "1dbbbdf6e9f43f76ae724684d93116fe20100396a1ed6f2317ebfcf080a1d1eb"


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _config_with_memory(tmp_path: Path, stem: str, memory: int | None, **fields) -> str:
    doc = config_to_dict(load_config_file(str(CONFIGS_DIR / f"{stem}.json")))
    doc.update(fields, memory_capacity=memory)
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _small_payload_config(tmp_path: Path, memory: int | None) -> str:
    doc = config_to_dict(load_config_file(str(CONFIGS_DIR / "dark_fiber.json")))
    doc["traffic"]["qubit_rate_hz"] = SMALL_PAYLOAD_QUBIT_RATE_HZ
    doc.update(duration_s=60.0, memory_capacity=memory)
    path = tmp_path / "small_payload.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _simulate(tmp_path: Path, config: str, seed: int) -> str:
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out), "--seed", str(seed)]) == 0
    return _digest(out / name for name in SIMULATE_FILES)


def simulate_digest(tmp_path: Path, stem: str, seed: int, memory: int | None, **fields) -> str:
    return _simulate(tmp_path, _config_with_memory(tmp_path, stem, memory, **fields), seed)


def sweep_digest(tmp_path: Path, config: str, *options: str) -> str:
    """sha256 of ``sweep`` at seed 0, over memory 1, 20 and unlimited unless
    ``options`` give ``--memory``."""
    out = tmp_path / "sweep.csv"
    if "--memory" not in options:
        options = ("--memory", "1,20,unlimited", *options)
    assert main(["sweep", "--config", config, "--out", str(out), "--seed", "0", *options]) == 0
    return _digest([out])


def shipped(stem: str) -> str:
    return str(CONFIGS_DIR / f"{stem}.json")


@contextlib.contextmanager
def walks_and_scans():
    """Collects ``(capacity, scanned)`` for each memory walk run inside the
    block: the walk's capacity (None when unlimited) and
    whether it ran the Blelloch scan."""
    walks = []
    walk = engine._walk
    with mock.patch.object(engine, "_occupancy", wraps=engine._occupancy) as scan:

        def counted(*args):
            before = scan.call_count
            result = walk(*args)
            walks.append((args[-1], scan.call_count > before))
            return result

        with mock.patch.object(engine, "_walk", counted):
            yield walks


@pytest.mark.parametrize(
    "stem,seed,memory",
    sorted(GOLDEN_SIMULATE, key=lambda key: (key[0], key[1], key[2] is None, key[2] or 0)),
)
def test_simulate_bytes(tmp_path, monkeypatch, stem, seed, memory):
    # Every time cell of the shipped configs is in the Ryu kernel's range:
    # a value that took ryu's repr fallback would raise here.
    def no_repr(value):
        raise AssertionError(f"frames.csv time {value!r} is outside the Ryu kernel's range")

    monkeypatch.setattr(ryu, "repr", no_repr, raising=False)
    assert simulate_digest(tmp_path, stem, seed, memory) == GOLDEN_SIMULATE[(stem, seed, memory)]


@pytest.mark.parametrize("stem,memory", sorted(GOLDEN_SIMULATE_NON_DYADIC, key=str))
def test_simulate_bytes_on_non_dyadic_steps(tmp_path, stem, memory):
    digest = simulate_digest(tmp_path, stem, 0, memory, **NON_DYADIC)
    assert digest == GOLDEN_SIMULATE_NON_DYADIC[(stem, memory)]


def test_golden_covers_every_shipped_config():
    stems = {path.stem for path in CONFIGS_DIR.glob("*.json")}
    assert set(GOLDEN_SIMULATE) == {
        (stem, seed, memory)
        for stem in stems
        for seed in (0, 1)
        for memory in (None, 1, 20)
    }


def test_sweep_bytes(tmp_path):
    assert sweep_digest(tmp_path, shipped("dark_fiber")) == GOLDEN_SWEEP


def test_sweep_bytes_over_satellites(tmp_path):
    assert sweep_digest(tmp_path, shipped("all_sources")) == GOLDEN_SWEEP_ALL_SOURCES


@pytest.mark.parametrize("policy", sorted(GOLDEN_SWEEP_POLICY))
def test_sweep_bytes_under_a_policy(tmp_path, policy):
    digest = sweep_digest(tmp_path, shipped("all_sources"), "--policy", policy)
    assert digest == GOLDEN_SWEEP_POLICY[policy]


def test_sweep_bytes_over_repeated_unsorted_sizes(tmp_path):
    assert sweep_digest(tmp_path, shipped("dark_fiber"), *REPEATED_SIZES) == GOLDEN_SWEEP_REPEATED_SIZES


@pytest.mark.parametrize("memory", sorted(GOLDEN_SIMULATE_SMALL_PAYLOAD))
def test_simulate_bytes_through_the_blelloch_scan(tmp_path, memory):
    config = _small_payload_config(tmp_path, memory)
    with walks_and_scans() as walks:
        digest = _simulate(tmp_path, config, 0)
    assert walks == [(memory, True)]
    assert digest == GOLDEN_SIMULATE_SMALL_PAYLOAD[memory]


def test_sweep_bytes_through_the_blelloch_scan(tmp_path):
    config = _small_payload_config(tmp_path, None)
    with walks_and_scans() as walks:
        digest = sweep_digest(tmp_path, config, "--memory", "1,5,20,unlimited")
    assert walks == [(1, True), (5, True), (20, True), (None, False)]
    assert digest == GOLDEN_SWEEP_SMALL_PAYLOAD
