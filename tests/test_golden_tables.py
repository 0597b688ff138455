"""Golden output bytes of the ``passes`` and ``linkbudget`` tables.

Every shipped config runs under ``passes`` as shipped, with each
satellite's elevation mask at 20°, and on a copy with each mask set to
10°, and under ``linkbudget`` for each of its sources; the sha256 of
each command's stdout is pinned.  Neither table draws random numbers,
so the hashes depend only on the pass geometry, the link budget and the
CSV formatting.  A change to the config loader or the document schema
that keeps these hashes leaves both tables byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from qbackbone.cli import main
from qbackbone.scenario import load_config_file

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_MASK_DEG = "20"
MASKS_DEG = (SHIPPED_MASK_DEG, "10")

# (config stem, command, mask in degrees or source id) -> sha256 of stdout.
GOLDEN_TABLES = {
    ("all_sources", "linkbudget", "Iridium-126"): "d6ffb5402eb8aa57291d4921798ff9777a4dd725c6954a591bb5dbd8f2284f01",
    ("all_sources", "linkbudget", "Micius"): "4c5c8b88aa697b1362bf83f16e00b8780dd1c8c80385a7b3c51181c5def0dc60",
    ("all_sources", "linkbudget", "Starlink-2007"): "55ae324086df864b06a51601a866955a77e9660ee92b4169d33958f6c59b90e1",
    ("all_sources", "linkbudget", "fiber-dark"): "4638f227b28c1f056fcec180f6808c79c67dbb30b9328bff938f9d87058c85ca",
    ("all_sources", "linkbudget", "fiber-standard"): "64b096f95fe9ed835c9a61e987be667efaab4b7b29c6b1f2392f79f502912a86",
    ("all_sources", "passes", "10"): "b006042ac5e055ff7e2c15817082c93889d49447ec9092f167e57c19c673b007",
    ("all_sources", "passes", "20"): "242f9e1d4186755b071ed5971065071dea68f7020bed64cf474e489413d9a093",
    ("best_source", "linkbudget", "Iridium-126"): "d6ffb5402eb8aa57291d4921798ff9777a4dd725c6954a591bb5dbd8f2284f01",
    ("best_source", "linkbudget", "Micius"): "4c5c8b88aa697b1362bf83f16e00b8780dd1c8c80385a7b3c51181c5def0dc60",
    ("best_source", "linkbudget", "Starlink-2007"): "55ae324086df864b06a51601a866955a77e9660ee92b4169d33958f6c59b90e1",
    ("best_source", "linkbudget", "fiber-dark"): "4638f227b28c1f056fcec180f6808c79c67dbb30b9328bff938f9d87058c85ca",
    ("best_source", "linkbudget", "fiber-standard"): "64b096f95fe9ed835c9a61e987be667efaab4b7b29c6b1f2392f79f502912a86",
    ("best_source", "passes", "10"): "b006042ac5e055ff7e2c15817082c93889d49447ec9092f167e57c19c673b007",
    ("best_source", "passes", "20"): "242f9e1d4186755b071ed5971065071dea68f7020bed64cf474e489413d9a093",
    ("dark_fiber", "linkbudget", "fiber-dark"): "4638f227b28c1f056fcec180f6808c79c67dbb30b9328bff938f9d87058c85ca",
    ("dark_fiber", "passes", "10"): "4700079822cfb30fd57fec8b3eedde667fe2e9214c99299c66ab0395f4e38c7a",
    ("dark_fiber", "passes", "20"): "4700079822cfb30fd57fec8b3eedde667fe2e9214c99299c66ab0395f4e38c7a",
    ("default", "linkbudget", "fiber-standard"): "64b096f95fe9ed835c9a61e987be667efaab4b7b29c6b1f2392f79f502912a86",
    ("default", "passes", "10"): "4700079822cfb30fd57fec8b3eedde667fe2e9214c99299c66ab0395f4e38c7a",
    ("default", "passes", "20"): "4700079822cfb30fd57fec8b3eedde667fe2e9214c99299c66ab0395f4e38c7a",
    ("iridium", "linkbudget", "Iridium-126"): "d6ffb5402eb8aa57291d4921798ff9777a4dd725c6954a591bb5dbd8f2284f01",
    ("iridium", "passes", "10"): "bf89d2ba92e4f495059c6767e22f68ed2e4e4f16891bbcf1de2b74805a5dd9dd",
    ("iridium", "passes", "20"): "6913289f70d97157254124922d271476e3c3505bd96afa92b3f2c202e5dc22c3",
    ("micius", "linkbudget", "Micius"): "4c5c8b88aa697b1362bf83f16e00b8780dd1c8c80385a7b3c51181c5def0dc60",
    ("micius", "passes", "10"): "347aeccfbc948a57421a65ce696185b0cb3f8dedd6d2e2e1ca9e10e81ed194df",
    ("micius", "passes", "20"): "0d082e9025c091e26187b6c3bee23481489355cb9aef62b212aa140d17dccb6d",
    ("starlink", "linkbudget", "Starlink-2007"): "55ae324086df864b06a51601a866955a77e9660ee92b4169d33958f6c59b90e1",
    ("starlink", "passes", "10"): "740a1dbd55481faccea328ca6d48e0cc5af0060852daea69aa64bf93235b0834",
    ("starlink", "passes", "20"): "2a8888092693ecc326f52bda5957254147e4286d80fbdb80a96d5eab818c2618",
}


def table_digest(capsys, tmp_path, stem: str, command: str, arg: str) -> str:
    config = CONFIGS_DIR / f"{stem}.json"
    if command == "linkbudget":
        argv = ["linkbudget", "--config", str(config), "--source", arg]
    else:
        if arg != SHIPPED_MASK_DEG:
            doc = json.loads(config.read_text(encoding="utf-8"))
            for source in doc["sources"]:
                if source["kind"] == "satellite-pass":
                    source["link_params"]["min_elevation_deg"] = float(arg)
            config = tmp_path / f"{stem}-mask-{arg}.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["passes", "--config", str(config)]
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("stem,command,arg", sorted(GOLDEN_TABLES))
def test_table_bytes(capsys, tmp_path, stem, command, arg):
    digest = table_digest(capsys, tmp_path, stem, command, arg)
    assert digest == GOLDEN_TABLES[(stem, command, arg)]


def test_golden_tables_cover_every_shipped_config_and_source():
    expected = set()
    for path in CONFIGS_DIR.glob("*.json"):
        expected |= {(path.stem, "passes", mask) for mask in MASKS_DEG}
        expected |= {
            (path.stem, "linkbudget", source.source_id)
            for source in load_config_file(str(path)).sources
        }
    assert set(GOLDEN_TABLES) == expected


@pytest.mark.parametrize("command,arg", [("passes", "20"), ("linkbudget", "Micius")])
def test_tables_ignore_the_seed_environment(monkeypatch, capsys, tmp_path, command, arg):
    # Neither table depends on the seed, so an unusable seed cannot stop them.
    monkeypatch.setenv("QBACKBONE_SEED", "abc")
    digest = table_digest(capsys, tmp_path, "micius", command, arg)
    assert digest == GOLDEN_TABLES[("micius", command, arg)]
