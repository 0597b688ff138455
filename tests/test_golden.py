"""Golden output bytes: sha256 of the CSVs the CLI writes for fixed inputs.

Every shipped config runs under ``simulate`` for seeds {0, 1} and memory
{unlimited, 1, 20}; memory is applied to a ``config_to_dict`` copy of the
shipped document.  One ``sweep`` of the dark-fiber config over memory
1, 20 and unlimited is hashed as well.  A refactor that keeps these
hashes keeps the simulator's outputs byte for byte.

The hashes depend on the streams of numpy's ``Generator`` (PCG64 and its
Poisson, binomial and exponential samplers), so they hold for the numpy
version CI pins.  A change that alters random-number consumption on
purpose regenerates them and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from qbackbone.cli import main
from qbackbone.scenario import config_to_dict, load_config_file

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
SIMULATE_FILES = ("timeseries.csv", "frames.csv", "summary.csv")

# (config stem, seed, memory) -> sha256 over the three simulate CSVs.
GOLDEN_SIMULATE = {
    ("all_sources", 0, None): "577c64349165083059a5415a0b89ef54bd740611b7d2320b3bf06ce03bb54680",
    ("all_sources", 0, 1): "88bcc2ef41477f83c7bce4fea42458fff1c70d8e9d2e4b57d620696b73b5c899",
    ("all_sources", 0, 20): "8b6790436eb47a712f571e45efe4a398f6a4ae3702fb557d2fbc1d5d45848874",
    ("all_sources", 1, None): "063ed8d4bcb1f36e65c1e751201c6072a152a2d1dec981f44576d89a76e3e11e",
    ("all_sources", 1, 1): "9ca074a6dab54086baa3f9496629238dd959e72282d2776de897d020d605c8e3",
    ("all_sources", 1, 20): "4d8d397e4c71684189bcc19242de4de18c6f702f85eacb60ab77dc38358df3ef",
    ("best_source", 0, None): "2d95c76ea8762b085054c8c896116ac6fa9dbe87473b1c3b7fd8a0c56651edca",
    ("best_source", 0, 1): "298de9facdab547637abe941b6a8cebde0ffc8d930ad45015d1080d71a487127",
    ("best_source", 0, 20): "0047cb580d812c07c98cb4c8828180f21b7a47ecb87bb5e751e36d01b9e212a1",
    ("best_source", 1, None): "5ffdf4ba1d8ac1536c848c85f5f27f7c6605b0100241bb6d3ec37e567084434f",
    ("best_source", 1, 1): "c2e72bc075065adc83c6bda3e85de2e9f9b3159972a3e3fc1fbe616b50521689",
    ("best_source", 1, 20): "35488cf847c79f81be72f9e8ea690ca114da24521a212caf7e84e023b8eb939e",
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
    ("iridium", 0, None): "f827fe089db35093203801c347c73c913119338fb31a6447c6d40e26c04e1659",
    ("iridium", 0, 1): "d996e09af33bf426e48c244d41c77f585b84808de692f62bc0590dc31eb9b64d",
    ("iridium", 0, 20): "4293b13051e1321978fbb10057c3f9fea11a842c4f955c83e50dc0865be7f15c",
    ("iridium", 1, None): "34d9237735558863bbe9999d47c98ddf5af4a38ec5bbcde8a7525bd07771a6c5",
    ("iridium", 1, 1): "5d9197acd1c6578fd735e6d999b28e64ceca5e0bc66c21f76b110c66fbb93bd6",
    ("iridium", 1, 20): "14a701a6af050e84d21ee94dea428895c4eec73e735db57563778e281d0617e5",
    ("micius", 0, None): "02a56ecf9d564beff66c3897b7fd329a43888e4f6643de0429a9d5ea7a1cf50c",
    ("micius", 0, 1): "4381010e7f3332c3de6e0a8aad57daad4dfcfd397adcd08dc3d8cc656eb9bbda",
    ("micius", 0, 20): "5d284ffaf06e8c80db6ff9e15f4654e10abe1549167a2512cab0e4e29a7465b8",
    ("micius", 1, None): "85979c2dd3bb5275fa103e319991763e3ad86902625fa5c86e2e1de37a3518d0",
    ("micius", 1, 1): "46f04adbed46bf612f6e8197354c7b20347675e084713f21086a5f5ebfb3b261",
    ("micius", 1, 20): "51762c73da49214ef61c83ecf70d5f583958f3de37e8e287803efd880194e6e6",
    ("starlink", 0, None): "cdc25f8f15e7195ea8fd310e6945d0f5bfd80d3628990cb8613807d46e652a0f",
    ("starlink", 0, 1): "4586e5008183b5a5e9d63826cbe6e58092dc36db96345dcebb8a6e52c2f55f33",
    ("starlink", 0, 20): "8a97e022841aebbb23321e7c4decf553431525fab95a146660112a198d3bd265",
    ("starlink", 1, None): "3a8ea383bb69ef5977238f8f6ba9305d45616763e8912f2b67c1ad5cf8096bb5",
    ("starlink", 1, 1): "fea87fae55af8852062c79750dbd9cc13fb1ffcf5aeca1e9e9010d51b85a736b",
    ("starlink", 1, 20): "fb9f8c50b9d5553f59020d41d88e6c25fb5f66fe62f76ec8b54a5897c8f1e33f",
}
GOLDEN_SWEEP = "89c118b1469fa66f4875dcf1be6d2d49e2e6e781dbc14a889879b4fde6d1c2e7"


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _config_with_memory(tmp_path: Path, stem: str, memory: int | None) -> str:
    doc = config_to_dict(load_config_file(str(CONFIGS_DIR / f"{stem}.json")))
    doc["memory_capacity"] = memory
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def simulate_digest(tmp_path: Path, stem: str, seed: int, memory: int | None) -> str:
    config = _config_with_memory(tmp_path, stem, memory)
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out), "--seed", str(seed)]) == 0
    return _digest(out / name for name in SIMULATE_FILES)


def sweep_digest(tmp_path: Path) -> str:
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep",
        "--config",
        str(CONFIGS_DIR / "dark_fiber.json"),
        "--out",
        str(out),
        "--seed",
        "0",
        "--memory",
        "1,20,unlimited",
    ]
    assert main(argv) == 0
    return _digest([out])


@pytest.mark.parametrize(
    "stem,seed,memory",
    sorted(GOLDEN_SIMULATE, key=lambda key: (key[0], key[1], key[2] is None, key[2] or 0)),
)
def test_simulate_bytes(tmp_path, stem, seed, memory):
    assert simulate_digest(tmp_path, stem, seed, memory) == GOLDEN_SIMULATE[(stem, seed, memory)]


def test_golden_covers_every_shipped_config():
    stems = {path.stem for path in CONFIGS_DIR.glob("*.json")}
    assert set(GOLDEN_SIMULATE) == {
        (stem, seed, memory)
        for stem in stems
        for seed in (0, 1)
        for memory in (None, 1, 20)
    }


def test_sweep_bytes(tmp_path):
    assert sweep_digest(tmp_path) == GOLDEN_SWEEP
