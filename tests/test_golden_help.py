"""Golden help and usage bytes: sha256 of what ``main`` prints for them.

The top-level ``--help``, each command's ``--help`` and seven usage
errors are hashed at 80 and 200 columns (argparse wraps its text to
``COLUMNS``).  A refactor of the command line that keeps these hashes
keeps every help, usage and error byte.

The text is CPython's argparse output, so the hashes hold for the Python
version CI pins (3.11), just as the CSV hashes hold for its numpy.
"""

from __future__ import annotations

import hashlib

import pytest

from qbackbone.cli import COMMANDS, main

HELP_ARGVS = {"help": ["--help"], **{f"{command}-help": [command, "--help"] for command in COMMANDS}}
# The argvs of tests/test_cli.py::TestSimulate::test_usage_error_exits_1,
# and an unknown command followed by options.
USAGE_ERROR_ARGVS = {
    "missing-out": ["simulate"],
    "bad-int": ["sweep", "--out", "s.csv", "--memory", "1", "--seeds-per-point", "abc"],
    "extra-argument": ["passes", "extra"],
    "missing-source": ["linkbudget", "--config", "c.json"],
    "unknown-command": ["teleport"],
    "no-command": [],
    "unknown-command-with-options": ["teleport", "--out", "o"],
}

# (argv id, COLUMNS) -> sha256 of the stdout of a help or the stderr of a usage error.
GOLDEN_HELP = {
    ("help", 80): "5c70f252c97a9c868c4e88c0d3d1241ecded823181d22fb406df67a9ab43c696",
    ("help", 200): "7fc9a6cce19bb5976b7eca4d94f5354d60477401d0f2a88dba8f91c33f8b35bc",
    ("simulate-help", 80): "ef78520f6c6bec94ed23763764f77bf9d3e247d18efbadea764f1fd63340ccce",
    ("simulate-help", 200): "ef78520f6c6bec94ed23763764f77bf9d3e247d18efbadea764f1fd63340ccce",
    ("sweep-help", 80): "573db9ccadf5105d6e066ce8cf7bd3bcf9de9ca69d68f2fbf3b18f29c87f51ee",
    ("sweep-help", 200): "ae563479e70b90cc0c7c889dd93a7daf2205db0e6841ed45f50b375eb364f5bb",
    ("passes-help", 80): "530b9d33407e237219e89199e5b3fd9868b58a64a60ad3096964305d51aefbb2",
    ("passes-help", 200): "530b9d33407e237219e89199e5b3fd9868b58a64a60ad3096964305d51aefbb2",
    ("linkbudget-help", 80): "4042bbf68257434b2505beff2cc3b3db448f1500bc28e5ba13342b24478d2861",
    ("linkbudget-help", 200): "4042bbf68257434b2505beff2cc3b3db448f1500bc28e5ba13342b24478d2861",
    ("missing-out", 80): "5cae8a45f33724f8ea0f0b786a86c6957a50ba0fd1480f6ed79bc29f9edac5dd",
    ("missing-out", 200): "5cae8a45f33724f8ea0f0b786a86c6957a50ba0fd1480f6ed79bc29f9edac5dd",
    ("bad-int", 80): "6f71237fb95924926499dd4234a7f2486ec8308bb0a258a1819946da26180f1d",
    ("bad-int", 200): "296accab15c5bfcf208ce7aac2a54028b103145a8f2009a0e652bef07d8cd0b4",
    ("extra-argument", 80): "33565cd2ee27109bb35dd65215b93b9fda44c47612f8544eb3229a5124e7440f",
    ("extra-argument", 200): "33565cd2ee27109bb35dd65215b93b9fda44c47612f8544eb3229a5124e7440f",
    ("missing-source", 80): "9999e88485599e454741a80e4c067e71857485f184358908f40537e57ce32a4b",
    ("missing-source", 200): "9999e88485599e454741a80e4c067e71857485f184358908f40537e57ce32a4b",
    ("unknown-command", 80): "c6866c5399a747cdb02e94039d65ec43812722b9874d4bd8313dea634b5156ea",
    ("unknown-command", 200): "c6866c5399a747cdb02e94039d65ec43812722b9874d4bd8313dea634b5156ea",
    ("no-command", 80): "e661d59beb65917e11fef3286ffd14bf3a11271b23b319742b08db8af11f9f1a",
    ("no-command", 200): "e661d59beb65917e11fef3286ffd14bf3a11271b23b319742b08db8af11f9f1a",
    ("unknown-command-with-options", 80): "c6866c5399a747cdb02e94039d65ec43812722b9874d4bd8313dea634b5156ea",
    ("unknown-command-with-options", 200): "c6866c5399a747cdb02e94039d65ec43812722b9874d4bd8313dea634b5156ea",
}


@pytest.mark.parametrize("columns", [80, 200])
@pytest.mark.parametrize("name", list(HELP_ARGVS))
def test_help_bytes(name, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", str(columns))
    argv = HELP_ARGVS[name]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if argv[0] in COMMANDS:
        assert out.startswith(f"usage: qbackbone {argv[0]} ")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_HELP[(name, columns)]


@pytest.mark.parametrize("columns", [80, 200])
@pytest.mark.parametrize("name", list(USAGE_ERROR_ARGVS))
def test_usage_error_bytes(name, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", str(columns))
    assert main(USAGE_ERROR_ARGVS[name]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert hashlib.sha256(err.encode()).hexdigest() == GOLDEN_HELP[(name, columns)]


def test_golden_covers_every_argv():
    names = {*HELP_ARGVS, *USAGE_ERROR_ARGVS}
    assert set(GOLDEN_HELP) == {(name, columns) for name in names for columns in (80, 200)}
