"""The benchmark's tracer must measure every per-layer metric on the
commands the benchmark runs.

The tracer reads the package through spans around its public functions and
through hooks on their results.  A hook that fails, say on an attribute the
package no longer has, does not fail the command: it marks its metric
missing, and the bench run reports that metric as null while the run still
exits 0.  This test makes such a run fail.  It imports ``bench/tracing.py``
and writes nothing under ``bench/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

from rankonegames import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    # no bytecode cache under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


@pytest.mark.parametrize("argv", [
    ["value", "--which", "qow"],
    ["value", "--which", "mu"],
    ["value", "--which", "bracket"],
    ["repeat", "--k", "2", "--which", "qow"],
], ids=["qow", "mu", "bracket", "repeat-qow"])
def test_traced_command_measures_every_layer_metric(argv, tracing, tmp_path, capsys):
    game = tmp_path / "gcr2.json"
    assert cli.main(["make", "--family", "gcr", "--n", "2", "--out", str(game)]) == 0
    if argv[0] == "repeat":
        argv = argv + ["--out", str(tmp_path / "square.json")]
    tracer = tracing.Tracer()
    with tracer.installed():
        start = tracer.now()
        assert cli.main([argv[0], "--game", str(game), *argv[1:]]) == 0
        wall = tracer.now() - start
    capsys.readouterr()
    assert tracer.solves and tracer.programs
    assert tracer.missing == set()
    metrics = tracer.layer_metrics(wall)
    assert [name for name, value in metrics.items() if value is None] == []
