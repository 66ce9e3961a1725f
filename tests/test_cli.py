import json

import pytest

from scfsim.cli import main
from scfsim.harness import REGISTRY


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == list(REGISTRY)
    assert list(REGISTRY) == [
        "sum-se-vs-N", "sum-se-vs-bits", "cdf-detectors-distributed",
        "cdf-detectors-centralized", "cdf-algorithm", "cdf-vs-nu",
        "validate-closed-forms"]


def test_run_emits_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 4, "K": 5, "N": 2, "tau": 3,
                               "trials": 128, "b_da": 4, "b_ad": 4}))
    out = tmp_path / "sweep.json"
    code = main(["run", "sum-se-vs-N", "--config", str(cfg), "--seed", "3",
                 "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["experiment"] == "sum-se-vs-N"
    assert payload["meta"]["seed"] == 3
    assert payload["rows"]


def test_validate_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "K": 4, "N": 2, "tau": 2,
                               "trials": 60000, "b_da": 1, "b_ad": 2,
                               "seed": 3}))
    code = main(["validate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "validation passed" in out
    assert "theorem1-kernel" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "no-such-experiment"])
