import json

import pytest

from scfsim import channel, cli, harness
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
    out = tmp_path / "new" / "nested" / "sweep.json"   # made by the run
    code = main(["run", "sum-se-vs-N", "--config", str(cfg), "--seed", "3",
                 "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["experiment"] == "sum-se-vs-N"
    assert payload["meta"]["seed"] == 3
    assert payload["rows"]


@pytest.mark.parametrize("out", ("file/x.csv", "file/sub/x.csv", "dir",
                                 "x" * 300 + ".csv", "newdir/",
                                 "a/b/" + "x" * 300 + ".csv"),
                         ids=("x.csv", "sub/x.csv", "directory", "long-name",
                              "trailing-slash", "long-name-in-new-dirs"))
def test_run_fails_on_impossible_out_before_running(tmp_path, monkeypatch,
                                                    capsys, out):
    """An --out below a regular file, naming a directory, with a name too
    long for the file system, or ending in a slash prints one error line
    naming the path and exits 2 before the experiment runs, leaving no
    directory behind. The last two ran the whole experiment, then died with
    a traceback."""
    def no_run(*args, **kwargs):
        raise AssertionError("experiment ran before the output path failed")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    path = f"{tmp_path}/{out}"        # a Path would drop the trailing slash
    assert main(["run", "sum-se-vs-N", "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("scfsim: error: ")
    assert path in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]


def test_failed_run_leaves_out_as_it_was(tmp_path, monkeypatch):
    """The path is opened before the run without truncating it, and a file
    or directory made for the check is gone again when the run or the check
    fails. The directories were left behind: a failed run below a new
    nested directory, and an --out ending in a slash."""
    def failed_run(*args, **kwargs):
        raise harness.ExperimentError("the run failed")

    monkeypatch.setattr(cli, "run_experiment", failed_run)
    old = tmp_path / "old.csv"
    old.write_text("earlier results\n")
    (tmp_path / "kept").mkdir()
    for out in (old, tmp_path / "new.csv", tmp_path / "kept" / "a" / "b" / "new.csv",
                f"{tmp_path}/new-out-dir/", f"{tmp_path}/kept/c/new-out-dir/"):
        assert main(["run", "sum-se-vs-N", "--out", str(out)]) == 2
    assert old.read_text() == "earlier results\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept", "old.csv"]


def test_run_writes_through_a_dangling_symlink(tmp_path, capsys):
    """An --out that is a dangling symlink: the run writes the results to
    the link's target and keeps the link. The open check removed the link
    after opening through it, so the results landed in a regular file at
    the link's path and an empty target was left beside it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 4, "K": 5, "N": 2, "tau": 3, "trials": 64}))
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    link.symlink_to(target)
    assert main(["run", "sum-se-vs-N", "--config", str(cfg),
                 "--out", str(link)]) == 0
    assert link.is_symlink() and link.readlink() == target
    assert target.read_text().startswith("sweep,value,ue_index,se,")


def test_failed_run_through_a_dangling_symlink_keeps_it_dangling(tmp_path,
                                                                 capsys):
    """A failed run through a dangling-symlink --out leaves the link as it
    was and no target. It removed the link and left an empty target."""
    cfg = tmp_path / "d-bar.json"
    cfg.write_text(json.dumps({"L": 4, "K": 5, "N": 2, "tau": 3, "d_bar": 1}))
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    link.symlink_to(target)
    assert main(["run", "sum-se-vs-N", "--config", str(cfg),
                 "--out", str(link)]) == 2
    assert "d_bar" in capsys.readouterr().err
    assert link.is_symlink() and link.readlink() == target
    assert not target.exists()


def test_unwritable_results_exit_2(tmp_path, monkeypatch, capsys):
    """An OSError while the results are written is one error line too."""
    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "run_experiment", lambda *args: None)
    monkeypatch.setattr(cli, "emit_results", full_disk)
    path = str(tmp_path / "new" / "x.csv")
    assert main(["run", "sum-se-vs-N", "--out", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"scfsim: error: cannot write --out {path}: "
                     f"No space left on device"]
    assert not (tmp_path / "new").exists()


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


@pytest.mark.parametrize("config, field", (
    ({"K": 0}, "K"), ({"asd_deg": "15"}, "asd_deg"),
    ({"area_side": True}, "area_side"),
    # once loaded, then an OverflowError or a zero noise power in the run
    ({"sigma2_dbm": 4000}, "sigma2_dbm"), ({"sigma2_dbm": -4000}, "sigma2_dbm"),
    ({"noise_figure_db": 4000}, "noise_figure_db"), ({"b_ad": 10**400}, "b_ad"),
    # once loaded, then a prelog of 1.0 refused by SEReport
    ({"L": 4, "K": 5, "N": 2, "tau": 3, "trials": 64, "tau_c": 10**20}, "tau_c"),
    # once loaded, then a singular solve or a non-finite SE: the products of
    # two path gains had underflowed to 0
    ({"L": 4, "K": 5, "N": 2, "tau": 3, "trials": 64, "area_side": 1e44},
     "area_side")))
def test_bad_config_prints_one_line_and_exits_2(tmp_path, capsys, config, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "never.csv"
    for argv in (["run", "sum-se-vs-N", "--config", str(cfg), "--out", str(out)],
                 ["validate", "--config", str(cfg)],
                 ["run", "sum-se-vs-N", "--seed", "-1", "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scfsim: error: ")
        assert (field if "--config" in argv else "seed") in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("kind", ("missing", "directory", "not-utf8"))
def test_unreadable_config_prints_one_line_and_exits_2(tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.json"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(b"\xff\xfe{")
    out = tmp_path / "never.csv"
    assert main(["run", "sum-se-vs-N", "--config", str(cfg),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("scfsim: error: ")
    assert str(cfg) in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("config", ({"L": 4, "K": 3, "N": 2, "tau": 3},
                                    {"L": 4, "K": 5, "N": 2, "tau": 1},
                                    {"L": 1, "K": 5, "N": 2, "tau": 3}),
                         ids=("K-not-above-tau", "tau-1", "L-1"))
def test_validation_without_theorem1_cases_exits_2(tmp_path, capsys,
                                                   monkeypatch, config):
    """A valid config too small for the four Theorem-1 cases is refused
    with one error line before any drop is drawn."""
    def no_drop(*args, **kwargs):
        raise AssertionError("a drop was drawn before the config was refused")

    monkeypatch.setattr(harness, "generate_scenario", no_drop)
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "never.csv"
    for argv in (["validate", "--config", str(cfg)],
                 ["run", "validate-closed-forms", "--config", str(cfg),
                  "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scfsim: error: ")
        assert "K > tau, tau >= 2 and L >= 2" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("workers", ("1", "2"))
def test_d_bar_without_candidates_exits_2(tmp_path, capsys, monkeypatch,
                                          workers):
    """A d_bar that leaves some UE without a candidate AP is a config error,
    also when it is raised inside a pool worker."""
    monkeypatch.setenv("SCFSIM_WORKERS", workers)
    cfg = tmp_path / "d-bar.json"
    cfg.write_text(json.dumps({"L": 4, "K": 5, "N": 2, "tau": 3, "d_bar": 1}))
    out = tmp_path / "never.csv"
    assert main(["run", "sum-se-vs-N", "--config", str(cfg),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("scfsim: error: ")
    assert "d_bar" in lines[0] and "UEs [0, 1, 2, 3, 4]" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("workers", ("1", "2"))
def test_unconverged_quadrature_exits_2(tmp_path, capsys, monkeypatch, workers):
    """A correlation quadrature that runs out of nodes prints one error line
    naming asd_deg and N, also when a pool worker raises it. The node cap is
    lowered to the first pass, so no real run out of nodes happens here."""
    monkeypatch.setattr(channel, "QUAD_MAX_NODES", 128)
    monkeypatch.setenv("SCFSIM_WORKERS", workers)
    cfg = tmp_path / "asd.json"
    cfg.write_text(json.dumps({"L": 3, "K": 4, "N": 2, "tau": 2, "asd_deg": 40}))
    out = tmp_path / "never.csv"
    for argv, n_ant in ((["run", "sum-se-vs-N", "--config", str(cfg),
                          "--out", str(out)], 1),
                        (["validate", "--config", str(cfg)], 2)):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scfsim: error: ")
        assert f"asd_deg=40, N={n_ant}" in lines[0]
    assert not out.exists()


def test_bad_worker_count_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCFSIM_WORKERS", "two")
    out = tmp_path / "never.csv"
    assert main(["run", "sum-se-vs-N", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "SCFSIM_WORKERS" in err[0]
    assert not out.exists()
