import dataclasses
import json
import warnings

import pytest

from qplab import cli
from qplab.cli import ExperimentConfig, main
from qplab.spectra import ResolutionWarning

FAST_COMMANDS = [
    ["cf", "--alpha", "golden", "--depth", "10"],
    ["dioph", "--alpha", "golden", "--K", "100", "--v", "0.2", "--tau", "1.5",
     "--rho", "0.25", "--gamma", "0.05"],
    ["norms"],
    ["lyapunov", "--n", "256", "--lam", "1.5"],
    ["rotnum", "--n", "20000", "--lam", "0.2", "--E", "2.8"],
    ["renorm", "--levels", "2", "--lam", "0.5"],
    ["cohom", "--q", "13"],
    ["spectrum", "--q", "3", "--lam", "0.5"],
    ["sminus", "--q", "3", "--lam", "0.5"],
    ["ids", "--q", "3", "--lam", "0.5", "--grid", "24"],
    ["chambers", "--lam", "0.5", "--levels", "4"],
    ["fejer", "--K", "16", "--p", "2"],
    ["avalanche"],
    ["seqs", "--levels", "3"],
    ["last-diff", "--lam", "0.5", "--levels", "3"],
]


@pytest.mark.parametrize("argv", FAST_COMMANDS, ids=lambda a: a[0])
def test_commands_run(argv, tmp_path):
    code = main(argv + ["--out-dir", str(tmp_path)])
    assert code == 0
    assert any(tmp_path.iterdir())


def test_chambers_levels_resolved(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)
        assert main(["chambers", "--lam", "0.5", "--levels", "4", "--out-dir", str(tmp_path)]) == 0


def test_exit_code_hypothesis_violation(tmp_path):
    # rational frequency kills the frequency condition
    code = main(
        ["dioph", "--alpha", "5/7", "--K", "10", "--v", "0.01", "--tau", "2.0",
         "--rho", "0.1", "--gamma", "0.001", "--out-dir", str(tmp_path)]
    )
    assert code == 2


def test_exit_code_error(tmp_path):
    code = main(["cf", "--alpha", "1.7", "--out-dir", str(tmp_path)])
    assert code == 1


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"alpha": "golden", "depth": 6}))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["cf", "--config", str(cfgfile), "--out-dir", str(out1)]) == 0
    assert main(["cf", "--config", str(cfgfile), "--depth", "9", "--out-dir", str(out2)]) == 0
    a = json.loads((out1 / "cf.json").read_text())
    b = json.loads((out2 / "cf.json").read_text())
    assert len(b["a"]) > len(a["a"])


def test_unknown_config_field_rejected(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"alhpa": "golden"}))
    assert main(["cf", "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("raw", [{"lam": True}, {"q": "3"}, {"q": 3.7}, [["q", 3]]],
                         ids=["bool", "str", "float", "not-an-object"])
def test_config_value_of_wrong_type_rejected(raw, tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfgfile), "--out-dir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_take_their_field_types(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"lam": 1, "q": 5, "alpha": "0.25"}))
    cfg = ExperimentConfig.from_sources("spectrum", str(cfgfile), {})
    assert (type(cfg.lam), cfg.lam, cfg.q, cfg.alpha) == (float, 1.0, 5, "0.25")


def test_config_roundtrip():
    cfg = ExperimentConfig(command="cf", alpha="sqrt2m1", depth=7, eps=1e-4)
    blob = json.dumps(cfg.__dict__)
    again = ExperimentConfig(**json.loads(blob))
    assert again == cfg


def test_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("QPLAB_OUT", str(tmp_path))
    assert main(["fejer", "--K", "4", "--p", "1"]) == 0
    assert (tmp_path / "fejer.json").exists()


@pytest.mark.parametrize("argv", [FAST_COMMANDS[0], FAST_COMMANDS[10], FAST_COMMANDS[11]],
                         ids=lambda a: a[0])
def test_fast_determinism(argv, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(argv + ["--out-dir", str(d1)]) == 0
    assert main(argv + ["--out-dir", str(d2)]) == 0
    for f1 in sorted(d1.iterdir()):
        f2 = d2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_every_config_field_has_a_flag(monkeypatch):
    """Each config field but `command`, also one added to the config, parses
    from --<name> with its annotated type and reaches from_sources."""
    Config = dataclasses.make_dataclass("Config", [("extra", "int", 0)], bases=(ExperimentConfig,))
    monkeypatch.setattr(cli, "ExperimentConfig", Config)
    seen = []

    def record(cfg):
        seen.append(cfg)
        return 0

    monkeypatch.setitem(cli.COMMANDS, "cf", record)
    samples = {"float": 0.375, "int": 7, "str": "x"}
    for f in dataclasses.fields(Config):
        if f.name == "command":
            continue
        value = samples[f.type]
        assert main(["cf", f"--{f.name.replace('_', '-')}", str(value)]) == 0
        got = getattr(seen[-1], f.name)
        assert type(got) is type(value) and got == value, f.name
