import json
import warnings

import pytest

from conftest import fresh_modules
from qplab import spectra
from qplab.cli import main
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


def test_decimal_alpha_on_the_alpha_only_commands(tmp_path):
    # these read alpha alone; a decimal is read exactly, here as 3/10
    for argv, codes in ((["lyapunov", "--alpha", "0.3", "--n", "8"], {0}),
                        (["rotnum", "--alpha", "0.3", "--n", "1000"], {0}),
                        (["dioph", "--alpha", "0.3"], {0, 2})):
        assert main(argv + ["--out-dir", str(tmp_path / argv[0])]) in codes, argv


def test_decimal_alpha_expands_as_its_fraction(tmp_path):
    assert main(["cf", "--alpha", "0.3", "--depth", "10", "--out-dir", str(tmp_path / "d")]) == 0
    assert main(["cf", "--alpha", "3/10", "--depth", "10", "--out-dir", str(tmp_path / "f")]) == 0
    assert (tmp_path / "d" / "cf.json").read_bytes() == (tmp_path / "f" / "cf.json").read_bytes()


@pytest.mark.parametrize("argv", [["cf", "--bogus"], ["cf", "--depth", "x"],
                                  ["spectrum", "--alpha", "0.3"], ["kam-run", "--gamma", "0.1"],
                                  ["lyapunov", "--depth", "5"]],
                         ids=["unknown-flag", "bad-int", "flag-of-another-command",
                              "kam-gamma", "lyapunov-depth"])
def test_usage_error_exits_1(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0
    assert "--lam" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["kam-run", "--steps", "2", "--modulus", "gevrey"],
    ["kam-run", "--steps", "2", "--modulus", "power", "--modulus-param", "4.0"],
], ids=["gevrey", "power"])
def test_kam_run_in_ultradifferentiable_classes(argv, tmp_path):
    # level-1 log_eps is not gated: for power(4) it reads +142 although eps = 1e-3
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    ledger = [json.loads(line) for line in (tmp_path / "kam_run.jsonl").read_text().splitlines()]
    assert [e["level"] for e in ledger] == [1, 2]
    assert max(e["residual"] for e in ledger) <= 1e-8


def test_kam_commands_name_their_stop_reason(tmp_path, capsys):
    # stderr is outside the artifact set: the ledgers are those of the runs that stop there
    assert main(["kam-run", "--steps", "4", "--out-dir", str(tmp_path / "4")]) == 2
    assert "stopped at level 3: bridge selection exhausted" in capsys.readouterr().err
    assert main(["kam-run", "--steps", "3", "--out-dir", str(tmp_path / "3")]) == 0
    assert capsys.readouterr().err == ""
    assert ((tmp_path / "4" / "kam_run.jsonl").read_bytes()
            == (tmp_path / "3" / "kam_run.jsonl").read_bytes())
    # 2 rho = alpha is a resonance, so both commands stop before level 1
    for argv, name in ((["kam-run", "--steps", "3"], "kam_run.jsonl"),
                       (["kam-step"], "kam_step.jsonl")):
        out = tmp_path / argv[0]
        assert main(argv + ["--rho", "0.3090169943749474", "--out-dir", str(out)]) == 2
        assert "stopped at level 0: nre divisor below 1e-14" in capsys.readouterr().err
        assert (out / name).read_text() == ""


def test_seqs_names_the_level_it_cannot_reach(tmp_path, capsys):
    # golden to depth 250 holds two induction levels; the third is named on stderr, and the
    # exit code and the bytes stay those of --levels 2
    assert main(["seqs", "--levels", "2", "--out-dir", str(tmp_path / "2")]) == 0
    assert capsys.readouterr().err == ""
    assert main(["seqs", "--levels", "3", "--out-dir", str(tmp_path / "3")]) == 0
    assert "no convergent for level 3" in capsys.readouterr().err
    assert (tmp_path / "3" / "seqs.csv").read_bytes() == (tmp_path / "2" / "seqs.csv").read_bytes()


def test_ids_counts_the_energies_it_skips(tmp_path, capsys, monkeypatch):
    argv = ["ids", "--q", "3", "--lam", "0.5", "--grid", "16"]
    assert main(argv + ["--out-dir", str(tmp_path / "all")]) == 0
    assert capsys.readouterr().err == ""
    ids, skipped = spectra.ids, []

    def ambiguous_once(V, p, q, E, bands=None):
        if not skipped:
            skipped.append(E)
            raise spectra.BandIndexAmbiguous(f"E = {E}")
        return ids(V, p, q, E, bands=bands)

    monkeypatch.setattr(spectra, "ids", ambiguous_once)
    assert main(argv + ["--out-dir", str(tmp_path / "one")]) == 0
    assert "skipped 1 of 16 energies" in capsys.readouterr().err
    rows = [(tmp_path / d / "ids.csv").read_text().splitlines() for d in ("all", "one")]
    assert rows[1] == rows[0][:1] + rows[0][2:]


def test_norms_follow_the_modulus(tmp_path):
    assert main(["norms", "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["norms", "--modulus", "power", "--out-dir", str(tmp_path / "p")]) == 0
    analytic, power = ([row.split(",") for row in (tmp_path / d / "norms.csv").read_text().split()]
                       for d in ("a", "p"))
    assert len(power) == len(analytic) == 9
    for a, b in zip(analytic[1:], power[1:]):
        assert a[:2] == b[:2] and a[2] != b[2] and a[3] != b[3]


@pytest.mark.parametrize("argv,message", [
    (["norms", "--modulus", "gevrey", "--modulus-param", "0"], "gevrey needs nu in (0, 1]"),
    (["norms", "--modulus", "analytic", "--modulus-param", "5"], "takes no --modulus-param"),
    (["fejer", "--K", "5000", "--p", "9"], "fejer needs 1 <= K <= 1000 and 1 <= p <= 4"),
], ids=["gevrey-zero", "analytic-with-param", "fejer-out-of-range"])
def test_settings_out_of_range_exit_1(argv, message, tmp_path, capsys):
    # an explicit setting is never replaced by a default or clamped
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_modulus_param_defaults_to_the_class_parameter(tmp_path):
    for kind, param in (("gevrey", "0.7"), ("power", "3.0")):
        assert main(["norms", "--modulus", kind, "--out-dir", str(tmp_path / kind)]) == 0
        assert main(["norms", "--modulus", kind, "--modulus-param", param,
                     "--out-dir", str(tmp_path / param)]) == 0
        assert ((tmp_path / kind / "norms.csv").read_bytes()
                == (tmp_path / param / "norms.csv").read_bytes())


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


def test_cli_and_kam_step_do_not_load_mpmath(tmp_path):
    assert fresh_modules("import qplab.cli", {"mpmath"}) == []
    argv = ["kam-step", "--eps", "1e-3", "--out-dir", str(tmp_path)]
    assert fresh_modules(f"from qplab.cli import main; assert main({argv!r}) == 0", {"mpmath"}) == []
    assert (tmp_path / "kam_step.jsonl").is_file()


@pytest.mark.parametrize("eps", ["2e-2", "5e-2"])
def test_kam_step_gets_past_setup_at_larger_eps(eps, tmp_path):
    """The perturbation's exponential is sized from its norm, so set-up no longer aliases.

    `kam.almost_reducibility_driver` may still stop on a reason of its own (exit 2).
    """
    assert main(["kam-step", "--eps", eps, "--out-dir", str(tmp_path)]) in (0, 2)
    assert (tmp_path / "kam_step.jsonl").read_text()


def test_renorm_overflow_exits_1_and_names_it(tmp_path, capsys):
    # at lam = 1.5 the level-14 iterates leave float64; they used to be written as nan
    assert main(["renorm", "--levels", "18", "--lam", "1.5", "--out-dir", str(tmp_path)]) == 1
    assert "[qplab.cocycle.RenormOverflow]: level 14" in capsys.readouterr().err
    assert not (tmp_path / "renorm.csv").exists()
