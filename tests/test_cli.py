import json
import shlex
import tracemalloc
from pathlib import Path

import pytest

from qndprobe import cli
from qndprobe.cli import RunConfig, main, parse_config, run


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    body = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    footer = [l for l in lines[1:] if l.startswith("#")]
    return header, body, footer


# --------------------------------------------------------------- config parsing

def test_minimal_sweep_config(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"g1": 1e-7, "nl_total": 1e8, "na_min": 1e4,
                                "na_max": 1e6, "na_points": 6}))
    config = parse_config(["sweep", "--config", str(conf), "--g2", "0"])
    assert config.mode == "sweep"
    assert config.g1 == 1e-7
    assert config.na_points == 6


def test_unknown_key_rejected_by_name(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"g3": 1.0}))
    with pytest.raises(ValueError, match="g3"):
        parse_config(["sweep", "--config", str(conf)])


def test_flag_overrides_file_value(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"p": 2}))
    config = parse_config(["sweep", "--config", str(conf), "--p", "5"])
    assert config.p == 5


def test_validation_failures_exit_2(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"na_min": -1.0}))
    assert main(["sweep", "--config", str(conf)]) == 2
    conf.write_text("not json")
    assert main(["sweep", "--config", str(conf)]) == 2
    conf.write_text(json.dumps({"f": 0.5}))  # the Gaussian subcommands model f = 1 only
    assert main(["sweep", "--config", str(conf)]) == 2
    conf.write_text(json.dumps({"p": 2.0}))  # a pulse count must be an integer
    assert main(["impact", "--config", str(conf)]) == 2
    # every integer field refuses a JSON float instead of crashing or truncating
    for mode, key, value in (("sweep", "na_points", 20.0), ("montecarlo", "trials", 1e5),
                             ("montecarlo", "seed", 5.0), ("oracle-compare", "n_ph", 4.0),
                             ("oracle-compare", "oracle_na", 2.0), ("suppression", "p_values", [1.5, 2.7]),
                             # and every other field a value of another JSON type
                             ("sweep", "include_dropped_terms", "no"), ("montecarlo", "scattering_eps", True),
                             ("algebra-check", "f_values", "12"), ("sweep", "na_min", "1e4"),
                             ("impact", "g1", "0.1"), ("impact", "na", None), ("oracle-compare", "tilt", "0.4"),
                             # non-finite numbers (json writes NaN and Infinity) and empty lists
                             ("impact", "na", float("nan")), ("oracle-compare", "tilt", float("nan")),
                             ("sweep", "na_max", float("inf")), ("impact", "g2", float("-inf")),
                             ("algebra-check", "f_values", [1.0, float("nan")]),
                             ("suppression", "p_values", []), ("algebra-check", "f_values", [])):
        conf.write_text(json.dumps({key: value}))
        assert main([mode, "--config", str(conf)]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--na-points", "3"],                   # too few points for the quadratic fit
    ["suppression", "--p-values", "5,2"],            # orders not ascending
    ["impact", "--eps", "2"],                        # depolarization probability above 1
    ["montecarlo", "--mode", "naive", "--pulses", "0"],
    ["sweep", "--f", "0.5"],                         # Gaussian subcommands model f = 1 only
    ["oracle-compare", "--oracle-na", "1000"],       # joint dimension 5005 above the cap
    ["montecarlo", "--trials", "1000000000"],        # about 112 GB of samples, above the cap
    ["montecarlo", "--seed", "-1"],                  # numpy seeds are non-negative
    ["oracle-compare", "--dropped"],                 # flags the subcommand does not read
    ["sweep", "--trials", "5"],
    ["suppression", "--pulses", "3"],
    ["impact", "--p", "100000000"],                  # about 14 GB of per-pulse arrays, above the cap
    ["sweep", "--na-points", "1000000000"],          # more atom numbers than one sweep evaluates
    ["oracle-compare", "--oracle-na", "0"],          # no atoms
    ["oracle-compare", "--oracle-na", "-1"],
    ["sweep", "--na-min", "nan"],                    # non-finite numbers
    ["sweep", "--na-max", "inf"],
    ["impact", "--na", "nan"],
    ["impact", "--nl", "inf"],
    ["oracle-compare", "--f", "-0.5"],               # spins that are not positive half-integers
    ["oracle-compare", "--f", "0"],
    ["impact", "--pulses", "7"],                     # schedule flags the train does not read
    ["sweep", "--pulses", "7"],
    ["impact", "--mode", "naive", "--p", "3", "--pulses", "4"],
])
def test_rejected_subcommand_input_exits_2_without_output(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,reason", [
    (["impact", "--p", "100000000"], "train cap"),
    (["sweep", "--na-points", "1000000000"], "one sweep evaluates"),
])
def test_oversized_input_refused_before_allocating(tmp_path, capsys, argv, reason):
    parse_config(["sweep"])  # build the cached parser outside the traced window
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reason in capsys.readouterr().err
    assert peak < 1_000_000


def test_negative_seed_refused_before_the_run():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        parse_config(["montecarlo", "--seed", "-1"])


def test_cached_parser_does_not_leak_between_parses():
    assert parse_config(["sweep", "--dropped"]).include_dropped_terms is True
    assert parse_config(["sweep"]).include_dropped_terms is False
    assert parse_config(["sweep", "--p", "3"]).p == 3
    assert parse_config(["sweep"]).p == 5


def test_unread_flag_named_in_the_error(capsys):
    argv = ["oracle-compare", "--dropped", "--eps", "0.5", "--nl", "3", "--na", "7"]
    with pytest.raises(ValueError, match="oracle-compare does not read --dropped, --eps, --na, --nl"):
        parse_config(argv)
    assert main(argv) == 2
    assert "invalid configuration: oracle-compare does not read --dropped" in capsys.readouterr().err
    with pytest.raises(ValueError, match="impact does not read --pulses with a decoupled schedule"):
        parse_config(["impact", "--pulses", "7"])
    with pytest.raises(ValueError, match="impact does not read --p when --pulses sets"):
        parse_config(["impact", "--mode", "naive", "--p", "3", "--pulses", "4"])


def test_config_file_keys_are_not_checked_against_the_subcommand(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"trials": 5, "na": 3e5, "oracle_na": 3}))
    assert parse_config(["sweep", "--config", str(conf)]).trials == 5
    conf.write_text(json.dumps({"num_pulses": 7}))  # a decoupled train does not read it
    assert parse_config(["impact", "--config", str(conf)]).num_pulses == 7


def test_config_file_pulse_count_runs_a_decoupled_train(tmp_path):
    # the library refuses num_pulses with a decoupled train, so the CLI passes it only to naive ones
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"num_pulses": 7, "p": 1}))
    for mode in ("impact", "oracle-compare"):
        out = tmp_path / f"{mode}.csv"
        assert main([mode, "--config", str(conf), "--out", str(out)]) == 0
    assert len(read_csv_rows(out)[1]) == 2  # oracle-compare's decoupled(1) train: two pulses


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    commands = [shlex.split(line)[1:] for line in readme.read_text().splitlines()
                if line.startswith("qndprobe ")]
    assert len(commands) >= 7
    for argv in commands:
        parse_config(argv)


# ------------------------------------------------------------------ run modes

def test_algebra_check_reports_tiny_residuals(tmp_path):
    out = tmp_path / "algebra.csv"
    assert main(["algebra-check", "--out", str(out)]) == 0
    header, body, _ = read_csv_rows(out)
    assert header[0] == "f"
    assert [row[0] for row in body] == ["0.5", "1", "1.5", "2"]
    for row in body:
        assert all(float(x) < 1e-12 for x in row[1:])


def test_oracle_compare_runs(tmp_path):
    out = tmp_path / "oracle.csv"
    code = main(["oracle-compare", "--out", str(out), "--g1", "1e-3", "--g2", "1e-3",
                 "--n-ph", "4", "--oracle-na", "2", "--p", "2"])
    assert code == 0
    _, body, footer = read_csv_rows(out)
    assert len(body) == 4
    assert "max_first_moment_deviation" in footer[0]
    assert "# g2 = 0.001" in footer


def test_oracle_compare_states_its_default_g2(tmp_path):
    # oracle-compare defaults to g2 = 0, not the calibrated g2 of the Gaussian subcommands
    out = tmp_path / "oracle.csv"
    assert main(["oracle-compare", "--out", str(out), "--g1", "1e-3", "--p", "1"]) == 0
    _, _, footer = read_csv_rows(out)
    assert "# g2 = 0" in footer


def test_oracle_compare_runs_above_a_thousand_photons(tmp_path):
    # the photon state's binomial amplitudes overflow a float above 1023 photons
    out = tmp_path / "oracle.csv"
    argv = ["oracle-compare", "--out", str(out), "--oracle-na", "1", "--n-ph", "1100", "--g1", "1e-6", "--p", "1"]
    assert main(argv) == 0


def test_sweep_csv_matches_projection_line_for_g2_zero(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out), "--g2", "0", "--p", "5"]) == 0
    header, body, footer = read_csv_rows(out)
    i_var = header.index("normalized_meter_var")
    i_line = header.index("projection_line")
    for row in body:
        var, line = float(row[i_var]), float(row[i_line])
        assert abs(var - line) / line < 1e-9
    assert any(line.startswith("# c2") for line in footer)
    assert "# c2 = 0" in footer  # the kernel's exact quadratic coefficient


def test_fixed_seed_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["montecarlo", "--seed", "42", "--trials", "5000", "--na", "1e5", "--p", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_manifest_written_with_parameters(tmp_path):
    out = tmp_path / "imp.csv"
    assert main(["impact", "--out", str(out), "--na", "5e5"]) == 0
    manifest = (out.parent / (out.name + ".manifest")).read_text()
    assert "seed = " in manifest
    assert "na = 500000.0" in manifest
    assert "timestamp = " in manifest


def test_suppression_mode(tmp_path):
    out = tmp_path / "sup.csv"
    assert main(["suppression", "--out", str(out), "--p-values", "2,4"]) == 0
    header, body, _ = read_csv_rows(out)
    assert header == ["p", "c2"]
    assert float(body[0][1]) > float(body[1][1]) > 0


def test_non_finite_output_aborts_with_exit_1(tmp_path, monkeypatch):
    def bad_runner(config):
        return ["x"], [[float("nan")]], []

    monkeypatch.setitem(cli._RUNNERS, "impact", bad_runner)
    config = RunConfig(mode="impact", out=str(tmp_path / "bad.csv"))
    assert run(config) == 1
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("mode", ["sweep", "impact"])
def test_overflowing_covariance_exits_1(tmp_path, mode):
    out = tmp_path / "x.csv"
    assert main([mode, "--g1", "1e200", "--g2", "1e-3", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_montecarlo_refused_train_exits_1_before_sampling(tmp_path, monkeypatch, capsys):
    sampled = []
    monkeypatch.setattr(cli, "monte_carlo_sample", lambda *args, **kwargs: sampled.append(args))
    out = tmp_path / "mc.csv"
    args = ["montecarlo", "--mode", "naive", "--pulses", "2000", "--g2", "1e71", "--trials", "1000"]
    assert main(args + ["--out", str(out)]) == 1
    assert sampled == []
    assert not out.exists()
    assert "numerical failure: non-finite covariance at pulse 1 (atom number 1e+06)\n" in capsys.readouterr().err


def test_unwritable_output_path(tmp_path):
    out = tmp_path / "no_such_dir" / "x.csv"
    assert main(["algebra-check", "--out", str(out)]) == 2
