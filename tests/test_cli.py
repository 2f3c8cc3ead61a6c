import json
import shlex
import tracemalloc
from dataclasses import replace
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


def test_validation_failures_exit_2(tmp_path, capsys):
    conf, out = tmp_path / "c.json", tmp_path / "out.csv"
    conf.write_text(json.dumps({"na_min": -1.0}))
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
    conf.write_text("not json")
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
    conf.write_text(json.dumps({"f": 0.5}))  # the Gaussian subcommands model f = 1 only
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
    conf.write_text(json.dumps({"p": 2.0}))  # a pulse count must be an integer
    assert main(["impact", "--config", str(conf), "--out", str(out)]) == 2
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
        capsys.readouterr()
        assert main([mode, "--config", str(conf), "--out", str(out)]) == 2, (mode, key, value)
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and key in err, (mode, key, value, err)
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--na-points", "3"],                   # too few points for the quadratic fit
    ["suppression", "--p-values", "5,2"],            # orders not ascending
    ["impact", "--eps", "2"],                        # depolarization probability above 1
    ["montecarlo", "--mode", "naive", "--pulses", "0"],
    ["sweep", "--f", "0.5"],                         # Gaussian subcommands model f = 1 only
    ["oracle-compare", "--oracle-na", "1000"],       # joint dimension 5005 above the cap
    ["montecarlo", "--seed", "-1"],                  # numpy seeds are non-negative
    ["oracle-compare", "--dropped"],                 # flags the subcommand does not read
    ["sweep", "--trials", "5"],
    ["suppression", "--pulses", "3"],
    ["impact", "--p", "100000000"],                  # about 9.6 GB of per-pulse arrays, above the cap
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
    ["oracle-compare", "--n-ph", "-1"],              # no photons; n_ph + 1 = 0 passes the dimension cap
    ["sweep", "--na-min", "1e5", "--na-max", "1e5"],  # an empty atom-number range
])
def test_rejected_subcommand_input_exits_2_without_output(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,error", [
    ([], "qndprobe: error: the following arguments are required: mode"),
    (["nosuchmode"], "qndprobe: error: argument mode: invalid choice: 'nosuchmode'"),
    # an error in a subcommand's flags comes from that subcommand's parser
    (["sweep", "--bogus", "1"], "qndprobe sweep: error: unrecognized arguments: --bogus 1"),
    (["sweep", "--p", "x"], "qndprobe sweep: error: argument --p: invalid int value: 'x'"),
])
def test_parser_errors_exit_2_without_output(tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)  # where the default --out would be written
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qndprobe") and err.splitlines()[-1].startswith(error)
    assert not any(tmp_path.iterdir())


def test_help_exits_0_and_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qndprobe") and all(mode in out for mode in cli.MODES)


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


@pytest.mark.parametrize("na_min,na_max", [("1e5", "1e5"), ("2e5", "1e5"), ("-1", "1e5")])
def test_atom_number_range_refusal_names_the_flags(tmp_path, capsys, na_min, na_max):
    out = tmp_path / "out.csv"
    assert main(["sweep", "--na-min", na_min, "--na-max", na_max, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"--na-min must be positive and below --na-max, got {float(na_min):g} and {float(na_max):g}" in err


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


@pytest.mark.parametrize("mode", ["sweep", "suppression"])
def test_grid_subcommands_do_not_read_the_config_atom_number(tmp_path, mode):
    # their atom numbers are the grid's, so a config na that impact would refuse changes nothing
    conf = tmp_path / "c.json"
    outputs = []
    for values in ({"na_points": 4}, {"na_points": 4, "na": 0}):
        conf.write_text(json.dumps(values))
        outputs.append(tmp_path / f"{len(outputs)}.csv")
        assert main([mode, "--config", str(conf), "--out", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


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


@pytest.mark.parametrize("perturbed", [0.5, 1.0, 1.5, 2.0])
def test_algebra_check_keeps_each_spins_residuals_apart(tmp_path, monkeypatch, perturbed):
    # every spin is zero-padded into one stack; a residual below the tolerance
    # in one spin's jxy must move that spin's row and no other
    assert main(["algebra-check", "--out", str(tmp_path / "base.csv")]) == 0
    build = cli.build_spin_operators

    def perturbed_build(f):
        ops = build(f)
        if f != perturbed:
            return ops
        jxy = ops.jxy.copy()
        jxy[0, -1] += 3e-13  # jxy is diagonal, so its Hermiticity residual becomes 3e-13
        return replace(ops, jxy=jxy)

    monkeypatch.setattr(cli, "build_spin_operators", perturbed_build)
    assert main(["algebra-check", "--out", str(tmp_path / "moved.csv")]) == 0
    _, base, _ = read_csv_rows(tmp_path / "base.csv")
    _, moved, footer = read_csv_rows(tmp_path / "moved.csv")
    assert [row[0] for row, old in zip(moved, base) if row != old] == [f"{perturbed:g}"]
    assert [float(row[3]) for row in moved if row[0] == f"{perturbed:g}"] == [3e-13]
    assert footer[0] == f"# max_residual = {max(float(x) for row in moved for x in row[1:]):.17g}"


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


def test_non_finite_footer_value_aborts_with_exit_1(tmp_path, monkeypatch):
    # a footer's numbers (c0, c1, c2, max_residual, ...) are checked like the cells
    sweep = cli.sweep_atom_number
    monkeypatch.setattr(cli, "sweep_atom_number", lambda *args: replace(sweep(*args), c2=float("inf")))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", ["sweep", "impact"])
def test_overflowing_covariance_exits_1(tmp_path, mode):
    out = tmp_path / "x.csv"
    assert main([mode, "--g1", "1e200", "--g2", "1e-3", "--out", str(out)]) == 1
    assert not out.exists()


def test_montecarlo_refused_train_exits_1_before_sampling(tmp_path, monkeypatch, capsys):
    import qndprobe.experiment as experiment
    sampled = []  # every slice of either path draws from its own stream
    monkeypatch.setattr(experiment, "_stream", lambda *args: sampled.append(args))
    out = tmp_path / "mc.csv"
    args = ["montecarlo", "--mode", "naive", "--pulses", "2000", "--g2", "1e71", "--trials", "1000"]
    assert main(args + ["--out", str(out)]) == 1
    assert sampled == []
    assert not out.exists()
    assert "numerical failure: non-finite covariance at pulse 1 (atom number 1e+06)\n" in capsys.readouterr().err


def test_refused_run_prints_only_its_refusal_line(tmp_path, capsys):
    # numpy's overflow warnings would print before the refusal, or raise under -W error
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--mode", "naive", "--pulses", "2000", "--g2", "1e71", "--na-points", "4",
                 "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: non-finite covariance at pulse 1, atom number 10000 (index 0)\n"
    # a CSS whose jx^2 overflows is refused by the kernel's own check at its first pulse
    assert main(["impact", "--na", "1e160", "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: non-finite covariance at pulse 0 (atom number 1e+160)\n"


def test_unwritable_output_path(tmp_path):
    out = tmp_path / "no_such_dir" / "x.csv"
    assert main(["algebra-check", "--out", str(out)]) == 2
