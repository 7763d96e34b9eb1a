"""Tests for the command-line interface: subcommand contracts, config
validation, exit codes, output formats, and reproducibility."""
import json
import time

import numpy as np
import pytest

from floqnet import checks, cli, floquet, network
from floqnet.cli import load_config, run_subcommand
from floqnet.exceptions import ConfigError, FixedPointConvergence
from floqnet.floquet import variational_factors
from floqnet.models import get_model
from floqnet.network import SIMULATE_INTEGRATOR, CouplingSpec, \
    complete_graph, simulate_network
from floqnet.ode import IntegratorConfig

SHIPPED_CONFIGS = ["fig1_msf.json", "fig2_full.json", "fig2_partial.json",
                   "fig3_full.json", "fig3_partial.json"]


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    return header, data


class TestLimitCycleCommand:
    def test_vdp_period_and_outputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_subcommand(["limit-cycle", "--model", "vdp",
                             "--param", "mu=1"])
        assert rc == 0
        summary = json.loads((tmp_path / "limit_cycle.json").read_text())
        assert summary["period"] == pytest.approx(6.663286859322, rel=1e-3)
        assert summary["closure_residual"] < 1e-6
        header, data = read_csv(tmp_path / "limit_cycle.csv")
        assert header == ["t", "x1", "x2"]
        assert data.shape == (512, 3)
        assert data[0, 0] == 0.0

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_runs_on_every_shipped_config(self, name, tmp_path, monkeypatch):
        # A network config's ``initial`` holds n*m states, not one
        # oscillator's start, so the search ignores it.
        monkeypatch.chdir(tmp_path)
        assert run_subcommand(["limit-cycle", "--config", name]) == 0
        summary = json.loads((tmp_path / "limit_cycle.json").read_text())
        assert summary["closure_residual"] < 1e-6

    def test_bad_param_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_subcommand(["limit-cycle", "--model", "vdp",
                               "--param", "mu=-1"]) == 2
        assert "mu" in capsys.readouterr().err

    def test_param_overrides_config_model(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(
            {"model": {"name": "vdp", "params": {"mu": 1.0}}}))
        assert run_subcommand(["limit-cycle", "--config", "c.json",
                               "--param", "mu=2"]) == 0
        summary = json.loads((tmp_path / "limit_cycle.json").read_text())
        # mu = 2 runs slower than the config's mu = 1 (6.663).
        assert summary["period"] == pytest.approx(7.6298744779, rel=1e-6)

    def test_non_finite_initial_derivative_exits_1(self, tmp_path,
                                                   monkeypatch, capsys):
        # x1^2 overflows, so the field is NaN at the start.
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        assert run_subcommand(["limit-cycle", "--model", "vdp",
                               "--x0", "1e200,0"]) == 1
        assert time.perf_counter() - start < 5.0
        assert "StepFailure" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["limit-cycle", "--model", "vdp", "--x0", "1,a"], "list of numbers"),
    (["limit-cycle", "--model", "vdp", "--x0", "1,2,3"], "shape (2,)"),
    (["msf", "--model", "vdp", "--kappa-min", "0.5", "--kappa-max", "2",
      "--points", "0"], "needs points >= 1, got 0"),
    (["msf", "--model", "vdp", "--kappa-min", "2", "--kappa-max", "1",
      "--points", "3"], "strictly increasing"),
    (["msf", "--model", "vdp", "--kappa-min", "-1", "--kappa-max", "1",
      "--points", "3"], "finite and >= 0"),
    (["msf", "--model", "vdp", "--kappa-min", "0.5", "--points", "3"],
     "needs kappa_max"),
    (["msf", "--model", "vdp", "--mask", "0,0", "--kappa-min", "0",
      "--kappa-max", "1", "--points", "3"], "at least one 1"),
    (["limit-cycle", "--model", "repressilator", "--param", "alpha=inf"],
     "finite alpha > 0"),
    (["limit-cycle", "--model", "vdp", "--rel-tol", "inf"],
     "positive and finite"),
    (["limit-cycle", "--model", "vdp", "--abs-tol", "inf"],
     "positive and finite"),
    (["limit-cycle", "--model", "vdp", "--param", "mu"], "name=value"),
    (["limit-cycle", "--model", "vdp", "--param", "mu=fast"],
     "is not a number"),
], ids=["x0-not-a-number", "x0-wrong-length", "msf-no-points",
        "msf-decreasing-grid", "msf-negative-kappa", "msf-missing-key",
        "msf-mask-without-a-one",
        "infinite-param", "infinite-rel-tol", "infinite-abs-tol",
        "param-without-equals", "param-not-a-number"])
def test_bad_input_is_config_error(argv, message, tmp_path, monkeypatch,
                                   capsys):
    monkeypatch.chdir(tmp_path)
    assert run_subcommand(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("model", [
    {"name": "vdp", "params": {"mu": True}},
    {"name": "repressilator", "params": {"n": True}},
], ids=["vdp-mu-true", "repressilator-n-true"])
def test_bool_model_param_is_config_error(model, tmp_path, monkeypatch,
                                          capsys):
    # Refused, as ``--param mu=true`` is; never run as a parameter of 1.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"model": model}))
    assert run_subcommand(["limit-cycle", "--config", "c.json"]) == 2
    err = capsys.readouterr().err
    key = next(iter(model["params"]))
    assert "config error" in err and f"'{key}'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("argv", [
    ["floquet", "--model", "vdp", "--mask", "0,1,1"],
    ["floquet", "--model", "vdp", "--mask", "0,2"],
    ["msf", "--model", "vdp", "--mask", "1,nan"],
    ["msf", "--model", "vdp", "--kappa-min", "0.5", "--kappa-max", "0",
     "--points", "1", "--spacing", "log"],
    # numpy warns building a grid from inf - inf; the grid is then refused.
    pytest.param(["msf", "--model", "vdp", "--kappa-min", "inf",
                  "--kappa-max", "inf", "--points", "1"],
                 marks=pytest.mark.filterwarnings(
                     "ignore:invalid value:RuntimeWarning")),
], ids=["mask-wrong-length", "mask-not-0-1", "mask-nan",
        "msf-log-zero-bound", "msf-infinite-kappa"])
def test_bad_mask_or_grid_fails_before_cycle_search(argv, tmp_path,
                                                    monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("find_limit_cycle ran on invalid input")

    monkeypatch.setattr(cli, "find_limit_cycle", no_search)
    monkeypatch.chdir(tmp_path)
    assert run_subcommand(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,coupling", [
    (["floquet", "--model", "vdp", "--kappa", "nan"], {}),
    (["floquet", "--model", "vdp", "--kappa", "inf", "--mask", "0,1"], {}),
    (["msf", "--model", "vdp", "--config", "c.json"],
     {"mask": [0, 1], "activation_time": -1.0}),
    (["msf", "--model", "vdp", "--config", "c.json"],
     {"mask": [0, 1], "activation_time": float("nan")}),
], ids=["floquet-nan-kappa", "floquet-inf-kappa",
        "msf-negative-activation-time", "msf-nan-activation-time"])
def test_bad_coupling_fails_before_cycle_search(argv, coupling, tmp_path,
                                                monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("find_limit_cycle ran on invalid input")

    monkeypatch.setattr(cli, "find_limit_cycle", no_search)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"coupling": coupling}))
    assert run_subcommand(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


class TestFloquetCommand:
    def test_json_contract(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_subcommand(["floquet", "--model", "vdp", "--kappa", "1.0",
                             "--mask", "0,1", "--out", "out"])
        assert rc == 0
        result = json.loads((tmp_path / "out.json").read_text())
        assert set(result) >= {"period", "kappa", "multipliers", "det_check"}
        assert result["kappa"] == 1.0
        for entry in result["multipliers"]:
            assert set(entry) == {"re", "im", "abs"}
            assert entry["abs"] == pytest.approx(
                abs(complex(entry["re"], entry["im"])))
        det = result["det_check"]
        assert det["lhs"] == pytest.approx(det["rhs"], rel=1e-6)

    def test_one_variational_pass(self, tmp_path, monkeypatch, vdp,
                                  vdp_cycle):
        # The determinant identity's left side comes from the monodromy's
        # pass: both sides must equal what ajl_determinant computes.
        calls = [0]
        shoot = floquet._shoot_segments

        def counted(*args, **kwargs):
            calls[0] += 1
            return shoot(*args, **kwargs)
        monkeypatch.setattr(floquet, "_shoot_segments", counted)
        monkeypatch.chdir(tmp_path)
        assert run_subcommand(["floquet", "--model", "vdp", "--kappa", "1.0",
                               "--mask", "0,1", "--out", "out"]) == 0
        assert calls[0] == 1
        det = json.loads((tmp_path / "out.json").read_text())["det_check"]
        lhs, rhs = floquet.ajl_determinant(vdp, vdp_cycle, kappa=1.0,
                                           mask=[0, 1])
        assert (det["lhs"], det["rhs"]) == (lhs, rhs)


class TestMsfCommand:
    def test_sweep_csv_and_plot_script(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_subcommand(["msf", "--model", "vdp", "--mask", "0,1",
                             "--kappa-min", "0.5", "--kappa-max", "2.0",
                             "--points", "4", "--emit-plot-script"])
        assert rc == 0
        header, data = read_csv(tmp_path / "msf.csv")
        assert header[:2] == ["kappa", "mu_max"]
        assert header[2:] == ["mult_1_re", "mult_1_im",
                              "mult_2_re", "mult_2_im"]
        assert data.shape == (4, 6)
        assert np.all(np.diff(data[:, 0]) > 0)
        assert np.all(data[:, 1] < 1.0)
        script = (tmp_path / "msf.gp").read_text()
        assert "msf.csv" in script and "mu_max" in script

    def test_default_grid_when_unspecified(self, tmp_path, monkeypatch):
        # no flags, no config: kappa = 0 plus 50 log-spaced points
        monkeypatch.chdir(tmp_path)
        assert run_subcommand(["msf", "--model", "vdp", "--mask", "0,1"]) == 0
        _, data = read_csv(tmp_path / "msf.csv")
        assert data.shape[0] == 51
        assert data[0, 0] == 0.0 and data[-1, 0] == pytest.approx(10.0)

    def test_log_spacing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_subcommand(["msf", "--model", "vdp", "--mask", "0,1",
                               "--kappa-min", "0.1", "--kappa-max", "10",
                               "--points", "4", "--spacing", "log"]) == 0
        _, data = read_csv(tmp_path / "msf.csv")
        np.testing.assert_array_equal(data[:, 0], np.geomspace(0.1, 10.0, 4))

    def test_bad_spacing_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "model": {"name": "vdp", "params": {"mu": 1.0}},
            "msf": {"kappa_min": 0.5, "kappa_max": 2.0, "points": 3,
                    "spacing": "cubic"},
        }))
        assert run_subcommand(["msf", "--config", str(cfg)]) == 2


def test_csv_rows_match_per_value_format(tmp_path):
    # The block writer against formatting every value on its own, over a
    # table of 601 rows: two full blocks of rows and part of a third.
    values = [-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1, -1 / 3]
    table = np.array([np.roll(values, i) for i in range(601)])
    assert len(table) > 2 * cli._CSV_ROWS
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), [f"c{j}" for j in range(len(values))], table)
    expected = ",".join(f"c{j}" for j in range(len(values))) + "\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n"
        for row in table)
    assert path.read_bytes() == expected.encode("utf-8")


class _FailingFile:
    """A text file whose ``fail_at``-th write raises, as on a full disk."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError("no space left on device")
        return self.fh.write(text)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_csv_write_leaves_no_file(tmp_path, monkeypatch, failure):
    # A write that fails after the header and the first block of rows, or
    # a failing rename, leaves neither the target nor a temporary file.
    if failure == "write":
        fdopen = cli.os.fdopen
        monkeypatch.setattr(cli.os, "fdopen", lambda *args, **kwargs:
                            _FailingFile(fdopen(*args, **kwargs), 3))
    else:
        def no_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", no_replace)
    table = np.arange(3.0 * 600).reshape(600, 3)
    with pytest.raises(OSError):
        cli._write_csv(str(tmp_path / "table.csv"), ["a", "b", "c"], table)
    assert list(tmp_path.iterdir()) == []


class TestSimulateCommand:
    def test_shipped_fig2_config_converges(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_subcommand(["simulate", "--config", "fig2_full.json"])
        assert rc == 0
        summary = json.loads((tmp_path / "simulate.json").read_text())
        assert summary["converged"] is True
        assert summary["threshold"] == 1e-3
        assert summary["final_error"] < 1e-3
        assert summary["t_converged"] is not None
        header, data = read_csv(tmp_path / "simulate.csv")
        assert header[0] == "t" and header[-1] == "sync_error"
        assert header[1] == "x_1_1" and header[6] == "x_3_2"
        assert data.shape == (2000, 8)

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_subcommand(["simulate", "--config", "fig2_partial.json",
                        "--out", "a"])
        run_subcommand(["simulate", "--config", "fig2_partial.json",
                        "--out", "b"])
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_requires_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_subcommand(["simulate"]) == 2

    @pytest.mark.parametrize("graph,initial", [
        ({"kind": "ring", "n": 4}, list(range(8))),
        ({"kind": "adjacency", "adjacency": [[0, 1, 0], [1, 0, 1],
                                             [0, 1, 0]]}, list(range(6))),
    ], ids=["ring", "adjacency"])
    def test_ring_and_adjacency_graphs(self, graph, initial, tmp_path,
                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({
            "model": {"name": "vdp"}, "initial": initial, "graph": graph,
            "coupling": {"K": 1.0, "mask": [0, 1]},
            "run": {"t_end": 30.0, "output_grid_points": 50}}))
        assert run_subcommand(["simulate", "--config", "c.json"]) == 0
        header, data = read_csv(tmp_path / "simulate.csv")
        assert header[-2] == f"x_{len(initial) // 2}_2"
        assert data.shape == (50, len(initial) + 2)
        assert data[-1, 0] == 30.0

    @pytest.mark.parametrize("change", [
        {"run": {"t_end": 10.0, "output_grid_points": 0}},
        {"run": {"t_end": 10.0, "output_grid_points": -3}},
        {"graph": {"kind": "adjacency", "adjacency": [[0]]},
         "initial": [0, 1]},
        {"run": {"t_end": float("inf")}},
        {"graph": {"kind": "adjacency",
                   "adjacency": [[0, float("nan")], [float("nan"), 0]]},
         "initial": [0, 1, 2, 3]},
        {"graph": {"kind": "adjacency",
                   "adjacency": [[0, float("nan"), 1], [float("nan"), 0, 1],
                                 [1, 1, 0]]}},
        {"graph": None},
        {"coupling": None},
        {"run": {"output_grid_points": 10}},
        {"initial": None},
        {"graph": {"kind": "adjacency", "n": 3}},
        {"graph": {"kind": "star", "n": 3}},
        {"graph": 3},
        {"coupling": {"K": 1.0, "mask": 1}},
    ], ids=["no-output-points", "negative-output-points", "one-node-graph",
            "infinite-end-time", "nan-weight-2-nodes", "nan-weight-3-nodes",
            "no-graph", "no-coupling", "no-end-time", "no-initial",
            "adjacency-kind-without-matrix", "unknown-graph-kind",
            "section-not-an-object", "mask-not-an-array"])
    def test_bad_run_or_graph_exits_2_before_integrating(
            self, change, tmp_path, monkeypatch, capsys):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated an invalid config")

        monkeypatch.setattr(network, "_sample", no_integration)
        monkeypatch.chdir(tmp_path)
        config = {"model": {"name": "vdp"}, "initial": [0, 1, 2, 3, 4, 5],
                  "graph": {"kind": "complete", "n": 3},
                  "coupling": {"K": 1.0, "mask": [1, 1]},
                  "run": {"t_end": 10.0}}
        # A None in ``change`` drops that section.
        config = {key: val for key, val in {**config, **change}.items()
                  if val is not None}
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert run_subcommand(["simulate", "--config", "c.json"]) == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def simulated_table(config, cfg):
    """The rows ``floqnet simulate`` writes for a complete-graph
    ``config``, computed by :func:`simulate_network` at ``cfg``."""
    run = simulate_network(
        get_model(config["model"]["name"], config["model"]["params"]),
        complete_graph(config["graph"]["n"]),
        CouplingSpec(**config["coupling"]), config["initial"],
        config["run"]["t_end"], cfg=cfg,
        output_points=config["run"]["output_grid_points"])
    return np.column_stack([run.times, run.states, run.sync.error])


class _Called(Exception):
    """Raised by a spy once it has seen the integrator config."""


class TestSimulateTolerance:
    """``simulate`` merges the config's ``integrator`` section, then each
    tolerance flag, key by key over ``SIMULATE_INTEGRATOR``; every other
    subcommand merges them over ``IntegratorConfig()``.  The CSV's 17
    significant digits round-trip every double, so equal tables are equal
    bit for bit."""

    @pytest.fixture
    def unpinned(self, tmp_path, monkeypatch):
        """fig2_full.json without its ``integrator`` section."""
        monkeypatch.chdir(tmp_path)
        config = load_config("fig2_full.json")
        del config["integrator"]
        (tmp_path / "c.json").write_text(json.dumps(config))
        return config

    def test_unpinned_config_simulates_at_simulate_default(self, unpinned,
                                                           tmp_path):
        assert run_subcommand(["simulate", "--config", "c.json"]) == 0
        _, data = read_csv(tmp_path / "simulate.csv")
        assert np.array_equal(data,
                              simulated_table(unpinned, SIMULATE_INTEGRATOR))
        assert not np.array_equal(data,
                                  simulated_table(unpinned,
                                                  IntegratorConfig()))

    def test_tolerance_flags_reproduce_the_old_default(self, unpinned,
                                                       tmp_path):
        # fig2_full.json pins rel 1e-9 / abs 1e-11, the default that an
        # unpinned config simulated at before it had its own.
        assert run_subcommand(["simulate", "--config", "c.json", "--out",
                               "flags", "--rel-tol", "1e-9",
                               "--abs-tol", "1e-11"]) == 0
        assert run_subcommand(["simulate", "--config", "fig2_full.json",
                               "--out", "pinned"]) == 0
        for suffix in (".csv", ".json"):
            assert (tmp_path / ("flags" + suffix)).read_bytes() == \
                (tmp_path / ("pinned" + suffix)).read_bytes()

    def test_pinned_shipped_config_keeps_its_tolerance(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_subcommand(["simulate", "--config", "fig2_full.json"]) \
            == 0
        _, data = read_csv(tmp_path / "simulate.csv")
        assert np.array_equal(data, simulated_table(
            load_config("fig2_full.json"), IntegratorConfig()))

    @pytest.mark.parametrize("section,flags,expected", [
        (None, [], SIMULATE_INTEGRATOR),
        (None, ["--rel-tol", "1e-8"], IntegratorConfig(1e-8, 1e-9)),
        (None, ["--abs-tol", "1e-10"], IntegratorConfig(1e-7, 1e-10)),
        ({"rel_tol": 1e-8}, [], IntegratorConfig(1e-8, 1e-9)),
        ({"rel_tol": 1e-8}, ["--abs-tol", "1e-10"],
         IntegratorConfig(1e-8, 1e-10)),
        ({"rel_tol": 1e-8, "abs_tol": 1e-10}, ["--rel-tol", "1e-6"],
         IntegratorConfig(1e-6, 1e-10)),
    ], ids=["default", "rel-flag", "abs-flag", "rel-section",
            "rel-section-abs-flag", "flag-over-section"])
    def test_simulate_merges_key_by_key(self, section, flags, expected,
                                        unpinned, monkeypatch):
        def spy(*args, cfg, **kwargs):
            assert cfg == expected
            raise _Called

        if section is not None:
            unpinned["integrator"] = section
            with open("c.json", "w", encoding="utf-8") as fh:
                json.dump(unpinned, fh)
        monkeypatch.setattr(cli, "simulate_network", spy)
        with pytest.raises(_Called):
            run_subcommand(["simulate", "--config", "c.json", *flags])

    @pytest.mark.parametrize("command", ["limit-cycle", "floquet", "msf"])
    def test_other_subcommands_merge_over_spectral_default(
            self, command, unpinned, monkeypatch):
        def spy(*args, cfg, **kwargs):
            assert cfg == IntegratorConfig(1e-8, 1e-11)
            raise _Called

        monkeypatch.setattr(cli, "find_limit_cycle", spy)
        with pytest.raises(_Called):
            run_subcommand([command, "--config", "c.json",
                            "--rel-tol", "1e-8"])


class TestConfigs:
    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_shipped_configs_round_trip(self, name):
        cfg = load_config(name)
        again = json.loads(json.dumps(cfg))
        assert again == cfg

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"name": "vdp"},
                                    "extra_section": 1}))
        with pytest.raises(ConfigError, match="extra_section"):
            load_config(str(path))

    def test_unknown_nested_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"coupling": {"K": 1.0, "strength": 2.0}}))
        with pytest.raises(ConfigError, match="coupling.strength"):
            load_config(str(path))

    def test_wrong_type(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"name": 7}}))
        with pytest.raises(ConfigError, match="model.name"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("no_such_config.json")

    def test_shipped_name_needs_extension(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("fig2_full")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    @pytest.mark.parametrize("make,message", [
        (lambda p: p.mkdir(), "cannot read config"),
        (lambda p: p.write_bytes(b'{"seed": "\xff"}'), "cannot read config"),
        (lambda p: p.write_text("[1, 2]"), "config must be a JSON object"),
    ], ids=["directory", "not-utf8", "top-level-array"])
    def test_unreadable_config_exits_2(self, make, message, tmp_path,
                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        make(tmp_path / "c.json")
        assert run_subcommand(["simulate", "--config", "c.json"]) == 2
        assert message in capsys.readouterr().err


class TestVerifyCommand:
    def test_unknown_model_name_exits_2(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"name": "wobbler"}}))
        assert run_subcommand(["verify", "--config", str(path)]) == 2
        assert "wobbler" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,seed", [([], 3), (["--seed", "5"], 5)],
                             ids=["config-seed", "flag-over-config"])
    def test_seed_flag_overrides_config(self, tmp_path, monkeypatch, flags,
                                        seed):
        seen = []

        def no_cycle(*args, **kwargs):
            raise FixedPointConvergence("cycle checks not under test")

        monkeypatch.setattr(checks, "eig_det_product_error",
                            lambda s: seen.append(s) or 0.0)
        monkeypatch.setattr(cli, "find_limit_cycle", no_cycle)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"seed": 3}))
        run_subcommand(["verify", "--quick", "--config", "c.json"] + flags)
        assert seen == [seed]

    @pytest.mark.parametrize("flags,config", [
        (["--seed", "-1"], {}), ([], {"seed": -2})], ids=["flag", "config"])
    def test_negative_seed_exits_2_before_any_check(
            self, flags, config, tmp_path, monkeypatch, capsys):
        def no_check(seed):
            raise AssertionError("a check ran with a negative seed")

        monkeypatch.setattr(checks, "eig_det_product_error", no_check)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(config))
        rc = run_subcommand(["verify", "--quick", "--config", "c.json"]
                            + flags)
        assert rc == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]

    def test_no_tolerance_flags(self):
        with pytest.raises(SystemExit):
            run_subcommand(["verify", "--rel-tol", "1e-6"])

    def test_quick_suite_passes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_subcommand(["verify", "--quick", "--out", "verify"])
        assert rc == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is True
        names = {check["check"] for check in report["checks"]}
        assert "shift-law-vdp" in names
        assert all(check["passed"] for check in report["checks"])

    def test_injected_sign_flip_fails(self, tmp_path, monkeypatch):
        # The direct route of the shift law integrates at -kappa.
        def flipped(model, lc, kappas, *args, **kwargs):
            return variational_factors(model, lc, [-k for k in kappas],
                                       *args, **kwargs)

        monkeypatch.setattr(checks, "variational_factors", flipped)
        monkeypatch.chdir(tmp_path)
        rc = run_subcommand(["verify", "--quick", "--out", "broken"])
        assert rc == 1
        report = json.loads((tmp_path / "broken.json").read_text())
        failed = {c["check"] for c in report["checks"] if not c["passed"]}
        assert "shift-law-vdp" in failed
