import csv
import filecmp
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from mlmnet import bench, cli, config, pde
from mlmnet.bench import Campaign, ComparisonRow, emit_report, initial_guess, run_campaign
from mlmnet.linsolve import NumericalError

from conftest import run_on_one_blas_thread

DATA = Path(__file__).parent / "data"


def parse_report_csv(path):
    """Read back an emitted CSV report as a list of dicts (strings kept)."""
    with open(path, newline="") as stream:
        return list(csv.DictReader(stream))


def tiny_campaign(**kw):
    defaults = dict(
        name="tiny",
        problem="poisson1d",
        nu=2,
        r=16,
        seeds=(0,),
        solvers=("lm",),
        overrides={"epsilon": 1e-3, "max_outer_iter": 400},
    )
    defaults.update(kw)
    return Campaign(**defaults)


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign(name="x", problem="nope")
    with pytest.raises(ValueError):
        Campaign(name="x", problem="poisson1d", seeds=())
    with pytest.raises(ValueError):
        Campaign(name="x", problem="poisson1d", solvers=("gauss",))
    with pytest.raises(ValueError):
        Campaign(name="x", problem="poisson1d", r=1, solvers=("mlm",))
    with pytest.raises(ValueError):
        tiny_campaign(overrides={"bogus": 1.0})


def test_registry_defaults_applied():
    c = Campaign(name="x", problem="poisson1d")
    assert c.nu == 20 and c.r == 512
    assert len(bench.PROBLEMS) == 9


def test_initial_guess_reproducible():
    a = initial_guess(7, 20)
    b = initial_guess(7, 20)
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 1.0
    assert not np.array_equal(a, initial_guess(8, 20))


def test_tiny_campaign_run():
    rows, seeds = run_campaign(tiny_campaign())
    assert len(rows) == 1
    row = rows[0]
    assert row.solver == "lm"
    assert row.failures == 0
    assert np.isfinite(row.rmse_geomean)
    assert seeds[0].reports["lm"].converged


def test_both_solvers_share_initial_guess():
    rows, seeds = run_campaign(tiny_campaign(solvers=("lm", "mlm")))
    res = seeds[0]
    assert set(res.reports) == {"lm", "mlm"}
    assert res.p0_digest  # one digest, asserted identical per solver internally
    mlm_row = [r for r in rows if r.solver == "mlm"][0]
    assert mlm_row.save_mean is not None and mlm_row.save_mean > 0
    lm_row = [r for r in rows if r.solver == "lm"][0]
    assert lm_row.save_mean is None


def test_campaign_determinism(tmp_path):
    paths = []
    for run in range(2):
        rows, _ = run_campaign(tiny_campaign(solvers=("lm", "mlm")))
        path = tmp_path / f"report{run}.csv"
        emit_report([("tiny", row) for row in rows], "csv", path)
        paths.append(path)
    assert filecmp.cmp(*paths, shallow=False)


def test_flop_parity_without_coarse_descents(monkeypatch):
    # with the descent test disabled, the two-level solver is the one-level
    # solver: the same iterates, plus the restriction of each descent test
    built = []
    build = bench.build_transfer_operators

    def recording_build(J, arch, eps_amg=0.9):
        built.append(build(J, arch, eps_amg=eps_amg))
        return built[-1]

    monkeypatch.setattr(bench, "build_transfer_operators", recording_build)
    campaign = tiny_campaign(
        solvers=("lm", "mlm"), seeds=(0, 1, 2), overrides={"epsilon": 1e-3, "epsilon_h": 1e12}
    )
    rows, seeds = run_campaign(campaign)
    save = [r for r in rows if r.solver == "mlm"][0].save_mean
    assert 0.85 < save <= 1.0
    dim = 1  # poisson1d
    assert len(built) == len(seeds) == 3
    for res, ops in zip(seeds, built):
        lm_report, mlm_report = res.reports["lm"], res.reports["mlm"]
        assert mlm_report.iterations == lm_report.iterations > 1
        assert mlm_report.loss_history == lm_report.loss_history
        assert np.array_equal(mlm_report.final_params, lm_report.final_params)
        assert mlm_report.coarse_steps == 0
        # one go_down after every iteration but the first, each restricting
        # the dim + 2 weight blocks of the gradient
        descent_tests = mlm_report.iterations - 1
        restriction = (dim + 2) * 2 * campaign.r * ops.r_coarse
        assert mlm_report.matvec_flops - lm_report.matvec_flops == descent_tests * restriction


def test_seeds_run_in_sequence_only():
    with pytest.raises(ValueError, match="workers must be 1"):
        run_campaign(tiny_campaign(), workers=2)


def test_a_failed_rmse_fails_its_seed(monkeypatch):
    def failing_rmse(*args, **kwargs):
        raise ValueError("injected RMSE failure")

    monkeypatch.setattr(pde.ResidualSystem, "rmse", failing_rmse)
    with pytest.warns(UserWarning, match="1 seed"):
        rows, (result,) = run_campaign(tiny_campaign())
    assert rows[0].failures == 1 and result.reports == {}
    assert result.errors == {"lm": "ValueError: injected RMSE failure"}


@pytest.mark.parametrize("name", sorted(bench.PROBLEMS))
def test_every_registry_problem_runs_under_both_solvers(name, tmp_path):
    # a small campaign of each problem, Helmholtz ones through their FD
    # reference: each run ends with a report or a declared failure
    campaign = Campaign(
        name=name, problem=name, r=16, fd_resolution=33, solvers=("lm", "mlm"),
        overrides={"max_outer_iter": 30},
    )
    rows, (result,) = run_campaign(campaign, cache_dir=tmp_path)
    assert set(result.reports) | set(result.errors) == {"lm", "mlm"}
    for solver, report in result.reports.items():
        assert report.iterations <= 30
        assert np.isfinite(result.rmse[solver])
    for message in result.errors.values():
        assert message.startswith("NumericalError: ")
    assert [row.solver for row in rows] == ["lm", "mlm"]


def test_an_overflowing_trial_is_a_quiet_rejected_step():
    # exp2d seed 1 tries a step whose exp(u) overflows: a rejected step, not a warning
    campaign = Campaign(
        name="exp2d", problem="exp2d", r=16, seeds=(1,), solvers=("lm", "mlm"),
        overrides={"max_outer_iter": 30},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, (result,) = run_campaign(campaign)
    assert result.errors == {}
    assert [result.reports[s].iterations for s in ("lm", "mlm")] == [6, 13]
    assert all(report.converged for report in result.reports.values())


def test_the_fd_reference_is_the_same_with_and_without_a_cache(tmp_path):
    # no cache solves the FD field in place; a cache solves it once, then loads it
    campaign = Campaign(
        name="two-layers", problem="helmholtz2d-two-layers", r=16, fd_resolution=33,
        solvers=("lm",), overrides={"max_outer_iter": 5},
    )
    rmse = [run_campaign(campaign, cache_dir=cache)[0][0].rmse_geomean
            for cache in (None, tmp_path, tmp_path)]
    assert len(list(tmp_path.iterdir())) == 1
    assert rmse[0] == rmse[1] == rmse[2] and np.isfinite(rmse[0])


# -- reports ------------------------------------------------------------------------


def synthetic_row():
    return ComparisonRow(
        solver="mlm",
        mean_iterations=507.0,
        rmse_seeds=[1.25e-4, 3.5e-4],
        rmse_geomean=2.0916e-4,
        save_min=1.1,
        save_mean=2.6,
        save_max=4.3,
    )


def test_emit_report_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], "csv", path)
    assert path.read_text().splitlines() == [
        "campaign,solver,mean_iterations,rmse_geomean,rmse_seeds,save_min,save_mean,save_max,failures"
    ]


def test_emit_report_round_trip(tmp_path):
    path = tmp_path / "report.csv"
    emit_report([("demo", synthetic_row())], "csv", path)
    back = parse_report_csv(path)
    assert len(back) == 1
    rec = back[0]
    assert rec["solver"] == "mlm"
    assert float(rec["mean_iterations"]) == 507.0
    assert float(rec["save_mean"]) == pytest.approx(2.6, rel=1e-6)
    parts = [float(v) for v in rec["rmse_seeds"].split(";")]
    assert parts == pytest.approx([1.25e-4, 3.5e-4], rel=1e-6)


def test_emit_report_json(tmp_path):
    path = tmp_path / "report.json"
    emit_report([("demo", synthetic_row())], "json", path)
    payload = json.loads(path.read_text())
    assert payload[0]["campaign"] == "demo"
    assert payload[0]["save_max"] == pytest.approx(4.3)
    with pytest.raises(ValueError):
        emit_report([], "xml", tmp_path / "report.xml")


def test_emit_report_quotes_a_campaign_name_with_a_comma(tmp_path):
    path = tmp_path / "report.csv"
    emit_report([("a,b", synthetic_row())], "csv", path)
    with open(path, newline="") as stream:
        header, record = list(csv.reader(stream))
    assert len(record) == len(header) == 9
    assert record[0] == "a,b" and record[1] == "mlm"


def test_emit_report_matches_golden(tmp_path):
    path = tmp_path / "golden.csv"
    emit_report([("demo", synthetic_row())], "csv", path)
    golden = DATA / "golden_report.csv"
    assert path.read_bytes() == golden.read_bytes()


def test_emit_report_of_an_lm_row_and_an_all_failed_row(tmp_path):
    # an lm row has no save_*; a solver that failed on every seed has NaN
    # aggregates and no per-seed RMSE: "" and "nan" in CSV, null and [] in JSON
    rows = [
        ("demo", ComparisonRow("lm", 507.0, [1.25e-4, 3.5e-4], 2.0916e-4)),
        ("demo", ComparisonRow("mlm", float("nan"), [], float("nan"), failures=2)),
    ]
    emit_report(rows, "csv", tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_text() == (
        "campaign,solver,mean_iterations,rmse_geomean,rmse_seeds,save_min,save_mean,save_max,failures\n"
        "demo,lm,507,0.00020916,0.000125;0.00035,,,,0\n"
        "demo,mlm,nan,nan,,,,,2\n"
    )
    emit_report(rows, "json", tmp_path / "report.json")
    text = (tmp_path / "report.json").read_text()
    assert text.endswith("]\n") and "NaN" not in text
    assert json.loads(text) == [
        {"campaign": "demo", "solver": "lm", "mean_iterations": 507.0,
         "rmse_geomean": 0.00020916, "rmse_seeds": [0.000125, 0.00035],
         "save_min": None, "save_mean": None, "save_max": None, "failures": 0},
        {"campaign": "demo", "solver": "mlm", "mean_iterations": None,
         "rmse_geomean": None, "rmse_seeds": [],
         "save_min": None, "save_mean": None, "save_max": None, "failures": 2},
    ]


# -- config files -------------------------------------------------------------------


CONFIG_TEXT = """
[campaign:quick]
problem = poisson1d
nu = 2
r = 16
activation = sigmoid
seeds = 0 1
solvers = lm
epsilon = 1e-3
max_outer_iter = 300
"""


def test_parse_campaign_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(CONFIG_TEXT)
    campaigns = config.parse_campaign_file(path)
    assert len(campaigns) == 1
    c = campaigns[0]
    assert c.name == "quick"
    assert c.seeds == (0, 1)
    assert c.overrides == {"epsilon": 1e-3, "max_outer_iter": 300}


def test_parse_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[campaign:x]\nproblem = poisson1d\nwarp = 9\n")
    with pytest.raises(ValueError):
        config.parse_campaign_file(path)
    path.write_text("[campaign:x]\nproblem = poisson1d\nrebuild_operators = true\n")
    with pytest.raises(ValueError, match="unknown key 'rebuild_operators'"):
        config.parse_campaign_file(path)
    path.write_text("[not-a-campaign]\nproblem = poisson1d\n")
    with pytest.raises(ValueError):
        config.parse_campaign_file(path)
    path.write_text("[campaign:x]\nnu = 3\n")
    with pytest.raises(ValueError):
        config.parse_campaign_file(path)


@pytest.mark.parametrize("setting", [
    "cg_max_iter = 0", "epsilon = -1", "penalty = 0", "penalty = -1", "nu = 2.3",
    "activation = relu",
    pytest.param("problem = helmholtz2d-const\nfd_resolution = 2", id="fd_resolution = 2"),
    "test_points_per_axis = 0", "test_points_per_axis = -5", "test_points_per_axis = 7",
    "eps_amg = 1.5", "eps_amg = nan", "eps_amg = 0", "eps_amg = -1",
    "seeds = -1", "seeds = 0 0",
])
def test_out_of_range_setting_fails_before_any_campaign_runs(tmp_path, monkeypatch, capsys, setting):
    # the bad campaign takes the registry's nu unless its setting gives one: at
    # nu = 20 the training spacing 1/40 holds every test point k/8
    bad = {"problem": "poisson1d", "r": "4", "solvers": "lm"}
    bad.update(line.split(" = ") for line in setting.split("\n"))
    path = tmp_path / "c.cfg"
    path.write_text(
        "[campaign:good]\nproblem = poisson1d\nnu = 2\nr = 4\nsolvers = lm\n[campaign:bad]\n"
        + "".join(f"{key} = {value}\n" for key, value in bad.items())
    )
    ran = []
    monkeypatch.setattr(bench, "run_campaign", lambda campaign, **kw: ran.append(campaign))
    out = tmp_path / "report.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "campaign 'bad'" in err and err.count("\n") == 1
    assert ran == [] and not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[campaign:x]\nproblem = poisson1d\nwarp = 9\n", "unknown key 'warp'"),
    ("[campaign:x]\nproblem = nope\n",
     "campaign 'x': unknown problem 'nope'; see mlmnet list-problems"),
    ("[campaign:x]\nproblem = poisson1d\ncg_max_iter = 0\n", "campaign 'x'"),
    ("problem = poisson1d\n", "no section headers"),
    (None, "No such file or directory"),
], ids=["unknown-key", "unknown-problem", "out-of-range", "no-section", "missing-file"])
def test_cli_run_reports_a_malformed_file_in_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "c.cfg"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "report.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"mlmnet run: {path}: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


def test_cli_solver_override_is_validated(tmp_path, monkeypatch, capsys):
    ran = []

    def run_campaign_stub(campaign, **kw):
        ran.append(campaign)
        return [], []

    monkeypatch.setattr(bench, "run_campaign", run_campaign_stub)
    # the file alone is valid: r = 1 is too small only for the two-level solver
    path = tmp_path / "c.cfg"
    path.write_text("[campaign:x]\nproblem = poisson1d\nnu = 2\nr = 1\nsolvers = lm\nepsilon = 1e-3\n")
    out = tmp_path / "report.csv"
    assert cli.main(["run", str(path), "--out", str(out), "--solver", "mlm"]) == 2
    err = capsys.readouterr().err
    assert "campaign 'x': the two-level solver needs at least 2 hidden nodes" in err
    assert ran == [] and not out.exists()
    # a valid override gives a rebuilt campaign, its solver settings included
    assert cli.main(["run", str(path), "--out", str(out), "--seed", "4", "--seed", "5"]) == 0
    (campaign,) = ran
    assert campaign.seeds == (4, 5) and campaign.solver_config.epsilon == 1e-3


# -- CLI ----------------------------------------------------------------------------


def test_cli_list_problems(capsys):
    assert cli.main(["list-problems"]) == 0
    out = capsys.readouterr().out
    assert "poisson1d" in out and "helmholtz2d-sine" in out


STARTUP_LOADS = """
import json, sys

import numpy as np

import mlmnet, mlmnet.cli
from mlmnet import bench, pde

def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def fd_solve(velocity):
    mlmnet.solve_helmholtz_fd(1.0, velocity, lambda z: np.ones(len(z)), 9)

settings = dict(name="determinism", problem="poisson1d", nu=3, r=24, seeds=(0, 1),
                overrides={"epsilon": 1e-3, "max_outer_iter": 300})
bench.run_campaign(bench.Campaign(solvers=("lm",), **settings))
fd_solve(pde.velocity_two_layers)
lm_layered_loaded = scipy_loaded()
_, results = bench.run_campaign(bench.Campaign(solvers=("mlm",), **settings))
mlm_ran = all(not res.errors and "mlm" in res.reports for res in results)
mlm_loaded = scipy_loaded()
fd_solve(pde.velocity_sine)
print(json.dumps([lm_layered_loaded, mlm_ran, mlm_loaded, scipy_loaded()]))
"""


def test_scipy_loads_only_in_the_functions_that_call_it():
    # loading scipy takes longer than all the rest of a Poisson set-up; only
    # mlm's coarse solve and the FD reference of a velocity varying along z2 need it
    lm_layered, mlm_ran, mlm_loaded, sine_loaded = json.loads(
        run_on_one_blas_thread(STARTUP_LOADS))
    assert lm_layered == []
    assert mlm_ran and "scipy.linalg" in mlm_loaded
    assert "scipy.sparse.linalg" not in mlm_loaded and "scipy.sparse.linalg" in sine_loaded


def test_cli_run_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(["run", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    captured = capsys.readouterr()
    assert "report written" in captured.out
    assert captured.err == ""  # every run converged: nothing to list


def test_cli_run_prints_each_seed_failure(tmp_path, capsys, monkeypatch):
    def failing_solver(*args, **kwargs):
        raise NumericalError("injected failure")

    monkeypatch.setattr(bench, "lm_solve", failing_solver)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT)
    with pytest.warns(UserWarning, match="2 seed"):
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    for seed in (0, 1):
        assert f"quick lm seed {seed}: failed: NumericalError: injected failure" in err


def test_a_programming_error_in_a_solver_propagates(monkeypatch):
    def buggy_solver(*args, **kwargs):
        raise TypeError("injected bug")

    monkeypatch.setattr(bench, "lm_solve", buggy_solver)
    with pytest.raises(TypeError, match="injected bug"):
        run_campaign(tiny_campaign(seeds=(0, 1)))


def test_cli_run_lists_runs_stopped_at_the_cap(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT.replace("max_outer_iter = 300", "max_outer_iter = 3"))
    out = tmp_path / "r.csv"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    for seed in (0, 1):
        assert f"quick lm seed {seed}: stopped at the iteration cap after 3 iterations" in err
    assert parse_report_csv(out)[0]["failures"] == "0"


def test_cli_run_has_no_workers_option(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(cfg), "--out", str(tmp_path / "r.csv"), "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("flag, path, message", [
    ("--out", "missing/dir/r.csv", "no directory"),
    ("--out", ".", "is a directory"),
    ("--trace", "taken", "File exists"),
    ("--cache", "taken", "is not a directory"),
], ids=["out-missing-dir", "out-directory", "trace-file", "cache-file"])
def test_cli_run_checks_its_paths_before_any_campaign_runs(
    tmp_path, monkeypatch, capsys, flag, path, message
):
    def run_campaign_stub(campaign, **kw):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(bench, "run_campaign", run_campaign_stub)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT)
    (tmp_path / "taken").write_text("")
    # a second --out replaces the first
    argv = ["run", str(cfg), "--out", str(tmp_path / "r.csv"), flag, str(tmp_path / path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"mlmnet run: {flag} {tmp_path / path}: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "taken"]


def test_cli_run_seed_solver_overrides(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "r.csv"
    trace_dir = tmp_path / "traces"
    code = cli.main([
        "run", str(cfg), "--out", str(out), "--seed", "3",
        "--solver", "lm", "--trace", str(trace_dir),
    ])
    assert code == 0
    rows = parse_report_csv(out)
    assert len(rows) == 1
    assert (trace_dir / "trace_quick_lm_seed3.csv").exists()


def test_cli_split_inspect(tmp_path, capsys):
    out = tmp_path / "split.txt"
    code = cli.main([
        "split-inspect", "--problem", "poisson1d", "--nu", "2", "--r", "12",
        "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    assert "coupling matrix" in out.read_text()


@pytest.mark.parametrize("argv, message", [
    (["split-inspect", "--r", "1"], "--r 1: coarsening needs at least 2 hidden nodes"),
    (["split-inspect", "--nu", "2.3"], "--nu 2.3: 2*nu must be an integer"),
    (["split-inspect", "--activation", "relu"], "--activation relu: unknown activation"),
    (["split-inspect", "--eps-amg", "1.5"], "--eps-amg 1.5: eps_amg must lie in (0, 1]"),
    (["split-inspect", "--seed", "-1"], "--seed -1: a seed must be a non-negative integer"),
    (["fd-ref", "--resolution", "2"], "at least 3 points per axis"),
    # nu puts (2 pi nu / 40)^2 on the lowest eigenvalue of the 17-point Laplacian
    (["fd-ref", "--nu", "28.238857824564523", "--resolution", "17"],
     "discrete Helmholtz operator is singular"),
], ids=["split-r", "split-nu", "split-activation", "split-eps-amg", "split-seed",
        "fd-resolution", "fd-resonance"])
def test_cli_bad_settings_end_in_one_line(tmp_path, capsys, argv, message):
    target = ["--out", str(tmp_path / "split.txt")] if argv[0] == "split-inspect" else [
        "--cache", str(tmp_path)]
    assert cli.main(argv + target) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"mlmnet {argv[0]}: ") and "campaign" not in captured.err
    assert message in captured.err and captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_cli_fd_ref_cache(tmp_path, capsys):
    code = cli.main([
        "fd-ref", "--problem", "helmholtz2d-const", "--nu", "1",
        "--resolution", "33", "--cache", str(tmp_path),
    ])
    assert code == 0
    assert list(tmp_path.glob("helmholtz2d_*.npz"))
