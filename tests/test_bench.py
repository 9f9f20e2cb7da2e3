import argparse
import csv
import filecmp
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mlmnet import bench, cli, config, fdref, pde
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


def test_every_registry_row_builds_its_problem_at_its_default_nu(tmp_path):
    no_true_solution = []
    for name, entry in bench.PROBLEMS.items():
        problem = entry.factory(entry.default_nu)
        assert isinstance(problem, pde.PdeProblem) and problem.nu == entry.default_nu
        if problem.true_solution is None:
            no_true_solution.append(name)
    assert no_true_solution == [
        "helmholtz2d-const", "helmholtz2d-two-layers", "helmholtz2d-four-layers",
        "helmholtz2d-sine",
    ]
    # a run caches an FD field for exactly the problems without a true solution
    for name in bench.PROBLEMS:
        campaign = Campaign(name="x", problem=name, r=4, fd_resolution=5, solvers=("lm",))
        bench.reference_for(campaign, campaign.system, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}_nu{bench.PROBLEMS[name].default_nu:g}_n5.npz" for name in no_true_solution
    )


def test_reference_for_is_the_true_solution_or_the_fd_field(tmp_path):
    campaign = tiny_campaign()
    assert bench.reference_for(campaign, campaign.system, tmp_path) is (
        campaign.system.problem.true_solution
    )
    assert not list(tmp_path.iterdir())
    campaign = Campaign(name="two-layers", problem="helmholtz2d-two-layers", r=4,
                        fd_resolution=17, solvers=("lm",))
    problem = campaign.system.problem
    grid = fdref.solve_helmholtz_fd(problem.nu, problem.velocity, problem.rhs_interior, 17)
    pts = campaign.system.test_grid()
    for cache_dir in (None, tmp_path):
        reference = bench.reference_for(campaign, campaign.system, cache_dir)
        assert np.array_equal(reference(pts), grid.sample(pts))
    assert [p.name for p in tmp_path.iterdir()] == ["helmholtz2d-two-layers_nu2_n17.npz"]


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
    mlm_row = [r for r in rows if r.solver == "mlm"][0]
    assert mlm_row.save_mean is not None and mlm_row.save_mean > 0
    lm_row = [r for r in rows if r.solver == "lm"][0]
    assert lm_row.save_mean is None


def test_campaign_determinism(tmp_path):
    paths = []
    for run in range(2):
        rows, _ = run_campaign(tiny_campaign(solvers=("lm", "mlm")))
        path = tmp_path / f"report{run}.csv"
        emit_report([("tiny", row) for row in rows], path)
        paths.append(path)
    assert filecmp.cmp(*paths, shallow=False)


def test_flop_parity_without_coarse_descents(monkeypatch, no_coarse_descents):
    # with the descent test disabled, the two-level solver is the one-level
    # solver: the same iterates, plus the restriction of each descent test
    built = []
    build = bench.build_transfer_operators

    def recording_build(J, arch, eps_amg=0.9):
        built.append(build(J, arch, eps_amg=eps_amg))
        return built[-1]

    monkeypatch.setattr(bench, "build_transfer_operators", recording_build)
    campaign = tiny_campaign(
        solvers=("lm", "mlm"), seeds=(0, 1, 2), overrides={"epsilon": 1e-3}
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
        # one go_down per distinct iterate offered, each restricting the dim + 2
        # weight blocks of the gradient: every iteration but the first offers
        # the iterate left by the one before, and only an accepted step, which
        # lowers the loss, changes it
        descent_tests = len(set(mlm_report.loss_history[1:-1]))
        restriction = (dim + 2) * 2 * campaign.r * ops.r_coarse
        assert mlm_report.matvec_flops - lm_report.matvec_flops == descent_tests * restriction


def test_seeds_run_in_sequence_only():
    with pytest.raises(ValueError, match="workers must be 1"):
        run_campaign(tiny_campaign(), workers=2)


def test_a_finished_campaign_run_keeps_no_activation_bases(monkeypatch):
    released = []
    release_bases = pde.ResidualSystem.release_bases

    def recording_release(self):
        released.append((self, self._bases is not None))
        release_bases(self)

    monkeypatch.setattr(pde.ResidualSystem, "release_bases", recording_release)
    first = tiny_campaign(overrides={"max_outer_iter": 3})
    second = tiny_campaign(name="other", problem="exp2d", r=4, seeds=(0, 1),
                           solvers=("lm", "mlm"), overrides={"max_outer_iter": 3})
    run_campaign(first)
    run_campaign(second)
    # each run held its system's bases until it returned, then dropped them
    assert released == [(first.system, True), (second.system, True)]
    assert first.system._bases is None and second.system._bases is None


def test_a_failed_rmse_fails_its_seed(monkeypatch):
    def failing_rmse(*args, **kwargs):
        raise ValueError("injected RMSE failure")

    monkeypatch.setattr(pde.ResidualSystem, "rmse", failing_rmse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the row and the seed carry the failure, not a warning
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
    emit_report([], path)
    assert path.read_text().splitlines() == [
        "campaign,solver,mean_iterations,rmse_geomean,rmse_seeds,save_min,save_mean,save_max,failures"
    ]


def test_emit_report_round_trip(tmp_path):
    path = tmp_path / "report.csv"
    emit_report([("demo", synthetic_row())], path)
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
    emit_report([("demo", synthetic_row())], path)
    payload = json.loads(path.read_text())
    assert payload[0]["campaign"] == "demo"
    assert payload[0]["save_max"] == pytest.approx(4.3)


def test_emit_report_quotes_a_campaign_name_with_a_comma(tmp_path):
    path = tmp_path / "report.csv"
    emit_report([("a,b", synthetic_row())], path)
    with open(path, newline="") as stream:
        header, record = list(csv.reader(stream))
    assert len(record) == len(header) == 9
    assert record[0] == "a,b" and record[1] == "mlm"


def test_emit_report_matches_golden(tmp_path):
    path = tmp_path / "golden.csv"
    emit_report([("demo", synthetic_row())], path)
    golden = DATA / "golden_report.csv"
    assert path.read_bytes() == golden.read_bytes()


def test_emit_report_of_an_lm_row_and_an_all_failed_row(tmp_path):
    # an lm row has no save_*; a solver that failed on every seed has NaN
    # aggregates and no per-seed RMSE: "" and "nan" in CSV, null and [] in JSON
    rows = [
        ("demo", ComparisonRow("lm", 507.0, [1.25e-4, 3.5e-4], 2.0916e-4)),
        ("demo", ComparisonRow("mlm", float("nan"), [], float("nan"), failures=2)),
    ]
    emit_report(rows, tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_text() == (
        "campaign,solver,mean_iterations,rmse_geomean,rmse_seeds,save_min,save_mean,save_max,failures\n"
        "demo,lm,507,0.00020916,0.000125;0.00035,,,,0\n"
        "demo,mlm,nan,nan,,,,,2\n"
    )
    emit_report(rows, tmp_path / "report.json")
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


def test_a_json_report_has_the_values_of_the_csv_report(tmp_path):
    # the rows of a real two-solver campaign, whose values have more than 6 digits
    rows, _ = run_campaign(tiny_campaign(nu=3, r=24, seeds=(0, 1), solvers=("lm", "mlm")))
    rows = [("determinism", row) for row in rows]
    emit_report(rows, tmp_path / "report.csv")
    emit_report(rows, tmp_path / "report.json")
    cells = parse_report_csv(tmp_path / "report.csv")
    records = json.loads((tmp_path / "report.json").read_text())
    assert len(cells) == len(records) == len(rows)
    for row, record in zip(cells, records):
        assert list(row) == list(record)
        for key, cell in row.items():
            if key in ("campaign", "solver"):
                assert cell == record[key]
            elif key == "failures":
                assert int(cell) == record[key]
            elif key == "rmse_seeds":
                assert [float(v) for v in cell.split(";") if v] == record[key]
            else:
                assert (None if cell in ("", "nan") else float(cell)) == record[key], key


# -- config files -------------------------------------------------------------------


CONFIG_TEXT = """
[campaign:quick]
problem = poisson1d
nu = 2
r = 16
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


def test_readme_campaign_example_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("## Campaign files", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "c.cfg"
    path.write_text(example)
    [campaign] = config.parse_campaign_file(path)
    assert campaign.problem == "poisson1d" and campaign.solvers == ("lm", "mlm")
    assert campaign.overrides == {"epsilon": 1e-4, "max_outer_iter": 2000}


def test_readme_cli_synopsis_matches_the_parser():
    # every subcommand and --flag of README's synopsis exists, and every option is in it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    synopsis = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in synopsis.splitlines():
        words = line.split()
        if words[0] == "mlmnet":
            command = documented.setdefault(words[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {
        name: {option for action in parser._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"}
        for name, parser in subparsers.choices.items()
    }
    assert documented == options


def test_the_cli_docs_name_the_tests_of_its_bad_input_cases():
    # cli's docstring and README's CLI section name the same tests, each one of this module
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(test_\w+)`", cli.__doc__))
    assert len(named) == 8 and named == set(re.findall(r"`(test_\w+)`", section))
    assert all(callable(globals().get(name)) for name in named)


def test_paper_campaigns_cover_the_registry_at_its_defaults():
    campaigns = config.parse_campaign_file(Path(__file__).parents[1] / "campaigns" / "paper.cfg")
    assert [c.problem for c in campaigns] == list(bench.PROBLEMS)
    for c in campaigns:
        entry = bench.PROBLEMS[c.problem]
        assert (c.nu, c.r) == (entry.default_nu, entry.default_r)
        assert c.seeds == tuple(range(10)) and c.solvers == ("lm", "mlm") and c.overrides == {}


def test_parse_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[campaign:x]\nproblem = poisson1d\nwarp = 9\n")
    with pytest.raises(ValueError):
        config.parse_campaign_file(path)
    removed = (
        "rebuild_operators", "cg_max_iter", "eta1", "eta2", "gamma1", "gamma2", "gamma3",
        "lambda0", "lambda_min", "theta", "kappa_h", "epsilon_h", "max_coarse_iter",
        "eps_amg", "penalty", "test_points_per_axis", "activation",
    )
    for key in removed:
        path.write_text(f"[campaign:x]\nproblem = poisson1d\n{key} = 1\n")
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            config.parse_campaign_file(path)
    path.write_text("[not-a-campaign]\nproblem = poisson1d\n")
    with pytest.raises(ValueError):
        config.parse_campaign_file(path)
    path.write_text("[campaign:x]\nnu = 3\n")
    with pytest.raises(ValueError):
        config.parse_campaign_file(path)


@pytest.mark.parametrize("setting", [
    "max_outer_iter = -1", "epsilon = -1", "epsilon = nan", "nu = 2.3", "nu = inf", "nu = -5",
    pytest.param("problem = helmholtz2d-const\nnu = inf", id="helmholtz2d-const nu = inf"),
    pytest.param("problem = helmholtz2d-const\nnu = 1e300", id="helmholtz2d-const nu = 1e300"),
    pytest.param("problem = helmholtz2d-const\nnu = -5", id="helmholtz2d-const nu = -5"),
    pytest.param("problem = helmholtz2d-const\nfd_resolution = 2", id="fd_resolution = 2"),
    # an FD solve's peak above pde.MAX_JACOBIAN_BYTES: refused before any array is built
    pytest.param("problem = helmholtz2d-two-layers\nfd_resolution = 1000000000",
                 id="fd_resolution = 1000000000"),
    # one above the largest M whose solve's peak fits the limit, on either FD solver
    pytest.param("problem = helmholtz2d-two-layers\nfd_resolution = 671",
                 id="two-layers fd_resolution = 671"),
    pytest.param("problem = helmholtz2d-sine\nfd_resolution = 671",
                 id="sine fd_resolution = 671"),
    # the training spacing 1/101 holds every point k/101 of the 100-point test axis
    "nu = 50.5",
    # above pde.MAX_JACOBIAN_BYTES: refused before the grid or the start is built
    pytest.param("problem = poisson2d\nnu = 1e300", id="poisson2d nu = 1e300"),
    "r = 1000000000",
    pytest.param("problem = poisson2d\nr = 1000000000", id="poisson2d r = 1000000000"),
    "seeds = -1", "seeds = 0 0", "seeds = 0 x", "solvers = lm lm",
    pytest.param("solvers = ", id="solvers ="),
    # every run would meet an infinite tolerance at iteration 0
    "epsilon = inf",
    # fixed values: a campaign that sets one stops on its unknown key
    "penalty = 0", "penalty = -1", "test_points_per_axis = 0", "test_points_per_axis = -5",
    "eps_amg = 1.5", "eps_amg = nan", "eps_amg = 0", "eps_amg = -1", "activation = relu",
    # the paper's values of keys that are gone
    "gamma3 = 2", "eps_amg = 0.5", "activation = sigmoid",
])
def test_out_of_range_setting_fails_before_any_campaign_runs(tmp_path, monkeypatch, capsys, setting):
    # the bad campaign takes the registry's nu unless its setting gives one
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
    ("[campaign:x]\nproblem = poisson1d\nmax_outer_iter = -1\n", "campaign 'x'"),
    # named as nu, not as the negative default boundary penalty it would give
    ("[campaign:x]\nproblem = poisson1d\nnu = -5\n",
     "campaign 'x': nu must be non-negative, got -5.0"),
    # r = 1 is too small only for the two-level solver
    ("[campaign:x]\nproblem = poisson1d\nr = 1\nsolvers = lm mlm\n",
     "campaign 'x': the two-level solver needs at least 2 hidden nodes to coarsen, got r=1"),
    ("problem = poisson1d\n", "no section headers"),
    (None, "No such file or directory"),
    # a value that does not convert is named with its campaign and key
    ("[campaign:x]\nproblem = poisson1d\nseeds = 0 x\n",
     "campaign 'x': key 'seeds': invalid literal for int() with base 10: 'x'"),
    ("[campaign:x]\nproblem = poisson1d\nnu = abc\n",
     "campaign 'x': key 'nu': could not convert string to float: 'abc'"),
    ("[campaign:x]\nproblem = poisson1d\nmax_outer_iter = 1e3\n",
     "campaign 'x': key 'max_outer_iter': invalid literal for int() with base 10: '1e3'"),
    # an infinite tolerance would stop every run at iteration 0 as converged
    ("[campaign:x]\nproblem = poisson1d\nepsilon = inf\n",
     "campaign 'x': epsilon must be positive and finite, got inf"),
], ids=["unknown-key", "unknown-problem", "out-of-range", "negative-nu", "r1-mlm", "no-section",
        "missing-file", "seeds-not-int", "nu-not-float", "max-outer-iter-not-int", "epsilon-inf"])
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


# -- CLI ----------------------------------------------------------------------------


def test_cli_list_problems(capsys):
    assert cli.main(["list-problems"]) == 0
    out = capsys.readouterr().out
    assert "poisson1d" in out and "helmholtz2d-sine" in out


def count_system_builds(monkeypatch):
    """A list that gets one entry per pde.ResidualSystem built from now on."""
    builds = []
    init = pde.ResidualSystem.__init__

    def counting_init(self, problem, arch):
        builds.append(arch.n_hidden)
        init(self, problem, arch)

    monkeypatch.setattr(pde.ResidualSystem, "__init__", counting_init)
    return builds


STARTUP_LOADS = """
import json, sys

import numpy as np

import mlmnet.cli
from mlmnet import bench, fdref, pde

def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def fd_solve(velocity):
    fdref.solve_helmholtz_fd(1.0, velocity, lambda z: np.ones(len(z)), 9)

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
    # loading scipy takes longer than all the rest of a Poisson set-up and adds
    # its own BLAS to the process; only the FD reference of a velocity varying
    # along z2 needs it
    lm_layered, mlm_ran, mlm_loaded, sine_loaded = json.loads(
        run_on_one_blas_thread(STARTUP_LOADS))
    assert lm_layered == []
    assert mlm_ran and mlm_loaded == []
    assert "scipy.sparse.linalg" in sine_loaded


PACKAGE_LOADS = """
import json, sys

import mlmnet

names = [key for key in vars(mlmnet) if not key.startswith("__")]
print(json.dumps([names, sorted(name for name in sys.modules if name.startswith("mlmnet."))]))
"""


def test_importing_the_package_loads_none_of_its_modules():
    # names are imported from the module that defines them; the package holds its docstring
    names, modules = json.loads(run_on_one_blas_thread(PACKAGE_LOADS))
    assert names == [] and modules == []


CHANGED_START = """
import sys

from mlmnet import bench, pde

campaign = bench.Campaign(name="changed", problem="poisson1d", nu=2, r=8, solvers=("mlm", "lm"),
                          overrides={"max_outer_iter": 5})
jacobian = pde.ResidualSystem.jacobian


def jacobian_writing_its_argument(system, p):
    # the first call is run_seed's, building mlm's operators at the starting point itself
    pde.ResidualSystem.jacobian = jacobian
    p[0] += 1.0
    return jacobian(system, p)


pde.ResidualSystem.jacobian = jacobian_writing_its_argument
try:
    bench.run_campaign(campaign)
except AssertionError as exc:
    print(sys.flags.optimize, exc)
"""


def test_a_changed_starting_point_raises_under_python_O():
    # both solvers of a seed must start from the same point; the check is plain code, not
    # an assert, so -O keeps it, and it is a programming error, not a recorded failure
    output = run_on_one_blas_thread(CHANGED_START, "-O")
    assert output == "1 seed 0's starting point changed before its lm run"


def test_cli_run_and_determinism(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    builds = count_system_builds(monkeypatch)
    assert cli.main(["run", str(cfg), "--out", str(out1)]) == 0
    assert builds == [16]  # the one lm campaign's system, checked and run
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # each failure is reported once, on its own line
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    failed = [line for line in err.splitlines() if "failed" in line]
    assert failed == [
        f"quick lm seed {seed}: failed: NumericalError: injected failure" for seed in (0, 1)
    ]
    assert [row["failures"] for row in parse_report_csv(tmp_path / "r.csv")] == ["2"]


def test_a_programming_error_in_a_solver_propagates(monkeypatch):
    def buggy_solver(*args, **kwargs):
        raise TypeError("injected bug")

    monkeypatch.setattr(bench, "lm_solve", buggy_solver)
    with pytest.raises(TypeError, match="injected bug"):
        run_campaign(tiny_campaign(seeds=(0, 1)))


def test_cli_run_lists_runs_stopped_at_the_cap(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT.replace("max_outer_iter = 300", "max_outer_iter = 3"))
    out, trace_dir = tmp_path / "r.csv", tmp_path / "traces"
    assert cli.main(["run", str(cfg), "--out", str(out), "--trace", str(trace_dir)]) == 0
    err = capsys.readouterr().err
    for seed in (0, 1):
        assert f"quick lm seed {seed}: stopped at the iteration cap after 3 iterations" in err
    assert parse_report_csv(out)[0]["failures"] == "0"
    # one trace per (campaign, solver, seed), with a row per iteration
    traces = sorted(trace_dir.iterdir())
    assert [p.name for p in traces] == ["trace_quick_lm_seed0.csv", "trace_quick_lm_seed1.csv"]
    assert all(len(parse_report_csv(p)) == 3 for p in traces)


@pytest.mark.parametrize("suffix, golden", [(".json", "golden_report.json"),
                                            (".txt", "golden_report.csv")],
                         ids=["json", "other-suffix"])
def test_cli_run_picks_the_report_format_from_the_out_suffix(
    tmp_path, monkeypatch, suffix, golden
):
    # the golden files pin the bytes of each format
    monkeypatch.setattr(bench, "run_campaign", lambda campaign, **kw: ([synthetic_row()], []))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[campaign:demo]\nproblem = poisson1d\nnu = 2\nr = 4\nsolvers = mlm\n")
    out = tmp_path / f"r{suffix}"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--seed", "3"], ["--solver", "lm"],
                                  ["--format", "json"]],
                         ids=["workers", "seed", "solver", "format"])
def test_cli_run_has_no_workers_option(tmp_path, monkeypatch, capsys, flag):
    # seeds and solvers come from the campaign file alone, the format from --out's suffix
    def run_campaign_stub(campaign, **kw):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(bench, "run_campaign", run_campaign_stub)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(cfg), "--out", str(tmp_path / "r.csv"), *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"mlmnet: error: unrecognized arguments: {' '.join(flag)}"
    assert err.count("error:") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("flag, path, message", [
    ("--out", "missing/dir/r.csv", "no directory"),
    ("--out", ".", "is a directory"),
    ("--trace", "taken", "File exists"),
    ("--cache", "taken", "is not a directory"),
    ("--cache", "taken/sub", "taken is not a directory"),
    ("--out", "x" * 300 + ".csv", "cannot be created: File name too long"),
    ("--cache", "y" * 300, "File name too long"),
], ids=["out-missing-dir", "out-directory", "trace-file", "cache-file", "cache-under-file",
        "out-too-long", "cache-too-long"])
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


@pytest.mark.parametrize("flags, clash", [
    (["--out", "x", "--trace", "x"], "--trace"),
    (["--out", "z.csv", "--cache", "z.csv"], "--cache"),
    (["--out", "x", "--cache", "x/sub"], "--cache"),
    (["--out", "a/../x", "--trace", "./x/t"], "--trace"),
    (["--out", ".mlmnet-cache"], "--cache"),
], ids=["out-is-trace", "out-is-cache", "out-above-cache", "out-is-trace-resolved",
        "out-is-default-cache"])
def test_cli_run_refuses_an_out_that_is_or_holds_its_trace_or_cache(
    tmp_path, monkeypatch, capsys, flags, clash
):
    # the run would make the trace or cache directory at or above the report's path, and
    # then lose the whole run to an IsADirectoryError when it writes the report
    def run_campaign_stub(campaign, **kw):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(bench, "run_campaign", run_campaign_stub)
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(CONFIG_TEXT)
    assert cli.main(["run", "c.cfg", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"mlmnet run: --out {Path(flags[1])}: is the {clash} directory or lies above it\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]


def test_cli_run_takes_an_out_inside_its_trace_or_cache_directory(tmp_path):
    # a report below the trace or cache directory does not clash with it
    (tmp_path / "d").mkdir()
    out = tmp_path / "d" / "r.csv"
    assert cli._path_error("run", out=out, cache=tmp_path / "d", trace=tmp_path / "d") is None
    assert cli._path_error("run", out=out, cache=tmp_path / "d" / "r.csvx") is None


def test_cli_run_reports_a_trace_through_a_symlink_loop(tmp_path, monkeypatch, capsys):
    # comparing --out with a path through a symlink loop raises nothing; the loop is reported
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(CONFIG_TEXT)
    Path("loop").symlink_to("loop")
    assert cli.main(["run", "c.cfg", "--out", "r.csv", "--trace", "loop/x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("mlmnet run: --trace loop/x: ")
    assert "symbolic links" in captured.err and captured.err.count("\n") == 1


def test_cli_run_checks_that_its_out_directory_takes_new_files(tmp_path, monkeypatch, capsys):
    # tests may run as root, which mode bits do not stop, so the probe fails by injection
    def refusing(*args, **kw):
        raise PermissionError(13, "Permission denied")

    def run_campaign_stub(campaign, **kw):
        raise AssertionError("a campaign ran")

    # the probe opens --out itself for appending
    monkeypatch.setattr(cli, "open", refusing, raising=False)
    monkeypatch.setattr(bench, "run_campaign", run_campaign_stub)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "r.csv"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"mlmnet run: --out {out}: cannot be created: Permission denied\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]


@pytest.mark.parametrize("argv, message", [
    (["split-inspect", "--nu", "2", "--r", "12", "--out", "missing/dir/x.txt"],
     "split-inspect: --out missing/dir/x.txt: no directory missing/dir"),
    (["split-inspect", "--nu", "2", "--r", "12", "--out", "x" * 300 + ".txt"],
     f"split-inspect: --out {'x' * 300}.txt: cannot be created: File name too long"),
], ids=["split-out-missing-dir", "split-out-too-long"])
def test_cli_checks_its_paths_before_any_work(tmp_path, monkeypatch, capsys, argv, message):
    def work_stub(*args, **kw):
        raise AssertionError("work started")

    monkeypatch.setattr(pde.ResidualSystem, "jacobian", work_stub)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"mlmnet {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, why", [
    ("a/b", "No such file or directory"),
    ("x" * 250, "File name too long"),
], ids=["slash", "too-long"])
def test_cli_run_refuses_a_campaign_its_trace_files_cannot_name(tmp_path, capsys, name, why):
    # trace files are named after their campaign: a name the file system refuses stops
    # the run before the valid campaign ahead of it runs; without --trace it runs
    campaign = ["problem = poisson1d", "nu = 2", "r = 4", "solvers = lm", "max_outer_iter = 5"]
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(["[campaign:good]", *campaign, f"[campaign:{name}]", *campaign]))
    out, trace_dir = tmp_path / "r.csv", tmp_path / "traces"
    assert cli.main(["run", str(cfg), "--out", str(out), "--trace", str(trace_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"mlmnet run: --trace {trace_dir}: campaign {name!r}: ")
    assert why in captured.err
    assert not out.exists() and list(trace_dir.iterdir()) == []
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert [row["campaign"] for row in parse_report_csv(out)] == ["good", name]


@pytest.mark.parametrize("solver, n_builds", [("lm", 1), ("mlm", 2)])
def test_a_campaign_runs_the_system_it_validated(monkeypatch, solver, n_builds):
    builds = count_system_builds(monkeypatch)
    campaign = tiny_campaign(solvers=(solver,))
    assert builds == [16] and bench.build_system(campaign) is campaign.system
    run_campaign(campaign)
    # no second fine build; mlm adds its coarse system, on fewer hidden nodes
    assert len(builds) == n_builds and all(r < 16 for r in builds[1:])


def test_cli_split_inspect(tmp_path, monkeypatch):
    builds = count_system_builds(monkeypatch)
    out = tmp_path / "split.txt"
    code = cli.main([
        "split-inspect", "--problem", "poisson1d", "--nu", "2", "--r", "12",
        "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    # the coupling matrix, the split and the operators, byte for byte
    assert out.read_bytes() == (DATA / "golden_split.txt").read_bytes()
    assert builds == [12]  # the campaign's own system, built once


@pytest.mark.parametrize("argv, message", [
    # split-inspect checks its settings as the one-seed mlm campaign they define
    (["split-inspect", "--r", "1"],
     "campaign 'poisson1d': the two-level solver needs at least 2 hidden nodes to coarsen, "
     "got r=1"),
    (["split-inspect", "--nu", "2.3"], "campaign 'poisson1d': 2*nu must be an integer"),
    # a flag that is gone: argparse prints its usage and the error, with status 2
    (["split-inspect", "--activation", "sigmoid"], "unrecognized arguments: --activation sigmoid"),
    (["split-inspect", "--eps-amg", "0.5"], "unrecognized arguments: --eps-amg 0.5"),
    (["split-inspect", "--nu", "inf"], "campaign 'poisson1d': nu must be finite"),
    (["split-inspect", "--problem", "poisson2d", "--nu", "1e300"],
     "campaign 'poisson2d': nu=1e+300 asks for more than 134217728 training points"),
    (["split-inspect", "--r", "1000000000"],
     "campaign 'poisson1d': the Jacobian of nu=20 and r=1000000000, 41 rows by 3000000001 columns"),
    (["split-inspect", "--seed", "-1"],
     "campaign 'poisson1d': a seed must be a non-negative integer, got -1"),
    # before the default boundary penalty 0.1 (2 nu + 1), which a negative nu makes negative
    (["split-inspect", "--nu", "-5"], "campaign 'poisson1d': nu must be non-negative, got -5.0"),
    (["split-inspect", "--nu", "-0.5"], "campaign 'poisson1d': nu must be non-negative, got -0.5"),
    # the training spacing 1/101 holds every point k/101 of the 100-point RMSE test axis
    (["split-inspect", "--nu", "50.5"],
     "campaign 'poisson1d': the test grid of TEST_POINTS_PER_AXIS=100 lies entirely on training"),
], ids=["split-r", "split-nu", "split-activation", "split-eps-amg", "split-nu-inf", "split-nu-1e300",
        "split-r-1e9", "split-seed", "split-nu-negative", "split-nu-negative-half",
        "split-nu-50.5"])
def test_cli_bad_settings_end_in_one_line(tmp_path, capsys, argv, message):
    try:
        status = cli.main(argv + ["--out", str(tmp_path / "split.txt")])
    except SystemExit as exc:
        status = exc.code
    assert status == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert message in captured.err and not list(tmp_path.iterdir())
    if "unrecognized" not in message:
        assert captured.err.startswith("mlmnet split-inspect: campaign ")
        assert captured.err.count("\n") == 1


def test_cli_run_caches_the_fd_field_and_loads_it_again(tmp_path, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[campaign:const]\nproblem = helmholtz2d-const\nnu = 1\nr = 4\nsolvers = lm\n"
                   "fd_resolution = 33\nmax_outer_iter = 0\n")
    cache, first, second = tmp_path / "cache", tmp_path / "first.csv", tmp_path / "second.csv"
    assert cli.main(["run", str(cfg), "--out", str(first), "--cache", str(cache)]) == 0
    assert [p.name for p in cache.iterdir()] == ["helmholtz2d-const_nu1_n33.npz"]

    # a second run loads the file and solves nothing
    def no_solve(*args, **kwargs):
        raise AssertionError("solved again")

    monkeypatch.setattr(fdref, "solve_helmholtz_fd", no_solve)
    assert cli.main(["run", str(cfg), "--out", str(second), "--cache", str(cache)]) == 0
    assert filecmp.cmp(first, second, shallow=False)
