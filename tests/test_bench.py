import csv
import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from mlmnet import bench, cli, config
from mlmnet.bench import Campaign, ComparisonRow, emit_report, initial_guess, run_campaign
from mlmnet.linsolve import NumericalError

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
    assert len(bench.list_problems()) == 9


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


def test_parallel_workers_match_sequential():
    campaign = tiny_campaign(seeds=(0, 1, 2))
    sequential, _ = run_campaign(campaign, workers=1)
    threaded, _ = run_campaign(campaign, workers=3)
    assert sequential[0].rmse_seeds == threaded[0].rmse_seeds
    assert sequential[0].mean_iterations == threaded[0].mean_iterations


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


def test_emit_report_matches_golden(tmp_path):
    path = tmp_path / "golden.csv"
    emit_report([("demo", synthetic_row())], "csv", path)
    golden = DATA / "golden_report.csv"
    assert path.read_bytes() == golden.read_bytes()


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


@pytest.mark.parametrize("setting", ["cg_max_iter = 0", "epsilon = -1"])
def test_out_of_range_setting_fails_before_any_campaign_runs(tmp_path, monkeypatch, capsys, setting):
    path = tmp_path / "c.cfg"
    path.write_text(
        "[campaign:good]\nproblem = poisson1d\nnu = 2\nr = 4\nsolvers = lm\n"
        f"[campaign:bad]\nproblem = poisson1d\nnu = 2\nr = 4\nsolvers = lm\n{setting}\n"
    )
    ran = []
    monkeypatch.setattr(bench, "run_campaign", lambda campaign, **kw: ran.append(campaign))
    out = tmp_path / "report.csv"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    assert "campaign 'bad'" in capsys.readouterr().err
    assert ran == [] and not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[campaign:x]\nproblem = poisson1d\nwarp = 9\n", "unknown key 'warp'"),
    ("[campaign:x]\nproblem = nope\n", "unknown problem 'nope'"),
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
    assert "at least 2 hidden nodes" in capsys.readouterr().err
    assert ran == [] and not out.exists()
    # a valid override gives a rebuilt campaign, its solver settings included
    assert cli.main(["run", str(path), "--out", str(out), "--seed", "4", "--seed", "5"]) == 0
    (campaign,) = ran
    assert campaign.seeds == (4, 5) and campaign.lm_config.epsilon == 1e-3


# -- CLI ----------------------------------------------------------------------------


def test_cli_list_problems(capsys):
    assert cli.main(["list-problems"]) == 0
    out = capsys.readouterr().out
    assert "poisson1d" in out and "helmholtz2d-sine" in out


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


def test_cli_fd_ref_cache(tmp_path, capsys):
    code = cli.main([
        "fd-ref", "--problem", "helmholtz2d-const", "--nu", "1",
        "--resolution", "33", "--cache", str(tmp_path),
    ])
    assert code == 0
    assert list(tmp_path.glob("helmholtz2d_*.npz"))
