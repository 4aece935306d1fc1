"""Command-line plumbing: commands, exit codes, reproducible bytes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from chaincover.chain import nested_chain
from chaincover.cli import cli, main
from chaincover.compress import select
from chaincover.conformal import LabeledPair, calibrate, fixed_context_fit
from chaincover.experiments import adversarial_rows
from chaincover.hypergraph import (
    InputError,
    WeightedHypergraph,
    rational_from_text,
    rational_to_text,
)
from chaincover.io import (
    canonical_json,
    load_chain,
    load_instance,
    result_csv,
    save_chain,
    save_instance,
)

from conftest import child_env, run_child

@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def instance_file(tmp_path, three_path_instance):
    path = tmp_path / "inst.json"
    save_instance(path, three_path_instance)
    return str(path)


def _run(args, cwd, env=None):
    """Run ``cli.main`` (the ``chaincover`` script target) as a child process.

    ``python -m chaincover.cli`` needs no installed console script.
    """
    return subprocess.run(
        [sys.executable, "-m", "chaincover.cli", *args],
        cwd=cwd, env=child_env(env), capture_output=True, text=True, timeout=120,
    )


def test_chain_command(runner, tmp_path, instance_file, three_path_instance):
    out = str(tmp_path / "chain.json")
    result = runner.invoke(cli, ["chain", instance_file, out])
    assert result.exit_code == 0
    assert result.output.strip() == f"3 sets, 2 breakpoints -> {out}"
    loaded = load_chain(out)
    direct = nested_chain(three_path_instance)
    assert loaded.sets == direct.sets
    assert loaded.breakpoints == direct.breakpoints
    # the capacities pick the max-flow route: no option selects it
    dropped = runner.invoke(cli, ["chain", instance_file, out, "--route", "scipy"])
    assert dropped.exit_code == 2 and "--route" in dropped.output


def test_compress_command_on_instance(runner, instance_file):
    result = runner.invoke(cli, ["compress", instance_file, "--tau", "3/5"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report == {
        "vertices": [0, 1, 2, 3],
        "size": 4,
        "residual": "2/5",
        "residual_bound": "4/5",
        "certified": True,
    }


def test_compress_command_on_chain_file(runner, tmp_path, three_path_instance):
    path = tmp_path / "chain.json"
    save_chain(path, nested_chain(three_path_instance))
    result = runner.invoke(cli, ["compress", str(path), "--tau", "3/5"])
    assert result.exit_code == 0
    assert json.loads(result.output)["vertices"] == [0, 1, 2, 3]


def test_compress_command_extremes(runner, instance_file):
    low = runner.invoke(cli, ["compress", instance_file, "--tau", "0"])
    assert json.loads(low.output)["vertices"] == []
    high = runner.invoke(cli, ["compress", instance_file, "--tau", "1"])
    assert json.loads(high.output)["vertices"] == [0, 1, 2, 3, 4, 5, 6]


def _primes(k: int) -> list[int]:
    out, c = [], 2
    while len(out) < k:
        if all(c % p for p in out if p * p <= c):
            out.append(c)
        c += 1
    return out


def test_rationals_past_the_int_str_digit_limit(runner, tmp_path):
    # W = sum of 1/p over the first 1,400 primes: its denominator has more
    # digits than one int/str conversion takes by default (4,300)
    limit = sys.get_int_max_str_digits()
    h = WeightedHypergraph.build(2, [({0, 1}, Fraction(1, p)) for p in _primes(1400)])
    inst, out = tmp_path / "inst.json", tmp_path / "chain.json"
    save_instance(inst, h)
    assert load_instance(inst)[0] == h
    result = runner.invoke(cli, ["chain", str(inst), str(out)])
    assert result.exit_code == 0, result.output
    chain = load_chain(out)
    assert chain == nested_chain(h)
    assert chain.total.denominator > 10**4300
    save_chain(tmp_path / "again.json", chain)
    assert (tmp_path / "again.json").read_bytes() == out.read_bytes()
    for tau in ("1/2", "1"):
        result = runner.invoke(cli, ["compress", str(out), "--tau", tau])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        sel = select(chain, Fraction(tau), Fraction(1))
        assert rational_from_text(report["residual_bound"]) == sel.bound
        assert rational_from_text(report["residual"]) == sel.residual
    assert sys.get_int_max_str_digits() == limit


def test_compress_tau_past_the_int_str_digit_limit(runner, instance_file, three_path_instance):
    limit = sys.get_int_max_str_digits()
    chain = nested_chain(three_path_instance)
    taus = [(rational_to_text(tau), tau)
            for tau in (Fraction(1, 10**4400), Fraction(10**4400 - 1, 10**4400))]
    taus.append(("0." + "0" * 5000 + "1", Fraction(1, 10**5001)))  # a decimal of any length
    for text, tau in taus:
        result = runner.invoke(cli, ["compress", instance_file, "--tau", text])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        sel = select(chain, tau, 1)
        assert report["vertices"] == sorted(sel.vertex_set)
        assert rational_from_text(report["residual_bound"]) == sel.bound
    # out of range: the message prints the target without tripping the limit
    too_big = rational_to_text(Fraction(10**4400 + 1, 10**4400))
    result = runner.invoke(cli, ["compress", instance_file, "--tau", too_big])
    assert isinstance(result.exception, InputError) and "coverage target" in str(result.exception)
    assert sys.get_int_max_str_digits() == limit


def test_fixed_command(runner, tmp_path):
    doc = {
        "n": 3,
        "edges": [{"v": [0, 1], "w": "1"}] * 3 + [{"v": [2], "w": "1"}],
    }
    path = tmp_path / "draws.json"
    path.write_text(canonical_json(doc))
    result = runner.invoke(cli, ["fixed", str(path), "--phi", "1/2"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    draws = [frozenset({0, 1})] * 3 + [frozenset({2})]
    fit = fixed_context_fit(draws, Fraction(1, 2), 3)
    assert report["vertices"] == sorted(fit.vertex_set)
    assert report["level_count"] == fit.level_count
    assert report["second_half_coverage"] == str(fit.second_half_coverage)


def test_calibrate_command(runner, tmp_path):
    doc = {
        "n": 3,
        "edges": [{"v": [0], "w": 1}, {"v": [1], "w": 1}, {"v": [2], "w": 1}],
        "pairs": [
            {"a": [0], "b": [0]},
            {"a": [1], "b": [1]},
            {"a": [0], "b": [0]},
            {"a": [2], "b": [2]},
            {"a": [1], "b": [2]},
        ],
        "split": 3,
    }
    path = tmp_path / "pairs.json"
    path.write_text(canonical_json(doc))
    result = runner.invoke(cli, ["calibrate", str(path), "--phi", "1/2", "--delta", "1/4"])
    assert result.exit_code == 0
    report = json.loads(result.output)

    universe = WeightedHypergraph.build(3, [([0], 1), ([1], 1), ([2], 1)])
    items = [
        LabeledPair(frozenset(p["a"]), frozenset(p["b"]), universe)
        for p in doc["pairs"]
    ]
    state = calibrate(items[:3], items[3:], Fraction(1, 2), Fraction(1, 4))
    assert state.d_star == 0
    assert report["d_star"] == state.d_star
    assert report["censored"] == [False, True]  # ({1},{2}) misses at d*=0
    assert report["tau_star"] == str(state.tau_star)
    assert report["etas"] == [str(e.value) for e in state.etas]
    assert report["censored"] == [e.censored for e in state.etas]
    # the distance is always the symmetric difference: no option selects it
    dropped = runner.invoke(cli, ["calibrate", str(path), "--phi", "1/2", "--distance", "symdiff"])
    assert dropped.exit_code == 2 and "--distance" in dropped.output


def _calibrate_report(runner, tmp_path, doc, *options):
    path = tmp_path / "pairs.json"
    path.write_text(canonical_json(doc))
    result = runner.invoke(cli, ["calibrate", str(path), *options])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_calibrate_command_reads_the_universe_weights(runner, tmp_path):
    # {4,5,6} carries 98/100 of the mass, so the light truths score 99/100
    # (a unit-weight universe would give 1/2, 1/2, 5/6, 1/2, 1/2)
    truths = [[0, 1], [2, 3], [4, 5, 6], [0, 1], [2, 3], [4, 5, 6], [0, 1], [2, 3]]
    doc = {
        "n": 7,
        "edges": [{"v": [0, 1], "w": "1/100"}, {"v": [2, 3], "w": "1/100"},
                  {"v": [4, 5, 6], "w": "98/100"}],
        "pairs": [{"a": t, "b": t} for t in truths],
        "split": 3,
    }
    report = _calibrate_report(runner, tmp_path, doc, "--phi", "1/2", "--delta", "1/100")
    assert report["d_star"] == "inf"
    assert report["etas"] == ["99/100", "99/100", "1/2", "99/100", "99/100"]
    assert report["tau_star"] == "99/100"
    assert report["quantile_overflow"] is False


def test_calibrate_command_reports_quantile_overflow(runner, tmp_path):
    # d* = 0; the two stage-2 scores are 1/2 and 1 (censored)
    doc = {
        "n": 4,
        "edges": [{"v": [0, 1]}, {"v": [2, 3]}],
        "pairs": [{"a": [0, 1], "b": [0, 1]}] * 3 + [{"a": [0, 1], "b": [2, 3]}],
        "split": 2,
    }
    # ceil(9/10 * 3) = 3 > 2 scores: tau* = 1 by overflow
    report = _calibrate_report(runner, tmp_path, doc, "--phi", "9/10", "--delta", "1/2")
    assert report["d_star"] == 0
    assert report["etas"] == ["1/2", "1"] and report["censored"] == [False, True]
    assert (report["tau_star"], report["quantile_overflow"]) == ("1", True)
    # ceil(1/2 * 3) = 2: tau* = 1 is the censored score, not an overflow
    report = _calibrate_report(runner, tmp_path, doc, "--phi", "1/2", "--delta", "1/2")
    assert (report["tau_star"], report["quantile_overflow"]) == ("1", False)


def test_calibrate_rejects_short_pairs(runner, tmp_path):
    doc = {"n": 1, "edges": [{"v": [0], "w": 1}], "pairs": [{"a": [0], "b": [0]}]}
    path = tmp_path / "pairs.json"
    path.write_text(canonical_json(doc))
    result = runner.invoke(cli, ["calibrate", str(path), "--phi", "1/2"],
                           standalone_mode=False, catch_exceptions=True)
    assert result.exception is not None


def test_experiment_adversarial_csv(runner, tmp_path):
    out = tmp_path / "adv.csv"
    result = runner.invoke(
        cli,
        ["experiment", "adversarial", "--out", str(out),
         "--path-len", "6", "--parallel", "2", "--eps", "1/4", "--seeds", "0,3"],
    )
    assert result.exit_code == 0
    rows = adversarial_rows(6, 2, Fraction(1, 4), Fraction(1), [0, 3])
    assert out.read_text() == result_csv(rows)


def test_experiment_grid_csv(runner, tmp_path):
    from chaincover import experiments as xp

    out = tmp_path / "grid.csv"
    result = runner.invoke(
        cli,
        ["experiment", "grid", "--out", str(out),
         "--seeds", "0", "--phi-grid", "1/2,4/5"],
    )
    assert result.exit_code == 0
    data = xp.gen_grid_routes(xp.GridRoutingConfig(), 0)
    rows = xp.run_comparison(
        data.n, data.train, data.test, [Fraction(1, 2), Fraction(4, 5)],
        ("chain", "forward_greedy", "reverse_greedy"), 0,
    )
    assert out.read_text() == result_csv(rows)


# ------------------------------------------------------------ process surface


def test_console_script_targets_main():
    # the process tests run cli.main via -m; the installed script must too
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"chaincover": "chaincover.cli:main"}


def test_declared_python_floor_is_the_one_ci_runs():
    # decimal.localcontext(prec=...) in the digit codec needs Python 3.11
    import re
    import tomllib

    root = Path(__file__).resolve().parents[1]
    floor = tomllib.loads((root / "pyproject.toml").read_text())["project"]["requires-python"]
    ci = (root / ".github" / "workflows" / "tier1.yml").read_text()
    (version,) = re.findall(r"""python-version:\s*["']?([\d.]+)""", ci)
    assert floor == f">={version}"


def test_exit_code_zero_and_identical_reruns(tmp_path, three_path_instance):
    inst = tmp_path / "inst.json"
    save_instance(inst, three_path_instance)
    outs = []
    for name in ("a.json", "b.json"):
        proc = _run(["chain", "inst.json", name], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_exit_code_one_on_bad_input(tmp_path):
    proc = _run(["chain", "missing.json", "out.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "input error" in proc.stderr


def test_exit_code_one_on_bad_tau(tmp_path, three_path_instance):
    inst = tmp_path / "inst.json"
    save_instance(inst, three_path_instance)
    proc = _run(["compress", "inst.json", "--tau", "3/2"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "input error" in proc.stderr


def test_exit_code_two_on_violated_invariant(tmp_path, monkeypatch, capsys):
    # inside its regime the separation holds, so a selector run at tau = 0,
    # which keeps the empty set, stands in for a broken one: the post-hoc
    # check must catch it
    import chaincover.experiments as xp

    real_select = xp.select
    monkeypatch.setattr(xp, "select", lambda chain, tau, kappa: real_select(chain, 0, kappa))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["chaincover", "experiment", "adversarial", "--out", "adv.csv",
                                      "--path-len", "5", "--parallel", "2", "--eps", "1/4"])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 2
    assert capsys.readouterr().err == "invariant violated: chain selector kept 0 vertices, wanted 2\n"


@pytest.mark.parametrize("args", [
    ["--eps", "0.5"],
    ["--eps", "0.3", "--kappa", "3"],
    ["--path-len", "30", "--eps", "0.95", "--kappa", "0.01"],
    ["--eps", "1/4", "--kappa", "3"],  # (1 + kappa) * eps = 1 exactly
], ids=["eps-half", "kappa-3", "path-too-light", "kappa-boundary"])
def test_adversarial_outside_its_regime_is_an_input_error(tmp_path, args):
    proc = _run(["experiment", "adversarial", "--out", "adv.csv", *args], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error: adversarial separation needs")
    assert not (tmp_path / "adv.csv").exists()


def test_adversarial_default_run_unchanged(tmp_path):
    proc = _run(["experiment", "adversarial", "--out", "adv.csv", "--seeds", "0"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "adv.csv").read_text() == (
        "method,phi,size,coverage,seed\n"
        "chain,0.8,3,0.8,0\n"
        "reverse_greedy,0.8,33,1,0\n"
    )


def test_adversarial_run_at_path_len_100000(tmp_path):
    # the peel and the peel-state search once took seconds at a few thousand
    # path vertices, and time grew with the square of a
    out = tmp_path / "adv.csv"
    code = (
        "import sys\n"
        "from chaincover.cli import main\n"
        f"sys.argv = ['chaincover', 'experiment', 'adversarial', '--out', {str(out)!r},\n"
        "            '--path-len', '100000', '--parallel', '3', '--seeds', '0']\n"
        "main()\n"
    )
    env = child_env()
    env["OPENBLAS_NUM_THREADS"] = "1"
    assert run_child(code, env, timeout=60) == f"2 rows -> {out}\n"
    assert out.read_text() == (
        "method,phi,size,coverage,seed\n"
        "chain,0.8,3,0.8,0\n"
        "reverse_greedy,0.8,100003,1,0\n"
    )


def test_env_seed_default(tmp_path):
    env = dict(os.environ, CHAINCOVER_SEED="41")
    proc = _run(
        ["experiment", "adversarial", "--out", "adv.csv",
         "--path-len", "6", "--parallel", "2", "--eps", "1/4"],
        cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "adv.csv").read_text().splitlines()
    assert rows[1:] == [r for r in rows[1:] if r.endswith(",41")]
    assert len(rows) == 3

    env["CHAINCOVER_SEED"] = "not-a-number"
    proc = _run(
        ["experiment", "adversarial", "--out", "adv.csv",
         "--path-len", "6", "--parallel", "2", "--eps", "1/4"],
        cwd=tmp_path, env=env,
    )
    assert proc.returncode == 1
    assert "input error" in proc.stderr


@pytest.mark.parametrize("seeds, env", [("--seeds=-1", "0"), ("--seeds=0,-3", "0"), (None, "-2")],
                         ids=["option", "option-list", "env"])
def test_negative_seed_is_an_input_error(tmp_path, monkeypatch, capsys, seeds, env):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CHAINCOVER_SEED", env)
    for kind in ("grid", "trip"):
        args = ["chaincover", "experiment", kind, "--out", "out.csv", *filter(None, [seeds])]
        monkeypatch.setattr(sys, "argv", args)
        with pytest.raises(SystemExit) as stop:
            main()
        assert stop.value.code == 1
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "out.csv").exists()


MALFORMED = {
    "edges-not-a-list": (["chain", "doc.json", "out.json"], {"n": 2, "edges": 7}),
    "vertices-not-a-list": (["chain", "doc.json", "out.json"],
                            {"n": 2, "edges": [{"v": 5, "w": "1"}]}),
    "bool-vertex-id": (["chain", "doc.json", "out.json"],
                       {"n": 2, "edges": [{"v": [True], "w": "1"}]}),
    "bool-weight": (["chain", "doc.json", "out.json"],
                    {"n": 2, "edges": [{"v": [0], "w": True}]}),
    "empty-chain-stats": (["compress", "doc.json", "--tau", "1/2"],
                          {"sets": [[]], "breakpoints": [], "stats": []}),
    "chain-vertex-negative": (["compress", "doc.json", "--tau", "1"],
                              {"sets": [[], [-5]], "breakpoints": ["1"],
                               "stats": [{"induced": "0"}, {"induced": "1", "residual": "0"}]}),
    "pair-edge-without-v": (["calibrate", "doc.json", "--phi", "1/2"],
                            {"n": 1, "edges": [{"w": 1}], "pairs": [{"a": [0], "b": [0]}] * 2}),
    "pair-edge-float-weight": (["calibrate", "doc.json", "--phi", "1/2"],
                               {"n": 1, "edges": [{"v": [0], "w": 0.5}],
                                "pairs": [{"a": [0], "b": [0]}] * 2}),
    "negative-weight-past-digit-limit": (["chain", "doc.json", "out.json"],
                                         {"n": 1, "edges": [{"v": [0], "w": "-1" + "0" * 5000}]}),
    "pair-vertex-out-of-range": (["calibrate", "doc.json", "--phi", "1/2"],
                                 {"n": 2, "edges": [{"v": [0]}],
                                  "pairs": [{"a": [9], "b": [9]}] * 2}),
    "pair-vertex-negative": (["calibrate", "doc.json", "--phi", "1/2"],
                             {"n": 2, "edges": [{"v": [0]}], "pairs": [{"a": [0], "b": [-1]}] * 2}),
}


@pytest.mark.parametrize(
    "content", ["", "{not json", "[1, 2]", '"chain"', b"\xff\xfe{}", '{"n": 1' + "0" * 5000 + "}"],
    ids=["empty", "bad-json", "list", "string", "bad-utf8", "int-past-digit-limit"],
)
def test_compress_unreadable_source_is_an_input_error(tmp_path, monkeypatch, capsys, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    monkeypatch.chdir(tmp_path)
    for name in ("doc.json", "missing.json"):
        monkeypatch.setattr(sys, "argv", ["chaincover", "compress", name, "--tau", "1/2"])
        with pytest.raises(SystemExit) as stop:
            main()
        assert stop.value.code == 1
        assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("args, doc", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_file_is_an_input_error(tmp_path, monkeypatch, capsys, args, doc):
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["chaincover", *args])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 1
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("doc, message", [
    ({"n": 2.5, "edges": []}, "vertex count must be an int, got 2.5"),
    ({"n": -1, "edges": []}, "vertex count must be >= 0, got -1"),
    ({"edges": []}, "vertex count must be an int, got None"),
], ids=["float", "negative", "missing"])
def test_bad_vertex_count_is_an_input_error(tmp_path, monkeypatch, capsys, doc, message):
    # the instance's n goes to WeightedHypergraph.build, which checks every vertex count
    (tmp_path / "doc.json").write_text(json.dumps({**doc, "pairs": [{"a": [], "b": []}] * 2}))
    monkeypatch.chdir(tmp_path)
    for args, where in ((["chain", "doc.json", "out.json"], "instance"),
                        (["fixed", "doc.json", "--phi", "1/2"], "instance"),
                        (["calibrate", "doc.json", "--phi", "1/2"], "pairs file")):
        monkeypatch.setattr(sys, "argv", ["chaincover", *args])
        with pytest.raises(SystemExit) as stop:
            main()
        assert stop.value.code == 1
        assert capsys.readouterr().err == f"input error: {where} doc.json: {message}\n"


# each experiment option at its default value: given on the command line, it
# is refused by the kinds that do not read it
EXPERIMENT_OPTIONS = {"--seeds": "0", "--phi-grid": "1/2", "--alpha": "0.4", "--path-len": "30",
                      "--parallel": "3", "--eps": "0.2", "--kappa": "1"}
READ_BY = {
    "grid": {"--seeds", "--phi-grid"},
    "trip": {"--seeds", "--phi-grid", "--alpha"},
    "adversarial": {"--seeds", "--path-len", "--parallel", "--eps", "--kappa"},
}


@pytest.mark.parametrize("kind, option", [
    (kind, option) for kind, read in READ_BY.items() for option in EXPERIMENT_OPTIONS if option not in read
])
def test_experiment_option_of_another_kind_is_an_input_error(tmp_path, monkeypatch, capsys,
                                                             kind, option):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["chaincover", "experiment", kind, "--out", "out.csv",
                                      option, EXPERIMENT_OPTIONS[option]])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 1
    assert capsys.readouterr().err == f"input error: {option} does not apply to experiment {kind}\n"
    assert not (tmp_path / "out.csv").exists()


def test_bad_rational_list_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["chaincover", "experiment", "grid", "--out", "grid.csv",
                                      "--phi-grid", "1/0"])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 1
    assert capsys.readouterr().err.startswith("input error: bad rational list '1/0': ")
    assert not (tmp_path / "grid.csv").exists()


def _main_in_child(args) -> str:
    """stdout and stderr of ``cli.main`` on ``args`` in a child with a 20 s timeout,
    then its exit code."""
    code = (
        "import sys\n"
        "from chaincover.cli import main\n"
        f"sys.argv = {['chaincover', *args]!r}\n"
        "sys.stderr = sys.stdout\n"
        "try:\n"
        "    main()\n"
        "except SystemExit as stop:\n"
        "    print('exit', stop.code)\n"
    )
    return run_child(code, timeout=20)


def test_huge_exponents_are_input_errors_at_once(tmp_path, instance_file):
    # 10**exp would be built in full; the 20 s timeout shows both fail at once
    out = _main_in_child(["compress", instance_file, "--tau", "1e-100000000"])
    assert out == ("input error: cannot interpret '1e-100000000' as an exact rational: "
                   "exponent magnitude exceeds 4300\nexit 1\n")
    chain_file = tmp_path / "huge.json"
    chain_file.write_text(json.dumps({
        "sets": [[], [0]],
        "breakpoints": ["1e100000000"],
        "stats": [{"induced": "0"}, {"induced": "1", "residual": "0"}],
    }))
    out = _main_in_child(["compress", str(chain_file), "--tau", "1/2"])
    assert out == (f"input error: chain {chain_file}: cannot interpret '1e100000000' as an "
                   "exact rational: exponent magnitude exceeds 4300\nexit 1\n")


def test_a_refused_long_rational_writes_a_short_error_line(tmp_path, monkeypatch, capsys):
    # the weight's two 100,001-digit parts pass the digit limit but not the gcd
    # bound; quoted in full, the error line was over 200,000 bytes long
    weight = "9" * 100_001 + "/" + "7" * 100_001
    (tmp_path / "doc.json").write_text(json.dumps({"n": 1, "edges": [{"v": [0], "w": weight}]}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["chaincover", "chain", "doc.json", "out.json"])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: instance doc.json: ") and err.count("\n") == 1
    assert "'99999" in err and "77777'" in err and f"({len(weight) + 2} characters)" in err
    assert err.endswith("numerator and denominator both exceed 10**5 digits\n")
    assert len(err) < 400


def test_compress_past_a_loaded_top_set_is_an_input_error(monkeypatch, capsys,
                                                          short_top_chain_file):
    # at tau = 1 the bound is 0, and the loaded top set leaves residual 1
    monkeypatch.setattr(sys, "argv", ["chaincover", "compress", str(short_top_chain_file),
                                      "--tau", "1"])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 1
    assert capsys.readouterr().err == "input error: no chain set meets residual bound 0\n"


UNWRITABLE_COMMANDS = {
    "chain": ["chain", "inst.json"],
    "experiment": ["experiment", "adversarial", "--path-len", "4", "--parallel", "2",
                   "--seeds", "0", "--out"],
}


@pytest.mark.parametrize("out", ["missing/out", "taken"], ids=["missing-dir", "dir-as-file"])
@pytest.mark.parametrize("args", list(UNWRITABLE_COMMANDS.values()), ids=list(UNWRITABLE_COMMANDS))
def test_unwritable_out_is_an_input_error(tmp_path, monkeypatch, capsys, three_path_instance,
                                          args, out):
    save_instance(tmp_path / "inst.json", three_path_instance)
    (tmp_path / "taken").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["chaincover", *args, out])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write") and out in err


# (argv before OUT, module attribute that does the computation)
CHECKED_BEFORE_COMPUTING = {
    "chain": (["chain", "inst.json"], "chaincover.cli.nested_chain"),
    "experiment-trip": (["experiment", "trip", "--seeds", "0,1,2", "--out"],
                        "chaincover.experiments.comparison_rows"),
}


@pytest.mark.parametrize("out", ["missing/out", "taken"], ids=["missing-dir", "dir-as-file"])
@pytest.mark.parametrize("args, compute", list(CHECKED_BEFORE_COMPUTING.values()),
                         ids=list(CHECKED_BEFORE_COMPUTING))
def test_unwritable_out_is_reported_before_computing(tmp_path, monkeypatch, capsys,
                                                     three_path_instance, args, compute, out):
    def fail(*_args, **_kwargs):
        raise AssertionError("computed before checking OUT")

    save_instance(tmp_path / "inst.json", three_path_instance)
    (tmp_path / "taken").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(compute, fail)
    monkeypatch.setattr(sys, "argv", ["chaincover", *args, out])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write") and out in err
    assert not (tmp_path / "missing").exists()


def test_import_loads_neither_numpy_nor_scipy():
    # the package and its file formats import without the solver's numeric stack
    code = (
        "import sys, chaincover, chaincover.io\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    assert run_child(code).strip() == "[]"
