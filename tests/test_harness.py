from __future__ import annotations

import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from ielab import (DiscreteDist, FactoredRewardPrior, det_parameters, harness, make_agent,
                   mechanism, micro_det_1, micro_stoch_1, run_game)
from ielab.cli import build_parser, main
from ielab.errors import ConfigError
from ielab.harness import ExperimentConfig, _write_artifact, load_config


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig({"bogus": 1})
    # the subcommand decides what runs; a config cannot name another kind
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig({"kind": "prob-run"})


@pytest.mark.parametrize("key", ["overrides", "phase_cap", "sim_pairs", "perf_pairs"])
def test_config_rejects_keys_nothing_reads(key):
    """A key the harness would ignore is an error, not a silent no-op."""
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig({key: 1})


def test_config_seed_forms(monkeypatch):
    assert ExperimentConfig({"seeds": [3, 5]}).seeds() == [3, 5]
    assert ExperimentConfig({"seeds": {"range": [0, 3]}}).seeds() == [0, 1, 2, 3]
    assert ExperimentConfig({"seeds": 9}).seeds() == [9]
    monkeypatch.setenv("IE_SEED", "77")
    assert ExperimentConfig({}).seeds() == [77]


def test_load_config_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mechanism": {"n_phase": 8}}))
    cfg = load_config(str(path), ["mechanism.total_phases=3", "out=somewhere"])
    assert cfg.get("mechanism") == {"n_phase": 8, "total_phases": 3}
    assert cfg.get("out") == "somewhere"


def test_cli_run_det_artifacts_replay(tmp_path, capsys):
    out = tmp_path / "runs"
    args = [
        "run-det", "--seeds", "0..2", "--out", str(out),
        "--override", "mechanism.total_phases=3",
        "--override", "mechanism.n_phase=6",
    ]
    assert main(args) == 0
    first = (out / "run-1" / "game.jsonl").read_bytes()
    manifest = json.loads((out / "run-1" / "manifest.json").read_text())
    assert manifest["seed"] == 1
    # re-run: byte-identical artifact
    assert main(args) == 0
    assert (out / "run-1" / "game.jsonl").read_bytes() == first
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == ("seed,phases_to_coverage,reach_size,"
                          "new_triple_until_coverage,episodes_simulated,log_digest")
    assert len(summary) == 4
    capsys.readouterr()


@pytest.mark.parametrize("overrides, schedule, episodes", [
    ([], "n_phase=7680 n_lrn=1 eps_pun=1/10 total_phases=8 f_min=1/2", 8),
    (["mechanism.n_phase=1", "episode_log=full"],
     "n_phase=1 (certified 7680) n_lrn=1 eps_pun=1/10 total_phases=8 f_min=1/2", 8),
    (["mechanism.eps_pun=1/100"],
     "n_phase=7680 n_lrn=1 eps_pun=1/100 (certified 1/10) total_phases=8 f_min=1/2", 8),
    (["mechanism.total_phases=3", "mechanism.n_lrn=2"],
     "n_phase=7680 n_lrn=2 (certified 1) eps_pun=1/10 total_phases=3 (certified 8) f_min=1/2",
     3),
])
def test_run_det_schedule_trailer_reports_the_played_schedule(overrides, schedule, episodes,
                                                              capsys):
    """run-det's ``# schedule:`` line gives every mechanism field the runs
    played (rho only when set), with the certified value beside one an
    override changed. Seed 0 simulates one episode a phase under the
    hallucination log, and with n_phase 1 under the full log."""
    args = [arg for ov in overrides for arg in ("--override", ov)]
    assert main(["run-det", "--seeds", "0..0", *args]) == 0
    *csv_lines, trailer = capsys.readouterr().out.splitlines()
    assert trailer == f"# schedule: {schedule}"
    (row,) = csv.DictReader(csv_lines)
    assert row["episodes_simulated"] == str(episodes)


@pytest.mark.parametrize("argv", [["verify", "--exact"], ["params", "--seeds", "0..1"],
                                  ["verify", "--seed", "3"], ["run-det", "--exact"],
                                  ["run-prob", "--exact"]])
def test_cli_refuses_flags_a_command_does_not_read(argv, capsys):
    """--seed and --seeds belong to run-det and run-prob only, and no
    command has --exact; a command given a flag it does not read stops
    with argparse's usage error instead of ignoring it."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("command,override", [
    ("run-det", "rho=0.25"), ("run-det", "delta=0.1"), ("run-det", "suite=hygiene"),
    ("run-prob", "episode_log=full"), ("run-prob", "suite=hygiene"),
    ("verify", "seeds=5"), ("verify", "exact=true"), ("verify", "agent={}"),
    ("verify", "rho=0.25"), ("verify", "episode_log=full"),
    ("params", "seeds=5"), ("params", "exact=true"), ("params", "mechanism={}"),
    ("params", "episode_log=full"), ("params", "suite=hygiene"),
])
def test_cli_refuses_config_fields_a_command_does_not_read(command, override, capsys):
    """Each command reads its own config fields; one it would ignore stops
    it with a config error (exit code 1) naming the field, before any run.
    No command reads ``exact``, so it is an unknown field."""
    key = override.partition("=")[0]
    assert main([command, "--override", override]) == 1
    captured = capsys.readouterr()
    if key == "exact":
        assert captured.err == "error: unknown config fields: ['exact']\n"
    else:
        assert captured.err == f"error: {command} does not read config fields: [{key!r}]\n"
    assert captured.out == ""


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv,env,field", [
    (["run-det"], {"IE_SEED": "abc"}, "IE_SEED"),
    (["run-det", "--override", 'seeds=["x"]'], {}, "seeds"),
    (["run-det", "--override", 'seeds={"range":[1]}'], {}, "seeds"),
    (["run-det", "--override", "mechanism.n_phase=abc"], {}, "mechanism.n_phase"),
    (["run-det", "--override", "mechanism.n_phase=0"], {}, "n_phase"),
    (["run-det", "--override", "mechanism.eps_pun=2"], {}, "eps_pun"),
    (["run-prob", "--override", "rho=abc"], {}, "rho"),
    (["run-prob", "--override", "delta=abc"], {}, "delta"),
    # bools and non-integral numbers are not read as the ints int() makes of them
    (["run-det", "--override", "seeds=[1.5]"], {}, "seeds"),
    (["run-det", "--override", "seeds=[true]"], {}, "seeds"),
    (["run-det", "--override", 'seeds={"range":[0,2.5]}'], {}, "seeds"),
    (["run-det"], {"IE_SEED": "1.5"}, "IE_SEED"),
    (["run-det", "--override", "mechanism.n_phase=2.5"], {}, "mechanism.n_phase"),
    (["run-det", "--override", "mechanism.n_lrn=true"], {}, "mechanism.n_lrn"),
    (["run-prob", "--override", "mechanism.total_phases=3.5"], {}, "mechanism.total_phases"),
    # each seed's run writes its own run-<seed> directory and summary row
    (["run-det", "--seeds", "3..1"], {}, "seeds"),
    (["run-prob", "--override", "seeds=[]"], {}, "seeds"),
    (["run-det", "--override", "seeds=[1,1]"], {}, "seeds"),
    (["run-prob", "--override", 'seeds={"range":[2,1]}'], {}, "seeds"),
    # values of the wrong JSON shape; TMP/list.json holds a JSON list, TMP/bad.json no JSON
    (["run-det", "--config", "TMP/list.json"], {}, "config"),
    (["run-det", "--override", "prior=3"], {}, "prior"),
    (["run-det", "--override", 'prior={"inline":3}'], {}, "prior.inline"),
    (["params", "--override", 'prior={"path":3}'], {}, "prior.path"),
    (["params", "--override", 'prior={"path":"TMP/list.json"}'], {}, "prior"),
    (["params", "--override", 'prior={"path":"TMP/bad.json"}'], {}, "prior"),
    (["run-det", "--override", "mechanism=3", "--override", "mechanism.n_lrn=2"], {},
     "mechanism"),
    (["verify", "--override", 'suite=["hygiene"]'], {}, "suite"),
    # the agent, episode_log and out fields
    (["run-det", "--override", 'agent={"mode":"foo"}'], {}, "agent.mode"),
    (["run-prob", "--override", "agent=3"], {}, "agent"),
    (["run-det", "--override", 'agent={"mood":"truster"}'], {}, "agent"),
    (["run-det", "--override", "episode_log=foo"], {}, "episode_log"),
    (["run-det", "--override", "out=3"], {}, "out"),
    (["verify", "--override", "out=3"], {}, "out"),
    (["params", "--override", "out=3"], {}, "out"),
    # prior documents with a missing key or bad numbers, and spec objects with unread fields
    (["params", "--override", 'prior={"inline":{"factored":{}}}'], {}, "transition_prior"),
    (["params", "--override", 'prior={"inline":{"factored":{"S":1,"A":1,"H":1,'
      '"transition_prior":[{"init":[1],"transitions":{},"weight":2}],'
      '"reward_marginals":{"1,1,1":{"support":[0,1],"probs":["1/2","1/2"]}}}}}'], {},
     "prior.inline: weights must sum to 1"),
    (["run-det", "--override", 'seeds={"range":[0,1],"x":1}'], {}, "seeds"),
    (["params", "--override", 'prior={"micro":"det1","path":"/nonexistent"}'], {},
     "['micro', 'path']"),
])
def test_cli_bad_field_values_are_config_errors(argv, env, field, tmp_path, monkeypatch,
                                                capsys):
    """A config value that does not parse, is out of range or has the
    wrong shape stops the command with exit code 1 and one ``error:`` line
    naming the field, not a Python traceback: ``main`` runs in-process, so
    an exception that escapes it fails the case."""
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "bad.json").write_text("{")
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def test_cli_module_entry_point_exits_with_mains_code():
    """``python -m ielab.cli`` exits with ``main``'s code and prints its one
    ``error:`` line, not a traceback."""
    run = subprocess.run([sys.executable, "-m", "ielab.cli", "run-det"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC), "IE_SEED": "abc"},
                         timeout=60)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert "IE_SEED" in run.stderr


def test_readme_cli_synopsis_lists_each_commands_flags():
    """Each subcommand's line in README's CLI synopsis names exactly the
    flags ``build_parser`` gives it (besides --help), so a flag cannot be
    documented after it is removed, nor added undocumented."""
    import argparse
    import re

    readme = (SRC.parent / "README.md").read_text()
    synopsis = readme.split("## CLI", 1)[1].split("```")[1]
    documented = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
                  for line in synopsis.splitlines() if line.startswith("ielab ")}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {o for a in p._actions for o in a.option_strings
                    if o.startswith("--") and o != "--help"}
             for name, p in sub.choices.items()}
    assert documented == flags


def test_cli_refuses_priors_in_the_atoms_form(tmp_path, capsys, det_prior):
    """A prior file that lists atoms (no factored form) stops all four
    commands with exit code 2 and one message naming the factored
    requirement."""
    from ielab.serialize import prior_to_dict

    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(prior_to_dict(det_prior)))
    prior = ["--override", f'prior={{"path":"{path}"}}']
    errors = set()
    for command in ("run-det", "run-prob", "params", "verify"):
        assert main([command, *prior]) == 2
        errors.add(capsys.readouterr().err)
    assert errors == {"assumption violated: ielab's commands need a reward-independent "
                      "prior in the factored form; this prior lists its atoms\n"}


def test_cli_params(capsys):
    assert main(["params"]) == 0
    text = capsys.readouterr().out
    assert "det.n_phase,7680" in text
    assert "prob.n_phase" in text


def test_cli_params_stoch(capsys):
    assert main(["params", "--override", 'prior={"micro":"stoch1"}',
                 "--override", "rho=0.25"]) == 0
    text = capsys.readouterr().out
    assert "prob.n_phase_theory,70218" in text


def test_cli_verify_hygiene(tmp_path, capsys):
    assert main(["verify", "--suite", "hygiene", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["ok"]
    names = {c["name"] for c in report["checks"]}
    assert "hygiene.counterexample.fabricated_rewards" in names
    capsys.readouterr()


def test_cli_verify_suite_flag_overrides_config(tmp_path, capsys):
    """--suite overrides the config file's suite, as --out overrides its;
    without the flag the config's suite runs."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": "sim-lemma"}))
    for flag, suites in ((["--suite", "hygiene"], ["hygiene"]), ([], ["sim-lemma"])):
        assert main(["verify", "--config", str(path), *flag, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "verify.json").read_text())["suites"] == suites
    capsys.readouterr()


def test_cli_verify_dist_equality(capsys):
    assert main(["verify", "--suite", "dist-equality"]) == 0
    out = capsys.readouterr().out
    assert "PASS dist_equality.phase2" in out
    assert "PASS dist_equality.mutated.phase2" in out


def test_cli_exit_codes(tmp_path, capsys):
    # infra: missing config file
    assert main(["run-det", "--config", str(tmp_path / "nope.json")]) == 1
    # infra: unknown config key
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"zzz": 1}))
    assert main(["run-det", "--config", str(bad)]) == 1
    # assumption violated: a prior with r_min = 0
    prior_doc = {
        "factored": {
            "S": 1, "A": 1, "H": 1,
            "transition_prior": [{"init": [1], "transitions": {}, "weight": 1}],
            "reward_marginals": {"1,1,1": {"support": [0], "probs": [1]}},
        }
    }
    ppath = tmp_path / "prior.json"
    ppath.write_text(json.dumps(prior_doc))
    code = main(["run-det", "--override", f'prior={{"path":"{ppath}"}}'])
    assert code == 2
    capsys.readouterr()


def test_cli_run_prob(tmp_path, capsys):
    out = tmp_path / "prob"
    code = main([
        "run-prob", "--seeds", "0..1", "--out", str(out),
        "--override", 'prior={"micro":"stoch1"}',
        "--override", "rho=0.25",
        "--override", "mechanism.n_lrn=2",
        "--override", "mechanism.total_phases=40",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == ("seed,phases_to_exploration,phase_cap,"
                                    "reach_size,log_digest")
    assert (out / "run-0" / "game.jsonl").exists()


def test_prior_json_roundtrip(tmp_path, det_prior):
    from ielab.serialize import prior_from_dict, prior_to_dict

    doc = prior_to_dict(det_prior)
    again = prior_from_dict(doc)
    assert again.weights == det_prior.weights
    assert again.atoms[13] == det_prior.atoms[13]


def test_prior_to_dict_renders_shared_objects_as_each_atom_alone(stoch_prior):
    """Every atom of a prior whose atoms share rows and laws gets the JSON
    a field-by-field rendering of the atom alone gives."""
    from ielab.serialize import prior_to_dict

    def num(v):
        return v.numerator if v.denominator == 1 else str(v)

    def alone(m):
        keys = [(x, a, h) for x in range(1, m.S + 1) for a in range(1, m.A + 1)
                for h in range(1, m.H + 1)]
        return {
            "S": m.S, "A": m.A, "H": m.H, "init": [num(p) for p in m.init],
            "transitions": {f"{x},{a},{h}": [num(p) for p in m.transition(x, a, h)]
                            for x, a, h in keys},
            "rewards": {f"{x},{a},{h}": {"support": [num(v) for v in d.support],
                                         "probs": [num(p) for p in d.probs]}
                        for x, a, h in keys for d in [m.reward_dist(x, a, h)]},
        }

    doc = prior_to_dict(stoch_prior)
    assert [entry["model"] for entry in doc["atoms"]] == [alone(m) for m in stoch_prior.atoms]


def test_prior_text_is_the_canonical_json(det_prior, stoch_prior):
    """The text ``prior_digest`` hashes is the generic encoder's compact,
    key-sorted JSON of ``prior_to_dict``: on micro_det_1, micro_stoch_1,
    a factored prior with S = 10, whose triple keys sort as strings
    ("10,1,1" before "2,1,1") and whose init and weights are fractions, a
    factored prior with H = 10, whose keys of one x sort the same way
    ("1,1,10" before "1,1,2"), and a prior of listed atoms, read by
    ``prior_from_dict``, whose atoms share no transition table, reward
    sub-tuple or law."""
    from ielab.mechanism import prior_digest
    from ielab.serialize import prior_from_dict, prior_text, prior_to_dict

    wide = FactoredRewardPrior(
        10, 1, 1, transition_atoms=(([Fraction(1, 10)] * 10, {}, 1),),
        reward_marginals={(x, 1, 1): DiscreteDist.of([(0, "1/3"), ("3/4", "2/3")])
                          for x in range(1, 11)}).expand()
    two = DiscreteDist.of([(0, "1/3"), ("3/4", "2/3")])
    long = FactoredRewardPrior(
        2, 1, 10, transition_atoms=(([Fraction(1, 3), Fraction(2, 3)],
                                     {(x, 1, h): [Fraction(1, 4), Fraction(3, 4)]
                                      for x in (1, 2) for h in range(1, 10)}, 1),),
        reward_marginals={(x, 1, h): two if (x, h) in {(1, 2), (1, 10), (2, 1)}
                          else DiscreteDist.point(Fraction(1, 2))
                          for x in (1, 2) for h in range(1, 11)}).expand()
    listed = prior_from_dict({"atoms": [
        {"weight": "1/3", "model": {
            "S": 2, "A": 1, "H": 2, "init": ["1/2", "1/2"],
            "transitions": {"1,1,1": [1, 0], "2,1,1": ["1/5", "4/5"]},
            "rewards": {t: {"support": [0, 1], "probs": ["2/3", "1/3"]}
                        for t in ("1,1,1", "1,1,2", "2,1,1", "2,1,2")}}},
        {"weight": "2/3", "model": {
            "S": 2, "A": 1, "H": 2, "init": [1, 0],
            "transitions": {"1,1,1": ["1/2", "1/2"], "2,1,1": [0, 1]},
            "rewards": {t: {"support": [0, "1/2"], "probs": [0, 1]}
                        for t in ("1,1,1", "1,1,2", "2,1,1", "2,1,2")}}}]})
    a, b = listed.atoms
    assert a.trans is not b.trans and all(
        sa is not sb and all(d is not e for ra, rb in zip(sa, sb) for d, e in zip(ra, rb))
        for sa, sb in zip(a.rewards, b.rewards))
    for prior in (det_prior, stoch_prior, wide, long, listed):
        text = json.dumps(prior_to_dict(prior), sort_keys=True, separators=(",", ":"))
        assert prior_text(prior) == text
        assert prior_digest(prior) == hashlib.sha256(text.encode()).hexdigest()
        if prior is wide:
            assert '"1,1,1":' in text and text.index('"10,1,1":') < text.index('"2,1,1":')
        if prior is long:
            assert text.index('"1,1,10":') < text.index('"1,1,2":') < text.index('"2,1,1":')


def test_sweep_peak_does_not_grow_with_its_seeds(tmp_path, monkeypatch, capsys):
    """A run-prob sweep writes each run's artifact as the run finishes, and
    reads its draws at most ``_DRAW_ROWS`` rows at a time (64 here, so
    that both sweeps span several reads). From 4 seeds to 20 its traced
    peak grows by less than 128 KB: what grows is the summary rows kept
    for the CSV and garbage not yet collected, about 2 KB a seed, where
    keeping every run's log would add about 22 KB a seed. The prior is
    loaded once, and a first sweep over the same seeds builds the prior's
    tables and the true models' sampling rows outside the measurement."""
    factored = micro_stoch_1()
    prior = factored.expand()
    monkeypatch.setattr(harness, "load_prior", lambda cfg: (factored, prior))
    monkeypatch.setattr(mechanism, "_DRAW_ROWS", 64)
    argv = ["run-prob", "--override", 'prior={"micro":"stoch1"}', "--override",
            "mechanism.n_lrn=8", "--override", "mechanism.total_phases=40"]

    def sweep(n: int, traced: bool) -> int:
        out = tmp_path / f"{n}-{traced}"
        if traced:
            tracemalloc.start()
        try:
            assert main([*argv, "--seeds", f"0..{n - 1}", "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    sweep(20, traced=False)
    few, many = sweep(4, traced=True), sweep(20, traced=True)
    assert many - few < 128 * 1024, f"peak {few} B at 4 seeds, {many} B at 20"


def test_det_sweep_peak_does_not_grow_with_its_seeds(tmp_path, monkeypatch, capsys):
    """The method of ``test_sweep_peak_does_not_grow_with_its_seeds`` on a
    run-det sweep: at 8 phases a run, 20 seeds play in one lockstep batch
    and 40 in two, with reads of 64 draw rows. From 20 seeds to 40 the
    traced peak grows by less than 128 KB. A det log of the hallucination
    episodes is only a few KB, so the first, untraced sweep also checks
    that as a batch starts, no log of an earlier batch is left but the
    one the harness is writing."""
    factored = micro_det_1()
    prior = factored.expand()
    monkeypatch.setattr(harness, "load_prior", lambda cfg: (factored, prior))
    monkeypatch.setattr(mechanism, "_DRAW_ROWS", 64)
    assert mechanism._batch_seeds(det_parameters(factored)[0]) == 20
    play, played = mechanism.run_game, []

    def batch(*args, **options):
        gc.collect()
        assert sum(ref() is not None for ref in played) <= 1
        logs = play(*args, **options)
        played.extend(map(weakref.ref, logs))
        return logs

    def sweep(n: int, traced: bool) -> int:
        out = tmp_path / f"{n}-{traced}"
        if traced:
            tracemalloc.start()
        try:
            assert main(["run-det", "--seeds", f"0..{n - 1}", "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    with monkeypatch.context() as m:
        m.setattr(mechanism, "run_game", batch)
        sweep(40, traced=False)
    assert len(played) == 40
    one, two = sweep(20, traced=True), sweep(40, traced=True)
    assert two - one < 128 * 1024, f"peak {one} B at 20 seeds, {two} B at 40"


def test_cli_params_bandit_case(tmp_path, capsys):
    """Horizon-1 priors degenerate to the bandit schedule."""
    prior_doc = {
        "factored": {
            "S": 1, "A": 2, "H": 1,
            "transition_prior": [{"init": [1], "transitions": {}, "weight": 1}],
            "reward_marginals": {
                "1,1,1": {"support": [0, 0.8], "probs": [0.5, 0.5]},
                "1,2,1": {"support": [0, 0.8], "probs": [0.5, 0.5]},
            },
        }
    }
    ppath = tmp_path / "bandit.json"
    ppath.write_text(json.dumps(prior_doc))
    assert main(["params", "--override", f'prior={{"path":"{ppath}"}}']) == 0
    text = capsys.readouterr().out
    # r_min = 0.4, eps_pun = 0.2, C = 1/2, SAH = 2: n_phase = ceil(6/(0.4/4)) = 60
    assert "det.n_phase,60" in text


FULL_LOG_SEED = ["run-det", "--override", "episode_log=full", "--seeds", "5..5"]


def test_full_log_run_never_builds_the_whole_text(tmp_path, monkeypatch, capsys):
    """A full-log run-det writes game.jsonl block by block: it succeeds
    with ``GameLog.to_jsonl`` (the whole text as one string) made to
    raise, and the file hashes to the summary's log_digest."""
    from ielab.mechanism import GameLog

    def whole_text(self):
        raise AssertionError("the harness built the whole JSONL text")

    monkeypatch.setattr(GameLog, "to_jsonl", whole_text)
    assert main([*FULL_LOG_SEED, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "summary.csv", newline="") as f:
        (row,) = csv.DictReader(f)
    data = (tmp_path / "run-5" / "game.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == row["log_digest"]


def test_full_log_run_and_write_peak_below_the_file_size(tmp_path, det_prior, det_config):
    """The tracemalloc peak of playing full-log seed 5 (as run-det plays
    it) and writing its artifact stays below the size of the game.jsonl
    written. The bound is the file size because holding the whole text
    once, as a string, as a list of lines or as its encoded bytes, reaches
    it by itself; a log kept as one block per phase, written one phase at
    a time, needs no such copy. A hallucination-log run of the same seed
    first builds the prior's and the true model's one-time tables, which
    are not the log's."""
    run = dict(seed=5, track_hh=True)
    run_game(det_config, det_prior, make_agent("fully_rational", det_prior, det_config),
             episode_log="hallucination", **run)
    agent = make_agent("fully_rational", det_prior, det_config)
    tracemalloc.start()
    try:
        log = run_game(det_config, det_prior, agent, episode_log="full", **run)
        _write_artifact(str(tmp_path), 5, {"seed": 5}, log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "run-5" / "game.jsonl").stat().st_size
    assert log.summary["episodes_simulated"] == 53_761
    assert peak < size, f"traced peak {peak} B, game.jsonl {size} B"
