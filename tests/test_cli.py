from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txckpt import cli, sim
from txckpt.cli import main
from txckpt.dependence import CheckpointAnalysis, ExecutionAnalysis
from txckpt.protocol import trace_pattern
from txckpt.scenario import (
    Scenario,
    WorkloadSpec,
    builtin_scenario,
    generate_random,
    load_scenario,
    save_scenario,
    scenario_to_dict,
)
from txckpt.sim import SimConfig, Trace
from txckpt.theory import ConditionViolated, theorem_condition

from conftest import cli_error, extension_oracle, run_cli, scenario_analysis, state_intervals


def lower_one_version(log):
    record = next(r for r in reversed(log) if r["version"])
    record["version"] -= 1


def toggle_first_read(txn):
    txn["reads"] = sorted(set(txn["reads"]) ^ {0})


def clamp_indices(log):
    for record in log:
        record["index"] = min(record["index"], 1)


def rename_key(item, old, new):
    item[new] = item.pop(old)


@functools.lru_cache(maxsize=None)
def simulated_trace_file() -> tuple[str, int]:
    """A 3 x 10 trace file's text, and the exit code of its verify."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = Path(tmp) / "trace.json"
        main(["simulate", "--objects", "3", "--txns", "10", "--seed", "4", "--timer", "5", "--out", str(path)])
        return path.read_text(), main(["verify", str(path)])


def json_values(integers):
    """JSON values of up to four leaves, integers drawn from integers."""
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=4,
    )


JSON_VALUES = json_values(st.integers())
# Small integers, so that no mutated scenario or workload file asks for a
# large analysis or a long run.
SMALL_JSON_VALUES = json_values(st.integers(-3, 12))


def mutate_trace(draw, data):
    """Apply one drawn mutation to a parsed trace file, in place.

    The top level gains one key.  config and workload lose one key, so that
    no mutation asks for a longer re-run.  execution, events and
    checkpoint_log are mutated by mutate_json.
    """
    section = draw(st.sampled_from(["trace", "config", "workload", "execution", "events", "checkpoint_log"]))
    if section == "trace":
        data[draw(st.text(max_size=4).filter(lambda k: k not in data))] = draw(JSON_VALUES)
        return
    node = data[section]
    if section in ("config", "workload"):
        del node[draw(st.sampled_from(sorted(node)))]
        return
    mutate_json(draw, node)


def mutate_json(draw, node, values=JSON_VALUES):
    """Apply one drawn mutation within a non-empty parsed JSON dict or list,
    in place: some dict or list is picked, and then a key is deleted or
    added, a value replaced with one of values, or list items dropped,
    duplicated or swapped."""
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        inner = [k for k in keys if isinstance(node[k], (dict, list)) and node[k]]
        if not inner or draw(st.booleans()):
            break
        node = node[draw(st.sampled_from(inner))]
    ops = ["delete", "add", "replace"] if isinstance(node, dict) else ["drop", "duplicate", "swap", "replace"]
    op = draw(st.sampled_from(ops))
    if op == "add":
        node[draw(st.text(max_size=4).filter(lambda k: k not in node))] = draw(values)
        return
    key = draw(st.sampled_from(keys))
    if op in ("delete", "drop"):
        del node[key]
    elif op == "replace":
        node[key] = draw(values)
    elif op == "duplicate":
        node.insert(key, node[key])
    else:
        other = draw(st.sampled_from(keys))
        node[key], node[other] = node[other], node[key]


class TestAnalyze:
    def test_fig1a_edge_counts(self, capsys):
        code, report = run_cli(capsys, "analyze", "fig1a")
        assert code == 0
        assert report["results"]["edge_counts"] == {"black": 5, "dashed": 2}
        assert report["results"]["serialization_edges"] == [[1, 2]]

    def test_fig3_happened_before_entries(self, capsys):
        code, report = run_cli(capsys, "analyze", "fig3")
        matrix = report["results"]["happened_before"]
        assert ["u:0", "y:2"] in matrix
        assert ["u:0", "x:2"] not in matrix

    def test_edge_counts_leave_the_edge_set_unbuilt(self, capsys, monkeypatch):
        built = []

        def kept(scenario):
            built.append(scenario_analysis(scenario))
            return built[-1]

        monkeypatch.setattr(cli, "_scenario_analysis", kept)
        for name in ("fig1a", "fig1b", "fig3"):
            code, report = run_cli(capsys, "analyze", name)
            base = built[-1].base
            assert code == 0 and "edges" not in base.__dict__
            counts = {"black": 0, "dashed": 0}
            for edge in base.edges:
                counts[edge.kind] += 1
            assert report["results"]["edge_counts"] == counts

    def test_intervals_match_the_per_state_map(self, capsys, tmp_path):
        # Random scenarios with 2-5 objects, 3-11 transactions and up to 3
        # extra checkpoints per object, read back from disk as analyze reads them.
        for seed in range(60):
            spec = WorkloadSpec(2 + seed % 4, 3 + seed % 9, ops_per_txn=(1, 3), write_probability=0.6, seed=seed)
            execution, pattern = generate_random(spec, max_checkpoints_per_object=1 + seed % 4)
            names = tuple(f"o{obj}" for obj in range(execution.num_objects))
            scenario = Scenario(execution, pattern, names)
            path = tmp_path / f"random{seed}.json"
            save_scenario(scenario, path)
            code, report = run_cli(capsys, "analyze", str(path))
            expected: dict[str, list[list[int]]] = {}
            for iv in sorted(set(state_intervals(scenario_analysis(scenario)).values())):
                expected.setdefault(names[iv.obj], []).append([iv.start, iv.end])
            assert code == 0 and report["results"]["intervals"] == expected

    def test_empty_scenario(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"objects": 2}))
        code, report = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert report["results"]["edge_counts"] == {"black": 0, "dashed": 0}

    def test_matrix_cap(self, capsys):
        code, report = run_cli(capsys, "analyze", "fig3", "--max-states", "2")
        assert "happened_before" not in report["results"]
        assert report["results"]["happened_before_omitted"] == 13

    def test_missing_file_exits_2(self, capsys):
        code, report = run_cli(capsys, "analyze", "no-such-scenario")
        assert code == 2 and "error" in report


class TestCheck:
    def test_fig3_hidden_pair_not_extendable(self, capsys):
        code, report = run_cli(capsys, "check", "fig3", "u:0", "x:1")
        assert code == 1
        assert report["results"]["condition_holds"] is False
        witness = report["results"]["violation"]["witness"]
        assert len(witness) == 2
        assert report["results"]["oracle"] == {
            "checked": True, "extendable": False, "agrees": True,
        }

    def test_fig3_single_member_extendable(self, capsys):
        code, report = run_cli(capsys, "check", "fig3", "u:0")
        assert code == 0 and report["results"]["condition_holds"] is True

    def test_fig1a_all_initials(self, capsys):
        code, report = run_cli(capsys, "check", "fig1a", "x:0", "y:0", "z:0")
        assert code == 0 and report["results"]["oracle"]["extendable"] is True

    def test_bad_member_syntax_exits_2(self, capsys):
        code, _ = run_cli(capsys, "check", "fig1a", "x-0")
        assert code == 2

    def test_duplicate_member_exits_2(self, capsys):
        code, _ = run_cli(capsys, "check", "fig1a", "x:0", "x:1")
        assert code == 2

    @pytest.mark.parametrize("command, member", [
        ("check", "u:9"), ("extend", "u:9"), ("check", "u:-1"), ("extend", "x:-1"),
    ])
    def test_bad_rank_exits_2(self, capsys, command, member):
        code, report = run_cli(capsys, command, "fig3", member)
        assert code == 2 and "error" in report and report["ok"] is False


@pytest.mark.parametrize("args, code, key, want", [
    (("check", "fig3", "u:x"), 2, "error", "candidate member 'u:x': rank must be an integer"),
    *((("check", "fig3", f"{obj}:0"), 2, "error", f"unknown object {obj!r}") for obj in ("+1", " 1", "\u0663")),
    *((("check", "fig3", f"u:{rank}"), 2, "error", f"candidate member 'u:{rank}': rank must be an integer")
      for rank in ("+0", "\u0660", "1_0")),
    # A bound below the candidate space leaves the oracle unchecked.
    (("check", "fig1a", "x:0", "y:0", "z:0", "--oracle-bound", "1"), 0, "oracle", {"checked": False}),
    # One object offers no pair to sample, so the spot checks test each of
    # the trace's three saved versions alone.
    (("verify", "{trace}"), 0, "theorem_spot_checks", {"checked": True, "candidates": 3, "disagreements": 0}),
], ids=["rank-not-an-integer", "object-plus", "object-space", "object-arabic-indic",
        "rank-plus", "rank-arabic-indic", "rank-underscore", "oracle-beyond-bound", "one-object-spot-checks"])
def test_cli_input_checks(capsys, tmp_path, args, code, key, want):
    # The CLI's own checks and branches that no other test reaches.
    trace = tmp_path / "one.json"
    run_cli(capsys, "simulate", "--objects", "1", "--txns", "6", "--timer", "5", "--out", str(trace))
    got, report = run_cli(capsys, *(arg.format(trace=trace) for arg in args))
    assert got == code
    assert (report if code == 2 else report["results"])[key] == want


class TestExtend:
    def test_fig3_extends_x(self, capsys):
        code, report = run_cli(capsys, "extend", "fig3", "x:1")
        assert code == 0
        gc = report["results"]["global_checkpoint"]
        assert gc["x"] == {"rank": 1, "version": 2}
        assert gc["z"] == {"rank": 1, "version": 4}
        assert report["results"]["consistent"] is True
        assert report["results"]["min_safe_ranks"]["z"]["x"] == 1

    def test_all_initials_unchanged(self, capsys):
        code, report = run_cli(capsys, "extend", "fig1a", "x:0", "y:0", "z:0")
        assert code == 0
        assert all(m["rank"] == 0 for m in report["results"]["global_checkpoint"].values())

    def test_fig3_violation_reported(self, capsys):
        code, report = run_cli(capsys, "extend", "fig3", "u:0", "x:1")
        assert code == 1
        assert report["results"]["condition_holds"] is False
        assert report["results"]["violation"]["witness"]

    def test_min_safe_ranks_block_matches_the_oracle_table(self, capsys, tmp_path):
        # Every 1- and 2-member candidate of the bundled scenarios and of a
        # random 5-object one read back from disk.
        execution, pattern = generate_random(WorkloadSpec(5, 12, ops_per_txn=(1, 3), write_probability=0.6, seed=2))
        path = tmp_path / "random.json"
        save_scenario(Scenario(execution, pattern, tuple(f"o{obj}" for obj in range(5))), path)
        held = violated = 0
        for source in ("fig1a", "fig1b", "fig3", str(path)):
            scenario = load_scenario(source)
            analysis = scenario_analysis(scenario)
            names = scenario.object_names
            singles = [(obj, rank) for obj in range(len(names)) for rank in analysis.pattern.ranks(obj)]
            candidates = [dict([s]) for s in singles]
            candidates += [dict(pair) for pair in itertools.combinations(singles, 2) if pair[0][0] != pair[1][0]]
            for candidate in candidates:
                code, report = run_cli(capsys, "extend", source, *(f"{names[o]}:{r}" for o, r in candidate.items()))
                try:
                    _, table = extension_oracle(candidate, analysis)
                except ConditionViolated:
                    assert code == 1 and "min_safe_ranks" not in report["results"]
                    violated += 1
                    continue
                assert code == 0
                assert report["results"]["min_safe_ranks"] == {
                    names[obj]: {names[member]: rank for member, rank in row.items()} for obj, row in table.items()
                }
                held += 1
        assert held > 50 and violated > 40


class TestSimulateAndVerify:
    def test_simulate_writes_trace_and_verify_passes(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code, report = run_cli(
            capsys, "simulate", "--objects", "3", "--txns", "10", "--protocol", "A",
            "--seed", "1", "--timer", "6", "--out", str(out),
        )
        assert code == 0 and out.exists()
        assert report["results"]["checkpoint_totals"]["initial"] == 3
        code, report = run_cli(capsys, "verify", str(out))
        assert code == 0
        assert report["results"]["violations"] == []
        assert report["results"]["theorem_spot_checks"]["disagreements"] == 0

    @pytest.mark.parametrize("version", [1.0, True, "1", 2, None], ids=["float", "true", "str", "2", "missing"])
    def test_schema_version_must_be_the_int_1(self, capsys, tmp_path, version):
        out = tmp_path / "trace.json"
        run_cli(capsys, "simulate", "--objects", "3", "--txns", "6", "--out", str(out))
        assert run_cli(capsys, "verify", str(out))[0] == 0
        data = json.loads(out.read_text())
        if version is None:
            del data["schema_version"]
        else:
            data["schema_version"] = version
        out.write_text(json.dumps(data))
        assert cli_error(capsys, "verify", str(out)) == "unsupported trace schema version"

    def test_option_defaults_are_the_dataclass_defaults(self):
        # Apart from --objects 4, --txns 12, --seed 0 and --write-prob 0.6.
        for command in ("simulate", "verify"):
            args = cli.build_parser().parse_args([command])
            assert cli._config_from_args(args, 4) == SimConfig(seed=0, num_objects=4)
            assert cli._workload_from_args(args) == WorkloadSpec(4, 12, write_probability=0.6)

    def test_simulate_deterministic_output(self, capsys, tmp_path):
        args = (
            "simulate", "--objects", "3", "--txns", "8", "--protocol", "B", "--z", "2",
            "--seed", "7", "--timer", "5",
        )
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        code1, report1 = run_cli(capsys, *args, "--out", str(out1))
        code2, report2 = run_cli(capsys, *args, "--out", str(out2))
        assert out1.read_text() == out2.read_text()
        report1["results"]["trace_file"] = report2["results"]["trace_file"] = ""
        assert report1 == report2

    def test_sim_batch(self, capsys):
        code, report = run_cli(
            capsys, "verify", "--sim-batch", "5", "--objects", "3", "--txns", "8",
            "--protocol", "B", "--z", "2", "--timer", "4",
        )
        assert code == 0 and report["results"]["violations"] == []

    def test_theorem_batch(self, capsys):
        code, report = run_cli(
            capsys, "verify", "--theorem-batch", "20", "--objects", "4", "--txns", "6",
        )
        assert code == 0 and report["results"]["disagreements"] == []

    def test_verify_needs_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify"])

    @pytest.mark.parametrize("args", [
        ("--sim-batch", "1", "--theorem-batch", "1"), ("{trace}", "--sim-batch", "3"),
        ("{trace}", "--theorem-batch", "1"),
    ], ids=["sim-and-theorem", "trace-and-sim", "trace-and-theorem"])
    def test_verify_takes_one_mode(self, capsys, tmp_path, args):
        trace = tmp_path / "t.json"
        trace.write_text(simulated_trace_file()[0])
        with pytest.raises(SystemExit) as info:
            main(["verify", *(arg.format(trace=trace) for arg in args)])
        assert info.value.code == 2 and "exactly one of" in capsys.readouterr().err

    def test_theorem_batch_reports_each_disagreement(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "theorem_condition", lambda c, analysis: not theorem_condition(c, analysis))
        code, report = run_cli(capsys, "verify", "--theorem-batch", "2", "--objects", "3", "--txns", "4")
        want = []
        for i in range(2):  # the CLI's default workload, seeded 0 and 1
            execution, pattern = generate_random(WorkloadSpec(3, 4, write_probability=0.6, seed=i))
            closed = CheckpointAnalysis(ExecutionAnalysis(execution), pattern).pattern
            singles = [(obj, rank) for obj, vs in enumerate(closed.versions) for rank in range(len(vs))]
            pairs = [a + b for a, b in itertools.combinations(singles, 2) if a[0] != b[0]]
            want += [{"instance": i, "candidate": {str(c[j]): c[j + 1] for j in range(0, len(c), 2)}}
                     for c in singles + pairs]
        assert code == 1 and report["results"] == {"instances": 2, "disagreements": want}

    def test_workload_file(self, capsys, tmp_path):
        # A workload file's missing fields take WorkloadSpec's defaults.
        wl = tmp_path / "wl.json"
        wl.write_text(json.dumps({"num_objects": 2, "num_txns": 4, "seed": 3}))
        code, report = run_cli(capsys, "simulate", "--workload", str(wl), "--seed", "2")
        assert code == 0
        assert report["results"]["transactions"] == 4
        inline = ("--objects", "2", "--txns", "4", "--wseed", "3", "--write-prob", "0.5")
        assert run_cli(capsys, "simulate", *inline, "--seed", "2") == (code, report)

    def test_scenario_file_round_trip_through_cli(self, capsys, tmp_path):
        path = tmp_path / "fig3.json"
        save_scenario(builtin_scenario("fig3"), path)
        code, report = run_cli(capsys, "check", str(path), "u:0", "x:1")
        assert code == 1

    @pytest.mark.parametrize("section, edit", [
        ("trace.execution", lambda d: d["workload"].update(seed=d["workload"]["seed"] + 1)),
        ("trace.events", lambda d: d["config"].update(z_param=1)),
        ("trace.events", lambda d: d["events"][5].update(time=d["events"][5]["time"] + 1)),
        ("trace.checkpoint_log", lambda d: lower_one_version(d["checkpoint_log"])),
        ("trace.execution", lambda d: toggle_first_read(d["execution"]["transactions"][0])),
        ("trace.events", lambda d: d["events"].pop(3)),
        ("trace.events", lambda d: d["events"][0].update(extra=0)),
        ("trace.checkpoint_log", lambda d: clamp_indices(d["checkpoint_log"])),
        ("trace.events", lambda d: rename_key(d["events"][0], "txn", "tx")),
        ("trace.checkpoint_log", lambda d: rename_key(d["checkpoint_log"][-1], "index", "idx")),
    ], ids=["workload-seed", "config-z", "event-time", "record-version", "txn-reads", "dropped-event",
            "extra-event-key", "log-indices-clamped", "event-key-renamed", "record-key-renamed"])
    def test_doctored_trace_exits_2(self, capsys, tmp_path, section, edit):
        # A trace must equal the re-run of its config and workload, so no
        # edit of the README's run is verified, whatever it does to the
        # guarantees.
        out = tmp_path / "trace.json"
        run_cli(capsys, "simulate", "--objects", "4", "--txns", "20", "--protocol", "B", "--z", "4",
                "--seed", "7", "--timer", "8", "--jitter", "2", "--out", str(out))
        data = json.loads(out.read_text())
        edit(data)
        out.write_text(json.dumps(data))
        code = main(["verify", str(out)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2 and report["ok"] is False and captured.err == ""
        assert report["error"].startswith(section)
        assert report["error"].endswith(": differs from a re-run of trace.config and trace.workload")

    def test_trace_cannot_ask_for_a_larger_run(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "trace.json"
        run_cli(capsys, "simulate", "--objects", "3", "--txns", "10", "--seed", "4", "--out", str(out))
        data = json.loads(out.read_text())
        data["workload"]["num_txns"] = 10**12
        out.write_text(json.dumps(data))
        runs = []
        monkeypatch.setattr(sim, "run_simulation", lambda *args: runs.append(args))
        code, report = run_cli(capsys, "verify", str(out))
        assert code == 2 and runs == []
        assert report["error"] == (
            "trace.workload.num_txns: 1000000000000 disagrees with trace.execution's 10 transactions"
        )

    def test_trace_cannot_ask_for_more_objects_than_it_logs(self, capsys, tmp_path, monkeypatch):
        # Every run logs one initial checkpoint per object, so a log shorter
        # than the object count is refused before the re-run.
        out = tmp_path / "trace.json"
        run_cli(capsys, "simulate", "--objects", "3", "--txns", "10", "--seed", "4", "--out", str(out))
        data = json.loads(out.read_text())
        data["config"]["num_objects"] = data["workload"]["num_objects"] = data["execution"]["objects"] = 10**9
        out.write_text(json.dumps(data))
        runs = []
        monkeypatch.setattr(sim, "run_simulation", lambda *args: runs.append(args))
        code, report = run_cli(capsys, "verify", str(out))
        assert code == 2 and runs == []
        logged = len(data["checkpoint_log"])
        assert report["error"] == f"trace.checkpoint_log: {logged} records, fewer than trace.execution.objects 1000000000"

    def test_trace_with_old_placement_key_verifies_the_same(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        run_cli(capsys, "simulate", "--objects", "3", "--txns", "10", "--seed", "4",
                "--timer", "5", "--out", str(out))
        code, report = run_cli(capsys, "verify", str(out))
        data = json.loads(out.read_text())
        data["config"]["object_placement"] = [0, 1, 2]
        out.write_text(json.dumps(data))
        assert run_cli(capsys, "verify", str(out)) == (code, report)
        assert code == 0

    @pytest.mark.parametrize("corrupt", [
        (("checkpoint_log", -1, "obj"), 99),
        (("checkpoint_log", -1, "kind"), "weird"),
        (("checkpoint_log", -1, "version"), 999),
        (("config", "timer_period"), "x"),
        (("workload", "ops_per_txn"), ["a", 2]),
        (("execution", "objects"), "3"),
        (("execution", "transactions", 0, "reads"), "ab"),
        (("events", -1), 5),
        (("checkpoint_log", -1), 5),
        (("config",), [1]),
        (("workload", "seed"), "x"),
        (("workload", "write_probability"), None),
        (("workload", "seed"), 2.7),
        (("workload", "access_skew"), float("nan")),
    ])
    def test_corrupt_trace_or_workload_exits_2(self, capsys, tmp_path, corrupt):
        path, value = corrupt
        out = tmp_path / "trace.json"
        run_cli(capsys, "simulate", "--objects", "3", "--txns", "10", "--seed", "4",
                "--timer", "5", "--out", str(out))
        data = json.loads(out.read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        if path[0] == "workload":
            wl = tmp_path / "wl.json"
            wl.write_text(json.dumps(data["workload"]))
            args = ("simulate", "--workload", str(wl))
        else:
            out.write_text(json.dumps(data))
            args = ("verify", str(out))
        code, report = run_cli(capsys, *args)
        assert code == 2 and "error" in report and report["ok"] is False

    @pytest.mark.parametrize("section", [None, "execution", "config", "workload"])
    def test_unknown_key_exits_2_before_the_run(self, capsys, tmp_path, monkeypatch, section):
        # A key the trace format does not have, at the top level or within
        # a section, is an input error found before the re-run.
        data = json.loads(simulated_trace_file()[0])
        (data if section is None else data[section])["bogus"] = 1
        out = tmp_path / "trace.json"
        out.write_text(json.dumps(data))
        runs = []
        monkeypatch.setattr(sim, "run_simulation", lambda *args: runs.append(args))
        code, report = run_cli(capsys, "verify", str(out))
        where = "trace" if section is None else f"trace.{section}"
        assert code == 2 and runs == []
        assert report["error"] == f"{where}: unknown fields ['bogus']"

    @pytest.mark.parametrize("section, count", [("config", 7), ("workload", 9)])
    def test_object_count_mismatch_exits_2(self, capsys, tmp_path, section, count):
        out = tmp_path / "trace.json"
        run_cli(capsys, "simulate", "--objects", "4", "--txns", "10", "--seed", "1",
                "--timer", "5", "--out", str(out))
        data = json.loads(out.read_text())
        data[section]["num_objects"] = count
        out.write_text(json.dumps(data))
        code, report = run_cli(capsys, "verify", str(out))
        assert code == 2 and report["ok"] is False
        assert report["error"] == f"trace.{section}.num_objects: {count} disagrees with trace.execution.objects 4"

    @pytest.mark.parametrize("section, field", [
        ("config", "protocol"), ("config", "seed"),
        *(("workload", name) for name in
          ("num_objects", "num_txns", "ops_per_txn", "write_probability", "access_skew", "seed")),
    ])
    def test_trace_missing_a_field_exits_2(self, capsys, tmp_path, monkeypatch, section, field):
        # A trace holds every field to_dict writes: no default stands in for
        # a missing one, not even where it equals the written value.
        out = tmp_path / "trace.json"
        run_cli(capsys, "simulate", "--objects", "3", "--txns", "10", "--protocol", "B", "--z", "1",
                "--out", str(out))
        data = json.loads(out.read_text())
        del data[section][field]
        out.write_text(json.dumps(data))
        runs = []
        monkeypatch.setattr(sim, "run_simulation", lambda *args: runs.append(args))
        code, report = run_cli(capsys, "verify", str(out))
        assert code == 2 and runs == []
        assert report["error"] == f"trace.{section}: missing field {field!r}"

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_mutated_trace_exits_as_its_parse_compares(self, data):
        # One mutation of a 3 x 10 trace file: verify exits as on the
        # original when the mutated parse equals it, and 2 otherwise.
        text, original_code = simulated_trace_file()
        original, mutated = json.loads(text), json.loads(text)
        mutate_trace(data.draw, mutated)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            path.write_text(json.dumps(mutated))
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["verify", str(path)])
        # The re-run's items are ints, strs and lists of ints, so those three
        # sections are compared by type as well: 1.0 and true are not 1.
        exact = lambda d: json.dumps([d["execution"], d["events"], d["checkpoint_log"]], sort_keys=True)
        same = (
            mutated.keys() == original.keys()
            and all(mutated[s] == original[s] for s in ("config", "workload"))
            and exact(mutated) == exact(original)
        )
        assert code == (original_code if same else 2)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_trace_with_a_config_value_replaced_reports_once(self, data):
        # One config value of the 3 x 10 trace replaced with a small JSON
        # value, so that no mutation asks for a long re-run: verify prints
        # one report and exits 0, 1 or 2, 2 exactly when it carries an
        # error.  Not "2 unless equal": under protocol A, a changed z_param
        # re-runs identically.
        trace = json.loads(simulated_trace_file()[0])
        trace["config"][data.draw(st.sampled_from(sorted(trace["config"])))] = data.draw(SMALL_JSON_VALUES)
        TestMutatedInputFiles.assert_report(*run_on_file(["verify", "{path}"], trace))

    @pytest.mark.parametrize("edit", [
        lambda d: next(e for e in d["events"] if e.get("apply") == 1).update(apply=True),
        lambda d: d["checkpoint_log"][-1].update(index=float(d["checkpoint_log"][-1]["index"])),
        lambda d: d["execution"]["commit_order"].__setitem__(0, float(d["execution"]["commit_order"][0])),
    ], ids=["event-apply-bool", "record-index-float", "commit-order-float"])
    def test_trace_value_of_another_type_exits_2(self, capsys, tmp_path, edit):
        # Each edit keeps the parse equal to the original under ==, but the
        # value is no longer the int the re-run gives.
        text, original_code = simulated_trace_file()
        data = json.loads(text)
        edit(data)
        assert data == json.loads(text) and original_code == 0
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert report["error"].endswith(": differs from a re-run of trace.config and trace.workload")

    @pytest.mark.parametrize("skew, command", [("2000", "simulate"), ("1e308", "simulate"), ("2000", "verify")])
    def test_skew_past_the_float_range_exits_2(self, capsys, tmp_path, skew, command):
        # 4.0 ** skew overflows a float, and so would the generator's weights.
        out = tmp_path / "trace.json"
        if command == "simulate":
            args = ("simulate", "--objects", "4", "--skew", skew)
        else:
            run_cli(capsys, "simulate", "--objects", "4", "--out", str(out))
            data = json.loads(out.read_text())
            data["workload"]["access_skew"] = float(skew)
            out.write_text(json.dumps(data))
            args = ("verify", str(out))
        code = main(list(args))
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2 and report["ok"] is False and captured.err == ""
        assert report["error"] == "num_objects ** access_skew exceeds the float range"

    @pytest.mark.parametrize("slack", [-1, 0])
    def test_spot_checks_test_the_oracle_bound_before_analysing(self, capsys, tmp_path, monkeypatch, slack):
        # verify_protocol_guarantees and the spot checks share one analysis;
        # the bound is tested on its closed pattern's sizes before any query,
        # so a trace beyond it never builds the reach columns.
        out = tmp_path / "trace.json"
        run_cli(capsys, "simulate", "--objects", "4", "--txns", "20", "--seed", "3", "--timer", "6",
                "--out", str(out))
        _, analysis = trace_pattern(Trace.from_json(out.read_text()))
        space = 1
        for versions in analysis.pattern.versions:
            space *= len(versions)
        built = []
        init = CheckpointAnalysis.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(CheckpointAnalysis, "__init__", counted)
        code, report = run_cli(capsys, "verify", str(out), "--oracle-bound", str(space + slack))
        spot = report["results"]["theorem_spot_checks"]
        assert code == 0
        if slack < 0:
            assert spot == {"checked": False, "reason": "candidate space beyond bound"}
            assert len(built) == 1 and not any(built[0]._columns)
        else:
            assert spot["checked"] and len(built) == 1

    def test_simulate_out_into_missing_directory_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "trace.json"
        code, report = run_cli(capsys, "simulate", "--objects", "2", "--txns", "3", "--out", str(out))
        assert code == 2 and "error" in report and report["ok"] is False
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("verify", "--sim-batch", "-2"),
        ("verify", "--theorem-batch", "-1"),
        ("verify", "--sim-batch", "1", "--spot-samples", "-5"),
        ("verify", "--sim-batch", "1", "--oracle-bound", "-1"),
        ("check", "fig3", "u:0", "--oracle-bound", "-1"),
        ("analyze", "fig3", "--max-states", "-1"),
    ])
    def test_negative_count_exits_2(self, capsys, args):
        code, report = run_cli(capsys, *args)
        assert code == 2 and "error" in report and report["ok"] is False
        assert "results" not in report

    def test_verify_unreadable_trace_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{broken")
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 2 and "error" in report


def run_on_file(args, data):
    """main's exit code and report for args, "{path}" standing for a file
    that holds data as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(data))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(path) if arg == "{path}" else arg for arg in args])
    return code, json.loads(out.getvalue())


class TestMutatedInputFiles:
    """One mutation of a scenario or workload file, as mutate_json makes it:
    every command that reads the file prints one report and exits 0, 1 or 2
    (2 with an error), never with a traceback."""

    @staticmethod
    def assert_report(code, report):
        assert code in (0, 1, 2) and report["ok"] is (code == 0)
        assert ("error" in report) is (code == 2)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_scenario(self, data):
        scenario = scenario_to_dict(builtin_scenario("fig3"))
        mutate_json(data.draw, scenario, SMALL_JSON_VALUES)
        members = data.draw(st.lists(st.sampled_from(["u:0", "z:1", "y:1", "x:2", "1:0", "z:9", "w:0"]),
                                     min_size=1, max_size=3))
        command = data.draw(st.sampled_from(["analyze", "check", "extend"]))
        args = [command, "{path}"] + (members if command != "analyze" else [])
        self.assert_report(*run_on_file(args, scenario))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_workload(self, data):
        workload = {"num_objects": 3, "num_txns": 8, "ops_per_txn": [1, 3], "write_probability": 0.6,
                    "access_skew": 0.5, "seed": 4}
        mutate_json(data.draw, workload, SMALL_JSON_VALUES)
        code, report = run_on_file(["simulate", "--workload", "{path}", "--timer", "5"], workload)
        self.assert_report(code, report)
        assert code != 1


@pytest.mark.parametrize("args, content", [
    (("analyze", "{path}"), b"\xff\xfe{}"),
    (("check", "{path}", "x:0"), b"\xff\xfe{}"),
    (("extend", "{path}", "x:0"), b"\xff\xfe{}"),
    (("simulate", "--workload", "{path}"), b"\xff\xfe{}"),
    (("verify", "{path}"), b"\xff\xfe{}"),
    (("simulate", "--workload", "{path}"),
     b'{"num_objects": 2, "num_txns": 3, "write_probability": 1' + b"0" * 400 + b"}"),
    (("verify", "{path}"), b"[" * 100_000),
    (("analyze", "{path}"), b'{"objects": 1' + b"0" * 5000 + b"}"),
    (("check", "{path}", "x:0"), b'{"objects": 1' + b"0" * 5000 + b"}"),
    (("extend", "{path}", "x:0"), b'{"objects": 1' + b"0" * 5000 + b"}"),
    (("simulate", "--workload", "{path}"), b'{"num_objects": 1' + b"0" * 5000 + b"}"),
    (("verify", "{path}"), b'{"schema_version": 1' + b"0" * 5000 + b"}"),
], ids=["analyze", "check", "extend", "simulate", "verify", "huge-float", "deep-nesting",
        "long-int-analyze", "long-int-check", "long-int-extend", "long-int-simulate", "long-int-verify"])
def test_unreadable_input_file_exits_2(capsys, tmp_path, args, content):
    # Non-UTF-8 bytes, a JSON integer too large for a float, nesting past
    # the interpreter's recursion limit, and an integer past its digit limit.
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code = main([arg.format(path=path) for arg in args])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2 and report["ok"] is False and report["error"]
    assert "results" not in report and captured.err == ""
