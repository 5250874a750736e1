from __future__ import annotations

import json
import re

import pytest

from gridmind.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def gen_args(out_dir, count=6, variant="fwd-full-bt", split="train", seed="3"):
    return [
        "generate", "--split", split, "--variant", variant,
        "--count", str(count), "--seed", seed, "--out", str(out_dir),
    ]


def test_generate_then_verify(tmp_path, capsys):
    code, out = run_cli(gen_args(tmp_path / "data", count=5) + ["--shards", "2"], capsys)
    assert code == 0
    printed = out.strip().splitlines()
    assert len(printed) == 3  # two shards + sidecar
    assert printed[0].endswith("train-fwd-full-bt-0000-of-0002.jsonl")

    code, out = run_cli(["verify", str(tmp_path / "data")], capsys)
    assert code == 0
    assert out.strip().endswith("checked 5 records: 0 violation(s)")


def test_generate_count_zero_then_verify(tmp_path, capsys):
    code, _ = run_cli(gen_args(tmp_path / "data", count=0), capsys)
    assert code == 0
    code, out = run_cli(["verify", str(tmp_path / "data")], capsys)
    assert code == 0
    assert out.strip() == "checked 0 records: 0 violation(s)"


def test_generate_with_bad_sizes_writes_nothing(tmp_path, capsys):
    with pytest.raises(SystemExit, match="size_min <= size_max"):
        run_cli(gen_args(tmp_path / "data") + ["--size-min", "6", "--size-max", "3"], capsys)
    assert not (tmp_path / "data").exists()


def test_verify_reports_corruption(tmp_path, capsys):
    run_cli(gen_args(tmp_path, count=2, variant="bwd-none"), capsys)
    shard = tmp_path / "train-bwd-none-0000-of-0001.jsonl"
    lines = shard.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["complexity"] += 1.0
    lines[0] = json.dumps(obj, separators=(",", ":"))
    shard.write_text("\n".join(lines) + "\n")

    code, out = run_cli(["verify", str(tmp_path)], capsys)
    assert code == 1
    assert "complexity" in out
    assert out.strip().endswith("checked 2 records: 1 violation(s)")


def test_generate_is_deterministic_per_seed(tmp_path, capsys):
    run_cli(gen_args(tmp_path / "a", seed="7"), capsys)
    run_cli(gen_args(tmp_path / "b", seed="7"), capsys)
    run_cli(gen_args(tmp_path / "c", seed="8"), capsys)
    name = "train-fwd-full-bt-0000-of-0001.jsonl"
    a = (tmp_path / "a" / name).read_bytes()
    assert a == (tmp_path / "b" / name).read_bytes()
    assert a != (tmp_path / "c" / name).read_bytes()


def test_seed_env_var_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRIDMIND_SEED", "7")
    code, _ = run_cli(
        ["generate", "--split", "train", "--variant", "fwd-full-bt",
         "--count", "6", "--out", str(tmp_path / "env")],
        capsys,
    )
    assert code == 0
    run_cli(gen_args(tmp_path / "flag", seed="7"), capsys)
    name = "train-fwd-full-bt-0000-of-0001.jsonl"
    assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()

    monkeypatch.setenv("GRIDMIND_SEED", "not-a-number")
    with pytest.raises(SystemExit):
        run_cli(
            ["generate", "--split", "train", "--variant", "fwd-full-bt",
             "--count", "1", "--out", str(tmp_path / "bad")],
            capsys,
        )


def test_generate_accepts_density_overrides(tmp_path, capsys):
    code, _ = run_cli(
        gen_args(tmp_path, count=4) + ["--size-min", "4", "--size-max", "6",
                                       "--pit-density", "0.0"],
        capsys,
    )
    assert code == 0
    records = [
        json.loads(line)
        for line in (tmp_path / "train-fwd-full-bt-0000-of-0001.jsonl").read_text().splitlines()
    ]
    for r in records:
        assert 4 <= r["spec"]["size_x"] <= 6
        assert 4 <= r["spec"]["size_y"] <= 6
        assert r["spec"]["pits"] == []


def test_stats_command(tmp_path, capsys):
    run_cli(gen_args(tmp_path / "data", count=6), capsys)
    out_dir = tmp_path / "report"
    code, out = run_cli(
        ["stats", str(tmp_path / "data"), "--out", str(out_dir),
         "--heatmap", "complexity", "--heatmap", "plan_chars"],
        capsys,
    )
    assert code == 0
    assert out.startswith("records: 6\n")
    assert "complexity: mean=" in out
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["count"] == 6
    # one writer: stats.json has the bytes of the sidecar generate wrote
    sidecar = tmp_path / "data" / "train-fwd-full-bt-stats.json"
    assert (out_dir / "stats.json").read_bytes() == sidecar.read_bytes()
    for name in ("complexity.csv", "complexity.svg", "plan_chars.csv", "plan_chars.svg"):
        assert (out_dir / name).exists()


def test_stats_heatmap_requires_out(tmp_path, capsys):
    run_cli(gen_args(tmp_path / "data", count=2), capsys)
    with pytest.raises(SystemExit, match="--heatmap requires --out"):
        run_cli(["stats", str(tmp_path / "data"), "--heatmap", "complexity"], capsys)
    # refused before any record was read or summarised
    assert capsys.readouterr().out == ""


def test_eval_oracle_modes(tmp_path, capsys):
    run_cli(gen_args(tmp_path / "data", count=5, variant="bwd-none"), capsys)
    shard = tmp_path / "data" / "train-bwd-none-0000-of-0001.jsonl"
    for mode in ("optimal", "reachable"):
        code, out = run_cli(
            ["eval", "--test-file", str(shard), "--agent", "oracle",
             "--mode", mode, "--report", str(tmp_path / f"{mode}.json")],
            capsys,
        )
        assert code == 0
        assert "success: 5 (100.0%)" in out
        assert "aborted: 0" in out
        report = json.loads((tmp_path / f"{mode}.json").read_text())
        assert report["counts"]["success"] == 5
        assert report["mode"] == mode


def test_eval_plans_agent_round_trip(tmp_path, capsys):
    run_cli(gen_args(tmp_path / "data", count=5, variant="fwd-kept-bt"), capsys)
    shard = tmp_path / "data" / "train-fwd-kept-bt-0000-of-0001.jsonl"
    plans = tmp_path / "plans.jsonl"
    with open(plans, "w") as fh:
        for line in shard.read_text().splitlines():
            obj = json.loads(line)
            reply = obj["conversation"][3]["text"]
            fh.write(json.dumps({"index": obj["index"], "text": reply}) + "\n")

    for mode in ("optimal", "reachable"):
        code, out = run_cli(
            ["eval", "--test-file", str(shard), "--agent", f"plans:{plans}",
             "--mode", mode],
            capsys,
        )
        assert code == 0
        assert "success: 5 (100.0%)" in out


def test_eval_dfs_deterministic_across_workers(tmp_path, capsys):
    run_cli(gen_args(tmp_path / "data", count=8, variant="bwd-none"), capsys)
    shard = tmp_path / "data" / "train-bwd-none-0000-of-0001.jsonl"

    def report(workers):
        path = tmp_path / f"r{workers}.json"
        code, _ = run_cli(
            ["eval", "--test-file", str(shard), "--agent", "dfs",
             "--mode", "reachable", "--seed", "5", "--workers", str(workers),
             "--report", str(path)],
            capsys,
        )
        assert code == 0
        return json.loads(path.read_text())

    assert report(1) == report(4)


def test_eval_rejects_bad_agents(tmp_path, capsys):
    run_cli(gen_args(tmp_path / "data", count=1, variant="bwd-none"), capsys)
    shard = tmp_path / "data" / "train-bwd-none-0000-of-0001.jsonl"
    with pytest.raises(SystemExit):
        run_cli(["eval", "--test-file", str(shard), "--agent", "psychic",
                 "--mode", "reachable"], capsys)
    with pytest.raises(SystemExit):
        run_cli(["eval", "--test-file", str(shard), "--agent", "random",
                 "--mode", "optimal"], capsys)
    with pytest.raises(SystemExit):
        run_cli(["eval", "--test-file", str(shard), "--agent", "plans:/missing.jsonl",
                 "--mode", "optimal"], capsys)


def test_eval_names_the_line_of_an_unreachable_spec(tmp_path, capsys):
    spec = {"min_x": 0, "min_y": 0, "size_x": 3, "size_y": 2, "start": [0, 0],
            "goal": [2, 0], "walls": [[1, 0], [1, 1]], "pits": [], "seed": None}
    specs = tmp_path / "specs.jsonl"
    specs.write_text(json.dumps(spec) + "\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(specs))}:1: .*unreachable"):
        run_cli(["eval", "--test-file", str(specs), "--agent", "oracle",
                 "--mode", "reachable"], capsys)


def test_eval_rejects_too_few_recorded_replies(tmp_path, capsys):
    run_cli(gen_args(tmp_path / "data", count=3, variant="bwd-none"), capsys)
    shard = tmp_path / "data" / "train-bwd-none-0000-of-0001.jsonl"
    plans = tmp_path / "plans.jsonl"
    plans.write_text('{"text": "up"}\n')
    with pytest.raises(SystemExit, match="no recorded reply for episode 1"):
        run_cli(["eval", "--test-file", str(shard), "--agent", f"plans:{plans}",
                 "--mode", "optimal"], capsys)


def test_eval_checks_the_reply_count_before_any_episode(tmp_path, capsys, monkeypatch):
    import gridmind.cli as cli

    run_cli(gen_args(tmp_path / "data", count=3, variant="bwd-none"), capsys)
    shard = tmp_path / "data" / "train-bwd-none-0000-of-0001.jsonl"
    plans = tmp_path / "plans.jsonl"
    plans.write_text('{"text": "up"}\n{"text": "down"}\n')
    entered = []
    monkeypatch.setattr(cli, "evaluate_batch", lambda *a, **k: entered.append(a))
    with pytest.raises(SystemExit, match="no recorded reply for episode 2"):
        run_cli(["eval", "--test-file", str(shard), "--agent", f"plans:{plans}",
                 "--mode", "reachable"], capsys)
    assert entered == []


def test_stats_names_the_line_of_a_bad_record(tmp_path, capsys):
    run_cli(gen_args(tmp_path / "data", count=2), capsys)
    shard = tmp_path / "data" / "train-fwd-full-bt-0000-of-0001.jsonl"
    lines = shard.read_text().splitlines()
    obj = json.loads(lines[0])
    del obj["spec"]
    lines[0] = json.dumps(obj)
    shard.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(shard))}:1: .*'spec'"):
        run_cli(["stats", str(shard)], capsys)


@pytest.mark.parametrize("field,value", [("complexity", "nan"), ("complexity", float("nan")),
                                         ("complexity", float("inf")), ("plan_chars", True)])
def test_stats_names_the_line_of_a_metric_that_is_not_a_number(tmp_path, capsys, field, value):
    run_cli(gen_args(tmp_path / "data", count=2), capsys)
    shard = tmp_path / "data" / "train-fwd-full-bt-0000-of-0001.jsonl"
    lines = shard.read_text().splitlines()
    obj = json.loads(lines[1])
    (obj if field == "complexity" else obj["lengths"])[field] = value
    lines[1] = json.dumps(obj)
    shard.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(shard))}:2: .*{field}"):
        run_cli(["stats", str(shard)], capsys)


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_eval_rejects_a_bad_timeout_before_any_episode(tmp_path, capsys, monkeypatch, timeout):
    import gridmind.cli as cli

    run_cli(gen_args(tmp_path / "data", count=1, variant="bwd-none"), capsys)
    shard = tmp_path / "data" / "train-bwd-none-0000-of-0001.jsonl"
    entered = []
    monkeypatch.setattr(cli, "evaluate_batch", lambda *a, **k: entered.append(a))
    with pytest.raises(SystemExit, match="timeout must be a positive number"):
        run_cli(["eval", "--test-file", str(shard), "--agent", "bridge:stdio:python3 -c pass",
                 "--mode", "reachable", "--timeout", timeout], capsys)
    assert entered == []


def test_verify_reports_a_line_that_is_not_a_record(tmp_path, capsys):
    run_cli(gen_args(tmp_path, count=2, variant="bwd-none"), capsys)
    shard = tmp_path / "train-bwd-none-0000-of-0001.jsonl"
    lines = shard.read_text().splitlines()
    shard.write_text(lines[0] + "\n[]\n" + lines[1] + "\n")
    code, out = run_cli(["verify", str(shard)], capsys)
    assert code == 1
    assert out.startswith(f"{shard}:2: ")
    assert out.strip().endswith("checked 3 records: 1 violation(s)")


@pytest.mark.parametrize("command", ["verify", "stats", "eval"])
def test_commands_skip_a_directory_named_like_a_shard(tmp_path, capsys, command):
    run_cli(gen_args(tmp_path / "data", count=2, variant="bwd-none"), capsys)
    (tmp_path / "data" / "notes.jsonl").mkdir()
    argv = {"verify": ["verify", str(tmp_path / "data")],
            "stats": ["stats", str(tmp_path / "data")],
            "eval": ["eval", "--test-file", str(tmp_path / "data"), "--agent", "oracle",
                     "--mode", "reachable"]}[command]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert {"verify": "checked 2 records: 0 violation(s)", "stats": "records: 2",
            "eval": "success: 2 "}[command] in out


@pytest.mark.parametrize("command", ["verify", "stats", "eval"])
def test_commands_name_the_line_that_is_not_utf8(tmp_path, capsys, command):
    run_cli(gen_args(tmp_path, count=3, variant="bwd-none"), capsys)
    shard = tmp_path / "train-bwd-none-0000-of-0001.jsonl"
    lines = shard.read_bytes().splitlines()
    lines[1] = b"\xff" + lines[1]
    shard.write_bytes(b"\n".join(lines) + b"\n")
    if command == "verify":
        code, out = run_cli(["verify", str(shard)], capsys)
        assert code == 1
        assert out.startswith(f"{shard}:2: bad JSON: 'utf-8' codec can't decode byte 0xff")
        assert out.strip().endswith("checked 3 records: 1 violation(s)")
        return
    argv = (["stats", str(shard)] if command == "stats" else
            ["eval", "--test-file", str(shard), "--agent", "oracle", "--mode", "reachable"])
    with pytest.raises(SystemExit, match=f"^{re.escape(str(shard))}:2: 'utf-8' codec"):
        run_cli(argv, capsys)


def test_eval_names_the_line_of_a_short_wall_cell(tmp_path, capsys):
    spec = {"min_x": 0, "min_y": 0, "size_x": 2, "size_y": 2, "start": [0, 0],
            "goal": [1, 1], "walls": [[1]], "pits": [], "seed": None}
    specs = tmp_path / "specs.jsonl"
    specs.write_text(json.dumps(spec) + "\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(specs))}:1: "):
        run_cli(["eval", "--test-file", str(specs), "--agent", "oracle",
                 "--mode", "reachable"], capsys)


def test_eval_names_the_line_of_a_coordinate_that_is_not_an_int(tmp_path, capsys):
    spec = {"min_x": 0, "min_y": 0, "size_x": 2, "size_y": 2, "start": [0.5, 0],
            "goal": [0.5, 1], "walls": [], "pits": [], "seed": None}
    specs = tmp_path / "specs.jsonl"
    specs.write_text(json.dumps(spec) + "\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(specs))}:1: .*start \\(0\\.5, 0\\)"):
        run_cli(["eval", "--test-file", str(specs), "--agent", "dfs",
                 "--mode", "reachable"], capsys)


@pytest.mark.parametrize("mode", ["optimal", "reachable"])
@pytest.mark.parametrize("text", ["5", "null"])
def test_eval_names_the_line_of_a_reply_that_is_not_text(tmp_path, capsys, mode, text):
    run_cli(gen_args(tmp_path / "data", count=1, variant="bwd-none"), capsys)
    shard = tmp_path / "data" / "train-bwd-none-0000-of-0001.jsonl"
    plans = tmp_path / "plans.jsonl"
    plans.write_text(f'{{"text": {text}}}\n')
    with pytest.raises(SystemExit, match=f"^{re.escape(str(plans))}:1: text .* is not a string"):
        run_cli(["eval", "--test-file", str(shard), "--agent", f"plans:{plans}",
                 "--mode", mode], capsys)


def test_run_sizes_below_their_minimum_are_errors(tmp_path, capsys):
    with pytest.raises(SystemExit, match="count >= 0"):
        run_cli(gen_args(tmp_path / "none", count=-3), capsys)
    assert not (tmp_path / "none").exists()
    run_cli(gen_args(tmp_path / "data", count=1, variant="bwd-none"), capsys)
    shard = tmp_path / "data" / "train-bwd-none-0000-of-0001.jsonl"
    for budget in ("0", "-1"):
        with pytest.raises(SystemExit, match="max_steps >= 1"):
            run_cli(["eval", "--test-file", str(shard), "--agent", "oracle",
                     "--mode", "reachable", "--max-steps", budget], capsys)


@pytest.mark.parametrize("command", ["verify", "stats"])
def test_missing_path_is_reported(tmp_path, capsys, command):
    missing = tmp_path / "nowhere.jsonl"
    with pytest.raises(SystemExit, match=f"^{re.escape(str(missing))} does not exist$"):
        run_cli([command, str(missing)], capsys)


@pytest.mark.parametrize("case", ["generate-out-file", "stats-out-file", "eval-report-dir"])
def test_an_unusable_output_path_exits_with_its_name(case, tmp_path, capsys):
    run_cli(gen_args(tmp_path / "data", count=2, variant="bwd-none"), capsys)
    taken = tmp_path / "taken"
    if case == "eval-report-dir":
        taken.mkdir()
        argv = ["eval", "--test-file", str(tmp_path / "data"), "--agent", "oracle",
                "--mode", "optimal", "--report", str(taken)]
    else:
        taken.write_text("")
        argv = gen_args(taken) if case == "generate-out-file" else [
            "stats", str(tmp_path / "data"), "--out", str(taken)]
    # SystemExit with a message, not an OSError's traceback
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv, capsys)
    assert isinstance(exit_info.value.code, str)  # printed, exit status 1
    assert str(taken) in exit_info.value.code
    # and it exits before any work: no outcome count, no records line
    assert capsys.readouterr().out == ""


def test_cli_rejects_unknown_variant(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli(gen_args(tmp_path, variant="sideways"), capsys)


def test_cli_runs_as_a_module(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "gridmind.cli", "generate", "--split", "train",
         "--variant", "bwd-none", "--count", "2", "--seed", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "train-bwd-none-0000-of-0001.jsonl").exists()
