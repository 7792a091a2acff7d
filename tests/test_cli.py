import os
import subprocess
import sys

import pytest

from pathplan import cli
from pathplan.cli import main

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")


def demo(name):
    return os.path.join(DEMO, name)


EXPECTED_SMART = (
    "call getCompany(a -> v0)\n"
    "call getHierarchy(v0 -> v1, v2)\n"
    "filter v1 = a\n"
    "output v2\n"
)

EXPECTED_WEAK = (
    "call getCompany(a -> v0)\n"
    "call getHierarchy(v0 -> _, v1)\n"
    "output v1\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_plans_smart_fig1(capsys):
    code, out = run(
        capsys, "plans", "--functions", demo("fig1.cat"), "--query", "jobTitle",
        "--mode", "smart",
    )
    assert code == 0
    assert out == EXPECTED_SMART


def test_plans_weak_fig1(capsys):
    code, out = run(
        capsys, "plans", "--functions", demo("fig1.cat"), "--query", "jobTitle",
        "--mode", "weak",
    )
    assert code == 0
    assert out == EXPECTED_WEAK


def test_plans_susie_fig1(capsys):
    code, out = run(
        capsys, "plans", "--functions", demo("fig1.cat"), "--query", "jobTitle",
        "--mode", "susie",
    )
    assert code == 0
    assert "getCompany" in out


def test_plans_one_mode(capsys):
    code, out = run(
        capsys, "plans", "--functions", demo("fig1.cat"), "--query", "jobTitle",
        "--mode", "one",
    )
    assert code == 0 and "getCompany" in out


def test_plans_music_smart_empty(capsys):
    code, out = run(
        capsys, "plans", "--functions", demo("music.cat"), "--query", "sing",
        "--mode", "smart",
    )
    assert code == 3
    assert out == ""


def test_plans_music_weak_loose(capsys):
    code, out = run(
        capsys, "plans", "--functions", demo("music.cat"), "--query", "sing",
        "--mode", "weak",
    )
    assert code == 0
    assert "# shape: loose" in out


def test_plans_inverse_query(capsys):
    code, out = run(
        capsys, "plans", "--functions", demo("fig1.cat"), "--query", "worksFor^-",
        "--mode", "weak",
    )
    # getHierarchy's first output answers worksFor^- directly.
    assert code == 0
    assert "getHierarchy[1]" in out


def test_plans_deterministic(capsys):
    args = ("plans", "--functions", demo("susie_miss.cat"), "--query", "jobTitle", "--mode", "smart")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second and first


def test_check_smart_with_oracle(capsys):
    code, _ = run(
        capsys, "check", "--functions", demo("fig1.cat"), "--plan", demo("pi1.plan"),
        "--query", "jobTitle", "--level", "smart", "--oracle",
    )
    assert code == 0


def test_check_weak(capsys):
    code, _ = run(
        capsys, "check", "--functions", demo("fig1.cat"), "--plan", demo("pi1.plan"),
        "--query", "jobTitle", "--level", "weak", "--oracle",
    )
    assert code == 0


def test_check_fails_for_wrong_query(capsys):
    code, _ = run(
        capsys, "check", "--functions", demo("fig1.cat"), "--plan", demo("pi1.plan"),
        "--query", "graduatedFrom", "--level", "weak",
    )
    assert code == 4


def test_check_weak_oracle_constant_named_like_fresh_one(tmp_path, capsys):
    functions = tmp_path / "f.cat"
    functions.write_text("f = r^- | out 1\n")
    for constant in ("a", "c0", "c2"):
        plan = tmp_path / f"{constant}.plan"
        plan.write_text(f"call f({constant} -> v0)\noutput v0\n")
        code, out = run(
            capsys, "check", "--functions", str(functions), "--plan", str(plan),
            "--query", "r", "--level", "weak", "--oracle",
        )
        assert code == 4, (constant, out)


def test_eval_pi1(capsys):
    code, out = run(
        capsys, "eval", "--functions", demo("fig1.cat"), "--instance", demo("fig1.inst"),
        "--plan", demo("pi1.plan"),
    )
    assert code == 0
    assert out.strip() == "Journalist"


def test_eval_optional_edge(capsys):
    code, out = run(
        capsys, "eval", "--functions", demo("fig1.cat"), "--instance", demo("fig1.inst"),
        "--plan", demo("pi1.plan"), "--semantics", "optional-edge",
    )
    assert code == 0 and out.strip() == "Journalist"


def test_synth_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "cat.txt"
    code, _ = run(
        capsys, "synth", "--relations", "4", "--functions", "6", "--max-len", "3",
        "--seed", "7", "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert len([l for l in text.splitlines() if l.strip()]) == 6
    code2, out = run(
        capsys, "plans", "--functions", str(out_file), "--query", "r1", "--mode", "weak"
    )
    assert code2 in (0, 3)


def test_bench_csv(tmp_path, capsys):
    out_file = tmp_path / "bench.csv"
    code, _ = run(
        capsys, "bench", "--axis", "functions", "--fixed", "3", "--min", "3",
        "--max", "5", "--step", "2", "--seeds", "1", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "axisValue,approach,fractionAnswered,medianMs,p95Ms"
    assert len(lines) == 1 + 2 * 4


def test_usage_error(capsys):
    assert main(["plans", "--functions", "missing.cat", "--query", "r"]) == 2


def test_bad_subcommand(capsys):
    assert main(["nonsense"]) == 2


def test_real_sample_catalog_parses(capsys):
    code, out = run(
        capsys, "plans", "--functions", demo("real_sample.cat"),
        "--query", "diedOnDate", "--mode", "smart",
    )
    assert code in (0, 3)


def test_plans_one_notes_truncation(tmp_path, capsys):
    # The deadline passes before the search starts: no plan, exit code 3,
    # and a stderr note says the search was cut rather than finished.
    from pathplan import dsl
    from pathplan.synth import SynthConfig, gen_catalog

    path = tmp_path / "heavy.cat"
    path.write_text(dsl.serialize_catalog(gen_catalog(SynthConfig(4, 30, 3, seed=0))))
    argv = ["plans", "--functions", str(path), "--query", "r3^-", "--mode", "one"]
    assert main(argv + ["--timeout", "1e-9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "note: search truncated (deadline)\n"
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "f13" in captured.out and captured.err == ""


def test_unreadable_paths_are_usage_errors(capsys):
    # A directory where a file is expected: one error line, exit code 2.
    fig1, pi1 = demo("fig1.cat"), demo("pi1.plan")
    for argv in (
        ["plans", "--functions", DEMO, "--query", "jobTitle"],
        ["plans", "--functions", fig1, "--query", "jobTitle", "--out", DEMO],
        ["check", "--functions", fig1, "--plan", DEMO, "--query", "jobTitle"],
        ["eval", "--functions", fig1, "--instance", DEMO, "--plan", pi1],
        ["eval", "--functions", fig1, "--instance", demo("fig1.inst"), "--plan", DEMO],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv


def test_malformed_query_is_usage_error(capsys):
    for query in ("", "r^-^-", "a b", "1x", " jobTitle", "jobTitle^"):
        for command in ("plans", "check"):
            argv = [command, "--functions", demo("fig1.cat"), "--query", query]
            if command == "check":
                argv += ["--plan", demo("pi1.plan")]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "NAME" in captured.err, argv
    # Well-formed relations that no plan answers still mean "no plan".
    for query in ("nope", "jobTitle^-"):
        code, out = run(capsys, "plans", "--functions", demo("fig1.cat"), "--query", query)
        assert (code, out) == (3, ""), query


def _fresh_process(argv):
    """Run argv as `python -m pathplan.cli` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "pathplan.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_shared_parser_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # One process, many `main` calls on one parser: each call must print and
    # return what the same argv does in a process of its own.
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the same width in both
    builds = []
    original = cli.build_parser

    def counted():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    fig1, music = demo("fig1.cat"), demo("music.cat")
    out_file = tmp_path / "plans.txt"
    with_out = ["plans", "--functions", fig1, "--query", "jobTitle", "--out", str(out_file)]
    sequence = [
        ["plans", "--functions", cat, "--query", query, "--mode", mode]
        for cat, query in ((fig1, "jobTitle"), (music, "sing"))
        for mode in ("weak", "smart", "susie", "one")
    ] + [
        with_out,
        ["plans", "--functions", music, "--query", "sing", "--mode", "weak"],
        ["check", "--functions", fig1, "--plan", demo("pi1.plan"), "--query", "jobTitle",
         "--level", "smart", "--oracle"],
        ["eval", "--functions", fig1, "--instance", demo("fig1.inst"),
         "--plan", demo("pi1.plan")],
        ["--help"],
        ["plans", "--help"],
        ["plans", "--functions", fig1],
        ["nonsense"],
    ]
    shared = []
    for argv in sequence:
        code = main(argv)
        captured = capsys.readouterr()
        shared.append((code, captured.out, captured.err))
    assert len(builds) == 1
    # The plans call after the --out one wrote no file: it kept its own default.
    written = shared[sequence.index(with_out)][1]
    assert out_file.read_text(encoding="utf-8") == written == EXPECTED_SMART
    for argv, got in zip(sequence, shared):
        assert got == _fresh_process(argv), argv
    assert original() is not original()


def test_catalog_memo_follows_file_text(tmp_path, monkeypatch, capsys):
    # In-process calls reuse the parse of unchanged catalog text only.
    from collections import OrderedDict

    from pathplan import dsl

    parses = []
    original = dsl.parse_catalog

    def counted(*args, **kwargs):
        parses.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(dsl, "parse_catalog", counted)
    monkeypatch.setattr(cli, "_catalogs", OrderedDict())
    fig1 = tmp_path / "fig1.cat"
    fig1.write_text(open(demo("fig1.cat"), encoding="utf-8").read(), encoding="utf-8")
    argv = ["plans", "--functions", str(fig1), "--query", "jobTitle"]
    for mode in ("smart", "weak", "one", "smart"):
        assert main(argv + ["--mode", mode]) == 0
    assert len(parses) == 1
    assert capsys.readouterr().out.startswith(EXPECTED_SMART + EXPECTED_WEAK)

    # Rewritten between two calls: the new text gives the new plans.
    fig1.write_text("getJob = jobTitle\n", encoding="utf-8")
    code, out = run(capsys, *argv)
    assert (code, out) == (0, "call getJob(a -> v0)\noutput v0\n")
    assert len(parses) == 2

    # Malformed text: exit 2 and the same message on every call, never stored.
    bad = tmp_path / "bad.cat"
    bad.write_text("f = r\ng = \n", encoding="utf-8")
    errors = []
    for _ in range(3):
        assert main(["plans", "--functions", str(bad), "--query", "r"]) == 2
        errors.append(capsys.readouterr().err)
    expected = f"error: {bad}: line 2, col 1: expected NAME = atom (. atom)* (| out INT+)?\n"
    assert errors == [expected] * 3
    assert len(parses) == 5

    # The same text at two paths: each error names its own path.
    twin = tmp_path / "twin.cat"
    twin.write_text(bad.read_text(encoding="utf-8"), encoding="utf-8")
    for path in (bad, twin, bad):
        assert main(["plans", "--functions", str(path), "--query", "r"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 2")
    # A well-formed twin parses once per path, as its document names the path.
    good = tmp_path / "good.cat"
    good.write_text("f = r\n", encoding="utf-8")
    twin.write_text("f = r\n", encoding="utf-8")
    before = len(parses)
    for path in (good, twin, good, twin):
        code, out = run(capsys, "plans", "--functions", str(path), "--query", "r")
        assert (code, out) == (0, "call f(a -> v0)\noutput v0\n")
    assert len(parses) - before == 2
    assert {doc.source_name for doc in cli._catalogs.values()} >= {str(good), str(twin)}
    assert len(cli._catalogs) <= cli._CATALOG_MEMO_SIZE


def test_catalog_memo_is_bounded(tmp_path, monkeypatch, capsys):
    from collections import OrderedDict

    monkeypatch.setattr(cli, "_catalogs", OrderedDict())
    paths = []
    for i in range(cli._CATALOG_MEMO_SIZE + 3):
        path = tmp_path / f"c{i}.cat"
        path.write_text("f = r\n", encoding="utf-8")
        paths.append(str(path))
        assert main(["plans", "--functions", str(path), "--query", "r"]) == 0
    capsys.readouterr()
    assert [key[1] for key in cli._catalogs] == paths[-cli._CATALOG_MEMO_SIZE:]


BAD_NUMBERS = [
    ["plans", "--functions", demo("fig1.cat"), "--query", "jobTitle", "--mode", "weak",
     "--max-plans", value]
    for value in ("0", "-3")
] + [
    ["plans", "--functions", demo("fig1.cat"), "--query", "jobTitle", "--mode", "one",
     "--timeout", value]
    for value in ("-1", "nan")
] + [
    ["check", "--functions", demo("fig1.cat"), "--plan", demo("pi1.plan"),
     "--query", "jobTitle", "--oracle", "--budget", value]
    for value in ("0", "-1")
]


def test_out_of_range_numbers_are_usage_errors(capsys):
    for argv in BAD_NUMBERS:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        flag = argv[-2]
        assert captured.out == "", argv
        assert f"argument {flag}: must be at least" in captured.err, argv
        assert (2, "", captured.err) == _fresh_process(argv), argv
    # The bounds themselves are accepted; --timeout 0 means no limit.
    for argv, expected in (
        (BAD_NUMBERS[0][:-1] + ["1"], EXPECTED_WEAK),
        (BAD_NUMBERS[2][:-1] + ["0"], EXPECTED_WEAK),
    ):
        assert run(capsys, *argv) == (0, expected), argv
    code, out = run(capsys, *BAD_NUMBERS[4][:-1], "1")
    assert code == 0 and out.startswith("check: weakly smart\noracle: pass")


def test_bench_without_seeds_is_usage_error(capsys):
    argv = ["bench", "--axis", "relations", "--fixed", "3", "--min", "2", "--max", "2",
            "--seeds", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seeds must be at least 1, got 0\n"
    assert (2, "", captured.err) == _fresh_process(argv)
