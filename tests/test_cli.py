import os

import pytest

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
