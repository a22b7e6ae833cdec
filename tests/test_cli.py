import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilvar import homalg, verify
from nilvar.cli import main
from nilvar.modmatrix import MatrixPairModule

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_small_table(capsys):
    code, out, _ = run(capsys, "classify", "--n", "2", "--a", "3", "--b", "3")
    assert code == 0
    assert out == "V(2, 3, 3): 1 component\nregular:\n  xy  3\n"


def test_classify_point(capsys):
    code, out, _ = run(capsys, "classify", "--n", "1", "--a", "3", "--b", "3")
    assert code == 0
    assert out == "V(1, 3, 3): 1 component\npoint:\n  0  0\n"
    # JSON reports the bounds as given: no cap >= 2 exists at n = 1
    code, out, _ = run(capsys, "classify", "--n", "1", "--a", "7", "--b", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 1, "a": 7, "b": 2,
                               "components": [{"dim": 0, "kind": "zero"}]}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_classify_rejects_n0(capsys, fmt):
    code, out, err = run(capsys, "classify", "--n", "0", "--a", "3", "--b", "3",
                         "--format", fmt)
    assert code == 1
    assert out == "" and err == "nilvar: error: need n >= 1, got 0\n"


def test_closed_stdout_exits_quietly():
    # `nilvar classify ... | head -1`: the reader is gone before the
    # output is written, so the write fails with a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "nilvar", "classify", "--n", "12", "--a", "3",
             "--b", "3"], stdout=write_end, stderr=subprocess.PIPE, env=env,
            text=True, timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stderr) == (1, "")


def test_classify_rejects_bad_bounds_at_n1(capsys):
    code, out, err = run(capsys, "classify", "--n", "1", "--a", "0", "--b", "-5")
    assert code == 1
    assert out == "" and "a, b >= 2" in err


# sha256 of `nilvar classify --format json` stdout, the values of
# perfbench/expected_digests.json: classify output must stay byte-identical
CLASSIFY_JSON_SHA256 = {
    (12, 3, 3): "0553e508211fe6922574ced58177abbc28ac63e3a388537c727d3280b712e437",
    (12, 4, 4): "976432605e01ee9ad78249c6d53135b993bd2cb8cc59fe50e826d8a521acf598",
    (12, 3, 5): "76f035cd1d0a59b4b08d6558b8869a5bb484f2df5dff4eda776b9fbfa83a7465",
}


@pytest.mark.parametrize("n, a, b", sorted(CLASSIFY_JSON_SHA256))
def test_classify_json_is_byte_identical(capsys, n, a, b):
    code, out, _ = run(capsys, "classify", "--n", str(n), "--a", str(a),
                       "--b", str(b), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_JSON_SHA256[n, a, b]


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--n", "12", "--a", "3", "--b",
                       "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12 and payload["a"] == 3
    comps = payload["components"]
    assert len(comps) == 16
    assert {c["kind"] for c in comps} == {"regular", "orbit"}
    assert max(c["dim"] for c in comps) == 120


def test_classify_output_is_stable(capsys):
    first = run(capsys, "classify", "--n", "9", "--a", "3", "--b", "3")
    second = run(capsys, "classify", "--n", "9", "--a", "3", "--b", "3")
    assert first == second


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--a", "3", "--b", "3",
                       "--max-n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {"n": 5, "component": "xxyy", "dim": 20} in payload["open_orbits"]
    assert {"n": 4, "component": "xxyy", "dim": 13} in payload["regular"]
    # the semi-injective mirrors are omitted from the table view
    assert all(row["component"].startswith("x")
               for row in payload["open_orbits"])


def test_tables_rejects_bad_bounds(capsys):
    # checked up front: with --max-n < 2 no component is ever computed
    code, out, err = run(capsys, "tables", "--a", "1", "--b", "3", "--max-n", "1")
    assert code == 1
    assert out == "" and "a, b >= 2" in err
    code, out, err = run(capsys, "tables", "--a", "3", "--b", "3", "--max-n", "1")
    assert code == 1
    assert out == "" and "--max-n >= 2" in err


def test_tables_text_layout(capsys):
    code, out, _ = run(capsys, "tables", "--a", "2", "--b", "2",
                       "--max-n", "4")
    assert code == 0
    assert "regular components, a = 2, b = 2" in out
    assert "n = 2" in out


def test_hom_and_oracle(capsys):
    code, out, _ = run(capsys, "hom", "--source", "xxy", "--target", "xy")
    assert code == 0
    assert out == "Hom(M(xxy), M(xy)) = 3\n"
    code, out, _ = run(capsys, "hom", "--source", "xxy", "--target", "xy",
                       "--oracle", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"] == payload["oracle"] == 3
    assert payload["agree"] is True


def test_hom_oracle_disagreement_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(homalg, "hom_dim_oracle", lambda m1, m2: 4)
    code, out, _ = run(capsys, "hom", "--source", "xxy", "--target", "xy", "--oracle")
    assert code == 2
    assert out == ("Hom(M(xxy), M(xy)) = 3\nlinear-algebra oracle = 4\n"
                   "DISAGREEMENT between counting and linear algebra\n")
    code, out, _ = run(capsys, "hom", "--source", "xxy", "--target", "xy",
                       "--oracle", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert (payload["graph"], payload["oracle"], payload["agree"]) == (3, 4, False)


@pytest.mark.parametrize("source, message", [
    ("xxx", "run x^3 exceeds 2, not a word over (a,b)=(3,3)"),
    ("xz", "letters must be x or y, got ['z']"),
])
def test_hom_rejects_bad_word(capsys, source, message):
    code, out, err = run(capsys, "hom", "--source", source, "--target", "xy")
    assert (code, out, err) == (1, "", f"nilvar: error: {message}\n")


def test_ext_both_ways(capsys):
    code, out, _ = run(capsys, "ext", "--source", "xxyy", "--target", "xxyy")
    assert code == 0 and out == "Ext^1(M(xxyy), M(xxyy)) = 0\n"
    code, out, _ = run(capsys, "ext", "--source", "xy", "--target", "xxyy")
    assert code == 0 and out == "Ext^1(M(xy), M(xxyy)) != 0\n"


def test_ext_answers_non_semiprojective_target(capsys):
    code, out, err = run(capsys, "ext", "--source", "xy", "--target", "yx")
    assert (code, out, err) == (0, "Ext^1(M(xy), M(yx)) != 0\n", "")
    # an invalid word is still refused in one line
    code, out, err = run(capsys, "ext", "--source", "xy", "--target", "yyy")
    assert (code, out, err) == (
        1, "", "nilvar: error: run y^3 exceeds 2, not a word over (a,b)=(3,3)\n")


# Runs `nilvar ARGV...` in a child and writes its exit code and max RSS
# (KiB on Linux) to stderr.  A child's max RSS starts at that of the
# process image it was spawned from, so this small interpreter spawns it,
# not the test process, whose image may be larger than the bound.
MAXRSS_SHIM = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "nilvar", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


@pytest.mark.parametrize("command, answer", [("hom", " = 640801"), ("ext", " != 0")])
def test_long_words_run_in_small_memory(command, answer):
    # a window index keeps one count per distinct middle word: (xy)^800
    # against itself builds no list of its windows, Theta(L^3) bytes and
    # over 200 MB
    word = "xy" * 800
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", MAXRSS_SHIM, command, "--source", word, "--target", word],
        capture_output=True, env=env, text=True, timeout=60)
    code, maxrss_kib = map(int, done.stderr.split())
    assert code == 0
    assert done.stdout.endswith(answer + "\n") and done.stdout.count("\n") == 1
    assert maxrss_kib < 64 * 1024


def test_module_table_and_json(capsys):
    code, out, _ = run(capsys, "module", "--word", "xxyy")
    assert code == 0
    assert "dimension 5" in out
    assert "Jordan type of A: (3, 1, 1)" in out
    code, out, _ = run(capsys, "module", "--word", "xy", "--lambdas", "1,1/2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["regular"] is True
    assert payload["jordan"] == {"A": [2, 2], "B": [2, 2]}


def test_bad_word_is_a_usage_error(capsys):
    code, _, err = run(capsys, "module", "--word", "xz")
    assert code == 1 and "letters" in err


def test_missing_arguments_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--n", "4"])
    assert info.value.code == 1


def test_verify_subset_and_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--check", "remarks")
    assert code == 0
    assert out.startswith("PASS remarks:")
    monkeypatch.setitem(verify.GOLDEN_REGULAR_33, 2, {(("xy", 1),): 999})
    code, out, _ = run(capsys, "verify", "--check", "regular-table")
    assert code == 2
    assert out.startswith("FAIL regular-table:")


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--check", "bogus")
    assert code == 1 and "unknown checks" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--check", "remarks", "--check",
                       "regular-density", "--format", "json")
    assert code == 0
    names = [r["name"] for r in json.loads(out)]
    assert names == ["remarks", "regular-density"]


def test_zero_denominator_is_a_usage_error(capsys):
    code, out, err = run(capsys, "module", "--word", "xy", "--lambdas", "1/0")
    assert code == 1 and out == ""
    assert err == "nilvar: error: --lambdas needs nonzero denominators, got 1/0\n"


@pytest.mark.parametrize("lambdas", ["abc", "1,,", "1,x/2"])
def test_bad_lambda_literal_is_a_usage_error(capsys, lambdas):
    code, out, err = run(capsys, "module", "--word", "xy", "--lambdas", lambdas)
    assert code == 1 and out == ""
    assert err == f"nilvar: error: --lambdas needs rationals like 2 or -1/2, got {lambdas}\n"


# (exit code, sha256 of stdout, stderr) of one argv per command and
# format, recorded before the commands came to return their output to
# `main` for printing: every command's output must stay byte-identical
OUTPUT_SHA256 = {
    "classify --n 1 --a 3 --b 3 --format table":
        (0, "5ebb29570ddf95a94b4dd308bc250c0206c842c7435591c912a733c75071a85c", ""),
    "classify --n 1 --a 3 --b 3 --format json":
        (0, "9adbaa52f5ff139592640a8154adebc506c049fbf8cdd33ebab9fa13b5528bc2", ""),
    "classify --n 12 --a 3 --b 5 --format table":
        (0, "5632c6d017bb0b21497c6a47e927ea58d406a1e99b1409f14393b871e1cbf6c1", ""),
    "classify --n 12 --a 3 --b 5 --format json":
        (0, "76f035cd1d0a59b4b08d6558b8869a5bb484f2df5dff4eda776b9fbfa83a7465", ""),
    "tables --a 3 --b 3 --max-n 8 --format table":
        (0, "5107c4989124f698a83ae164ebf17e158511b06a4bde2a6f31612aa40640ae91", ""),
    "tables --a 3 --b 3 --max-n 8 --format json":
        (0, "e26a22a209cd81845a752560131a15c287933c795e2b1cebcbdda9b33dbdb46d", ""),
    "tables --a 3 --b 3 --max-n 4 --format table":
        (0, "2b0b3e35616e0d63e26c3599a7135d30648af45e820e7cc790659a1cf31f38f4", ""),
    "tables --a 3 --b 3 --max-n 4 --format json":
        (0, "95e48cdc4eaede742315617374db93feeef8e2253a21c5b612bca92ef92bbcf3", ""),
    "hom --source xxy --target xy --format table":
        (0, "05b9b91f1e3dc159e133f7f20eff5c29129d89bd5ec113f77d34bb6f9393d9f9", ""),
    "hom --source xxy --target xy --format json":
        (0, "914234cde96dbad552fdc59a887a6a0115ed35ccfd3f3b99069eeff6d46075fe", ""),
    "hom --source xxyy --target xxy --oracle --format table":
        (0, "7d72420707f18d30d6c1c90b0f2398bdbb1c6b034d120fadc88fc74cafb6b435", ""),
    "hom --source xxyy --target xxy --oracle --format json":
        (0, "5e443eccb278be0c17b7d47e02cf882ba329eeb670112ef71a1fbb98716c6e57", ""),
    "ext --source xxyy --target xxyy --format table":
        (0, "7aa38a166c26483d0c491c19e5696e918d1a4ecff713b0e16d121ad830033ec7", ""),
    "ext --source xxyy --target xxyy --format json":
        (0, "b91f8335b3c08a65c6a6b1128d45655300e0de733e06045ec8c7e532938e26e5", ""),
    "ext --source xy --target xxyy --format table":
        (0, "4a07ac2a4f1ad74b766316f8d545e79a3670f5b15e01e81d4967d1a0fe8cf1c1", ""),
    "ext --source xy --target xxyy --format json":
        (0, "29df349eb79197f1971bbddc0f5d1e39127a74d9c9eb36556d0e492bb5e9eff6", ""),
    "module --word xxyy --format table":
        (0, "ec9ee8a1664d4b1986609ccea3694233c99fdef48b87ff3270118ef4fd964f0b", ""),
    "module --word xxyy --format json":
        (0, "dd527731ce15fd71dec5c343a778737f7eef311862ae42d67480f08054172181", ""),
    "module --word xy --lambdas 1,1/2 --format table":
        (0, "840b54bd56c4ae289e47274b2fb074f525bb64e81d1ea4ad78495ae3c49b1ed4", ""),
    "module --word xy --lambdas 1,1/2 --format json":
        (0, "716dcafd26eb5e44a56dae6e1d1acbee5506285b40fa5ad1485a8fcb96d8fa69", ""),
    "module --word xxyxyy --lambdas=-3/2 --format table":
        (0, "55055fbeb53c3320e95119c3dcdeb975fc456821338aa3d16d7b5b509b51789b", ""),
    "module --word xxyxyy --lambdas=-3/2 --format json":
        (0, "7cb4656cdcb68a382f87ba70aa64dacce71a4d105a73e8a233619fa5370fb5e1", ""),
    "verify --level quick --format table":
        (0, "147a8abd66a08272ff29366aff383395a6712d6563d64ad2c353c1524e5f6ce0", ""),
    "verify --level quick --format json":
        (0, "14351037baf90beac0236e9331aa74c532c7404e5564cf5207db87e4036946ba", ""),
    "verify --check remarks --check regular-density --format table":
        (0, "196087aa1b5564fa248333d8da4e2a2a5709499d7236e4e4ff778671c11c1f8d", ""),
    "verify --check remarks --check regular-density --format json":
        (0, "fc95da548319ca734edaa32546b3122313b25b056a05c62bdbca632f441bb2e5", ""),
    "classify --n 0 --a 3 --b 3 --format table":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "nilvar: error: need n >= 1, got 0\n"),
    "classify --n 0 --a 3 --b 3 --format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "nilvar: error: need n >= 1, got 0\n"),
    "module --word xy --lambdas 1/0 --format table":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "nilvar: error: --lambdas needs nonzero denominators, got 1/0\n"),
    "module --word xy --lambdas 1/0 --format json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "nilvar: error: --lambdas needs nonzero denominators, got 1/0\n"),
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_SHA256))
def test_output_is_byte_identical(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == \
        OUTPUT_SHA256[argv]


@pytest.mark.parametrize("argv", [
    argv for argv, (code, _, _) in sorted(OUTPUT_SHA256.items())
    if argv.startswith("module") and argv.endswith("table") and code == 0])
def test_module_table_builds_no_json(capsys, monkeypatch, argv):
    # the dense matrices of the JSON payload are built for --format json
    # only: a table of `module --word (xy)^300` needs none of them
    def refuse(self):
        raise AssertionError("to_json called for table output")
    monkeypatch.setattr(MatrixPairModule, "to_json", refuse)
    test_output_is_byte_identical(capsys, argv)


# sha256 of `nilvar [command] --help` stdout at 80 columns, recorded while
# cli still imported nilvar.verify on load: the help must not change now
# that the check names are looked up only when the verify help is shown.
# The top-level help was re-recorded when `ext` came to answer every pair
# of strings and its line dropped "(target must be semi-projective)"
HELP_SHA256 = {
    "": "7d46d02cf23f597386f9083b906b38721c50cc8c83b4780bfa90cf36be9d098c",
    "classify": "16a8dda7542c287edd6b5c9bdc07db9b3fce3656a6a472a9b3e621daa82028fc",
    "tables": "80c301192bc2abc9df1f975e07624859d12d52a93fc0ece4128edc8381872fa6",
    "hom": "4ef77c7002022fd0ee28a7dcf40734be8569fbcd20fc9c35aa0a667862008352",
    "ext": "d50d8baedd16d01d1b967aa2f6f80251ea4b021735043ac4c0477b6fb6428a52",
    "module": "200350ed74035c6ef8eff3babc7088004f9e054850bf3e99160a1ecbbaba0ede",
    "verify": "89456e023f77aeba0ebd4bc5bd420d7e662b049867de6b62715bdbd49bb31f22",
}


def help_text(capsys, monkeypatch, command, columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as info:
        main([command, "--help"] if command else ["--help"])
    assert info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_is_byte_identical(capsys, monkeypatch, command):
    out = help_text(capsys, monkeypatch, command, 80)
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def test_verify_help_lists_every_check(capsys, monkeypatch):
    out = help_text(capsys, monkeypatch, "verify", 400)
    listed = out.split("available: ")[1].splitlines()[0]
    assert listed == ", ".join(name for name, _ in verify.CHECKS)
