"""End-to-end CLI tests through a subprocess: JSON envelope shape, exit
codes, worked examples, output formats, and determinism."""

import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ckkms

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

ENVELOPE_KEYS = {"command", "inputs", "result", "mode", "residual", "warnings"}
HALF_VECTOR = '[{"type":"rational","num":1,"den":2},{"type":"rational","num":1,"den":2}]'
GOLDEN_MATRIX = "[[1,1],[1,0]]"
GOLDEN_POWER_FORM = ('{"base":{"type":"algebraic","poly":[-1,1,1],'
                     '"interval":["0","1"]},"exponents":[1,2]}')
PHI = (1 + math.sqrt(5)) / 2


SOURCE_ROOT = Path(ckkms.__file__).resolve().parents[1]
PYPROJECT = SOURCE_ROOT.parent / "pyproject.toml"
DATA = Path(__file__).parent / "data"
REPRODUCE_ENVELOPE = DATA / "reproduce_paper.json"


def cli_env():
    """Environment for a CLI subprocess that imports the ckkms under test,
    whether or not the caller exported PYTHONPATH or installed the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "ckkms.cli", *args],
                          capture_output=True, text=True, timeout=300,
                          env=cli_env())
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args):
    code, out, err = run_cli(*args)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


MODES = ("exact", "certified", "heuristic")
BOUND_KEYS = {"residual", "max_residual", "gap"}


def shown_mode(node) -> str:
    """The weakest mode that a rendered envelope body shows: the mode of a
    type label and a certificate; exact for an exact scalar, certified for
    an enclosure and heuristic for a float or an unproved guess; certified
    for an interval or a bound that is not 0.  A kms-check's beta is
    skipped: it has the mode of the solve the check rests on, which only the
    envelope's mode and its rests-on warning show.  A state-eval's
    enclosure_width, the width of the printed enclosure, is no bound."""
    if isinstance(node, list):
        return max(map(shown_mode, node), key=MODES.index, default="exact")
    if not isinstance(node, dict):
        return "exact"
    if {"enclosure", "exact"} <= node.keys():
        if node["exact"]:
            return "exact"
        return "heuristic" if {"rational", "form"} & node.keys() else "certified"
    if {"lo", "hi", "width"} <= node.keys():
        return "exact" if node["width"] == "0" else "certified"
    modes = ["exact"]
    for key, value in node.items():
        if key in ("mode", "certificate"):
            modes.append(value)
        elif key in BOUND_KEYS:
            modes.append("exact" if value in ("0", None) else "certified")
        elif not (key == "beta" and "ok" in node):
            modes.append(shown_mode(value))
    return max(modes, key=MODES.index)


class TestEnvelope:
    def test_classify_half(self):
        code, doc = run_json("classify", "--vector", HALF_VECTOR)
        assert code == 0
        assert set(doc) == ENVELOPE_KEYS
        assert doc["command"] == "classify"
        assert doc["result"]["lambda"] == "1/2"
        assert doc["mode"] == "exact"
        assert doc["warnings"] == []

    def test_classify_shorthand_strings(self):
        code, doc = run_json("classify", "--vector", '["1/3","2/3"]')
        assert code == 0
        assert doc["result"]["lambda"] == "1"

    def test_classify_power_form(self):
        code, doc = run_json("classify", "--vector", GOLDEN_POWER_FORM)
        assert code == 0
        assert doc["mode"] == "exact"
        assert abs(float(doc["result"]["lambda_float"]) - (1 / PHI)) < 1e-12
        assert doc["result"]["decomposition"]["exponents"] == [1, 2]

    def test_global_flags_in_either_position(self):
        code_before, doc_before = run_json("--tolerance", "1/1000000",
                                           "classify", "--vector", HALF_VECTOR)
        code_after, doc_after = run_json("classify", "--vector", HALF_VECTOR,
                                         "--tolerance", "1/1000000")
        assert code_before == code_after == 0
        assert doc_before["result"] == doc_after["result"]


class TestNormalize:
    def test_domain_projection(self):
        code, doc = run_json("normalize", "--matrix", "F2",
                             "--word", "s1* s1")
        assert code == 0
        one = {"type": "rational", "num": 1, "den": 1}
        assert doc["result"]["normal_form"] == [
            {"J": [1], "K": [1], "coeff": one},
            {"J": [2], "K": [2], "coeff": one},
        ]
        assert doc["result"]["is_zero"] is False

    def test_zero_word(self):
        code, doc = run_json("normalize", "--matrix", "F2",
                             "--word", "s1* s2")
        assert code == 0
        assert doc["result"]["is_zero"] is True
        assert doc["result"]["normal_form"] == []

    def test_contraction_over_golden(self):
        code, doc = run_json("normalize", "--matrix", GOLDEN_MATRIX,
                             "--word", "s1 s1* s1 s2")
        assert code == 0
        assert [(t["J"], t["K"]) for t in doc["result"]["normal_form"]] == [
            ([1, 2], [])]


class TestExitCodes:
    def test_membership_accept(self):
        code, doc = run_json("membership", "--matrix", "F2",
                             "--vector", '["1/2","1/2"]')
        assert code == 0
        assert doc["result"]["member"] is True
        assert doc["result"]["certificate"] == "exact"

    def test_membership_reject(self):
        code, doc = run_json("membership", "--matrix", "F2",
                             "--vector", '["1/2","1/3"]')
        assert code == 1
        assert doc["result"]["member"] is False
        radius = doc["result"]["spectral_radius"]
        from fractions import Fraction
        assert Fraction(radius["lo"]) <= Fraction(5, 6) <= Fraction(radius["hi"])

    def test_rejection_envelope_other_commands(self):
        code, doc = run_json("state-eval", "--matrix", "F2",
                             "--vector", '["1/2","1/3"]', "--word", "s1 s1*")
        assert code == 1
        assert doc["result"]["rejected"] is True

    def test_rejection_at_state_precision(self):
        # a = (x, x) on the golden-mean matrix with x*phi = 1 + 1.01e-9 lies
        # outside the default tolerance band 1e-9: membership and the state
        # both reject it
        x = "14049599696622291542793555728/22732729814505021833868640139"
        vector = json.dumps([x, x])
        code, doc = run_json("membership", "--matrix", GOLDEN_MATRIX,
                             "--vector", vector)
        assert code == 1 and doc["result"]["member"] is False
        assert "does not meet 1" in doc["result"]["reason"]
        code, doc = run_json("state-eval", "--matrix", GOLDEN_MATRIX,
                             "--vector", vector, "--word", "s1 s1*")
        assert code == 1
        assert doc["result"]["rejected"] is True
        assert "does not meet 1" in doc["result"]["reason"]

    def test_acceptance_just_inside_the_tolerance_band(self):
        # x*phi = 1 + 0.99e-9, inside the band: both commands accept
        x = "31657507358967470152371911737/51222922855198591341755188260"
        vector = json.dumps([x, x])
        code, doc = run_json("membership", "--matrix", GOLDEN_MATRIX,
                             "--vector", vector)
        assert code == 0 and doc["result"]["member"] is True
        code, doc = run_json("state-eval", "--matrix", GOLDEN_MATRIX,
                             "--vector", vector, "--word", "s1 s1*")
        assert code == 0
        assert abs(float(doc["result"]["value"]["float"]) - 1 / PHI) < 1e-8

    def test_usage_error_bad_json(self):
        code, out, err = run_cli("classify", "--vector", "[not json")
        assert code == 2
        assert not out
        assert "error" in err.lower()

    def test_usage_error_unknown_command(self):
        code, _, _ = run_cli("no-such-command")
        assert code == 2

    def test_usage_error_bad_word(self):
        code, out, err = run_cli("normalize", "--matrix", "F2",
                                 "--word", "x1")
        assert code == 2
        assert "error" in err.lower()

    def test_usage_error_missing_dims(self):
        code, _, err = run_cli("coassoc", "--dims", "2,3")
        assert code == 2
        assert "three" in err

    @pytest.mark.parametrize("vector", [
        '[{"type":"rational","num":1,"den":0},"1/2"]',  # zero denominator
        '[{"type":"rational","num":1},"1/2"]',  # no "den"
    ])
    def test_usage_error_malformed_scalar(self, vector):
        code, out, err = run_cli("classify", "--vector", vector)
        assert code == 2
        assert not out
        assert err.startswith("error:") and "Traceback" not in err

    def test_usage_error_matrix_rows_not_lists(self):
        code, out, err = run_cli("pf", "--matrix", "[1,2]")
        assert code == 2
        assert not out
        assert err.startswith("error: cannot parse matrix")

    @pytest.mark.parametrize("where", ["global", "command"])
    def test_seed_flag_is_gone(self, where, capsys):
        # the verifier samples nothing, so no command takes a seed
        from ckkms import cli

        command = ["verify-homomorphism", "--matrix-a", "F2", "--vector-a",
                   "canonical", "--matrix-b", "F2", "--vector-b", "canonical"]
        argv = (["--seed", "7"] + command if where == "global"
                else command + ["--seed", "7"])
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and "error:" in err
        # the message names the flag, not its value as a command
        assert "--seed" in err and "invalid choice" not in err

    def test_internal_error_is_not_a_usage_error(self, monkeypatch, capsys):
        # exit 70, neither 1 (a failed check) nor 2 (a usage error)
        from ckkms import cli

        def broken(args, config):
            raise RuntimeError("a bug in a handler")

        monkeypatch.setitem(cli._HANDLERS, "classify", broken)
        assert cli.main(["classify", "--vector", '["1/2","1/2"]']) == 70
        out, err = capsys.readouterr()
        assert not out
        assert "Traceback" in err and "RuntimeError: a bug in a handler" in err


class TestStateCommands:
    def test_state_eval_uniform(self):
        code, doc = run_json("state-eval", "--matrix", "F2",
                             "--vector", '["1/2","1/2"]', "--word", "s1 s1*")
        assert code == 0
        assert doc["result"]["value"]["rational"] == "1/2"
        assert doc["mode"] == "exact"

    def test_state_eval_canonical_keyword(self):
        code, doc = run_json("state-eval", "--matrix", GOLDEN_MATRIX,
                             "--vector", "canonical", "--word", "s1 s1*")
        assert code == 0
        value = doc["result"]["value"]
        assert abs(float(value["float"]) - (1 / PHI)) < 1e-9
        assert float(doc["result"]["enclosure_width"]) < 1e-9

    def test_kms_check_exact(self):
        code, doc = run_json("kms-check", "--matrix", "F2",
                             "--omega", '["1","1"]', "--x", "s1", "--y", "s1*")
        assert code == 0
        assert doc["result"]["ok"] is True
        assert doc["result"]["lhs"]["rational"] == "1/2"
        assert doc["result"]["rhs"]["rational"] == "1/2"
        assert float(doc["residual"]) == 0.0
        assert doc["mode"] == "exact"
        assert doc["warnings"] == []

    def test_kms_check_enclosure_mode(self):
        code, doc = run_json("kms-check", "--matrix", GOLDEN_MATRIX,
                             "--omega", '["1","1"]', "--x", "s1", "--y", "s1*")
        assert code == 0
        assert doc["result"]["ok"] is True
        assert doc["mode"] == "certified"
        assert any("certified" in w for w in doc["warnings"])
        # the sides are rounded outward onto the grid 2^-60; their floats
        # are those of the unrounded sides
        for side in ("lhs", "rhs"):
            assert doc["result"][side]["float"] == "0.618033988749895"

    def test_kms_check_failing_tolerance(self):
        code, doc = run_json("kms-check", "--matrix", GOLDEN_MATRIX,
                             "--omega", '["1","1"]', "--x", "s1", "--y", "s1*",
                             "--tolerance", "1/" + "1" + "0" * 40)
        assert code == 1
        assert doc["result"]["ok"] is False

    @pytest.mark.parametrize("matrix, omega, envelope", [
        (GOLDEN_MATRIX, '["1","2"]', "solve_beta_golden_mean_omega_1_2.json"),
        ("F3", '["2","1","1"]', "solve_beta_f3_omega_2_1_1.json"),
    ])
    def test_solve_beta_power_form_pinned(self, matrix, omega, envelope):
        # one parameter is the square of the solved base, printed in the
        # {"type": "power"} form; the envelope is pinned byte for byte
        code, out, err = run_cli("solve-beta", "--matrix", matrix, "--omega", omega)
        assert code == 0, err
        assert '"type": "power"' in out
        assert out == (DATA / envelope).read_text(encoding="utf-8")

    def test_solve_beta_negative_frequency_is_a_usage_error(self):
        omega = '[{"type":"enclosure","lo":"-2","hi":"-1"},"1"]'
        code, out, err = run_cli("solve-beta", "--matrix", "F2", "--omega", omega)
        assert code == 2
        assert not out
        assert err == "error: frequencies must be positive\n"

    def test_solve_beta_golden_frequencies(self):
        code, doc = run_json("solve-beta", "--matrix", "F2",
                             "--omega", '["1","2"]')
        assert code == 0
        assert doc["mode"] == "certified"
        assert abs(float(doc["result"]["beta"]["float"]) - math.log(PHI)) < 1e-9
        assert doc["result"]["exponents"] == [1, 2]
        assert doc["result"]["scale"] == "1"

    def test_pf_cycle_matrix(self):
        code, doc = run_json("pf", "--matrix", "[[1,1,0],[0,1,1],[1,0,1]]")
        assert code == 0
        assert abs(float(doc["result"]["eigenvalue"]["float"]) - 2) < 1e-9
        for entry in doc["result"]["eigenvector"]:
            assert abs(float(entry["float"]) - 1 / 3) < 1e-9


class TestTensorCommands:
    def test_tensor_state_sixth(self):
        code, doc = run_json("tensor-state", "--matrix-a", "F2",
                             "--vector-a", "canonical", "--matrix-b", "F3",
                             "--vector-b", "canonical", "--word", "s1 s1*")
        assert code == 0
        assert doc["result"]["value"]["rational"] == "1/6"
        assert doc["result"]["composite_dimension"] == 6
        assert doc["mode"] == "exact"

    def test_verify_homomorphism_passes(self):
        code, doc = run_json("verify-homomorphism", "--matrix-a", "F2",
                             "--vector-a", '["1/3","2/3"]', "--matrix-b", "F2",
                             "--vector-b", '["1/2","1/2"]',
                             "--max-word-len", "2")
        assert code == 0
        assert doc["result"]["passed"] is True
        assert float(doc["residual"]) <= 1e-9
        assert doc["result"]["diagonal_monomials"] == 1 + 4 + 16

    def test_verify_homomorphism_word_cap_is_a_usage_error(self):
        # F3 tensor F3 has 9^0 + ... + 9^6 > 10^5 words up to length 6
        code, out, err = run_cli("verify-homomorphism", "--matrix-a", "F3",
                                 "--vector-a", "canonical", "--matrix-b", "F3",
                                 "--vector-b", "canonical", "--max-word-len", "6")
        assert code == 2
        assert not out
        assert err == "error: admissible word enumeration exceeded 100000 entries\n"

    def test_coassoc(self):
        code, doc = run_json("coassoc", "--dims", "2,3,2")
        assert code == 0
        assert doc["result"]["passed"] is True


class TestOutputOptions:
    def test_table_format(self):
        code, out, _ = run_cli("classify", "--vector", HALF_VECTOR,
                               "--format", "table")
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "result.lambda = 1/2" in out

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli("classify", "--vector", HALF_VECTOR,
                               "--out", str(path))
        assert code == 0
        assert path.read_text().strip() == out.strip()

    # a successful envelope and a rejection envelope take the same output path
    EMITTING = [("classify", "--vector", HALF_VECTOR),
                ("state-eval", "--matrix", "F2", "--vector", '["1/2","1/3"]',
                 "--word", "s1 s1*")]

    @pytest.mark.parametrize("args", EMITTING)
    def test_unwritable_out_file(self, args, tmp_path):
        # --out is written first: when that fails, nothing is printed
        code, out, err = run_cli(*args, "--out", str(tmp_path / "missing" / "r.json"))
        assert code == 2
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args", EMITTING)
    def test_closed_stdout(self, args):
        # a reader that is gone: exit 128 + SIGPIPE, and no traceback
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "ckkms.cli", *args],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=300, env=cli_env())
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_determinism(self):
        args = ("verify-homomorphism", "--matrix-a", "F2", "--vector-a",
                '["1/3","2/3"]', "--matrix-b", "F2", "--vector-b",
                '["1/2","1/2"]', "--max-word-len", "1")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second

    def test_console_script_installed(self, tmp_path, monkeypatch):
        # Write the launcher an installer would generate from this checkout's
        # [project.scripts] table, so the declared entry point is exercised
        # without installing the package.
        toml = tomllib or pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            target = toml.load(fh)["project"]["scripts"]["ckkms"]
        module, attr = target.split(":")
        launcher = tmp_path / "ckkms"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n")
        launcher.chmod(0o755)
        monkeypatch.setenv("PATH", os.pathsep.join(
            [str(tmp_path), os.environ.get("PATH", "")]))

        path = shutil.which("ckkms")
        assert path is not None
        proc = subprocess.run([path, "classify", "--vector", HALF_VECTOR],
                              capture_output=True, text=True, timeout=120,
                              env=cli_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["lambda"] == "1/2"

    def test_readme_commands_run(self, capsys):
        # every `ckkms ...` line of the README's sh blocks exits 0 and
        # prints one JSON envelope, so a stale flag or command fails here
        from ckkms import cli

        text = (SOURCE_ROOT.parent / "README.md").read_text(encoding="utf-8")
        lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                 for line in block.splitlines() if line.startswith("ckkms ")]
        assert lines
        for line in lines:
            assert cli.main(shlex.split(line)[1:]) == 0, line
            doc = json.loads(capsys.readouterr().out)
            assert set(doc) == ENVELOPE_KEYS, line
            body = {"result": doc["result"], "residual": doc["residual"]}
            assert doc["mode"] == shown_mode(body), line

    def test_readme_library_quick_start(self, tmp_path):
        # the README's Python block runs as written against src/
        text = (SOURCE_ROOT.parent / "README.md").read_text(encoding="utf-8")
        section = text.split("## Library quick start", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert "verify_tensor_identity" in code
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              capture_output=True, text=True, timeout=300,
                              env=cli_env())
        assert proc.returncode == 0, proc.stderr


class TestOtherCommands:
    def test_iii1_family(self):
        code, doc = run_json("iii1-family", "--n", "3")
        assert code == 0
        assert doc["result"]["vector"] == ["1/5", "2/5", "2/5"]
        assert doc["result"]["lambda"] == "1"

    def test_power_type_with_rule(self):
        code, doc = run_json("power-type", "--a", GOLDEN_POWER_FORM,
                             "--k", "3", "--p", "1", "--q", "2")
        assert code == 0
        assert doc["result"]["exponent_rule"] == 1
        assert abs(float(doc["result"]["lambda_float"]) - (1 / PHI)) < 1e-12

    def test_huge_power_is_a_usage_error(self):
        code, out, err = run_cli("power-type", "--a", '["1/2","1/3","1/6"]',
                                 "--k", "1000000000")
        assert code == 2
        assert not out and "exceeds the cap" in err

    @pytest.mark.parametrize("a, k, code", [
        ('["1/2"]', "4096", 0),
        ('["1/2"]', "1000000000", 2),
        ('["1/99"]', "4096", 2),
        ('["1/99"]', "1000000000", 2),
        ('{"base":{"type":"algebraic","poly":[-1,1,1],"interval":["0","1"]},'
         '"exponents":[1]}', "1000000000", 2),
    ], ids=["half-4096", "half-1e9", "99th-4096", "99th-1e9", "golden-1e9"])
    def test_one_entry_power_is_a_label_or_a_usage_error(self, a, k, code):
        start = time.monotonic()
        got, out, err = run_cli("power-type", "--a", a, "--k", k)
        assert time.monotonic() - start < 1.0
        assert got == code, err
        if code == 2:
            assert not out and "label size cap" in err

    def test_one_entry_cube(self):
        code, doc = run_json("power-type", "--a", '["1/2"]', "--k", "3")
        assert code == 0
        assert doc["result"]["lambda"] == "1/8"

    def test_one_float_entry_underflow_is_a_resource_limit(self):
        code, out, err = run_cli("power-type", "--a", "[0.5]", "--k", "4096")
        assert code == 2
        assert not out and "below the smallest positive float" in err
        code, doc = run_json("power-type", "--a", "[0.5]", "--k", "3")
        cube = {"type": "float", "value": 0.12500000000000003}
        assert code == 0 and doc["mode"] == "heuristic"
        assert doc["result"] == {
            "decomposition": {"base": cube, "exponents": [1]},
            "lambda": "0.125", "lambda_float": "0.125", "lambda_form": cube,
            "mode": "heuristic"}

    def test_power_far_below_the_float_range_prints_zero_fast(self):
        golden = {"type": "algebraic", "poly": [-1, 1, 1], "interval": ["0", "1"]}
        power = {"type": "power", "base": golden, "exp": 20000}
        start = time.monotonic()
        code, doc = run_json("classify", "--vector", json.dumps([power]))
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert (doc["mode"], doc["residual"], doc["warnings"]) == ("exact", None, [])
        assert doc["result"] == {
            "decomposition": {"base": power, "exponents": [1]},
            "lambda": "0", "lambda_float": "0", "lambda_form": power,
            "mode": "exact"}

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_exponent_rule_needs_both_exponents(self, flag):
        code, out, err = run_cli("power-type", "--a", GOLDEN_POWER_FORM,
                                 "--k", "3", flag, "1")
        assert code == 2
        assert not out and "--p and --q" in err

    def test_afd_rule(self):
        code, doc = run_json("afd-rule", "--lam", "1/4", "--mu", "1/8")
        assert code == 0
        assert doc["result"]["label"]["rational"] == "1/2"
        assert doc["result"]["label"]["exact"] is True
        assert (doc["mode"], doc["warnings"]) == ("exact", [])

    def test_afd_rule_float_guess_is_heuristic(self):
        code, doc = run_json("afd-rule", "--lam", "0.3", "--mu", "0.7")
        assert code == 0
        assert doc["result"]["label"]["rational"] == "1"
        assert doc["mode"] == "heuristic" and doc["warnings"]
        # the guess is the exact scalar 1, but the label is not proved
        assert doc["result"]["label"]["exact"] is False

    def test_afd_rule_float_inputs_keep_their_label(self):
        code, doc = run_json("afd-rule", "--lam", "0.5", "--mu", "0.25")
        assert code == 0
        assert (doc["mode"], doc["warnings"]) == ("heuristic", [])
        assert doc["result"]["label"] == {
            "enclosure": ["1/2", "1/2"], "exact": False, "float": "0.5",
            "form": {"type": "float", "value": 0.5}}

    @pytest.mark.parametrize("args, code", [
        (("iii1-family", "--n", "100000000"), 2),
        (("--dimension-cap", "10", "iii1-family", "--n", "11"), 2),
        (("iii1-family", "--n", "4096"), 0),
    ], ids=["1e8", "cap-10", "4096"])
    def test_iii1_family_size_cap(self, args, code):
        start = time.monotonic()
        got, out, err = run_cli(*args)
        assert time.monotonic() - start < 1.0
        assert got == code, err
        if code == 2:
            assert not out and "exceeds the cap" in err

    def test_tensor_type(self):
        code, doc = run_json("tensor-type", "--a", '["1/2","1/2"]',
                             "--b", '["1/3","1/3","1/3"]')
        assert code == 0
        assert doc["result"]["lambda"] == "1/6"


CYCLE3 = "[[1,1,0],[1,0,1],[1,0,0]]"
FLOAT_OMEGA = '[{"type":"float","value":1.4142135623730951},"1"]'
GOLDEN_ROOT = '{"type":"algebraic","poly":[-1,1,1],"interval":["0","1"]}'
# (g, g^2) for the golden root g: exact values on F2, whose membership is
# proved on enclosures
GOLDEN_VECTOR = f'[{GOLDEN_ROOT},{{"type":"power","base":{GOLDEN_ROOT},"exp":2}}]'


class TestModes:
    # the envelope's mode is the weakest among the values a command reports
    # (exact scalars, certified enclosures and bounds, heuristic floats) and
    # the parameters the result rests on; when those are weaker than every
    # printed value, one warning names them
    @pytest.mark.parametrize("args, mode, shown", [
        (("state-eval", "--matrix", GOLDEN_MATRIX, "--vector", "canonical",
          "--word", "s1 s1*"), "certified", "certified"),
        (("pf", "--matrix", CYCLE3), "certified", "certified"),
        (("kms-check", "--matrix", GOLDEN_MATRIX, "--omega", '["1","1"]',
          "--x", "s1", "--y", "s1*"), "certified", "certified"),
        (("kms-check", "--matrix", GOLDEN_MATRIX, "--omega", FLOAT_OMEGA,
          "--x", "s1", "--y", "s1*"), "heuristic", "certified"),
        (("membership", "--matrix", CYCLE3, "--vector", "canonical"),
         "certified", "certified"),
        (("state-eval", "--matrix", "F2", "--vector", GOLDEN_VECTOR,
          "--word", "s1 s1*"), "certified", "exact"),
        (("solve-beta", "--matrix", GOLDEN_MATRIX, "--omega", FLOAT_OMEGA),
         "heuristic", "heuristic"),
        (("classify", "--vector", '["1/2","1/2"]'), "exact", "exact"),
        (("kms-check", "--matrix", "F2", "--omega", '["1","1"]',
          "--x", "s1", "--y", "s1*"), "exact", "exact"),
        (("tensor-state", "--matrix-a", "F2", "--vector-a", "canonical",
          "--matrix-b", "F3", "--vector-b", "canonical", "--word", "s1 s1*"),
         "exact", "exact"),
        (("membership", "--matrix", "F2", "--vector", '["1/2","1/2"]'), "exact", "exact"),
    ], ids=["state-eval-golden", "pf-3x3", "kms-golden", "kms-float-omega",
            "membership-3x3", "state-eval-golden-vector", "solve-beta-float-omega", "classify-half",
            "kms-f2", "tensor-state-f2-f3", "membership-f2"])
    def test_probe_modes(self, args, mode, shown, capsys):
        from ckkms import cli

        assert cli.main(list(args)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == mode
        assert shown_mode({"result": doc["result"], "residual": doc["residual"]}) == shown
        if "certificate" in doc["result"]:
            assert doc["result"]["certificate"] == mode
        warnings = []
        if doc["residual"] not in (None, "0"):
            warnings.append("residual is a certified enclosure bound, not a float estimate")
        if shown != mode:
            warnings.append(f"mode is {mode} because the result rests on parameters whose "
                            f"certificate is {mode}; the printed values alone are {shown}")
        assert doc["warnings"] == warnings


class TestReproduceSuite:
    def test_all_checks_pass(self):
        code, out, err = run_cli("reproduce-paper")
        assert out, f"no stdout (stderr: {err!r})"
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["passed"] is True
        assert doc["result"]["failed"] == []
        assert doc["result"]["total"] == 29
        ids = [c["id"] for c in doc["result"]["checks"]]
        assert len(ids) == len(set(ids)) == 29
        assert all(c["passed"] for c in doc["result"]["checks"])
        assert doc["mode"] == shown_mode(doc["result"]) == "certified"
        # the whole envelope is pinned byte for byte: a refactor that keeps
        # the verdicts but moves a printed bound or digit still fails here
        assert out == REPRODUCE_ENVELOPE.read_text(encoding="utf-8")

    def test_transport_row_rests_on_no_float(self, monkeypatch):
        # kms-product-transport takes beta = log 2 as a certified enclosure,
        # through a plain FrequencyVector and so the enclosure precondition,
        # and its row keeps the residual 2^-44
        from ckkms import cli, paper, perron, scalars, tensorops

        calls, inner = [], tensorops.combined_frequencies

        def recording(*args):
            calls.append((args, inner(*args)))
            return calls[-1][1]

        monkeypatch.setattr(tensorops, "combined_frequencies", recording)
        row = cli.render_check("kms-product-transport", *paper.kms_product_transport(
            perron.DEFAULT_PRECISION, perron.DEFAULT_TOLERANCE))
        [(args, omega)] = calls
        assert isinstance(args[2], scalars.Enc) and isinstance(args[4], scalars.Enc)
        assert type(omega) is perron.FrequencyVector
        assert row == {"id": "kms-product-transport", "passed": True,
                       "residual": "5.6843418860808e-14"}

    # The rows of the registry, rendered in a fresh process: reversed, or in
    # order after refining a golden ratio to 1e-300.  Each printed enclosure
    # depends only on its value and width, so neither changes a row.
    ROWS_SCRIPT = """
import json
from ckkms import cli, paper, perron, scalars
from ckkms.matrix01 import ZeroOneMatrix
from ckkms.scalars import Q
{setup}
print(json.dumps([cli.render_check(check_id, *check(perron.DEFAULT_PRECISION,
                                                    perron.DEFAULT_TOLERANCE))
                  for check_id, check in {checks}]))
"""

    @pytest.mark.parametrize("setup, checks", [
        pytest.param("", "paper.CHECKS[::-1]", id="reversed"),
        pytest.param("scalars.refine(scalars.make_algebraic([-1, 1, 1], Q(1, 2), Q(1)),"
                     " Q(1, 10**300))", "paper.CHECKS", id="warmed-isolated"),
        pytest.param("scalars.refine(perron.solve_beta(ZeroOneMatrix(((1, 1), (1, 0))),"
                     " [Q(1), Q(1)]).base, Q(1, 10**300))", "paper.CHECKS",
                     id="warmed-solved"),
    ])
    def test_rows_do_not_depend_on_order_or_history(self, setup, checks):
        proc = subprocess.run(
            [sys.executable, "-c", self.ROWS_SCRIPT.format(setup=setup, checks=checks)],
            capture_output=True, text=True, timeout=300, env=cli_env(), check=True)
        pinned = json.loads(REPRODUCE_ENVELOPE.read_text(encoding="utf-8"))
        want = {row["id"]: row for row in pinned["result"]["checks"]}
        assert {row["id"]: row for row in json.loads(proc.stdout)} == want

    def test_regenerated_bounds_lie_inside_the_first_pinned_ones(self):
        # the bounds these three checks printed when the envelope was first
        # pinned; a regenerated envelope may narrow them, never leave them
        from fractions import Fraction
        checks = {c["id"]: c for c in json.loads(
            REPRODUCE_ENVELOPE.read_text(encoding="utf-8"))["result"]["checks"]}
        assert Fraction(checks["kms-golden-check"]["residual"]) <= \
            Fraction("5.53359779399416e-13")
        lo, hi = checks["state-eval-golden"]["value"]["enclosure"]
        assert Fraction("0.23606797749974196942") <= Fraction(lo) <= \
            Fraction(hi) <= Fraction("0.23606797749992597138")
        for key, old_lo, old_hi in (("composite", "4356618/1346269", "7049156/2178309"),
                                    ("product", "1664080/514229", "1346269/416020")):
            new = checks["pfe-multiplicative"][key]
            assert Fraction(old_lo) <= Fraction(new["lo"]) <= \
                Fraction(new["hi"]) <= Fraction(old_hi)
