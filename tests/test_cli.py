"""Command line driver: exit codes, formats, and output destinations."""
from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from liukit import cli
from liukit.cli import DERIVE_MAX_ORDER, main
from liukit.fdb import chain_terms
from liukit.models import _read, load_builtin

LOCAL_MODEL = """\
[fields]
fields = u

[state]
order = 0
vars = u

[unknowns]
s(u)
Js(u)

[balance mass]
density = u
flux = u^2/2

[entropy]
form = divergence
density = s
flux = Js
"""

GOOD_SOLUTION = """\
[bindings]
s = u
Js = u^2/2
"""

BAD_SOLUTION = """\
[ansatz]
a(u)

[bindings]
s = a
Js = 0
"""

# The first constitutive unknown of korteweg.model, as declared there.
UNKNOWN_T = "T(rho, eps, rho_x, v_x, eps_x, rho_xx)"

SINGULAR_MODEL = """\
[fields]
fields = a, b

[state]
order = 0
vars = a, b

[unknowns]
s(a, b)
Js(a, b)

[balance one]
density = a
flux = 0

[balance two]
density = 2*a
flux = 0

[entropy]
form = divergence
density = s
flux = Js
"""


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerive:
    def test_builtin_text(self, capsys):
        code, out, err = _run(["derive", "--builtin", "grade2"], capsys)
        assert code == 0 and err == ""
        assert "model grade2" in out
        assert "multipliers:" in out
        assert "equalities:" in out

    def test_builtin_json(self, capsys):
        code, out, _ = _run(["derive", "--builtin", "korteweg", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "korteweg"
        assert payload["diagnostics"]["classical"] is False

    def test_latex_format(self, capsys):
        code, out, _ = _run(["derive", "--builtin", "grade2", "--format", "latex"], capsys)
        assert code == 0
        assert r"\Lambda" in out and r"\rho" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = _run(
            ["derive", "--builtin", "grade2", "--format", "json", "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["model"] == "grade2"

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys):
        code, out, err = _run(["derive", "--builtin", "grade2", "--out", str(tmp_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt, calls", [("text", 1), ("json", 1), ("latex", 0)])
    def test_minors_are_expanded_only_where_printed(self, capsys, minor_calls, fmt, calls):
        # The LaTeX report prints the entries of the form, not its minors.
        code, _, _ = _run(["derive", "--builtin", "korteweg", "--format", fmt], capsys)
        assert code == 0 and len(minor_calls) == calls

    def test_model_file_path(self, tmp_path, capsys):
        path = tmp_path / "local.model"
        path.write_text(LOCAL_MODEL)
        code, out, _ = _run(["derive", str(path)], capsys)
        assert code == 0
        assert "model local" in out

    def test_verify_modes_agree(self, capsys):
        code, _, _ = _run(["derive", "--builtin", "korteweg", "--verify"], capsys)
        assert code == 0

    def test_all_extensions_with_order(self, capsys):
        code, _, _ = _run(
            ["derive", "--builtin", "korteweg", "--all-extensions", "--order", "2"], capsys
        )
        assert code == 0

    def test_order_requires_all_mode(self, capsys):
        code, _, err = _run(["derive", "--builtin", "korteweg", "--order", "2"], capsys)
        assert code == 2
        assert "--order only applies together with --all-extensions" in err

    def test_negative_order_is_a_usage_error(self, capsys):
        code, out, err = _run(
            ["derive", "--builtin", "korteweg", "--all-extensions", "--order", "-1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "--order must be nonnegative, got -1" in err

    @pytest.mark.parametrize("order", [str(DERIVE_MAX_ORDER + 1), "99999999999999999999"])
    def test_order_above_the_cap_is_a_usage_error(self, order, capsys, monkeypatch):
        # Each order roughly doubles derive's time, and a huge one exhausts
        # memory, so the cap is checked before anything is derived.
        def no_derive(*args, **kwargs):
            raise AssertionError("derive ran")

        monkeypatch.setattr(cli, "derive", no_derive)
        code, out, err = _run(["derive", "--builtin", "korteweg", "--all-extensions", "--order", order], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --order {order} exceeds the supported maximum {DERIVE_MAX_ORDER}\n"

    def test_verify_below_the_state_space_order_is_a_usage_error(self, capsys):
        # A cap below the order drops constraints the pruned set keeps, so
        # the two sets differ by the user's choice, not by an engine fault.
        code, out, err = _run(
            ["derive", "--builtin", "korteweg", "--all-extensions", "--order", "1", "--verify"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: --verify needs --order of at least the state-space order 2, got 1\n"

    def test_verify_at_the_state_space_order_keeps_its_output(self, capsys):
        argv = ["derive", "--builtin", "korteweg", "--all-extensions", "--order", "2"]
        code, plain, _ = _run(argv, capsys)
        assert code == 0
        code, verified, err = _run(argv + ["--verify"], capsys)
        assert code == 0
        assert err == ""
        assert verified == plain

    def test_builtin_and_path_conflict(self, tmp_path, capsys):
        path = tmp_path / "local.model"
        path.write_text(LOCAL_MODEL)
        code, _, err = _run(["derive", str(path), "--builtin", "grade2"], capsys)
        assert code == 2
        assert "not both" in err

    def test_model_required(self, capsys):
        code, _, err = _run(["derive"], capsys)
        assert code == 2
        assert "required" in err

    def test_missing_file(self, capsys):
        code, _, err = _run(["derive", "/no/such/file.model"], capsys)
        assert code == 1
        assert "error:" in err

    def test_directory_is_an_input_error(self, tmp_path, capsys):
        code, out, err = _run(["derive", str(tmp_path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err

    def test_non_utf8_model_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "binary.model"
        path.write_bytes(b"[fields]\nfields = u\xff\xfe\n")
        code, out, err = _run(["derive", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: not UTF-8 text\n"

    def test_unparsable_model(self, tmp_path, capsys):
        path = tmp_path / "broken.model"
        path.write_text(LOCAL_MODEL.replace("order = 0", "order = zero"))
        code, _, err = _run(["derive", str(path)], capsys)
        assert code == 1
        assert "order must be an integer" in err

    def test_invalid_model(self, tmp_path, capsys):
        path = tmp_path / "unbalanced.model"
        path.write_text(LOCAL_MODEL.replace("fields = u", "fields = u, w"))
        code, _, err = _run(["derive", str(path)], capsys)
        assert code == 2
        assert "square" in err

    def test_unknown_model_entry_is_an_input_error(self, tmp_path, capsys):
        text = _read("korteweg.model")
        lineno = text.splitlines().index("weight = rho") + 1
        path = tmp_path / "typo.model"
        path.write_text(text.replace("weight = rho", "wieght = rho"))
        code, out, err = _run(["derive", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: line {lineno}: unknown entry 'wieght' in [entropy]\n"

    def test_unknown_model_section_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "extra.model"
        path.write_text(LOCAL_MODEL + "\n[scenario x]\nseed = 1\n")
        lineno = LOCAL_MODEL.count("\n") + 2
        code, out, err = _run(["derive", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: line {lineno}: unknown section [scenario] in a model file\n"

    @pytest.mark.parametrize(
        "old, new, offset, message",
        [
            (UNKNOWN_T, f"{UNKNOWN_T}\n{UNKNOWN_T}", 1, "constitutive unknown 'T' is declared twice"),
            (UNKNOWN_T, f"{UNKNOWN_T}\nT(rho)", 1, "constitutive unknown 'T' is declared twice"),
            (UNKNOWN_T, f"{UNKNOWN_T}\nrho(eps)", 1, "'rho' is already a field"),
            ("fields = rho, v, eps", "fields = rho, v, eps, D", 0, "identifier 'D' is reserved for derivatives"),
        ],
        ids=["repeated", "redeclared", "field", "reserved"],
    )
    def test_declaration_errors_name_their_line(self, tmp_path, capsys, old, new, offset, message):
        text = _read("korteweg.model")
        lineno = text.splitlines().index(old) + 1 + offset
        path = tmp_path / "k.model"
        path.write_text(text.replace(old, new, 1))
        code, out, err = _run(["derive", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: line {lineno}: {message}\n"

    @pytest.mark.parametrize(
        "text, field",
        [
            (_read("grade2.model").replace("density = rho*gamma", "density = rho*0"), "gamma"),
            (SINGULAR_MODEL, "b"),
        ],
        ids=["unevolved", "dependent"],
    )
    def test_singular_jacobian(self, tmp_path, capsys, text, field):
        # No density depends on a field, or the densities depend on each other.
        path = tmp_path / "singular.model"
        path.write_text(text)
        code, out, err = _run(["derive", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: time Jacobian is singular: no law evolves field {field!r}\n"

    @pytest.mark.parametrize("name, twin", [("Lam1k0", "Lam1k3"), ("Lam2k1", "Lam2k9")])
    def test_unknown_named_like_a_multiplier(self, tmp_path, capsys, name, twin):
        # The entropy renamed as the multipliers were once named derives as a
        # name that sorts in the same place and matches no multiplier.
        reports = []
        for n in (name, twin):
            path = tmp_path / n / "korteweg.model"
            path.parent.mkdir()
            path.write_text(re.sub(r"\bs\b", n, _read("korteweg.model")))
            code, out, err = _run(["derive", str(path), "--format", "json"], capsys)
            assert (code, err) == (0, "")
            report = json.loads(out.replace(twin, name))
            del report["hash"]
            reports.append(report)
        assert reports[0] == reports[1]


# Edits of korteweg.model whose declarations use several atoms out of scope,
# and the one error each must name: the first offender by atom key.
_SCOPE_CASES = [
    ("density = rho\nflux = rho*v\n", "density = rho\nflux = rho*v + v_xx + eps_xx + rho_xxx + eps_xxx\n",
     "law 'mass': flux uses eps_xx, which is neither a field nor a state variable"),
    ("density = rho\nflux = rho*v\n", "density = rho + rho_x + eps_x + v_x + rho_xx\nflux = rho*v\n",
     "law 'mass': density must depend on the fields alone, found eps_x"),
    ("density = s\n", "density = s + v + v_xx + eps_xx\n",
     "entropy density uses eps_xx, which is neither a field nor a state variable"),
    ("vars = rho, eps, rho_x, v_x, eps_x, rho_xx\n", "vars = rho, eps, rho_x, v_x, eps_x, rho_xx, rho_xxx, eps_xxx, v_xxx\n",
     "state variable eps_xxx exceeds the declared order 2"),
]

_DERIVE_EACH = """
import sys
from liukit.cli import main
for path in sys.argv[1:]:
    print(main(["derive", path]), file=sys.stderr)
"""


class TestScope:
    """Every declared expression is checked against one scope rule, atoms in canonical order."""

    def test_first_offender_does_not_depend_on_the_hash_seed(self, tmp_path):
        import liukit

        text = _read("korteweg.model")
        paths = []
        for k, (old, new, _) in enumerate(_SCOPE_CASES):
            path = tmp_path / f"scope{k}.model"
            path.write_text(text.replace(old, new, 1))
            paths.append(str(path))
        want = "".join(f"error: {message}\n2\n" for _, _, message in _SCOPE_CASES)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liukit.__file__)))
        for hash_seed in range(8):
            env["PYTHONHASHSEED"] = str(hash_seed)
            proc = subprocess.run([sys.executable, "-c", _DERIVE_EACH, *paths], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", want), hash_seed

    @pytest.mark.parametrize("weight, jet", [("rho + v_t", "v_t"), ("rho + rho_xxxx", "rho_xxxx")])
    def test_entropy_weight_is_checked(self, tmp_path, capsys, weight, jet):
        path = tmp_path / "k.model"
        path.write_text(_read("korteweg.model").replace("weight = rho\n", f"weight = {weight}\n"))
        code, out, err = _run(["derive", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: entropy weight uses {jet}, which is neither a field nor a state variable\n"

    @pytest.mark.parametrize("name", ["grade2", "korteweg"])
    def test_divergence_form_entropy_derives(self, tmp_path, capsys, name):
        # The entropy flux of the divergence form carries the bare velocity.
        path = tmp_path / f"{name}.model"
        path.write_text(_read(f"{name}.model").replace(
            "form = material\nweight = rho\ndensity = s\nflux = Js",
            "form = divergence\ndensity = rho*s\nflux = rho*s*v + Js",
        ))
        code, out, err = _run(["derive", str(path), "--verify", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        _, material, _ = _run(["derive", "--builtin", name, "--format", "json"], capsys)
        divergence, material = json.loads(out), json.loads(material)
        for key in ("equalities", "quadraticForm", "evenForms", "residual", "sideConditions"):
            assert divergence[key] == material[key], key


class TestCheck:
    def test_builtin_grade2(self, capsys):
        code, out, _ = _run(["check", "--builtin", "grade2"], capsys)
        assert code == 0
        assert "check of model grade2: ok" in out

    def test_builtin_korteweg_json(self, capsys):
        code, out, _ = _run(["check", "--builtin", "korteweg", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert {s["name"] for s in payload["scenarios"]} == {"fourier", "coupled", "bigshear"}

    def test_file_paths_pass(self, tmp_path, capsys):
        mp, sp = tmp_path / "local.model", tmp_path / "good.solution"
        mp.write_text(LOCAL_MODEL)
        sp.write_text(GOOD_SOLUTION)
        code, out, _ = _run(["check", str(mp), str(sp)], capsys)
        assert code == 0
        assert "ok" in out

    def test_failing_candidate_exits_4(self, tmp_path, capsys):
        mp, sp = tmp_path / "local.model", tmp_path / "bad.solution"
        mp.write_text(LOCAL_MODEL)
        sp.write_text(BAD_SOLUTION)
        code, out, _ = _run(["check", str(mp), str(sp)], capsys)
        assert code == 4
        assert "FAILED" in out
        assert "does not vanish" in out

    def test_solution_path_required(self, tmp_path, capsys):
        mp = tmp_path / "local.model"
        mp.write_text(LOCAL_MODEL)
        code, _, err = _run(["check", str(mp)], capsys)
        assert code == 2
        assert "solution file" in err

    def test_builtin_and_paths_conflict(self, tmp_path, capsys):
        mp = tmp_path / "local.model"
        mp.write_text(LOCAL_MODEL)
        code, _, err = _run(["check", str(mp), "--builtin", "grade2"], capsys)
        assert code == 2
        assert "not both" in err

    def test_sample_flag_and_alias_agree(self, capsys):
        code_a, out_a, _ = _run(
            ["check", "--builtin", "grade2", "--sample", "16", "--format", "json"], capsys
        )
        code_b, out_b, _ = _run(
            ["check", "--builtin", "grade2", "--samples", "16", "--format", "json"], capsys
        )
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert all(s["points"] == 16 for s in payload["scenarios"])

    def test_non_utf8_solution_is_an_input_error(self, tmp_path, capsys):
        mp, sp = tmp_path / "local.model", tmp_path / "latin1.solution"
        mp.write_text(LOCAL_MODEL)
        sp.write_bytes(GOOD_SOLUTION.replace("s = u", "s = u  # \xb5").encode("latin-1"))
        code, out, err = _run(["check", str(mp), str(sp)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {sp}: not UTF-8 text\n"

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_samples_is_a_usage_error(self, value, capsys):
        code, out, err = _run(["check", "--builtin", "korteweg", "--samples", value], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: samples must be at least 1, got {value}\n"

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_unusable_tol_is_a_usage_error(self, value, capsys):
        code, out, err = _run(["check", "--builtin", "korteweg", "--tol", value], capsys)
        assert code == 2
        assert out == ""
        assert "tol must be finite and nonnegative" in err

    def test_zero_tol_is_accepted(self, capsys):
        code, _, _ = _run(["check", "--builtin", "korteweg", "--samples", "4", "--tol", "0"], capsys)
        assert code == 0

    def test_repeated_scenario_entry_is_an_input_error(self, tmp_path, capsys):
        from liukit.models import _read

        text = _read("korteweg.solution")
        lineno = text.splitlines().index("[scenario fourier]") + 3
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text.replace("[scenario fourier]", "[scenario fourier]\nsamples = 3\nsamples = 5"))
        code, out, err = _run(["check", str(mp), str(sp)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: line {lineno}: duplicate key 'samples' in [scenario fourier]\n"

    def test_equality_condition_on_a_jet_is_an_input_error(self, tmp_path, capsys):
        from liukit.models import _read

        # Rewritten as 0, rho_x would empty the gradient form that maxent
        # refutes, and the check would pass.
        text = _read("korteweg.solution")
        text = text[: text.index("[scenario fourier]")].replace("maxent: s1 <= 0", "maxent: s1 >= 0")
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text)
        code, out, _ = _run(["check", str(mp), str(sp)], capsys)
        assert code == 4
        assert (
            "equilibrium concavity: refuted (minor over (rho_x) has the wrong sign:"
            " s1 with the declared conditions)\n"
        ) in out
        sp.write_text(text.replace("[conditions]\n", "[conditions]\nflat: rho_x = 0\n"))
        lineno = sp.read_text().splitlines().index("flat: rho_x = 0") + 1
        code, out, err = _run(["check", str(mp), str(sp)], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"error: line {lineno}: equality condition 'flat' rewrites the jet rho_x;"
            " its left side must be a function symbol\n"
        )

    @pytest.mark.parametrize(
        "old, new, jet",
        [
            ("s = s0 + s1*rho_x^2\n", "s = s0 + s1*rho_x^2 + rho_xxx^2 + v_t\n", "rho_xxx"),
            ("T = rho^2*", "T = rho_xxx + rho^2*", "rho_xxx"),
        ],
        ids=["entropy-time-jet", "stress"],
    )
    def test_binding_outside_its_dependencies_is_rejected(self, tmp_path, capsys, old, new, jet):
        from liukit.models import _read

        # Both passed check before (the first with concavity confirmed), as if
        # the closure were a function of the declared state.
        text = _read("korteweg.solution")
        assert old in text
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text.replace(old, new, 1))
        code, out, err = _run(["check", str(mp), str(sp)], capsys)
        assert (code, out) == (2, "")
        name = new[0]
        assert err == f"error: binding for {name!r} depends on {jet}, outside its declared dependencies\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            (UNKNOWN_T, "ansatz 'T' is a constitutive unknown of the model"),
            ("T(rho)", "ansatz 'T' is a constitutive unknown of the model"),
            ("s1(rho)", "ansatz 's1' is declared twice"),
            ("rho(eps)", "'rho' is already a field"),
            ("D(rho)", "identifier 'D' is reserved for derivatives"),
        ],
        ids=["unknown", "unknown-redeclared", "repeated", "field", "reserved"],
    )
    def test_ansatz_declaration_errors_name_their_line(self, tmp_path, capsys, line, message):
        from liukit.models import _read

        # Without the check, an ansatz T and the unknown T are one symbol.
        text = _read("korteweg.solution").replace("s1(rho)\n", f"s1(rho)\n{line}\n", 1)
        lineno = text.splitlines().index("s1(rho)") + 2
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text)
        code, out, err = _run(["check", str(mp), str(sp)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: line {lineno}: {message}\n"

    @pytest.mark.parametrize("let, atom", [("let T = 0", "T"), ("let D(T, rho) = 5", "D(T, rho)")])
    def test_let_on_a_constitutive_unknown_is_an_input_error(self, tmp_path, capsys, let, atom):
        from liukit.models import _read

        # The bindings replace T before a scenario's lets apply, so the let
        # would change nothing.
        text = _read("korteweg.solution").replace("let q3 = 0\n", f"let q3 = 0\n{let}\n", 1)
        lineno = text.splitlines().index(let) + 1
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text)
        code, out, err = _run(["check", str(mp), str(sp)], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"error: line {lineno}: let for {atom} rewrites the constitutive unknown 'T',"
            " which its binding replaces first\n"
        )

    @pytest.mark.parametrize("name", ["grade2", "korteweg"])
    def test_all_extensions_checks_the_same_restrictions(self, capsys, name):
        # The pruned and the full constraint sets emit the same restrictions.
        argv = ["check", "--builtin", name, "--format", "json"]
        pruned = _run(argv, capsys)
        assert pruned[0] == 0
        assert _run(argv + ["--all-extensions"], capsys) == pruned

    def test_non_finite_range_bound_is_an_input_error(self, tmp_path, capsys):
        from liukit.models import _read

        text = _read("grade2.solution")
        lineno = text.splitlines().index("range rho_x = 0.25 .. 1.5") + 2
        mp, sp = tmp_path / "g.model", tmp_path / "g.solution"
        mp.write_text(_read("grade2.model"))
        sp.write_text(text.replace("range rho_x = 0.25 .. 1.5", "range rho_x = 0.25 .. 1.5\nrange eps_x = nan .. 1.5", 1))
        code, out, err = _run(["check", str(mp), str(sp)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: line {lineno}: range bounds for eps_x must be finite\n"

    def test_range_whose_width_overflows_is_an_input_error(self, tmp_path, capsys):
        # Finite bounds, but hi - lo is inf: every draw would be inf or NaN,
        # which the sampler would blame on the closure.
        from liukit.models import _read

        text = _read("korteweg.solution")
        lineno = text.splitlines().index("[scenario fourier]") + 2
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text.replace("[scenario fourier]", "[scenario fourier]\nrange eps_x = -1e308 .. 1e308", 1))
        code, out, err = _run(["check", str(mp), str(sp)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: line {lineno}: range width for eps_x overflows a float\n"

    @pytest.mark.parametrize("flux", ["u^2/0", "u^2/(u - u)"])
    def test_zero_divisor_is_a_parse_error(self, tmp_path, capsys, flux):
        mp, sp = tmp_path / "local.model", tmp_path / "good.solution"
        mp.write_text(LOCAL_MODEL.replace("flux = u^2/2", f"flux = {flux}"))
        sp.write_text(GOOD_SOLUTION)
        code, out, err = _run(["check", str(mp), str(sp)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: line 14: division by a zero expression\n"

    def test_unbound_unknown_is_a_validation_error(self, tmp_path, capsys):
        mp, sp = tmp_path / "local.model", tmp_path / "short.solution"
        mp.write_text(LOCAL_MODEL)
        sp.write_text("[bindings]\ns = u\n")
        code, _, err = _run(["check", str(mp), str(sp)], capsys)
        assert code == 2
        assert "unbound constitutive unknowns: Js" in err

    def test_overflowing_scenario_fails_without_traceback(self, tmp_path, capsys):
        from liukit.models import _read

        # Every sample overflows a float, so the scenario runs out of points.
        text = _read("korteweg.solution").replace(
            "let tau1 = 1\n", "let tau1 = rho^2000\nrange rho = 1.5 .. 2\n", 1
        )
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text)
        code, out, _ = _run(["check", str(mp), str(sp)], capsys)
        assert code == 4
        assert "too many singular sample points" in out

    def test_out_of_range_coefficient_fails_the_scenario(self, tmp_path, capsys):
        from liukit.models import _read

        text = _read("korteweg.solution").replace("let tau1 = 1\n", "let tau1 = 10^400\n", 1)
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text)
        code, out, err = _run(["check", str(mp), str(sp), "--samples", "8"], capsys)
        assert code == 4
        assert err == ""
        assert "  - scenario 'fourier': a coefficient is outside the float range\n" in out


    def test_missing_lets_are_named_in_canonical_order(self, tmp_path):
        from liukit.models import _read

        # Set iteration order follows the hash seed; the message must not.
        text = _read("korteweg.solution").replace("let q1 = -eps^2\n", "").replace("let q3 = 0\n", "")
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text)

        def run(hash_seed: str) -> subprocess.CompletedProcess:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            return subprocess.run(
                [sys.executable, "-m", "liukit.cli", "check", str(mp), str(sp)],
                capture_output=True, text=True, env=env,
            )

        first, second = run("0"), run("5")
        assert (first.returncode, first.stdout) == (2, "")
        assert first.stderr == (
            "error: scenario 'fourier' leaves q1, q3 without a value; bind them with let lines\n"
        )
        assert (second.returncode, second.stdout, second.stderr) == (2, "", first.stderr)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("let tau1 = 1\n", "let tau1 = 10^400\n"),  # no sample point: NaN minimum
            ("let q2 = 0\n", "let q2 = -1\n"),  # condition broken at once: infinite minimum
        ],
    )
    def test_failed_check_json_is_strict(self, tmp_path, capsys, old, new):
        from liukit.models import _read

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(_read("korteweg.solution").replace(old, new, 1))
        code, out, _ = _run(["check", str(mp), str(sp), "--samples", "8", "--format", "json"], capsys)
        assert code == 4
        record = json.loads(out, parse_constant=reject)
        assert record["scenarios"][0]["minResidual"] is None

    def test_range_on_a_jet_nothing_uses_is_a_validation_error(self, tmp_path):
        from liukit.models import _read

        mp, sp = tmp_path / "g.model", tmp_path / "g.solution"
        mp.write_text(_read("grade2.model"))
        sp.write_text(_read("grade2.solution").replace("range rho_x =", "range rho_xxx =", 1))
        proc = _cli("check", str(mp), str(sp), "--samples", "16")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: scenario 'fourier' ranges rho_xxx, which is neither sampled,"
            " a state variable nor a higher derivative\n"
        )


# Each case edits one shipped korteweg file once.  In a message, {first} and
# {last} are the first and last lines of the edited file equal to `marker`.
_SECTION_AND_NAME_CASES = [
    ("model", "[entropy]", "[entropi]", "[entropi]", "unknown section [entropi] in a model file"),
    ("model", "[balance mass]", "[balance]", "[balance]", "balance sections need a name"),
    ("model", "[fields]", "[fields x]", "[fields x]", "[fields] takes no name, got 'x'"),
    ("model", "flux = Js", "flux = Js\n[entropy]\ndensity = s", "[entropy]", "second [entropy] section, after line {first}"),
    ("model", "flux = Js", "flux = Js\n[balance mass]\ndensity = rho", "[balance mass]",
     "second [balance mass] section, after line {first}"),
    ("model", "order = 2", "order = 2\norder = 2", "order = 2", "duplicate key 'order' in [state]"),
    ("model", "fields = rho, v, eps", "fields = rho, v, eps, rho", "fields = rho, v, eps, rho", "field 'rho' is declared twice"),
    ("model", "vars = rho, eps, rho_x,", "vars = rho, eps, rho_x, rho_x,", "vars = rho, eps, rho_x, rho_x, v_x, eps_x, rho_xx",
     "state variable 'rho_x' is declared twice"),
    ("model", UNKNOWN_T, f"{UNKNOWN_T}\n{UNKNOWN_T}", UNKNOWN_T, "constitutive unknown 'T' is declared twice"),
    ("model", UNKNOWN_T, "T(rho, eps, rho_x, v_x, eps_x, rho_xx, rho)", "T(rho, eps, rho_x, v_x, eps_x, rho_xx, rho)",
     "dependency 'rho' is declared twice"),
    ("solution", "[ansatz]", "[stuff]", "[stuff]", "unknown section [stuff] in a solution file"),
    ("solution", "[scenario fourier]", "[scenario]", "[scenario]", "scenario sections need a name"),
    ("solution", "[ansatz]", "[ansatz extra]", "[ansatz extra]", "[ansatz] takes no name, got 'extra'"),
    ("solution", "[scenario coupled]", "[bindings]\ns = s0\n\n[scenario coupled]", "[bindings]",
     "second [bindings] section, after line {first}"),
    ("solution", "[scenario coupled]", "[scenario fourier]", "[scenario fourier]",
     "second [scenario fourier] section, after line {first}"),
    ("solution", "\ns1(rho)\n", "\ns1(rho)\ns1(rho)\n", "s1(rho)", "ansatz 's1' is declared twice"),
    ("solution", "q1(rho, eps)", "q1(rho, eps, rho)", "q1(rho, eps, rho)", "dependency 'rho' is declared twice"),
    ("solution", "q = q1*eps_x", "q = q1*eps_x + 0\nq = q1*eps_x", "q = q1*eps_x + q2*rho_x + q3*v_x",
     "duplicate key 'q' in [bindings]"),
    ("solution", "maxent: s1 <= 0", "maxent: s1 <= 0\nmaxent: s1 <= 0", "maxent: s1 <= 0", "duplicate key 'maxent' in [conditions]"),
    ("solution", "seed = 4242", "seed = 4242\nseed = 4242", "seed = 4242", "duplicate key 'seed' in [scenario fourier]"),
    ("solution", "let s1 = -1", "let s1 = -1\nlet s1 = -2", "let s1 = -2", "duplicate let for s1 in [scenario fourier]"),
    # A jet name ending in `_` is not the field itself.
    ("model", "rho_xx\n\n[unknowns]", "rho_xx, rho_\n\n[unknowns]", "vars = rho, eps, rho_x, v_x, eps_x, rho_xx, rho_",
     "state variables carry only spatial suffixes, got 'rho_'"),
    ("model", UNKNOWN_T, "T(rho_, eps, rho_x, v_x, eps_x, rho_xx)", "T(rho_, eps, rho_x, v_x, eps_x, rho_xx)",
     "state variables carry only spatial suffixes, got 'rho_'"),
    ("solution", "[scenario coupled]", "[scenario coupled]\nrange rho_ = 3 .. 4", "range rho_ = 3 .. 4",
     "state variables carry only spatial suffixes, got 'rho_'"),
]


@pytest.mark.parametrize(
    "target, old, new, marker, message",
    _SECTION_AND_NAME_CASES,
    ids=[f"{t}-{i}" for i, (t, *_) in enumerate(_SECTION_AND_NAME_CASES)],
)
def test_section_and_name_errors_name_their_line(tmp_path, capsys, target, old, new, marker, message):
    from liukit.models import _read

    texts = {"model": _read("korteweg.model"), "solution": _read("korteweg.solution")}
    texts[target] = texts[target].replace(old, new, 1)
    lines = [i + 1 for i, line in enumerate(texts[target].splitlines()) if line == marker]
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"k.{name}"
        paths[name].write_text(text)
    argv = ["derive", str(paths["model"])] if target == "model" else ["check", *map(str, paths.values())]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: line {lines[-1]}: {message.format(first=lines[0])}\n"


def _cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, at the default recursion limit."""
    import liukit

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liukit.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "liukit.cli", *argv], capture_output=True, text=True, env=env, timeout=300
    )


class TestExitPath:
    """`cli.run`, the program's entry point, freezes the heap before the process
    exits; `cli.main`, which tests call in process, leaves it alone."""

    ARGV = ["derive", "--builtin", "korteweg", "--format", "json"]

    def test_run_freezes_the_heap_and_prints_what_main_prints(self, capsys):
        import liukit

        code = (
            "import atexit, gc, os, sys\n"
            "atexit.register(lambda: os.write(2, b'frozen %d' % gc.get_freeze_count()))\n"
            f"sys.argv = ['liukit', *{self.ARGV!r}]\n"
            "from liukit import cli\n"
            "cli.run()\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liukit.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0
        frozen = re.fullmatch(rb"frozen (\d+)", proc.stderr)
        assert frozen and int(frozen.group(1)) > 0
        assert main(self.ARGV) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_main_leaves_the_heap_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert main(self.ARGV) == 0
        assert gc.get_freeze_count() == before

    def test_exit_codes_through_the_module(self, tmp_path):
        mp, sp = tmp_path / "local.model", tmp_path / "bad.solution"
        mp.write_text(LOCAL_MODEL)
        sp.write_text(BAD_SOLUTION)
        cases = [
            (0, ["derive", str(mp)]),
            (1, ["derive", str(tmp_path / "missing.model")]),
            (2, ["derive", "--builtin", "korteweg", "--all-extensions", "--order", str(DERIVE_MAX_ORDER + 1)]),
            (4, ["check", str(mp), str(sp)]),
        ]
        for status, argv in cases:
            proc = _cli(*argv)
            assert proc.returncode == status, (argv, proc.stderr)
            assert "Traceback" not in proc.stderr

    def test_script_entry_point_is_run(self):
        with open(os.path.join(os.path.dirname(_TESTS), "pyproject.toml"), encoding="utf-8") as fh:
            assert 'liukit = "liukit.cli:run"\n' in fh.read()


class TestDeepInputs:
    """Inputs that nest or chain thousands deep end in an exit code, not a traceback."""

    LINKS = 5000

    def _chain(self, tmp_path, last: str):
        from liukit.models import _read

        # q3 = a0, a0 = a1, ..., a4999 = last, in the fourier scenario.
        names = [f"a{k}" for k in range(self.LINKS)]
        lets = "".join(f"let {a} = {b}\n" for a, b in zip(["q3"] + names, names + [last]))
        text = _read("korteweg.solution").replace("[bindings]", "\n".join(names) + "\n\n[bindings]", 1)
        mp, sp = tmp_path / "korteweg.model", tmp_path / "k.solution"  # the report names the model file
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text.replace("let q3 = 0\n", lets, 1))
        return _cli("check", str(mp), str(sp), "--samples", "8")

    def test_long_let_chain_closes(self, tmp_path):
        proc = self._chain(tmp_path, "0")
        assert (proc.returncode, proc.stderr) == (0, "")
        # q3 closes to 0, as the built-in solution binds it.
        assert proc.stdout == _cli("check", "--builtin", "korteweg", "--samples", "8").stdout

    def test_long_let_cycle_is_named(self, tmp_path):
        proc = self._chain(tmp_path, "a0")
        assert (proc.returncode, proc.stdout) == (2, "")
        cycle = " -> ".join(f"a{k}" for k in range(self.LINKS))
        assert proc.stderr == f"error: cyclic bindings: {cycle} -> a0\n"

    @pytest.mark.parametrize("functions, lets, cycle", [
        # rho_x is the total derivative of s1(rho), which holds rho_x again.
        ("", "let rho = s1\n", "rho -> rho"),
        ("g(eps)\nh(rho)\n", "let rho = g(eps)\nlet eps = h(rho)\n", "eps -> rho -> eps"),
    ], ids=["field-to-itself", "two-fields"])
    def test_field_bound_through_its_own_function_is_a_cycle(self, tmp_path, functions, lets, cycle):
        from liukit.models import _read

        text = _read("korteweg.solution").replace("s1(rho)\n", "s1(rho)\n" + functions, 1)
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text.replace("let q3 = 0\n", "let q3 = 0\n" + lets, 1))
        proc = _cli("check", str(mp), str(sp), "--samples", "16")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: cyclic bindings: {cycle}\n")

    @pytest.mark.parametrize(
        "nested", ["(" * 400 + "rho" + ")" * 400, "-" * 1200 + "rho"], ids=["parentheses", "minus-signs"]
    )
    def test_deeply_nested_expression_is_a_parse_error(self, tmp_path, nested):
        from liukit.models import _read

        text = _read("korteweg.model")
        lineno = text.splitlines().index("density = rho") + 1
        mp = tmp_path / "k.model"
        mp.write_text(text.replace("density = rho\n", f"density = {nested}\n", 1))
        proc = _cli("derive", str(mp))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: line {lineno}: expression nests too deeply\n"

    @pytest.mark.parametrize(
        "value, col", [("1" * 5000, 1), ("rho^" + "1" * 5000, 5)], ids=["number", "exponent"]
    )
    def test_number_past_the_int_digit_limit_is_a_parse_error(self, tmp_path, capsys, value, col):
        # Python converts no integer string of more than 4300 digits by default.
        from liukit.models import _read

        text = _read("korteweg.solution")
        lineno = text.splitlines().index("let q3 = 0") + 1
        mp, sp = tmp_path / "k.model", tmp_path / "k.solution"
        mp.write_text(_read("korteweg.model"))
        sp.write_text(text.replace("let q3 = 0\n", f"let q3 = {value}\n", 1))
        code, out, err = _run(["check", str(mp), str(sp), "--samples", "8"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: line {lineno}: 1:{col}: number of 5000 characters is too long\n"


class TestFdb:
    def test_first_order_text(self, capsys):
        code, out, _ = _run(["fdb", "--m", "1"], capsys)
        assert code == 0
        assert "terms: 1    partitions of 1: 1" in out
        assert "D[F(w)] = w_x*D(F, w)" in out

    def test_many_arguments(self, capsys):
        # The compositions of one block over 1100 arguments: no recursion per part.
        code, out, err = _run(["fdb", "--m", "1", "--s", "1100"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("terms: 1100    partitions of 1: 1\n")

    def test_second_order_text(self, capsys):
        code, out, _ = _run(["fdb", "--m", "2"], capsys)
        assert code == 0
        assert "D^2[F(w)] = w_x^2*D(F, w, w) + w_xx*D(F, w)" in out

    def test_json_with_verify(self, capsys):
        code, out, _ = _run(
            ["fdb", "--m", "3", "--s", "2", "--format", "json", "--verify"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 3 and payload["s"] == 2
        assert payload["partitions"] == 3
        assert payload["count"] == len(chain_terms(3, 2))
        assert payload["verify"] == "MATCH"
        assert len(payload["terms"]) == payload["count"]

    def test_text_verify_line(self, capsys):
        code, out, _ = _run(["fdb", "--m", "4", "--verify"], capsys)
        assert code == 0
        assert out.rstrip().endswith("MATCH")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "fdb.txt"
        code, out, _ = _run(["fdb", "--m", "2", "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert "w_xx*D(F, w)" in target.read_text()

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_nonpositive_order_rejected(self, m, capsys):
        code, _, err = _run(["fdb", "--m", m], capsys)
        assert code == 2
        assert "must be positive" in err

    def test_nonpositive_arity_rejected(self, capsys):
        code, _, err = _run(["fdb", "--m", "2", "--s", "0"], capsys)
        assert code == 2
        assert "must be positive" in err

    def test_order_cap(self, capsys):
        code, _, err = _run(["fdb", "--m", "9"], capsys)
        assert code == 2
        assert "exceeds the supported maximum 8" in err

    def test_term_cap_is_checked_before_enumerating(self, capsys):
        # About 5.7e19 terms: only a count taken before enumeration returns.
        code, out, err = _run(["fdb", "--m", "8", "--s", "1100"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: --m 8 --s 1100 expands to 57328070841580710875 terms, "
            "more than the supported maximum 3000\n"
        )

    def test_term_cap_lies_between_m8_s4_and_m8_s5(self, capsys):
        code, _, err = _run(["fdb", "--m", "8", "--s", "5"], capsys)
        assert code == 2
        assert err == "error: --m 8 --s 5 expands to 6765 terms, more than the supported maximum 3000\n"
        code, out, err = _run(["fdb", "--m", "8", "--s", "4"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("terms: 2580    partitions of 8: 22\n")


class TestParserShape:
    def test_missing_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2

    def test_unknown_builtin_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["derive", "--builtin", "nosuch"])
        assert ei.value.code == 2

    def test_closed_pipe_is_quiet(self):
        with subprocess.Popen(
            [sys.executable, "-m", "liukit.cli", "derive", "--builtin", "grade2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            proc.stdout.readline()
            proc.stdout.close()
            proc.wait(timeout=60)
            assert proc.returncode == 0
            assert b"Traceback" not in proc.stderr.read()


# SHA-256 of the CLI's stdout for derive in every format: both built-ins and
# both benchmark fixtures, pruned and with all extensions, the order-3 cap,
# and the order-0 cap (the classical procedure) of both built-ins.  The
# first were recorded before the packed principal minors, so every emitted
# minor is pinned byte for byte, not only those the benchmark gate reads.
_TESTS = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_TESTS, "derive_golden.json"), encoding="utf-8") as _fh:
    DERIVE_GOLDEN = json.load(_fh)


@pytest.mark.parametrize("command", sorted(DERIVE_GOLDEN))
def test_derive_output_bytes_are_pinned(command, capsys, monkeypatch):
    monkeypatch.chdir(os.path.dirname(_TESTS))  # fixture paths are relative to the repository root
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_GOLDEN[command]
