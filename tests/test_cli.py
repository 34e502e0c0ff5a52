"""End-to-end command line tests through main(argv)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import KEPT, count_calls, random_persymmetric, random_verblunsky
from popuc import (
    VerblunskySequence,
    WeightError,
    cmv_matrix,
    factors,
    krawtchouk_family,
    make_persymmetric,
    mirror_dual,
    persymmetric_sign_pattern,
    reconstruct_persymmetric,
    spectrum,
    unit_points,
    verify_mirror_relations,
    verify_persymmetry_characterizations,
    weights,
)
from popuc.cli import _array, _canonical, main
from popuc.tolerances import MIRROR_RELATIONS, PERSYMMETRY_IDENTITIES, RESIDUAL

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_free_family(capsys):
    code, out, err = run(capsys, "generate", "--family", "free", "--n", "3")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "3"
    assert doc["command"] == "generate"
    payload = doc["payload"]
    assert payload["n"] == 3
    assert payload["verblunsky"]["a"] == [[0, 0]] * 3
    assert payload["verblunsky"]["omega"] == [1, 0]
    assert np.allclose(payload["spectrum"]["theta"], [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.allclose(payload["weights"], [0.25] * 4)
    assert len(payload["phis"]) == 5
    assert len(payload["cmv"]["u"]) == 4


def test_generate_inline_verblunsky_cmv(capsys):
    code, out, _ = run(
        capsys,
        "generate",
        "--verblunsky",
        '{"a": [[0, 0]], "omega": [1, 0]}',
        "--emit",
        "cmv",
    )
    assert code == 0
    u = json.loads(out)["payload"]["cmv"]["u"]
    assert u == [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


def test_generate_phis_running_sum(capsys):
    code, out, _ = run(
        capsys, "generate", "--family", "single_moment", "--n", "2", "--emit", "phis"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["phis"][3] == [[1, 0], [1, 0], [1, 0], [1, 0]]
    assert np.allclose(payload["h"], [1.0, 0.75, 2.0 / 3.0])
    assert "spectrum" not in payload


def test_generate_from_file(tmp_path, capsys):
    spec_file = tmp_path / "system.json"
    spec_file.write_text('{"a": [[0.25, 0.0], [-0.25, 0.0]], "omega": [1, 0]}')
    code, out, _ = run(capsys, "generate", "--verblunsky", str(spec_file), "--emit", "spectrum")
    assert code == 0
    assert len(json.loads(out)["payload"]["spectrum"]["theta"]) == 3


def test_check_free_family_passes(capsys):
    code, out, _ = run(capsys, "check", "--family", "free", "--n", "3", "--all")
    assert code == 0
    checks = json.loads(out)["payload"]["checks"]
    assert checks["passed"] is True
    assert checks["persymmetric"] is True
    assert checks["orthogonality_residual"] <= 1e-8
    assert checks["mirror_relations"]["parity"] == "odd"
    assert "persymmetry_characterizations" in checks


def test_check_persymmetric_flag_fails_on_non_persymmetric(capsys):
    code, out, _ = run(
        capsys, "check", "--family", "single_moment", "--n", "4", "--persymmetric"
    )
    assert code == 1
    checks = json.loads(out)["payload"]["checks"]
    assert checks["passed"] is False
    assert checks["persymmetric"] is False


def test_check_krawtchouk_mirror_relations(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--family",
        "krawtchouk",
        "--n",
        "6",
        "--omega-arg",
        "1.0",
        "--mirror-relations",
    )
    assert code == 0
    checks = json.loads(out)["payload"]["checks"]
    assert checks["mirror_relations"]["u_residual"] <= 1e-10
    assert checks["persymmetric"] is True


def test_check_rejects_bad_coefficient(capsys):
    code, out, err = run(
        capsys, "check", "--verblunsky", '{"a": [[1.5, 0]], "omega": [1, 0]}'
    )
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"a": [[0.1, 0]], "omega": [1]}', "omega is [1], not a pair [re, im] of numbers"),
        ('{"a": [[0.1, 0]], "omega": []}', "omega is [], not a pair [re, im] of numbers"),
        ('{"a": [[0.1, 0]], "omega": [1, 0, 5]}', "omega is [1, 0, 5], not a pair [re, im] of numbers"),
        ('{"a": [[false, 0]], "omega": [1, 0]}', "a[0][0] is false, not a number"),
        ('{"a": [["a", 0]], "omega": [1, 0]}', 'a[0][0] is "a", not a number'),
        ('{"a": 5, "omega": [1, 0]}', "a is 5, not a list of [re, im] pairs"),
    ],
    ids=["omega_one_entry", "omega_empty", "omega_three_entries", "a_bool", "a_string", "a_number"],
)
def test_check_names_a_malformed_coefficient_field(capsys, doc, message):
    code, out, err = run(capsys, "check", "--verblunsky", doc)
    assert (code, out, err) == (2, "", f"invalid input: {message}\n")


def test_check_rejects_an_integer_beyond_double_range(capsys):
    doc = f'{{"a": [[1{"0" * 400}, 0]], "omega": [1, 0]}}'
    code, out, err = run(capsys, "check", "--verblunsky", doc)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:") and "double range" in err


def test_check_requires_a_system(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "verblunsky" in err or "family" in err
    code, out, err = run(capsys, "check", "--family", "free")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:") and "--family needs --n" in err


def test_reconstruct_inline(capsys):
    code, out, _ = run(
        capsys,
        "reconstruct",
        "--spectrum",
        f"[0.0, {np.pi / 2}, {np.pi}, {3 * np.pi / 2}]",
        "--omega-arg",
        "0.0",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["n"] == 3
    assert float(np.max(np.abs(np.array(payload["a"])))) <= 1e-8
    assert abs(payload["h_final"] - 1.0) <= 1e-8
    assert abs(payload["log_h_final"]) <= 1e-8


def test_reconstruct_object_with_theta_key(tmp_path, capsys):
    doc = {"theta": [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]}
    path = tmp_path / "angles.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "reconstruct", "--spectrum", str(path), "--omega-arg", "0.0")
    assert code == 0
    assert json.loads(out)["payload"]["n"] == 3


def test_reconstruct_wrong_omega_fails(capsys):
    code, _, err = run(
        capsys,
        "reconstruct",
        "--spectrum",
        f"[0.0, {np.pi / 2}, {np.pi}, {3 * np.pi / 2}]",
        "--omega-arg",
        "0.4",
    )
    assert code == 3
    assert "reconstruction failed" in err


def test_reconstruct_of_a_pair_closer_than_the_disc_allows_fails_with_exit_3(capsys):
    # omega-arg pi - (2 + 1e-11) gives omega = -exp(-i(2 + 1e-11)), consistent with the two nodes
    code, out, err = run(capsys, "reconstruct", "--spectrum", "[1.0, 1.00000000001]", "--omega-arg", repr(np.pi - 2.00000000001))
    assert (code, out) == (3, "")
    assert err == "reconstruction failed: recovered |a_0| = 1.0 is not inside the disc\n"


def test_reconstruct_krawtchouk_spectrum_at_n36(capsys):
    # valid Krawtchouk nodes at n = 36 come back as the family's coefficients
    code, out, _ = run(
        capsys, "generate", "--family", "krawtchouk", "--n", "36", "--omega-arg", "0.9", "--emit", "spectrum"
    )
    assert code == 0
    theta = json.dumps(json.loads(out)["payload"]["spectrum"]["theta"])
    code, out, err = run(capsys, "reconstruct", "--spectrum", theta, "--omega-arg", "0.9")
    assert code == 0 and err == ""
    a = np.array(json.loads(out)["payload"]["a"])
    expected = krawtchouk_family(36, np.exp(0.9j)).v.a
    assert a.shape == (36, 2)
    assert float(np.max(np.abs(a[:, 0] + 1j * a[:, 1] - expected))) <= 1e-10


def test_reconstruct_reads_a_node_just_below_two_pi_as_zero(capsys):
    # the free family's nodes at nu = 1e-13: the first lies 1.3e-13 below 2 pi, on the seam
    theta = json.dumps((2 * np.pi * (np.arange(5) - 1e-13) / 5 % (2 * np.pi)).tolist())
    code, out, err = run(capsys, "reconstruct", "--spectrum", theta, "--omega-arg", repr(2 * np.pi * 1e-13))
    assert (code, err) == (0, "")
    assert float(np.max(np.abs(np.array(json.loads(out)["payload"]["a"])))) <= 1e-12


def test_reconstruct_integer_beyond_double_range_is_invalid_input(capsys):
    code, out, err = run(capsys, "reconstruct", "--spectrum", f"[1.0, 1{'0' * 400}, 2.0]", "--omega-arg", "0")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:") and "theta[1]" in err and "double range" in err


@pytest.mark.parametrize(
    "angles, message",
    [
        ("[2.0, NaN, 0.5]", "theta[1] is nan"),
        ("[2.0, 0.5, null]", "theta[2] is null, not a number"),
        ('[0.5, "1.0", 2.0]', "theta[1] is \"1.0\", not a number"),
    ],
    ids=["nan", "null", "string"],
)
def test_reconstruct_names_a_bad_angle_at_its_input_index(capsys, angles, message):
    # the check runs before the angles are wrapped and sorted
    code, out, err = run(capsys, "reconstruct", "--spectrum", angles, "--omega-arg", "0")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:") and message in err


def test_reconstruct_names_an_angle_given_twice(capsys):
    # the command sorts the angles itself, so only a repeat can fail the ordering gate
    code, out, err = run(capsys, "reconstruct", "--spectrum", "[2, 0.5, 0.5]", "--omega-arg", "0")
    expected = "invalid input: nodes must be strictly increasing in theta; theta 0.5 is given twice\n"
    assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--verblunsky", '{"a": [[0.1, 0]], "omega": [NaN, 0]}'],
        ["reconstruct", "--spectrum", "[0.5, 2.0, 4.0]", "--omega-arg", "nan"],
        ["check", "--family", "krawtchouk", "--n", "4", "--omega-arg", "nan"],
    ],
    ids=["check_verblunsky", "reconstruct", "check_krawtchouk"],
)
def test_nan_omega_is_invalid_input_that_names_omega(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: omega = (nan") and "is not unimodular" in err


def test_nan_nu_is_invalid_input_that_names_nu(capsys):
    code, out, err = run(capsys, "generate", "--family", "free", "--n", "3", "--nu", "nan")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: nu = nan must be finite")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--family", "krawtchouk", "--n", "3", "--omega-arg=inf"],
        ["reconstruct", "--spectrum", "[0.1, 2.0]", "--omega-arg=-inf"],
    ],
    ids=["generate_inf", "reconstruct_minus_inf"],
)
def test_infinite_omega_arg_is_invalid_input_before_numpy_warns(capsys, argv):
    # exp(i inf) would warn "invalid value encountered in exp", an error under this suite's filter
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"invalid input: omega-arg = {argv[-1].split('=')[1]} must be finite\n")


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_a_fault_inside_a_command_is_not_reported_as_invalid_input(capsys, monkeypatch, error):
    def fault(*_args, **_kwargs):
        raise error("a fault in the program")

    monkeypatch.setattr("popuc.cli.spectrum", fault)
    with pytest.raises(error, match="a fault in the program"):
        main(["generate", "--family", "free", "--n", "3"])


def test_free_family_at_a_half_turn_prints_an_exact_omega(capsys):
    code, out, _ = run(capsys, "generate", "--family", "free", "--n", "3", "--nu", "0.5", "--emit", "phis")
    assert code == 0 and '"omega":[-1,0]' in out


def test_omega_arg_at_a_half_turn_recovers_real_data(capsys):
    # --omega-arg pi is omega = -1 exactly, so a real self-dual spectrum comes back as a real list
    code, out, _ = run(capsys, "generate", "--family", "single_moment_persymmetric", "--n", "21", "--emit", "spectrum")
    theta = json.loads(out)["payload"]["spectrum"]["theta"]
    code, out, _ = run(capsys, "reconstruct", "--spectrum", json.dumps(theta), "--omega-arg", "3.141592653589793")
    payload = json.loads(out)["payload"]
    assert code == 0 and payload["omega"] == [-1, 0] and all(im == 0 for _, im in payload["a"])


def test_reconstruct_missing_file(capsys):
    code, _, err = run(
        capsys, "reconstruct", "--spectrum", "/nonexistent/angles.json", "--omega-arg", "0.0"
    )
    assert code == 4
    assert "i/o failure" in err


def test_export_json_round_trip(tmp_path, capsys):
    out_path = tmp_path / "system.json"
    code, _, _ = run(
        capsys,
        "export",
        "--family",
        "krawtchouk",
        "--n",
        "4",
        "--omega-arg",
        "0.7",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    a = doc["payload"]["verblunsky"]["a"]
    # re-import bit-exactly through generate
    code, out, _ = run(
        capsys,
        "generate",
        "--verblunsky",
        json.dumps({"a": a, "omega": doc["payload"]["verblunsky"]["omega"]}),
        "--emit",
        "spectrum",
    )
    assert code == 0
    assert json.loads(out)["payload"]["verblunsky"]["a"] == a


def test_export_csv(tmp_path, capsys):
    out_path = tmp_path / "weights.csv"
    code, _, _ = run(
        capsys,
        "export",
        "--family",
        "free",
        "--n",
        "3",
        "--format",
        "csv",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "s,theta,weight"
    assert len(lines) == 5
    s, theta, weight = lines[1].split(",")
    # 0.25 plus 6 ulp: the first component of LAPACK's unit eigenvector, squared
    assert s == "0" and float(theta) == 0.0 and float(weight) == 0.25000000000000033


def _verblunsky_doc(v) -> str:
    return json.dumps({"a": [[z.real, z.imag] for z in v.a.tolist()], "omega": [v.omega.real, v.omega.imag]})


EXPORT_SYSTEMS = {
    "free_3": ["--family", "free", "--n", "3"],
    "krawtchouk_9": ["--family", "krawtchouk", "--n", "9", "--omega-arg", "0.9"],
    "random_11": ["--verblunsky", _verblunsky_doc(random_verblunsky(np.random.default_rng(52), 11))],
}


@pytest.mark.parametrize("emit", ["phis", "spectrum", "weights", "cmv", "all"])
@pytest.mark.parametrize("system", list(EXPORT_SYSTEMS))
def test_export_json_writes_the_generate_document(tmp_path, capsys, system, emit):
    out_path = tmp_path / "system.json"
    args = [*EXPORT_SYSTEMS[system], "--emit", emit]
    code, out, err = run(capsys, "generate", *args)
    assert code == 0 and err == ""
    code, written, err = run(capsys, "export", *args, "--format", "json", "--out", str(out_path))
    assert (code, written, err) == (0, "", "")
    expected = out.replace('"command":"generate"', '"command":"export"', 1)
    assert expected != out and out_path.read_text() == expected


@pytest.mark.parametrize("system", list(EXPORT_SYSTEMS))
def test_export_csv_rows_are_the_generate_weights(tmp_path, capsys, system):
    out_path = tmp_path / "weights.csv"
    code, out, _ = run(capsys, "generate", *EXPORT_SYSTEMS[system], "--emit", "weights")
    payload = json.loads(out)["payload"]
    code, _, _ = run(capsys, "export", *EXPORT_SYSTEMS[system], "--format", "csv", "--out", str(out_path))
    assert code == 0
    rows = zip(payload["spectrum"]["theta"], payload["weights"])
    expected = ["s,theta,weight"] + [f"{s},{t:.17g},{w:.17g}" for s, (t, w) in enumerate(rows)]
    assert out_path.read_text() == "\n".join(expected) + "\n"


def test_check_report_blocks_hold_exactly_the_report_fields(capsys):
    # the blocks are the report dataclasses as they are, so a new field shows here first
    code, out, _ = run(capsys, "check", "--family", "krawtchouk", "--n", "9", "--omega-arg", "0.9", "--all")
    checks = json.loads(out)["payload"]["checks"]
    assert code == 0
    assert set(checks) == {
        "orthogonality_residual", "paraorthogonality_residual", "mirror_relations",
        "persymmetric", "persymmetry_defect", "persymmetry_characterizations", "passed",
    }
    assert set(checks["mirror_relations"]) == {"parity", "m1_residual", "m2_residual", "u_residual"}
    assert set(checks["persymmetry_characterizations"]) == {
        "weight_residual", "modulus_residual", "phase_residual", "epsilon",
    }


@pytest.mark.parametrize("flag", ["--all", "--orthogonality", "--persymmetric"])
def test_coincident_nodes_of_valid_data_are_a_numerical_failure(capsys, flag):
    # past the gap collapse two nodes of this self-dual draw are one double;
    # the solve names the pair instead of its own nodes reading as bad input
    doc = _verblunsky_doc(random_persymmetric(np.random.default_rng(0), 128, max_mag=0.85))
    code, out, err = run(capsys, "check", "--verblunsky", doc, flag)
    assert (code, out) == (5, "")
    match = re.match(r"numerical failure: nodes (\d+) and (\d+) coincide in double precision at theta (\S+)\n$", err)
    assert match and int(match[2]) == int(match[1]) + 1
    assert float(match[3]) >= 0.0  # a plain float, not a numpy repr
    code, _, _ = run(capsys, "check", "--verblunsky", doc, "--mirror-relations")
    assert code == 0


@pytest.mark.parametrize("argv", [["check", "--all"], ["generate", "--emit", "phis"]], ids=["check", "phis"])
def test_ladder_overflow_is_a_numerical_failure_that_names_the_rung(capsys, argv):
    # valid data whose ladder coefficients pass the double range at Phi_1036;
    # the suite turns a RuntimeWarning into an error, so none may be emitted
    doc = _verblunsky_doc(VerblunskySequence(np.full(1100, 0.999), 1.0))
    code, out, err = run(capsys, argv[0], "--verblunsky", doc, *argv[1:])
    assert (code, out) == (5, "")
    assert err == "numerical failure: ladder coefficients of Phi_1036 overflow the double range\n"


def test_export_to_unwritable_path(capsys):
    code, _, err = run(
        capsys,
        "export",
        "--family",
        "free",
        "--n",
        "2",
        "--format",
        "csv",
        "--out",
        "/nonexistent/dir/weights.csv",
    )
    assert code == 4
    assert "i/o failure" in err


def test_canonical_json_is_sorted_and_stable(capsys):
    _, first, _ = run(capsys, "generate", "--family", "free", "--n", "2")
    _, second, _ = run(capsys, "generate", "--family", "free", "--n", "2")
    assert first == second
    keys = list(json.loads(first).keys())
    assert keys == sorted(keys)
    # canonical float formatting round-trips doubles bit-exactly
    _, out, _ = run(capsys, "generate", "--family", "single_moment", "--n", "3", "--emit", "weights")
    payload = json.loads(out)["payload"]
    for w in payload["weights"]:
        assert float(f"{w:.17g}") == w
        assert f"{w:.17g}" in out


def test_bad_json_input(capsys):
    code, _, err = run(capsys, "generate", "--verblunsky", '{"a": [[0,0]]}')
    assert code == 2
    code, _, err = run(capsys, "generate", "--verblunsky", "{not json")
    assert code == 2
    for doc in ('{"x": 1}', '{"theta": 5}'):
        code, out, err = run(capsys, "reconstruct", "--spectrum", doc, "--omega-arg", "0")
        assert (code, out) == (2, "")
        assert err.startswith("invalid input:") and "list of angles" in err


def test_unknown_family_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--family", "nope", "--n", "2"])


@pytest.mark.parametrize(
    "family_args",
    [
        ["--family", "single_moment_persymmetric", "--n", "40"],
        ["--family", "krawtchouk", "--n", "24", "--omega-arg", "0.9"],
    ],
)
def test_check_all_passes_on_large_self_dual_families(capsys, family_args):
    code, out, err = run(capsys, "check", *family_args, "--all")
    assert code == 0, err
    checks = json.loads(out)["payload"]["checks"]
    assert checks["passed"] is True
    assert checks["persymmetry_characterizations"]["weight_residual"] <= 1e-12


def test_generate_krawtchouk_at_large_n(capsys):
    code, out, err = run(capsys, "generate", "--family", "krawtchouk", "--n", "64", "--omega-arg", "0.9")
    assert code == 0, err
    assert len(json.loads(out)["payload"]["weights"]) == 65


def test_numerical_failure_has_its_own_exit_code(capsys, monkeypatch):
    def breakdown(*_args, **_kwargs):
        raise WeightError("weights sum to 0.5, expected 1")

    monkeypatch.setattr("popuc.cli.weights", breakdown)
    code, out, err = run(capsys, "check", "--family", "single_moment", "--n", "3", "--orthogonality")
    assert code == 5 and out == ""
    assert err.startswith("numerical failure:") and "0.5" in err


# Full stdout, byte for byte.  The spectrum, weight and u digits come from
# LAPACK and BLAS; everything else is exact elementwise arithmetic.
GOLDEN_SINGLE_MOMENT_3 = (
    '{"command":"generate","payload":{"cmv":{"m1":[[[1,0],[0,0],[0,0],[0,0]],'
    '[[0,0],[-0.33333333333333331,-0],[0.94280904158206336,0],[0,0]],'
    '[[0,0],[0.94280904158206336,0],[0.33333333333333331,-0],[0,0]],'
    '[[0,0],[0,0],[0,0],[-1,-0]]],'
    '"m2":[[[-0.5,-0],[0.8660254037844386,0],[0,0],[0,0]],'
    '[[0.8660254037844386,0],[0.5,-0],[0,0],[0,0]],'
    '[[0,0],[0,0],[-0.25,-0],[0.96824583655185426,0]],'
    '[[0,0],[0,0],[0.96824583655185426,0],[0.25,-0]]],'
    '"u":[[[-0.5,0],[-0.28867513459481287,0],[0.81649658092772592,0],[0,0]],'
    '[[0.8660254037844386,0],[-0.16666666666666666,0],[0.47140452079103168,0],[0,0]],'
    '[[0,0],[-0.23570226039551584,0],[-0.083333333333333329,0],[-0.96824583655185426,0]],'
    '[[0,0],[0.9128709291752769,0],[0.3227486121839514,0],[-0.25,0]]]},'
    '"h":[1,0.75,0.66666666666666663,0.625],"n":3,'
    '"phis":[[[1,0]],[[0.5,0],[1,0]],[[0.33333333333333331,0],[0.66666666666666663,0],[1,0]],'
    '[[0.25,0],[0.5,0],[0.75,0],[1,0]],[[1,0],[1,0],[1,0],[1,0],[1,0]]],'
    '"spectrum":{"theta":[1.2566370614359172,2.5132741228718345,3.7699111843077517,5.026548245743669],'
    '"z":[[0.30901699437494745,0.95105651629515353],[-0.80901699437494734,0.58778525229247325],'
    '[-0.80901699437494756,-0.58778525229247303],[0.30901699437494723,-0.95105651629515364]]},'
    '"verblunsky":{"a":[[-0.5,0],[-0.33333333333333331,0],[-0.25,0]],"omega":[-1,0]},'
    '"weights":[0.13819660112501048,0.36180339887498941,0.36180339887498958,0.13819660112501048]},'
    '"schema_version":"3"}\n'
)

# -0 parts, a subnormal-adjacent 5e-301 and integer-valued floats
GOLDEN_TINY_PHIS = (
    '{"command":"generate","payload":{"h":[1,1,0.75],"n":2,'
    '"phis":[[[1,0]],[[0,5.0000000000000001e-301],[1,0]],'
    '[[-0.5,0],[0,7.5000000000000006e-301],[1,0]],'
    '[[-1,0],[-0.5,7.5000000000000006e-301],[0.5,7.5000000000000006e-301],[1,0]]],'
    '"verblunsky":{"a":[[-0,5.0000000000000001e-301],[0.5,-0]],"omega":[1,0]}},'
    '"schema_version":"3"}\n'
)


def test_canonical_renders_each_kind_a_document_holds():
    doc = {
        "array": np.array([0.5, -0.0]),
        "float": 0.1,
        "complex": complex(1.0, -0.0),
        "list": [True, False],
        "int": 3,
        "str": "odd",
    }
    expected = '{"array":[0.5,-0],"complex":[1,-0],"float":0.10000000000000001,"int":3,"list":[true,false],"str":"odd"}'
    assert _canonical(doc) == expected


@pytest.mark.parametrize("value, kind", [(np.float64(0.5), "float64"), ((1, 2), "tuple"), (None, "NoneType")])
def test_canonical_rejects_a_kind_no_document_holds(value, kind):
    with pytest.raises(TypeError, match=f"no canonical JSON form for {kind}$"):
        _canonical({"payload": [value]})


def test_canonical_output_is_byte_exact(capsys):
    code, out, _ = run(capsys, "generate", "--family", "single_moment", "--n", "3", "--emit", "all")
    assert code == 0 and out == GOLDEN_SINGLE_MOMENT_3
    tiny = '{"a": [[-0.0, 5e-301], [0.5, -0.0]], "omega": [1, 0]}'
    code, out, _ = run(capsys, "generate", "--verblunsky", tiny, "--emit", "phis")
    assert code == 0 and out == GOLDEN_TINY_PHIS


def _reference_array(arr: np.ndarray) -> str:
    """The per-entry renderer that ``cli._array`` replaced: one f-string per entry, one join per row."""
    if arr.ndim > 1:
        return "[" + ",".join(map(_reference_array, arr)) + "]"
    if arr.dtype.kind == "c":
        return "[" + ",".join(f"[{z.real:.17g},{z.imag:.17g}]" for z in arr.tolist()) + "]"
    return "[" + ",".join(f"{x:.17g}" for x in arr.tolist()) + "]"


_EDGE = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e17]
EDGE_VALUES = np.array(_EDGE + [-x for x in _EDGE])
EDGE_PAIRS = np.empty((EDGE_VALUES.size, EDGE_VALUES.size), dtype=np.complex128)
EDGE_PAIRS.real, EDGE_PAIRS.imag = np.meshgrid(EDGE_VALUES, EDGE_VALUES)
_GRID = np.random.default_rng(23).standard_normal((5, 8)) * 10.0 ** np.arange(-160, 160, 40)
_CGRID = _GRID + 1j * _GRID[::-1]

RENDER_CASES = {
    "edge_values": EDGE_VALUES,
    "edge_pairs": EDGE_PAIRS,
    "float32": np.array([1 / 3, -0.0, 1e-45, 1.2e-38, 3.4028235e38, np.nan, -np.inf], dtype=np.float32),
    "int64": np.array([0, -1, 2**53 + 1, np.iinfo(np.int64).max, np.iinfo(np.int64).min]),
    "bool": np.array([[True, False], [False, True]]),
    "reversed_strided": _GRID[::-1, ::2],
    "transposed": _GRID.T,
    "complex_reversed_strided": _CGRID[::-1, ::2],
    "complex_transposed": _CGRID.T,
    "3d": _GRID.reshape(2, 5, 4),
    "complex_3d": _CGRID.reshape(4, 2, 5).transpose(1, 0, 2),
    "empty": np.empty(0),
    "empty_rows": np.empty((3, 0)),
    "no_rows": np.empty((0, 3)),
    "complex_empty_rows": np.empty((3, 0), dtype=np.complex128),
}


@pytest.mark.parametrize("name", list(RENDER_CASES))
def test_array_renders_what_the_per_entry_reference_renders(name):
    arr = RENDER_CASES[name]
    assert _array(arr) == _reference_array(arr)


def _assert_same_bits(rendered, expected: np.ndarray) -> None:
    """rendered (parsed JSON, complex entries as [re, im]) holds exactly the doubles of expected, -0 included."""
    parsed = np.array(rendered, dtype=np.float64)
    assert parsed.shape == expected.shape + ((2,) if expected.dtype.kind == "c" else ())
    assert np.array_equal(parsed.view(np.uint64).ravel(), expected.ravel().view(np.float64).view(np.uint64))


def test_large_generate_document_parses_back_to_the_arrays_bit_for_bit(capsys):
    code, out, err = run(capsys, "generate", "--family", "krawtchouk", "--n", "64", "--omega-arg", "0.9", "--emit", "all")
    assert code == 0 and err == ""
    # "-0" must come back as the float -0.0, not the integer 0
    payload = json.loads(out, parse_int=float)["payload"]
    v = krawtchouk_family(64, complex(np.exp(0.9j))).v
    theta = spectrum(v)
    m1, m2 = factors(v)
    assert len(payload["phis"]) == len(v.phis) == 66
    for rendered, phi in zip(payload["phis"], v.phis):
        _assert_same_bits(rendered, phi)
    expected = {
        ("verblunsky", "a"): v.a,
        ("verblunsky", "omega"): np.array(v.omega),
        ("h",): v.h,
        ("spectrum", "theta"): theta,
        ("spectrum", "z"): unit_points(theta),
        ("weights",): weights(v, theta).weights,
        ("cmv", "m1"): m1,
        ("cmv", "m2"): m2,
        ("cmv", "u"): cmv_matrix(v),
    }
    for path, array in expected.items():
        node = payload
        for key in path:
            node = node[key]
        _assert_same_bits(node, array)


def test_nothing_leaks_between_in_process_runs(capsys):
    check = ["check", "--family", "krawtchouk", "--n", "7", "--omega-arg", "0.9"]
    sequence = [
        check + ["--all"],
        check + ["--orthogonality"],
        ["generate", "--family", "free", "--n", "3", "--emit", "weights"],
        check + ["--all"],
    ]
    fresh = {}
    for argv in sequence:
        key = tuple(argv)
        if key not in fresh:
            proc = subprocess.run(
                [sys.executable, "-m", "popuc.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")},
            )
            fresh[key] = (proc.returncode, proc.stdout)
    for argv in sequence:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == fresh[tuple(argv)]
    with pytest.raises(SystemExit) as exc:
        main(["check", "--family", "nope", "--n", "2"])
    assert exc.value.code == 2


def test_check_all_runs_one_forward_pass_on_self_dual_data(capsys, monkeypatch):
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    code, out, _ = run(capsys, "check", "--family", "krawtchouk", "--n", "9", "--omega-arg", "0.9", "--all")
    assert code == 0 and "persymmetry_characterizations" in json.loads(out)["payload"]["checks"]
    assert len(calls) == 1
    code, _, _ = run(capsys, "check", "--family", "krawtchouk", "--n", "9", "--persymmetric")
    assert code == 0 and len(calls) == 2


@pytest.mark.parametrize("self_dual", [False, True], ids=["random", "self_dual"])
def test_check_all_solves_and_runs_the_ladder_once(capsys, monkeypatch, self_dual):
    import popuc.cmv as cmv
    import popuc.mirror as mirror
    import popuc.opuc_core as opuc_core

    rng = np.random.default_rng(19)
    v = random_persymmetric(rng, 7) if self_dual else random_verblunsky(rng, 7)
    doc = _verblunsky_doc(v)
    solves = count_calls(monkeypatch, np.linalg, "eigh")
    ladders = count_calls(monkeypatch, opuc_core, "ladder_values")
    builds = count_calls(monkeypatch, opuc_core, "factors")
    count_calls(monkeypatch, cmv, "factors", builds)
    gated = count_calls(monkeypatch, opuc_core, "node_angles")
    count_calls(monkeypatch, mirror, "node_angles", gated)
    code, out, _ = run(capsys, "check", "--verblunsky", doc, "--all")
    checks = json.loads(out)["payload"]["checks"]
    assert code == 0 and checks["persymmetric"] is self_dual
    assert ("persymmetry_characterizations" in checks) is self_dual
    assert (len(solves), len(ladders)) == (1, 1)
    assert gated == []  # the solve checked its own angles; no check sends them through the caller gate
    # the factors of v, built for the solve and again by the mirror relations, then those of its dual
    system = builds[0][0]
    assert [args[0] is system for args in builds] == [True, True, False]
    assert [args[0].a.tolist() for args in builds] == [v.a.tolist(), v.a.tolist(), mirror_dual(v).a.tolist()]
    assert set(vars(system)) <= KEPT


# numpy's Python-level wrappers of an ndarray method or a ufunc, each as slow as the C call it forwards to
NUMPY_WRAPPERS = ("max", "min", "sum", "prod", "any", "all", "angle", "diff", "fill_diagonal", "cumprod",
                  "ravel", "count_nonzero", "full", "sort")


@pytest.mark.parametrize("n", [8, 9])
def test_self_dual_path_calls_no_numpy_wrapper(capsys, monkeypatch, n):
    for name in NUMPY_WRAPPERS:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"np.{name} called")

        monkeypatch.setattr(np, name, refuse)
    rng = np.random.default_rng(n)
    free = 0.8 * rng.uniform(size=n // 2) * np.exp(2j * np.pi * rng.uniform(size=n // 2))
    arg = float(rng.uniform(-np.pi, np.pi))
    v = make_persymmetric(free, complex(np.exp(1j * arg)), 0.3 if n % 2 else None)
    theta = spectrum(v)
    assert verify_persymmetry_characterizations(v).max_residual <= PERSYMMETRY_IDENTITIES
    assert verify_mirror_relations(v).max_residual <= MIRROR_RELATIONS
    if n % 2:
        assert len(persymmetric_sign_pattern(v)) == n + 1
    assert np.abs(reconstruct_persymmetric(theta, v.omega).v.a - v.a).max() <= RESIDUAL
    doc = _verblunsky_doc(v)
    commands = (
        ("check", "--verblunsky", doc, "--all"),
        ("generate", "--verblunsky", doc, "--emit", "all"),
        ("reconstruct", "--spectrum", json.dumps(theta.tolist()), "--omega-arg", repr(arg)),
    )
    for argv in commands:
        assert run(capsys, *argv)[::2] == (0, "")
