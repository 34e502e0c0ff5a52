"""End-to-end command line tests through main(argv)."""

import json

import numpy as np
import pytest

from popuc import WeightError
from popuc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_free_family(capsys):
    code, out, err = run(capsys, "generate", "--family", "free", "--n", "3")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
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


def test_check_requires_a_system(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "verblunsky" in err or "family" in err


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
    assert payload["epsilon"] in (1, -1)


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
    assert s == "0" and float(theta) == 0.0 and float(weight) == 0.25


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


def test_numerical_failure_has_its_own_exit_code(capsys, monkeypatch):
    def breakdown(*_args, **_kwargs):
        raise WeightError("Christoffel weights sum to 0.5, expected 1")

    monkeypatch.setattr("popuc.cli.weights", breakdown)
    code, out, err = run(capsys, "check", "--family", "single_moment", "--n", "3", "--orthogonality")
    assert code == 5 and out == ""
    assert err.startswith("numerical failure:") and "0.5" in err
