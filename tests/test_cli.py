import json
from pathlib import Path

import pytest

from cubiconics import cubic_conics
from cubiconics.cayley import cayley_degree_parts, cayley_hypersurface
from cubiconics.cli import load_forms, main
from cubiconics.errors import ConfigError, MacaulayDegenerateError, NonDivisibleError
from cubiconics.multipoly import MultiPoly
from cubiconics.pointcount import enumerate_affine


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_load_forms(data_dir, tmp_path):
    forms, names = load_forms(data_dir / "conic.txt")
    assert len(forms) == 1 and names == ("T0", "T1", "T2")
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ConfigError):
        load_forms(empty)


def test_count_command(capsys, data_dir):
    code, out = run_cli(capsys, "count", "--curve", str(data_dir / "conic.txt"),
                        "--B", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert rep["results"]["counts"] == [4]


def test_count_command_affine_mode(capsys, tmp_path):
    # a curve file without T0: the affine count runs in T1, T2
    circle = tmp_path / "circle.txt"
    circle.write_text("T1^2 + T2^2 - 25\n")
    code, out = run_cli(capsys, "count", "--curve", str(circle), "--B", "4,5,8",
                        "--mode", "affine", "--points")
    assert code == 0
    res = json.loads(out)["results"]
    names = ("T1", "T2")
    ref = enumerate_affine([MultiPoly.parse("T1^2 + T2^2 - 25", names)], names, 8)
    assert res["points"] == [list(p) for p in ref.points]
    assert res["total_points"] == ref.count == 12
    assert res["counts"] == [sum(x * x + y * y <= B * B for x, y in ref.points)
                             for B in (4, 5, 8)] == [0, 12, 12]


def test_cayley_command_hypersurface(capsys, data_dir):
    code, out = run_cli(capsys, "cayley", "--surface", str(data_dir / "fermat.cubic"))
    assert code == 0
    psi = cayley_hypersurface(load_forms(data_dir / "fermat.cubic")[0][0])
    assert json.loads(out)["results"] == {
        "kind": "hypersurface",
        "cayley_form": str(psi),
        "height_H": {"provenance": "exact", "value": "1"},
        "degree_parts_index0": {str(k): str(v)
                                for k, v in cayley_degree_parts(psi, 0).items()},
    }


def test_primes_command_deterministic(capsys):
    code1, out1 = run_cli(capsys, "primes", "--x-max", "500")
    code2, out2 = run_cli(capsys, "primes", "--x-max", "500")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical


def test_hs_command(capsys):
    code, out = run_cli(capsys, "hs", "--d", "2", "--mu", "1", "--m-max", "200",
                        "--geo-D-max", "30")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["local_check"]["violations"] == 0
    assert rep["results"]["geometric_window"]["violations"] == []


def test_classify_command(capsys, data_dir):
    code, out = run_cli(capsys, "classify", "--surface",
                        str(data_dir / "fermat.cubic"), "--line-height", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["classification"]["non_ruled"] == "certified"
    assert len(rep["results"]["lines_found"]) == 3


def test_cayley_command(capsys, data_dir):
    code, out = run_cli(capsys, "cayley", "--curve", str(data_dir / "conic_p3.txt"))
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["degree"] == 2


def test_aux_command(capsys, data_dir):
    code, out = run_cli(capsys, "aux", "--curve", str(data_dir / "line_p2.txt"),
                        "--B", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["omegas"] == [4]


def test_exit_code_config_error(capsys, tmp_path):
    assert main(["count", "--curve", str(tmp_path / "missing.txt"), "--B", "2"]) == 3


def test_exit_code_budget_error(capsys, data_dir):
    assert main(["count", "--curve", str(data_dir / "fermat.cubic"),
                 "--B", "100000"]) == 2


def test_exit_code_finite_variety_without_auxiliary_form(capsys, tmp_path):
    point = tmp_path / "point.txt"
    point.write_text("T1\nT2\n")
    assert main(["aux", "--curve", str(point), "--B", "3"]) == 3
    assert "none is auxiliary" in capsys.readouterr().err


def test_exit_code_property_violation(capsys, tmp_path):
    ruled = tmp_path / "ruled.txt"
    ruled.write_text("T0^2*T2 + T1^2*T3\n")
    assert main(["verify", "--surface", str(ruled), "--B", "4"]) == 1


@pytest.mark.parametrize("error", [AssertionError, NonDivisibleError, MacaulayDegenerateError,
                                   KeyError])
def test_exit_code_internal_check_failed(capsys, data_dir, monkeypatch, error):
    # a failed internal check is not a falsified property: exit code 4, not 1
    def failing_cutoff(rows, d):
        raise error("Bezout identities fail for the cutoff pair")

    monkeypatch.setattr(cubic_conics, "bezout_cutoff", failing_cutoff)
    assert main(["census", "--surface", str(data_dir / "fermat.cubic"),
                 "--line-height", "1", "--B", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"internal check failed: {error.__name__}: "
                            "Bezout identities fail for the cutoff pair\n")


@pytest.mark.parametrize("command", ["count", "census", "aux", "verify"])
def test_empty_B_list_is_a_configuration_error(capsys, data_dir, command):
    source = (["--curve", str(data_dir / "conic.txt")] if command in ("count", "aux")
              else ["--surface", str(data_dir / "fermat.cubic")])
    assert main([command, *source, "--B", ","]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: empty B list\n"


def test_report_files_and_csv(capsys, data_dir, tmp_path):
    out = tmp_path / "reports"
    code, _ = run_cli(capsys, "count", "--curve", str(data_dir / "conic.txt"),
                      "--B", "2,4", "--out", str(out), "--format", "csv")
    assert code == 0
    assert (out / "count.json").exists()
    csv_text = (out / "count.csv").read_text()
    assert csv_text.splitlines()[0] == "B,count"


def test_census_reproducible(capsys, data_dir):
    args = ("census", "--surface", str(data_dir / "fermat.cubic"),
            "--line-height", "1", "--B", "50")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["results"]["counts"][0] >= 1


ROOT = Path(__file__).resolve().parent.parent
# README command-line examples; tests/golden holds the JSON each must print,
# byte for byte
README_EXAMPLES = {
    "primes": "primes --x-max 1e5",
    "hs": "hs --d 2 --mu 1 --m-max 10000",
    "classify": "classify --surface data/fermat.cubic",
    "cayley": "cayley --curve data/conic_p3.txt",
    "pencil": "pencil --surface data/fermat.cubic --line-height 1",
    "census": "census --surface data/fermat.cubic --line-height 1 --B 100,400",
    "count": "count --curve data/conic.txt --B 2,8,32",
    "aux": "aux --curve data/line_p2.txt --B 1",
    "verify": "verify --surface data/fermat.cubic --line-height 1 --B 16,32,64 --affine",
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_golden_json(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the reports echo the relative input paths
    code, out = run_cli(capsys, *README_EXAMPLES[name].split())
    assert code == 0
    assert out == (ROOT / "tests" / "golden" / f"{name}.json").read_text()
