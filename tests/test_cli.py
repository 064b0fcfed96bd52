import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinwehrl import channels, cli, entropy, fock, majorize, su2
from spinwehrl.cli import CliError, load_state_file, main, parse_half_integer
from spinwehrl.coherent import coherent_state
from spinwehrl.errors import DecompositionError
from spinwehrl.su2 import SphereDirection, SpinLabel, random_pure


def write_json_state(path, psi):
    payload = {
        "twice_l": psi.spin.twice_l,
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def write_csv_state(path, psi):
    lines = ["l,m,re,im"]
    for m, a in zip(psi.spin.m_values(), psi.amplitudes):
        lines.append(f"{psi.spin.l},{m},{a.real},{a.imag}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_parse_half_integer():
    assert parse_half_integer("1/2").twice_l == 1
    assert parse_half_integer("0.5").twice_l == 1
    assert parse_half_integer("3").twice_l == 6
    with pytest.raises(CliError):
        parse_half_integer("0.3")


def test_load_state_json_and_csv(tmp_path):
    psi = coherent_state(SpinLabel(3), SphereDirection(1.0, 0.3))
    a = load_state_file(write_json_state(tmp_path / "s.json", psi))
    b = load_state_file(write_csv_state(tmp_path / "s.csv", psi))
    assert np.allclose(a.amplitudes, psi.amplitudes, atol=1e-12)
    assert np.allclose(b.amplitudes, psi.amplitudes, atol=1e-12)


def test_load_state_rejects_unnormalized(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"twice_l": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
    with pytest.raises(CliError):
        load_state_file(str(p))
    psi = load_state_file(str(p), normalize=True)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)


def test_entropy_command_wehrl(tmp_path, capsys):
    psi = coherent_state(SpinLabel(2), SphereDirection(0.6, 0.1))
    path = write_json_state(tmp_path / "c.json", psi)
    code = main(["entropy", "--state", path, "--which", "wehrl"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "entropy"
    assert report["results"]["value"] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_entropy_command_projection_shift(tmp_path, capsys):
    psi = coherent_state(SpinLabel(1), SphereDirection(0.0, 0.0))
    path = write_json_state(tmp_path / "c.json", psi)
    code = main(["entropy", "--state", path, "--which", "projection:1/2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # pair projection of a pure spin-1/2 state: spectrum (2/3, 1/3)
    expected = -(2 / 3) * np.log(2 / 3) - (1 / 3) * np.log(1 / 3)
    assert report["results"]["value"] == pytest.approx(expected, abs=1e-10)
    assert report["results"]["shift"] == pytest.approx(np.log(2 / 3), abs=1e-12)


def test_entropy_command_csv_format(tmp_path, capsys):
    psi = coherent_state(SpinLabel(2), SphereDirection(0.2, 0.0))
    path = write_json_state(tmp_path / "c.json", psi)
    assert main(["entropy", "--state", path, "--which", "vonneumann", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "key,value"


def test_entropy_missing_file_exit_code(capsys):
    assert main(["entropy", "--state", "/nonexistent.json", "--which", "wehrl"]) == 1


def test_figure_projection_csv(tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    code = main(["figure-projection", "--twice-l", "2", "--samples", "5",
                 "--j-list", "1,10", "--seed", "0", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "index,S_W,S_pro_shifted_j1,gap_j1,S_pro_shifted_j10,gap_j10"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        # shift inequality: every gap column is nonnegative
        assert float(cells[3]) >= -1e-9
        assert float(cells[5]) >= -1e-9
    # determinism: identical seed gives identical bytes
    out_file2 = tmp_path / "fig2.csv"
    main(["figure-projection", "--twice-l", "2", "--samples", "5",
          "--j-list", "1,10", "--seed", "0", "--out", str(out_file2)])
    assert out_file.read_text() == out_file2.read_text()


def test_figure_projection_matches_dense_recomputation(tmp_path):
    # the banded batch against the per-state dense dual Gram route
    out_file = tmp_path / "fig.csv"
    assert main(["figure-projection", "--twice-l", "2", "--samples", "8",
                 "--j-list", "1/2,10,100", "--seed", "7", "--out", str(out_file)]) == 0
    with out_file.open() as fh:
        rows = list(csv.DictReader(fh))
    l = SpinLabel(2)
    rng = np.random.default_rng(7)
    for row in rows:
        psi = random_pure(l, rng)
        s_w = entropy.wehrl_pure(psi)
        assert abs(float(row["S_W"]) - s_w) < 1e-12
        for tag, j in (("1over2", SpinLabel(1)), ("10", SpinLabel(20)), ("100", SpinLabel(200))):
            dual = entropy.clamped_spectrum(channels.projection_dual_gram(psi, j))
            shifted = entropy.entropy_of_spectrum(dual) + channels.projection_shift(l, j)
            assert abs(float(row[f"S_pro_shifted_j{tag}"]) - shifted) < 1e-12
            assert abs(float(row[f"gap_j{tag}"]) - (s_w - shifted)) < 1e-12


def test_figure_projection_memory_stays_with_the_chunk(tmp_path):
    # amplitudes and density matrices are drawn and evaluated _SAMPLE_CHUNK
    # states at a time and each row is written as it comes, so five chunks
    # peak about where one does; the first chunk's rows do not change
    peaks, texts = [], []
    for samples in (cli._SAMPLE_CHUNK, 5 * cli._SAMPLE_CHUNK):
        out_file = tmp_path / f"fig{samples}.csv"
        argv = ["figure-projection", "--twice-l", "1", "--samples", str(samples),
                "--j-list", "1", "--seed", "2", "--out", str(out_file)]
        tracemalloc.start()
        assert main(argv) == 0
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        texts.append(out_file.read_text().splitlines())
    assert peaks[1] < 1.5 * peaks[0], peaks
    assert len(texts[1]) == 5 * cli._SAMPLE_CHUNK + 1
    assert texts[1][:len(texts[0])] == texts[0]


def test_scan_conjecture_wehrl(tmp_path, capsys):
    code = main(["scan-conjecture", "--objective", "wehrl", "--twice-l", "1",
                 "--samples", "20", "--restarts", "2", "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["counterexample"] is False
    assert out["results"]["optimizer_minimum"] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("objective,twice_l", [("wehrl", 3), ("projection:10", 2), ("angular", 2)])
def test_scan_conjecture_samples_from_batch_routes(objective, twice_l, capsys):
    # the samples are drawn in the same order as before and valued by the
    # batched routes, which agree with the optimizer's search function
    main(["scan-conjecture", "--objective", objective, "--twice-l", str(twice_l),
          "--samples", "40", "--restarts", "1", "--seed", "6"])
    sample_min = json.loads(capsys.readouterr().out)["results"]["sample_minimum"]
    l = SpinLabel(twice_l)
    rng = np.random.default_rng(6)
    amp = np.array([random_pure(l, rng).amplitudes for _ in range(40)])
    parsed = cli._parse_objective(objective)
    search = majorize.objective_fn(l, parsed)
    assert abs(sample_min - min(cli._sample_values(l, parsed, amp))) < 1e-12
    assert abs(sample_min - min(search(np.concatenate([a.real, a.imag]))[0] for a in amp)) < 1e-12


def test_entropy_command_renyi_coherent_off_pole(tmp_path, capsys):
    # [DERIVED] coherent state: M_3 = (2l+1)/(6l+1) = 5/13 at twice_l = 4;
    # off the pole, every ring coefficient is nonzero
    path = write_json_state(tmp_path / "coh.json", coherent_state(SpinLabel(4), SphereDirection(1.1, 0.7)))
    assert main(["entropy", "--state", path, "--which", "renyi:3"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["moment"] == pytest.approx(5 / 13, abs=1e-12)


def test_entropy_command_renyi_level_guard(tmp_path, capsys):
    path = write_json_state(tmp_path / "coh.json", coherent_state(SpinLabel(4), SphereDirection(1.1, 0.7)))
    assert main(["entropy", "--state", path, "--which", "renyi:5000"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_sun_clone_command(capsys):
    code = main(["sun", "--modes", "2", "--bosons", "1", "--copies", "1",
                 "--mode", "clone"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["results"]["spectrum"], [2 / 3, 1 / 3, 0.0], atol=1e-10)


def _not_reached(*args, **kwargs):
    raise AssertionError("the dense cloning output was built")


def test_sun_clone_command_prints_the_closed_form(capsys, monkeypatch):
    # dim H(5, 12) = 1820 with 210 Kraus operators: the dense route took 14 s
    monkeypatch.setattr(fock, "apply_cloning", _not_reached)
    code = main(["sun", "--modes", "5", "--bosons", "6", "--copies", "6", "--mode", "clone"])
    assert code == 0
    spectrum = json.loads(capsys.readouterr().out)["results"]["spectrum"]
    assert len(spectrum) == 1820
    assert sum(spectrum) == pytest.approx(1.0, abs=1e-12)


def test_sun_majorize_command(capsys):
    code = main(["sun", "--modes", "2", "--bosons", "2", "--copies", "1",
                 "--mode", "majorize", "--samples", "30", "--seed", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["violations"] == 0


def test_sun_decompose_command(capsys):
    code = main(["sun", "--modes", "2", "--bosons", "1", "--copies", "1",
                 "--mode", "decompose"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["results"]["coefficients"], [1 / 3, 2 / 3], atol=1e-9)


@pytest.mark.parametrize("mode,n,m,k", [
    # C(1200, 600) ~ 1e359 in the coherent spectrum, 1030! in the condensate,
    # C(1100, 550) ~ 1e330 in the gather weights: each overflowed a float
    ("clone", 2, 600, 600),
    ("prepare", 2, 1030, 1),
    ("majorize", 2, 0, 1100),
])
def test_sun_weights_past_a_float_range(mode, n, m, k, capsys):
    code = main(["sun", "--modes", str(n), "--bosons", str(m), "--copies", str(k),
                 "--mode", mode, "--samples", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    results = json.loads(captured.out)["results"]
    spectrum = results["coherent_spectrum" if mode == "majorize" else "spectrum"]
    assert abs(sum(spectrum) - 1) <= 1e-9
    assert results.get("violations", 0) == 0


def test_sun_report_names_the_eps_it_used(capsys, monkeypatch):
    monkeypatch.setattr(fock, "MAJORIZATION_EPS", 0.25)
    main(["sun", "--modes", "2", "--bosons", "1", "--copies", "1", "--mode", "majorize", "--samples", "2"])
    assert json.loads(capsys.readouterr().out)["tolerances"] == {"eps": 0.25}


def test_bad_usage_exit_code(capsys):
    assert main(["entropy", "--state"]) == 1
    assert main(["nonsense"]) == 1


def test_csv_state_error_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("l,m,re,im\n0.5,0.5,1.0,0.0\n0.5,bogus,0.0,0.0\n")
    with pytest.raises(CliError) as err:
        load_state_file(str(p))
    assert "line 3" in str(err.value)


def _failed_fit(*args, **kwargs):
    raise DecompositionError("decomposition residual 1e-3 exceeds 1e-9")


def _not_before_guard(*args, **kwargs):
    raise AssertionError("called before the guard was checked")


def _log_factorials_up_to(limit: int):
    """`su2.log_factorials` for tables up to ln limit!, enough for the input
    space's condensate; a larger one is a gather table built before the guard."""
    def table(n):
        if n > limit:
            raise AssertionError(f"ln {n}! read before the guard was checked")
        return su2.log_factorials(n)
    return table


@pytest.mark.parametrize("argv,code,patch", [
    (["figure-projection", "--twice-l", "-1"], 1, None),
    (["figure-projection", "--twice-l", "2", "--samples", "-1"], 1, None),
    (["figure-projection", "--twice-l", "9"], 3, None),
    (["figure-projection", "--twice-l", "2", "--j-list", "101"], 3, None),
    (["scan-conjecture", "--objective", "wehrl", "--twice-l", "-2"], 1, None),
    (["scan-conjecture", "--objective", "wehrl", "--twice-l", "2", "--samples", "0"], 1, None),
    (["scan-conjecture", "--objective", "wehrl", "--twice-l", "2", "--restarts", "0"], 1, None),
    (["scan-conjecture", "--objective", "angular", "--twice-l", "0"], 1, None),
    # the optimizer limit is checked before any sample is drawn
    (["scan-conjecture", "--objective", "wehrl", "--twice-l", "17"], 3, None),
    # so is the projection j <= 100, before the search is built
    (["scan-conjecture", "--objective", "projection:101", "--twice-l", "2"], 3,
     [(cli, "random_pure", _not_before_guard), (majorize, "objective_fn", _not_before_guard)]),
    # both commands read the one limit
    (["figure-projection", "--twice-l", "2", "--j-list", "1"], 3,
     [(channels, "MAX_PROJECTION_TWICE_J", 1)]),
    (["scan-conjecture", "--objective", "projection:1", "--twice-l", "2"], 3,
     [(channels, "MAX_PROJECTION_TWICE_J", 1)]),
    (["sun", "--modes", "0", "--bosons", "1", "--copies", "1", "--mode", "clone"], 1, None),
    (["sun", "--modes", "2", "--bosons", "-1", "--copies", "1", "--mode", "clone"], 1, None),
    (["sun", "--modes", "2", "--bosons", "1", "--copies", "-1", "--mode", "majorize"], 1, None),
    # pure states reach the quadrature only through the residual fallback,
    # so every state is sent there and the quadrature is capped at one level
    (["figure-projection", "--twice-l", "2", "--samples", "2", "--j-list", "1"], 3,
     [(entropy, "EXACT_RESIDUAL_TOL", 0.0), (entropy, "MAX_N_THETA", 32)]),
    (["sun", "--modes", "2", "--bosons", "1", "--copies", "1", "--mode", "decompose"], 3,
     [(fock, "decompose_measure_prepare", _failed_fit)]),
    # H(6, 14) has dimension 11628: the cloning guard fires before the gather
    # table or the coherent spectrum is built
    (["sun", "--modes", "6", "--bosons", "6", "--copies", "8", "--mode", "majorize"], 3,
     [(fock, "log_factorials", _not_before_guard),
      (fock, "coherent_cloning_spectrum", _not_before_guard)]),
    # prepare and decompose hold the same output guard, also before any table
    (["sun", "--modes", "6", "--bosons", "6", "--copies", "8", "--mode", "prepare"], 3,
     [(fock, "log_factorials", _log_factorials_up_to(6))]),
    (["sun", "--modes", "6", "--bosons", "6", "--copies", "8", "--mode", "decompose"], 3,
     [(fock, "log_factorials", _not_before_guard)]),
    # the gather tables of 9591 x 9591 and 5000 x 10000 entries pass the
    # output guard, and their byte guard fires before their weights are read
    (["sun", "--modes", "3", "--bosons", "0", "--copies", "137", "--mode", "prepare"], 3,
     [(fock, "log_factorials", _log_factorials_up_to(0))]),
    (["sun", "--modes", "2", "--bosons", "5000", "--copies", "4999", "--mode", "majorize"], 3,
     [(fock, "log_factorials", _not_before_guard)]),
    # dim H(1, M) = 1 passes both guards above, and the ln i! table up to
    # M = 5e7 is refused before it grows: in the condensate of prepare and
    # beside the gather table of majorize
    (["sun", "--modes", "1", "--bosons", "50000000", "--copies", "1", "--mode", "prepare"], 3,
     [(fock, "log_factorials", _not_before_guard)]),
    (["sun", "--modes", "1", "--bosons", "50000000", "--copies", "1", "--mode", "majorize"], 3,
     [(fock, "log_factorials", _not_before_guard)]),
])
def test_error_exit_codes(argv, code, patch, monkeypatch, capsys):
    for target in patch or ():
        monkeypatch.setattr(*target)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("twice_l,which,patch,message", [
    # the exact Wehrl grid at twice_l = 1000 would take 30 GiB
    (1000, "wehrl", (entropy, "amplitude_grid"), "exact Wehrl grid"),
    # the band table at j = 100 would take 27 GiB
    (1000, "projection:100", (channels, "_band_weights"), "projection band"),
    # j = 1000 is refused by the limit figure-projection and the optimizer share
    (1000, "projection:1000", (channels, "_band_weights"), "j <= 100"),
    (400, "projection:1000", (channels, "_band_weights"), "j <= 100"),
])
def test_entropy_guards_fire_before_allocation(twice_l, which, patch, message, tmp_path, monkeypatch, capsys):
    path = write_json_state(tmp_path / "big.json", random_pure(SpinLabel(twice_l), np.random.default_rng(0)))
    monkeypatch.setattr(*patch, _not_before_guard)
    assert main(["entropy", "--state", path, "--which", which]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert message in err


_NO_SCIPY_SCRIPT = """
import json, sys
import spinwehrl, spinwehrl.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = {"import": scipy_modules()}
assert spinwehrl.cli.main(["entropy", "--state", sys.argv[1], "--which", "wehrl"]) == 0
loaded["entropy"] = scipy_modules()
assert spinwehrl.cli.main(["sun", "--modes", "3", "--bosons", "2", "--copies", "2", "--mode", "majorize",
                           "--samples", "20"]) == 0
loaded["sun"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_package_and_light_commands_load_no_scipy(tmp_path):
    # scipy costs several times numpy's import; only the banded eigensolve,
    # the optimizer and expm load it, so a fresh interpreter that imports the
    # package and runs a Wehrl entropy and a majorization test holds none of it
    path = write_json_state(tmp_path / "psi.json", random_pure(SpinLabel(3), np.random.default_rng(2)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, path], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == {"import": [], "entropy": [], "sun": []}


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    calls = [
        ["sun", "--modes", "3", "--bosons", "2", "--copies", "2", "--mode", "majorize",
         "--samples", "20", "--seed", "4"],
        ["sun", "--modes", "0", "--bosons", "1", "--copies", "1", "--mode", "clone"],
        ["scan-conjecture", "--objective", "wehrl", "--twice-l", "2", "--samples", "3",
         "--restarts", "1", "--seed", "5"],
    ]

    def run_all():
        outputs = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            report = json.loads(captured.out) if captured.out else None
            if report:
                report.pop("timing_s")
            outputs.append((code, report, captured.err))
        return outputs

    cli.build_parser.cache_clear()
    cached = run_all()
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in cached] == [0, 1, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a fresh parser per call
    assert run_all() == cached
