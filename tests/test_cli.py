"""CLI subcommands: JSON records, CSV sweeps, exit codes and units."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fadecap import distributions, schemes
from fadecap.cli import (
    MAX_SNR_GRID_POINTS,
    UsageError,
    main,
    parse_distribution_spec,
    parse_snr_grid,
)
from fadecap.numerics import QuadratureError, QuadResult

# perfbench/oracles.py and workloads.py; pyproject.toml puts perfbench/ on the path
import oracles
import workloads

LN2 = math.log(2.0)
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_sweep(path):
    rows = []
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return rows


class TestSpecParsing:
    def test_kinds_and_aliases(self):
        assert parse_distribution_spec("gamma:N=2").kind == "gamma_diversity"
        assert parse_distribution_spec("maxexp:K=4").kind == "max_exponential"
        assert parse_distribution_spec("miso:N=2,K=2").parameters == {"N": 2, "K": 2}
        assert parse_distribution_spec("frechet:alpha=2,K=4").parameters == {
            "alpha": 2.0,
            "K": 4,
        }

    def test_malformed_specs(self):
        for bad in ("nakagami:m=2", "gamma:N", "gamma:N=two", "gamma:bogus=1"):
            with pytest.raises(UsageError):
                parse_distribution_spec(bad)

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run(
            capsys, ["capacity", "--dist", "gamma", "--scheme", "ci", "--snr-db", "0"]
        )
        assert code == 2
        assert "needs parameter" in err

    def test_snr_grid(self):
        assert parse_snr_grid("0") == [0.0]
        assert parse_snr_grid("-10:40:10") == [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0]
        with pytest.raises(UsageError):
            parse_snr_grid("10:0:1")
        with pytest.raises(UsageError):
            parse_snr_grid("0:10:0")

    @pytest.mark.parametrize("grid", ["0:inf:1", "-inf:0:1", "0:10:inf", "nan:10:1"])
    def test_non_finite_grid_exits_2(self, capsys, grid):
        code, out, err = run(
            capsys,
            ["sweep", "--dist", "gamma:N=2", "--schemes", "ci", f"--snr-db={grid}"],
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    # 1e18 points; a span that overflows to inf; a stop - start that does
    @pytest.mark.parametrize("grid", ["0:1e9:1e-9", "0:1e300:1e-300", "-1e308:1e308:1"])
    def test_oversized_grid_exits_2(self, capsys, grid):
        code, out, err = run(
            capsys,
            ["sweep", "--dist", "gamma:N=2", "--schemes", "ci", f"--snr-db={grid}"],
        )
        assert code == 2
        assert out == ""
        assert "points" in err

    def test_grid_size_cap_is_inclusive(self):
        cap = MAX_SNR_GRID_POINTS
        assert len(parse_snr_grid(f"0:{cap - 1}:1")) == cap
        with pytest.raises(UsageError, match="points"):
            parse_snr_grid(f"0:{cap}:1")

    @pytest.mark.parametrize("command", ["capacity", "mc"])
    def test_overflowing_snr_exits_2(self, capsys, command):
        # 10^(4000/10) is beyond the largest float
        code, out, err = run(
            capsys,
            [command, "--dist", "gamma:N=2", "--scheme", "ra", "--snr-db", "4000"],
        )
        assert code == 2
        assert out == ""
        assert "overflows" in err


class TestCapacityCommand:
    def test_ci_gamma2(self, capsys):
        code, out, _ = run(
            capsys, ["capacity", "--dist", "gamma:N=2", "--scheme", "ci", "--snr-db", "0"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["capacity_nats"] == pytest.approx(0.6931, abs=1e-4)
        assert record["capacity_bits"] == pytest.approx(1.0, abs=1e-6)

    def test_oa_beats_awgn_deep_low_snr(self, capsys):
        _, out_oa, _ = run(
            capsys,
            ["capacity", "--dist", "miso:N=2,K=2", "--scheme", "oa", "--snr-db=-30"],
        )
        _, out_awgn, _ = run(
            capsys,
            ["capacity", "--dist", "miso:N=2,K=2", "--scheme", "awgn", "--snr-db=-30"],
        )
        assert json.loads(out_oa)["capacity_nats"] > json.loads(out_awgn)["capacity_nats"]

    def test_law_whose_integral_does_not_converge_exits_2(self, capsys, monkeypatch):
        def failing(alpha, K):
            raise QuadratureError("did not converge\n  after 50 subdivisions",
                                  QuadResult(math.nan, math.inf, 21))

        monkeypatch.setattr(distributions, "make_frechet", failing)
        code, out, err = run(capsys, ["gaps", "--dist", "frechet:alpha=0.3,K=4"])
        assert code == 2
        assert out == ""
        assert err == "error: did not converge after 50 subdivisions\n"

    def test_malformed_dist_exits_2(self, capsys):
        code, _, err = run(
            capsys, ["capacity", "--dist", "gamma:N", "--scheme", "ci", "--snr-db", "0"]
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "scheme, snr_db",
        [("ra", "inf"), ("oa", "inf"), ("ctci:zt=nan", "0"), ("ctci:zt=inf", "0")],
    )
    def test_non_finite_input_exits_2(self, capsys, scheme, snr_db):
        code, out, err = run(
            capsys,
            ["capacity", "--dist", "gamma:N=2", "--scheme", scheme, "--snr-db", snr_db],
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_tci_without_threshold_exits_2(self, capsys):
        code, _, _ = run(
            capsys, ["capacity", "--dist", "gamma:N=2", "--scheme", "tci", "--snr-db", "0"]
        )
        assert code == 2

    def test_threshold_in_snr_units(self, capsys):
        # gamma-units: z_t = gamma_t / S; at 10 dB gamma_t=5 is z_t=0.5
        _, out_gamma, _ = run(
            capsys,
            [
                "capacity", "--dist", "gamma:N=2", "--scheme", "tci", "--snr-db", "10",
                "--zt", "5", "--zt-units", "gamma",
            ],
        )
        _, out_z, _ = run(
            capsys,
            [
                "capacity", "--dist", "gamma:N=2", "--scheme", "tci", "--snr-db", "10",
                "--zt", "0.5",
            ],
        )
        assert json.loads(out_gamma)["capacity_nats"] == pytest.approx(
            json.loads(out_z)["capacity_nats"], rel=1e-12
        )


# Run in a fresh interpreter: builds one law of each kind and gamma:N=1,
# gamma:N=64 and miso:N=64,K=4, sweeps the six default schemes and tci:opt
# on gamma:N=2 and a tabulated law and runs `verify --level fast` on both,
# then prints every scipy module it holds: none of that needs scipy.
FRESH_SWEEP = """
import contextlib, io, sys
import fadecap.cli as cli
tab = "tab:path=" + sys.argv[1]
for spec in ("gamma:N=2", "maxexp:K=4", "miso:N=2,K=2", "frechet:alpha=0.8", tab,
             "gamma:N=1", "gamma:N=64", "miso:N=64,K=4"):
    cli.parse_distribution_spec(spec).build()
for spec in ("gamma:N=2", tab):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--dist", spec, "--schemes",
                         "awgn,oa,ra,ci,tci:zt=1,ctci:zt=1", "--snr-db=-60:90:5"]) == 0
        assert cli.main(["sweep", "--dist", spec, "--schemes", "ci,tci:zt=1,tci:opt",
                         "--snr-db=0:30:5"]) == 0
        assert cli.main(["verify", "--dist", spec, "--level", "fast"]) == 0
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_builds_and_default_sweeps_import_no_quadrature_or_optimizer(tmp_path):
    # fadecap evaluates its special functions itself and imports
    # scipy.integrate only for QUADPACK's T on a law without a closed form:
    # no law construction, no sweep (tci:opt included) and no fast check on
    # a law with a closed-form T needs any scipy module
    tab3 = tmp_path / "tab3.csv"
    tab3.write_text("".join(f"{z!r},{p!r}\n" for z, p in workloads.tab_grid(3)),
                    encoding="utf-8")
    src = str(Path(distributions.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", FRESH_SWEEP, str(tab3)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


class TestSweepCommand:
    def test_reference_curves(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, _, _ = run(
            capsys,
            [
                "sweep", "--dist", "miso:N=2,K=2", "--schemes", "awgn,oa,ra,ci",
                "--snr-db=-10:40:5", "--out", str(out),
            ],
        )
        assert code == 0
        rows = read_sweep(out)
        at40 = {r["scheme"]: float(r["capacity"]) for r in rows if r["snr_db"] == "40"}
        assert at40["awgn"] > at40["oa"] > at40["ci"]
        assert at40["oa"] >= at40["ra"]
        assert at40["oa"] - at40["ra"] < 0.02  # bits

    def test_inversion_curves_cross(self, capsys, tmp_path):
        # fixed-threshold truncated inversion wins at low SNR, plain
        # inversion wins at high SNR
        out = tmp_path / "fig3.csv"
        code, _, _ = run(
            capsys,
            [
                "sweep", "--dist", "miso:N=2,K=2", "--schemes", "ci,tci:zt=2",
                "--snr-db=-10:30:40", "--out", str(out),
            ],
        )
        assert code == 0
        rows = read_sweep(out)
        lo = {r["scheme"]: float(r["capacity"]) for r in rows if r["snr_db"] == "-10"}
        hi = {r["scheme"]: float(r["capacity"]) for r in rows if r["snr_db"] == "30"}
        assert lo["tci"] > lo["ci"]
        assert hi["tci"] < hi["ci"]

    def test_grid_major_ordering_and_columns(self, capsys, tmp_path):
        out = tmp_path / "order.csv"
        run(
            capsys,
            [
                "sweep", "--dist", "gamma:N=2", "--schemes", "ra,ci",
                "--snr-db", "0:10:10", "--out", str(out),
            ],
        )
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "snr_db,scheme,capacity,z_t,d_max"
        assert [l.split(",")[:2] for l in lines[1:]] == [
            ["0", "ra"], ["0", "ci"], ["10", "ra"], ["10", "ci"],
        ]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "sweep", "--dist", "maxexp:K=2", "--schemes", "oa,tci:zt=1",
            "--snr-db", "0:20:5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, args + ["--out", str(a)])
        run(capsys, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fixture, args", [
        ("sweep_miso22_six_schemes.csv",
         ["--dist", "miso:N=2,K=2", "--schemes", "awgn,oa,ra,ci,tci:zt=1,ctci:zt=1",
          "--snr-db=-10:40:1"]),
        ("sweep_gamma2_oa_ctci.csv",
         ["--dist", "gamma:N=2", "--schemes", "oa,ctci:zt=0.3,ctci:zt=1,ctci:zt=3",
          "--snr-db=-60:90:1"]),
        ("sweep_tab3_six_schemes.csv",
         ["--dist", "tab:path={tab3}", "--schemes", "awgn,oa,ra,ci,tci:zt=1,ctci:zt=1",
          "--snr-db=-60:90:5"]),
        ("sweep_miso22_tci_opt.csv",
         ["--dist", "miso:N=2,K=2", "--schemes", "tci:opt,tci:zt=1,ctci:zt=1",
          "--snr-db=-60:90:5"]),
        ("sweep_tab3_tci_opt.csv",
         ["--dist", "tab:path={tab3}", "--schemes", "tci:opt,tci:zt=1,ctci:zt=1",
          "--snr-db=-60:90:5"]),
    ])
    def test_default_output_matches_golden_file(self, capsys, tmp_path, fixture, args):
        # the miso and gamma files were written before OA took its capacity
        # from the cutoff solve and CTCI its region below the cutoff from the
        # survival table, the tabulated one before T and the moments of a
        # tabulated law were summed in floats, the miso tci:opt one before a
        # law memoized T and the tabulated tci:opt one before its survival
        # function and CDF read floats from lists; the default output keeps
        # every byte
        tab3 = tmp_path / "tab3.csv"
        tab3.write_text("".join(f"{z!r},{p!r}\n" for z, p in workloads.tab_grid(3)),
                        encoding="utf-8")
        args = [arg.format(tab3=tab3) for arg in args]
        out = tmp_path / fixture
        code, _, _ = run(capsys, ["sweep", *args, "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / fixture).read_bytes()

    def test_optimized_thresholds_print_the_oracle_digits(self, capsys, tmp_path):
        # every z_t that a tci:opt sweep prints is the 30-digit optimum's
        # to the six digits printed
        out = tmp_path / "tci_opt.csv"
        code, _, _ = run(capsys, ["sweep", "--dist", "gamma:N=2", "--schemes", "tci:opt",
                                  "--snr-db=-30:60:10", "--out", str(out)])
        assert code == 0
        rows = read_sweep(out)
        bracket = schemes._default_threshold_bracket(parse_distribution_spec("gamma:N=2").build())
        assert [r["snr_db"] for r in rows] == [str(db) for db in range(-30, 70, 10)]
        for row in rows:
            S = 10.0 ** (int(row["snr_db"]) / 10.0)
            with mp.workdps(oracles.DPS):
                z_t, _ = oracles.tci_best(oracles.gamma2_law(), S, bracket.lo, bracket.hi)
            assert row["z_t"] == f"{float(z_t):.6g}", row

    def test_bits_are_formatted_nats_over_log2(self, capsys, tmp_path):
        bits, nats = tmp_path / "bits.csv", tmp_path / "nats.csv"
        base = [
            "sweep", "--dist", "gamma:N=2", "--schemes", "ra,awgn",
            "--snr-db", "0:10:5",
        ]
        run(capsys, base + ["--units", "bits", "--out", str(bits)])
        run(capsys, base + ["--units", "nats", "--out", str(nats)])
        for row_b, row_n in zip(read_sweep(bits), read_sweep(nats)):
            # both columns are the same full-precision nats value put
            # through its unit conversion and then %.6f; recovering bits
            # from the rounded nats column costs one rounding step
            expected = float(row_n["capacity"]) / LN2
            assert abs(float(row_b["capacity"]) - expected) <= 1.5e-6

    def test_empty_scheme_list_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            ["sweep", "--dist", "gamma:N=2", "--schemes", ",", "--snr-db", "0:10:5"],
        )
        assert code == 2

    def test_gamma_unit_thresholds_convert_per_point(self, capsys, tmp_path):
        out = tmp_path / "gamma_units.csv"
        run(
            capsys,
            [
                "sweep", "--dist", "gamma:N=2", "--schemes", "tci",
                "--zt", "10", "--zt-units", "gamma",
                "--snr-db", "0:20:10", "--out", str(out),
            ],
        )
        zts = [float(r["z_t"]) for r in read_sweep(out)]
        assert zts == [10.0, 1.0, 0.1]

    def test_optimized_threshold_token(self, capsys, tmp_path):
        out = tmp_path / "opt.csv"
        code, _, _ = run(
            capsys,
            [
                "sweep", "--dist", "gamma:N=2", "--schemes", "tci:opt",
                "--snr-db", "10:20:10", "--out", str(out),
            ],
        )
        assert code == 0
        rows = read_sweep(out)
        assert float(rows[1]["z_t"]) < float(rows[0]["z_t"])

    def test_optimized_threshold_without_channel_mass_above_a_grid_point_exits_2(self, capsys):
        # QUADPACK returns T = -6.5e-16 at the grid threshold 333306.6 of
        # this heavy-tailed law; the search rejects it as tci_dmax does,
        # before the first-order condition takes log1p(S/T)
        code, out, err = run(
            capsys,
            ["sweep", "--dist", "frechet:alpha=1.01,K=8", "--schemes", "tci:opt", "--snr-db", "0"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: no channel mass above threshold 333306.60858840955\n"


class TestGapsCommand:
    def test_miso22_reference_values(self, capsys):
        code, out, _ = run(capsys, ["gaps", "--dist", "miso:N=2,K=2"])
        assert code == 0
        record = json.loads(out)
        assert record["units"] == "bits"
        assert record["gap_oa_ci"] == pytest.approx(0.24928, abs=5e-4)
        assert record["gap_awgn_ci"] == pytest.approx(0.45943, abs=5e-4)

    def test_gamma2_matches_closed_forms(self, capsys):
        # space diversity, N = 2: gap(OA, CI) = psi(2) = 1 - gamma_em nats,
        # gap(AWGN, CI) = log 2 nats = 1 bit
        _, out, _ = run(capsys, ["gaps", "--dist", "gamma:N=2"])
        record = json.loads(out)
        assert "closed_form" not in record
        assert record["gap_awgn_ci"] == pytest.approx(1.0, rel=1e-14)
        assert record["gap_oa_ci"] == pytest.approx((1.0 - np.euler_gamma) / LN2, rel=1e-14)

    def test_degenerate_inversion_marked_infinite(self, capsys):
        code, out, _ = run(capsys, ["gaps", "--dist", "gamma:N=1"])
        assert code == 0
        record = json.loads(out)
        assert record["gap_oa_ci"] == "inf"
        assert record["gap_awgn_ci"] == "inf"

    def test_frechet_closed_form(self, capsys):
        # alpha = 2: gap(AWGN, CI) = log(Gamma(1/2) Gamma(3/2)) = log(pi/2),
        # gap(OA, CI) = gamma_em/2 + log Gamma(3/2); K cancels from both
        _, out, _ = run(capsys, ["gaps", "--dist", "frechet:alpha=2,K=4", "--units", "nats"])
        record = json.loads(out)
        assert "closed_form" not in record
        assert record["gap_awgn_ci"] == pytest.approx(math.log(math.pi / 2.0), rel=1e-14)
        assert record["gap_oa_ci"] == pytest.approx(
            0.5 * np.euler_gamma + math.lgamma(1.5), rel=1e-14
        )


class TestMcCommand:
    def test_reproducible_estimate(self, capsys):
        args = [
            "mc", "--dist", "gamma:N=2", "--scheme", "ra", "--snr-db", "0",
            "--samples", "20000", "--seed", "11",
        ]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2
        record = json.loads(out1)
        assert record["power_mean"] == 1.0

    def test_threshold_in_snr_units(self, capsys):
        # at 10 dB, S = 10 and gamma_t = 5 is z_t = 0.5 exactly
        base = [
            "mc", "--dist", "gamma:N=2", "--scheme", "ctci", "--snr-db", "10",
            "--samples", "20000", "--seed", "3",
        ]
        _, out_gamma, _ = run(capsys, base + ["--zt", "5", "--zt-units", "gamma"])
        _, out_z, _ = run(capsys, base + ["--zt", "0.5"])
        assert out_gamma == out_z
        assert json.loads(out_z)["n_samples"] == 20000


# Recorded from `fadecap mc` with samplers that reduce through numpy's
# `.sum(axis=...)` and `.max(axis=...)`. A change to a law's sample stream
# shows up here; so does one to the OA cutoff solve or the CTCI d_max.
# The OA record was taken again when the cutoff moved to Newton in log z:
# its cutoff at 10 dB, 0.09523868923482734, is 6.4e-17 relative from the
# 30-digit oracle (Brent's, ...748, was 1.4e-15 off).
MC_RECORDS = [
    (
        ["--dist", "miso:N=2,K=2", "--scheme", "oa"],
        '{"scheme": "oa", '
        '"snr_db": 10.0, '
        '"mean_nats": 3.2178881935028296, '
        '"mean_bits": 4.642431338901678, '
        '"std_error_nats": 0.0012548497573128972, '
        '"n_samples": 200000, '
        '"seed": 7, '
        '"power_mean": 1.0000259776712306, '
        '"power_std_error": 8.202771782596007e-05, '
        '"degenerate": false}',
    ),
    (
        ["--dist", "gamma:N=2", "--scheme", "ctci", "--zt", "1"],
        '{"scheme": "ctci", '
        '"snr_db": 10.0, '
        '"mean_nats": 2.676392911630484, '
        '"mean_bits": 3.861218781079673, '
        '"std_error_nats": 0.0007689910160563903, '
        '"n_samples": 200000, '
        '"seed": 7, '
        '"power_mean": 1.0006391900059308, '
        '"power_std_error": 0.0010259038825941103, '
        '"degenerate": false}',
    ),
]


@pytest.mark.parametrize("flags, expected", MC_RECORDS, ids=["miso22-oa", "gamma2-ctci"])
def test_mc_output_is_byte_identical(capsys, flags, expected):
    argv = ["mc", *flags, "--snr-db", "10", "--samples", "200000", "--seed", "7"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == expected + "\n"


def test_mc_negative_seed_exits_2(capsys):
    argv = ["mc", "--dist", "gamma:N=2", "--scheme", "ra", "--snr-db", "10", "--seed", "-1"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be an integer >= 0, got -1\n"


class TestVerifyCommand:
    def test_fast_level_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--dist", "miso:N=2,K=2", "--level", "fast"])
        assert code == 0
        assert "PASS overall" in out
        assert "FAIL" not in out

    def test_tabulated_csv_full_level(self, capsys, tmp_path):
        z = np.linspace(0.0, 20.0, 200)
        path = tmp_path / "exp.csv"
        path.write_text(
            "z,pdf\n" + "\n".join(f"{zi},{math.exp(-zi)}" for zi in z), encoding="utf-8"
        )
        code, out, _ = run(capsys, ["verify", "--dist", f"tab:path={path}", "--level", "full"])
        assert code == 0, out
        assert "PASS mc_ra" in out

    def test_corrupt_csv_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,pdf\n0,1\noops,nan,extra\n", encoding="utf-8")
        code, _, err = run(capsys, ["verify", "--dist", f"tab:path={path}"])
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, ["verify", "--dist", f"tab:path={tmp_path / 'nope.csv'}"]
        )
        assert code == 2


class TestArgparseBehavior:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["capacity", "--scheme", "ci", "--snr-db", "0"]) == 2
