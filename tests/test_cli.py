"""CLI subcommands: JSON records, CSV sweeps, exit codes and units."""

import json
import math

import numpy as np
import pytest

from fadecap.cli import main, parse_distribution_spec, parse_snr_grid, UsageError

LN2 = math.log(2.0)


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


class TestGapsCommand:
    def test_miso22_reference_values(self, capsys):
        code, out, _ = run(capsys, ["gaps", "--dist", "miso:N=2,K=2"])
        assert code == 0
        record = json.loads(out)
        assert record["units"] == "bits"
        assert record["gap_oa_ci"] == pytest.approx(0.24928, abs=5e-4)
        assert record["gap_awgn_ci"] == pytest.approx(0.45943, abs=5e-4)

    def test_gamma2_closed_forms_included(self, capsys):
        _, out, _ = run(capsys, ["gaps", "--dist", "gamma:N=2"])
        record = json.loads(out)
        assert record["gap_awgn_ci"] == pytest.approx(1.0, abs=1e-6)
        assert record["closed_form"]["expansion_awgn_ci"] == pytest.approx(1.0 / LN2)

    def test_degenerate_inversion_marked_infinite(self, capsys):
        code, out, _ = run(capsys, ["gaps", "--dist", "gamma:N=1"])
        assert code == 0
        record = json.loads(out)
        assert record["gap_oa_ci"] == "inf"
        assert record["gap_awgn_ci"] == "inf"

    def test_frechet_closed_form(self, capsys):
        _, out, _ = run(capsys, ["gaps", "--dist", "frechet:alpha=2,K=4", "--units", "nats"])
        record = json.loads(out)
        assert record["closed_form"]["gap_awgn_ci"] == pytest.approx(
            math.log(math.pi / 2.0), abs=1e-9
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
