"""Command-line front end.

Subcommands:

* ``capacity`` -- one scheme at one SNR, printed as a JSON record.
* ``sweep``    -- capacities over a dB grid, written as CSV.
* ``gaps``     -- high-SNR gap report for a gain law (JSON).
* ``mc``       -- Monte-Carlo estimate of one capacity (JSON).
* ``verify``   -- run the invariant self-checks; exit 1 on failure.

Gain laws are given as ``kind:key=val,...`` mini-specs, e.g.
``gamma:N=2``, ``maxexp:K=4``, ``frechet:alpha=2,K=4``,
``miso:N=2,K=2`` or ``tab:path=law.csv``; an optional ``scale=c`` key
rescales the gain. SNR is in dB (single value, or ``start:stop:step``
for sweeps) and converts to linear average power internally. Capacities
are computed in nats and printed in bits by default.

Exit codes: 0 success, 1 failed invariant, 2 usage or format error, or a
law or point whose integral does not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import verify as verify_mod
from .asymptotics import gap_report
from .distributions import DISTRIBUTION_KINDS, DistributionSpec
from .mc import mc_capacity
from .numerics import QuadratureError
from .schemes import Scheme, capacity

LN2 = math.log(2.0)

# Most points a start:stop:step SNR grid may hold; a sweep computes every
# scheme at each of them.
MAX_SNR_GRID_POINTS = 100_000

_KIND_ALIASES = {
    **{kind: kind for kind in DISTRIBUTION_KINDS},
    "gamma": "gamma_diversity",
    "maxexp": "max_exponential",
    "miso": "miso_multiuser",
    "tab": "tabulated",
}

_INT_KEYS = {"N", "K"}
_FLOAT_KEYS = {"alpha", "scale"}


class UsageError(Exception):
    """Bad flags or malformed mini-spec strings (exit code 2)."""


def parse_distribution_spec(text: str) -> DistributionSpec:
    kind_raw, _, rest = text.partition(":")
    kind = _KIND_ALIASES.get(kind_raw.strip().lower())
    if kind is None:
        raise UsageError(
            f"unknown distribution kind {kind_raw!r}; "
            f"expected one of {sorted(set(_KIND_ALIASES))}"
        )
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise UsageError(f"malformed parameter {item!r} in {text!r}")
            try:
                if key in _INT_KEYS:
                    params[key] = int(value)
                elif key in _FLOAT_KEYS:
                    params[key] = float(value)
                elif key == "path":
                    params[key] = value.strip()
                else:
                    raise UsageError(f"unknown parameter {key!r} in {text!r}")
            except ValueError:
                raise UsageError(f"bad value for {key!r} in {text!r}") from None
    return DistributionSpec(kind=kind, parameters=params)


def parse_snr_grid(text: str) -> list[float]:
    """Single dB value, or inclusive start:stop:step of at most
    ``MAX_SNR_GRID_POINTS`` points."""
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"bad SNR grid {text!r}; use a number or start:stop:step") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"SNR grid {text!r} must be finite")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0.0:
        raise UsageError("SNR grid step must be positive")
    if start > stop:
        raise UsageError("SNR grid start must not exceed stop")
    # counted before the list is built; the span is inf when it overflows
    span = (stop - start) / step + 1e-9
    if not span < MAX_SNR_GRID_POINTS:
        raise UsageError(f"SNR grid {text!r} has more than {MAX_SNR_GRID_POINTS} points")
    return [start + i * step for i in range(int(span) + 1)]


def _parse_scheme_token(token: str, default_zt):
    """'oa', 'tci:zt=1.5', 'tci:opt', 'ctci:zt=2', ..."""
    name, _, option = token.partition(":")
    try:
        scheme = Scheme(name.strip().lower())
    except ValueError:
        raise UsageError(f"unknown scheme {name!r}") from None
    z_t = default_zt
    optimize = False
    if option:
        option = option.strip().lower()
        if option == "opt":
            optimize = True
        elif option.startswith("zt="):
            try:
                z_t = float(option[3:])
            except ValueError:
                raise UsageError(f"bad threshold in scheme token {token!r}") from None
        else:
            raise UsageError(f"unknown scheme option {option!r} in {token!r}")
    if scheme in (Scheme.TCI, Scheme.CTCI) and not optimize and z_t is None:
        raise UsageError(f"scheme {scheme.value} needs a threshold (zt=... or --zt)")
    if optimize and scheme is not Scheme.TCI:
        raise UsageError("':opt' threshold optimization applies to tci only")
    return scheme, z_t, optimize


def _json_safe(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def _emit_json(record: dict):
    print(json.dumps({k: _json_safe(v) for k, v in record.items()}))


def _operating_point(args, snr_db: float, z_t):
    """Average power S at snr_db, and the threshold z_t in effective-gain units.

    With ``--zt-units gamma`` the threshold is an instantaneous SNR
    gamma_t = z_t * S, so it is divided by S.
    """
    try:
        S = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise UsageError(f"SNR {snr_db:g} dB overflows the average power") from None
    if z_t is not None and args.zt_units == "gamma":
        z_t = z_t / S
    return S, z_t


def cmd_capacity(args) -> int:
    dist = parse_distribution_spec(args.dist).build()
    scheme, z_t, optimize = _parse_scheme_token(args.scheme, args.zt)
    grid = parse_snr_grid(args.snr_db)
    if len(grid) != 1:
        raise UsageError("'capacity' takes a single --snr-db value; use 'sweep' for grids")
    S, z_t = _operating_point(args, grid[0], z_t)
    result = capacity(dist, scheme, S, z_t=z_t, optimize_threshold=optimize)
    _emit_json(
        {
            "scheme": result.scheme.value,
            "snr_db": grid[0],
            "avg_power_S": result.avg_power_S,
            "capacity_nats": result.capacity_nats,
            "capacity_bits": result.capacity_nats / LN2,
            "z_t": result.threshold_z_t,
            "d_max": result.d_max,
            "power_residual": result.power_constraint_residual,
            "degenerate": result.degenerate,
        }
    )
    return 0


def cmd_sweep(args) -> int:
    dist = parse_distribution_spec(args.dist).build()
    tokens = [t for t in args.schemes.split(",") if t.strip()]
    if not tokens:
        raise UsageError("scheme list is empty")
    parsed = [_parse_scheme_token(t, args.zt) for t in tokens]
    grid = parse_snr_grid(args.snr_db)
    to_units = 1.0 if args.units == "nats" else 1.0 / LN2

    lines = ["snr_db,scheme,capacity,z_t,d_max"]
    for snr_db in grid:  # grid-major, schemes in the order given
        for scheme, z_t, optimize in parsed:
            S, z_t_point = _operating_point(args, snr_db, z_t)
            result = capacity(dist, scheme, S, z_t=z_t_point, optimize_threshold=optimize)
            z_field = "" if result.threshold_z_t is None else f"{result.threshold_z_t:.6g}"
            d_field = "" if result.d_max is None else f"{result.d_max:.6g}"
            lines.append(
                f"{snr_db:g},{scheme.value},{result.capacity_nats * to_units:.6f},"
                f"{z_field},{d_field}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gaps(args) -> int:
    dist = parse_distribution_spec(args.dist).build()
    report = gap_report(dist)
    to_units = 1.0 if args.units == "nats" else 1.0 / LN2
    _emit_json(
        {
            "distribution": dist.name,
            "units": args.units,
            # inf and nan times to_units > 0 are themselves
            "gap_oa_ra": report.gap_oa_ra * to_units,
            "gap_awgn_oa": report.gap_awgn_oa * to_units,
            "gap_oa_ci": report.gap_oa_ci * to_units,
            "gap_awgn_ci": report.gap_awgn_ci * to_units,
        }
    )
    return 0


def cmd_mc(args) -> int:
    dist = parse_distribution_spec(args.dist).build()
    scheme, z_t, optimize = _parse_scheme_token(args.scheme, args.zt)
    if optimize:
        raise UsageError("mc does not optimize thresholds; pass zt= explicitly")
    grid = parse_snr_grid(args.snr_db)
    if len(grid) != 1:
        raise UsageError("'mc' takes a single --snr-db value")
    S, z_t = _operating_point(args, grid[0], z_t)
    est = mc_capacity(dist, scheme, S, z_t=z_t, n_samples=args.samples, seed=args.seed)
    _emit_json(
        {
            "scheme": scheme.value,
            "snr_db": grid[0],
            "mean_nats": est.mean_nats,
            "mean_bits": est.mean_nats / LN2,
            "std_error_nats": est.std_error,
            "n_samples": est.n_samples,
            "seed": est.seed,
            "power_mean": est.power_mean,
            "power_std_error": est.power_std_error,
            "degenerate": est.degenerate,
        }
    )
    return 0


def cmd_verify(args) -> int:
    dist = parse_distribution_spec(args.dist).build()
    results = verify_mod.run_checks(dist, level=args.level, seed=args.seed)
    all_ok = True
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
        all_ok = all_ok and res.passed
    print(f"{'PASS' if all_ok else 'FAIL'} overall ({dist.name}, level={args.level})")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadecap",
        description="Ergodic capacities of adaptive transmission over fading channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scheme_single: bool):
        p.add_argument("--dist", required=True, help="gain law, e.g. miso:N=2,K=2")
        if scheme_single:
            p.add_argument("--scheme", required=True, help="awgn|oa|ra|ci|tci[:zt=V|:opt]|ctci[:zt=V]")
        p.add_argument("--snr-db", required=True, help="SNR in dB (or start:stop:step)")
        p.add_argument("--zt", type=float, default=None, help="default threshold for tci/ctci")
        p.add_argument(
            "--zt-units",
            choices=("z", "gamma"),
            default="z",
            help="threshold units: effective gain (z) or instantaneous SNR (gamma)",
        )
        p.add_argument("--units", choices=("bits", "nats"), default="bits")

    p_cap = sub.add_parser("capacity", help="one capacity value as JSON")
    add_common(p_cap, scheme_single=True)
    p_cap.set_defaults(func=cmd_capacity)

    p_sweep = sub.add_parser("sweep", help="capacities over an SNR grid as CSV")
    add_common(p_sweep, scheme_single=False)
    p_sweep.add_argument("--schemes", required=True, help="comma list of scheme tokens")
    p_sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gaps = sub.add_parser("gaps", help="high-SNR gap report as JSON")
    p_gaps.add_argument("--dist", required=True)
    p_gaps.add_argument("--units", choices=("bits", "nats"), default="bits")
    p_gaps.set_defaults(func=cmd_gaps)

    p_mc = sub.add_parser("mc", help="Monte-Carlo capacity estimate as JSON")
    add_common(p_mc, scheme_single=True)
    p_mc.add_argument("--samples", type=int, default=10**6)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.set_defaults(func=cmd_mc)

    p_verify = sub.add_parser("verify", help="run invariant self-checks")
    p_verify.add_argument("--dist", required=True)
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, QuadratureError) as exc:
        # QUADPACK's messages span several lines; the error takes one
        print("error:", " ".join(str(exc).split()), file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
