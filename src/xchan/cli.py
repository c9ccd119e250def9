"""Command-line front end.

Subcommands: build, check, apply, sample, bloch, dilate, jacobian.  Emitting
commands write their JSON document to stdout (or ``--out FILE``) and any
supplementary report lines to stderr; reporting commands print to stdout.

Exit codes: 0 all requested checks pass, 1 a property check failed,
2 usage or parse error.  The environment variable XCHAN_TOL (a decimal
string) overrides the tolerances used by the check/dilate reports.

Size arguments, and the sizes of the documents that ``check``, ``dilate``
and ``build --params`` read, are capped so that no accepted command line
can ask for memory without bound; a larger value is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .channels import (
    apply,
    check_extremal,
    check_trace_orthogonal,
    check_trace_preserving,
    check_unital,
    choi,
    choi_min_eigenvalue,
)
from .dilation import evolve_via_dilation, stinespring
from .errors import SchemaError, ValidationError
from .extremal import (
    ExtremalParams,
    build_extremal,
    complete_last_diagonal,
    parameter_jacobian_rank,
    sample_extremal,
    sample_interior,
)
from .qubit import NuParams, bloch_affine, channel_from_nu, ellipsoid_samples, predicted_translation
from .serialize import (
    _dumps,
    _loads,
    dump_channel,
    dump_state,
    matrix_to_doc,
    numbers_from_doc,
    parse_channel,
    parse_state,
)
from .states import random_density
from .tolerances import TOL_ORTH, TOL_PSD, TOL_TP, TOL_UNITARY

# Largest ``sample --n``: N=64 already takes about 0.8 s, 85 MB and a
# 2.7 MB channel document (k = N operators of N x N entries; one
# ``python -m xchan`` process, one BLAS thread, 2-vCPU x86-64 guest).
# ``build --params`` takes the same cap on N, and ``check`` takes it on N and
# its square on N*k: the Choi matrix is N^2 x N^2 and the product stack
# k^2 x N^2, so every channel ``sample`` writes stays checkable.
MAX_SAMPLE_N = 64
# Largest ``jacobian --n``.  The ``--step`` path sets it: its full real
# embedding is 2 N^4 x (N^2 - N) floats, so memory grows as N^6, and N=16
# takes about 1.8-2.1 s and 518 MB (the embedding and the SVD's copy of it).
# The exact path runs no decomposition at N=16: about 0.13 s and 35 MB,
# the same as ``sample --n 2`` (measured as for MAX_SAMPLE_N).
MAX_JACOBIAN_N = 16
# Largest ``bloch --count``: two (count, 3) float arrays and a CSV file of
# about 110 bytes per point.
MAX_BLOCH_COUNT = 10**6
# Largest N*k that ``dilate`` accepts: the unitary is (N k) x (N k), so time,
# memory and the document grow as (N k)^2.  N*k = 1024 (a ``sample --n 32``
# channel) takes about 2.3 s and 250 MB and writes an 11 MB document
# (measured as for MAX_SAMPLE_N).
MAX_DILATE_DIM = 1024


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xchan",
        description="Construct, apply, and verify extremal quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a channel from diagonal params or (nu1, nu2)")
    p.add_argument(
        "--params",
        help="JSON file {'diagonals': [[...], ...]} with N or N-1 rows of length "
        f"N <= {MAX_SAMPLE_N}",
    )
    p.add_argument("--nu1", type=float, help="x-axis multiplier in (0, 1]")
    p.add_argument("--nu2", type=float, help="y-axis multiplier in (0, 1]")
    p.add_argument("--out", help="write the channel document here instead of stdout")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", help="report channel properties and residuals")
    p.add_argument(
        "channel",
        help=f"channel document file; its dimension N must be <= {MAX_SAMPLE_N} "
        f"and N times its operator count k <= {MAX_SAMPLE_N**2}",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("apply", help="apply a channel to a state")
    p.add_argument("--channel", required=True, help="channel document file")
    p.add_argument("--state", required=True, help="state document file")
    p.add_argument("--out", help="write the output state here instead of stdout")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("sample", help="draw a random extremal channel")
    p.add_argument(
        "--n",
        type=_capped_int(MAX_SAMPLE_N),
        required=True,
        help=f"system dimension, >= 2 and <= {MAX_SAMPLE_N}",
    )
    p.add_argument("--seed", type=int, required=True, help="sampling seed")
    p.add_argument("--out", help="write the channel document here instead of stdout")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bloch", help="report the Bloch-ellipsoid geometry of a qubit channel")
    p.add_argument("--nu1", type=float, required=True)
    p.add_argument("--nu2", type=float, required=True)
    p.add_argument("--ellipsoid", help="CSV file for sampled sphere/ellipsoid points")
    p.add_argument(
        "--count",
        type=_capped_int(MAX_BLOCH_COUNT),
        default=100,
        help=f"sample count for --ellipsoid, <= {MAX_BLOCH_COUNT}",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed for --ellipsoid")
    p.set_defaults(func=_cmd_bloch)

    p = sub.add_parser("dilate", help="embed a channel in a system-environment unitary")
    p.add_argument(
        "channel",
        help=f"channel document file; its dimension N times its operator count k "
        f"must be <= {MAX_DILATE_DIM}",
    )
    p.add_argument("--out", help="write the dilation document here instead of stdout")
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("jacobian", help="numerical parameter count at a random interior point")
    p.add_argument(
        "--n",
        type=_capped_int(MAX_JACOBIAN_N),
        required=True,
        help=f"system dimension, >= 2 and <= {MAX_JACOBIAN_N}",
    )
    p.add_argument("--seed", type=int, required=True, help="interior-point seed")
    p.add_argument(
        "--step",
        type=float,
        default=None,
        help="use central differences with this step instead of the exact Jacobian",
    )
    p.set_defaults(func=_cmd_jacobian)

    return parser


def _cmd_build(args) -> int:
    has_nu = args.nu1 is not None or args.nu2 is not None
    if has_nu and args.params is not None:
        raise ValueError("give either --params or --nu1/--nu2, not both")
    if has_nu:
        if args.nu1 is None or args.nu2 is None:
            raise ValueError("--nu1 and --nu2 must be given together")
        p = NuParams(args.nu1, args.nu2)
        ch = channel_from_nu(p)
        meta = {"nu1": p.nu1, "nu2": p.nu2}
    elif args.params is not None:
        params = _params_from_doc(_loads(Path(args.params).read_text()))
        if params.n > MAX_SAMPLE_N:
            raise ValueError(f"params dimension N = {params.n} must be at most {MAX_SAMPLE_N}")
        ch = build_extremal(params)
        meta = {"n": params.n}
    else:
        raise ValueError("give --params or --nu1/--nu2")
    _emit(dump_channel(ch, meta), args.out)
    return 0


def _cmd_check(args) -> int:
    ch = parse_channel(Path(args.channel).read_text(), require_tp=False)
    if ch.dim > MAX_SAMPLE_N:
        raise ValueError(f"channel dimension N = {ch.dim} must be at most {MAX_SAMPLE_N}")
    total = ch.dim * len(ch)
    if total > MAX_SAMPLE_N**2:
        raise ValueError(f"channel size N*k = {total} must be at most {MAX_SAMPLE_N**2}")
    tol_tp = _tol(TOL_TP)
    tol_orth = _tol(TOL_ORTH)
    tol_psd = _tol(TOL_PSD)

    tp = check_trace_preserving(ch, tol_tp)
    orth = check_trace_orthogonal(ch, tol_orth)
    unital = check_unital(ch, tol_tp)
    low = choi_min_eigenvalue(choi(ch))
    cp_ok = low >= -tol_psd

    print(f"dim={ch.dim} operators={len(ch)}")
    print(_line("trace_preserving", tp.ok, f"residual={tp.residual:.3e}", tol_tp))
    print(_line("completely_positive", cp_ok, f"min_choi_eigenvalue={low:.3e}", tol_psd))
    print(_line("trace_orthogonal", orth.ok, f"residual={orth.residual:.3e}", tol_orth))
    print(_line("unital", unital.ok, f"residual={unital.residual:.3e}", tol_tp))
    if tp.ok:
        ext = check_extremal(ch, tol_tp=tol_tp)
        ext_ok = ext.extremal
        print(
            f"extremal: {'yes' if ext_ok else 'no'} "
            f"gram_rank={ext.gram_rank} expected={ext.expected}"
        )
    else:
        ext_ok = False
        print("extremal: skipped (channel is not trace preserving)")
    ok = tp.ok and cp_ok and ext_ok
    print(f"verdict: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _cmd_apply(args) -> int:
    ch = parse_channel(Path(args.channel).read_text())
    rho = parse_state(Path(args.state).read_text())
    out = apply(ch, rho)
    _emit(dump_state(out), args.out)
    return 0


def _cmd_sample(args) -> int:
    _, ch = sample_extremal(args.n, args.seed)
    _emit(dump_channel(ch, {"n": args.n, "seed": args.seed}), args.out)
    return 0


def _cmd_bloch(args) -> int:
    p = NuParams(args.nu1, args.nu2)
    affine = bloch_affine(channel_from_nu(p))
    diag = np.diag(affine.t_lin)
    off = affine.t_lin - np.diag(diag)
    print(f"nu1={p.nu1:.17g} nu2={p.nu2:.17g} nu3={p.nu3:.17g}")
    print(f"t_lin diagonal: {diag[0]:.17g} {diag[1]:.17g} {diag[2]:.17g}")
    print(f"t_lin max off-diagonal: {np.max(np.abs(off)):.3e}")
    print(f"t_vec: {affine.t_vec[0]:.17g} {affine.t_vec[1]:.17g} {affine.t_vec[2]:.17g}")
    print(f"t3 predicted: {predicted_translation(p):.17g}")
    if args.ellipsoid:
        w_in, w_out = ellipsoid_samples(p, args.count, args.seed)
        with open(args.ellipsoid, "w") as fh:
            np.savetxt(
                fh,
                np.hstack([w_in, w_out]),
                fmt="%.17g",
                delimiter=",",
                header="x_in,y_in,z_in,x_out,y_out,z_out",
                comments="",
            )
        print(f"wrote {args.count} samples to {args.ellipsoid}")
    return 0


def _cmd_dilate(args) -> int:
    ch = parse_channel(Path(args.channel).read_text())
    total = ch.dim * len(ch)
    if total > MAX_DILATE_DIM:
        raise ValueError(
            f"dilation dimension N*k = {total} must be at most {MAX_DILATE_DIM}"
        )
    model = stinespring(ch)
    unitarity = model.unitarity_residual
    roundtrip = 0.0
    for seed in range(5):
        rho = random_density(ch.dim, seed)
        via_u = evolve_via_dilation(model, rho)
        direct = apply(ch, rho)
        roundtrip = max(roundtrip, float(np.max(np.abs(via_u.mat - direct.mat))))
    doc = {
        "dim_sys": model.dim_sys,
        "dim_env": model.dim_env,
        "env_state": model.env_state,
        "unitary": matrix_to_doc(model.u),
    }
    _emit(_dumps(doc), args.out)
    report = sys.stdout if args.out else sys.stderr
    tol = _tol(TOL_UNITARY)
    print(f"unitarity residual: {unitarity:.3e}", file=report)
    print(f"roundtrip residual: {roundtrip:.3e}", file=report)
    # ``stinespring``'s derived gate: u's residual carries the channel's.
    ok = unitarity <= tol + ch._tp_residual and roundtrip <= tol
    print(f"verdict: {'pass' if ok else 'fail'}", file=report)
    return 0 if ok else 1


def _cmd_jacobian(args) -> int:
    params = sample_interior(args.n, args.seed)
    rank = parameter_jacobian_rank(params, step=args.step)
    expected = args.n**2 - args.n
    print(f"jacobian_rank={rank} expected={expected}")
    return 0 if rank == expected else 1


def _params_from_doc(doc) -> ExtremalParams:
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    arr = numbers_from_doc(doc.get("diagonals"), "diagonals")
    rows, n = arr.shape
    if rows == n:
        return ExtremalParams(arr)
    if rows == n - 1:
        return complete_last_diagonal(arr)
    raise SchemaError(
        "diagonals", f"expected {n} (full) or {n - 1} (completed) rows of length {n}"
    )


def _capped_int(cap: int):
    """argparse type: an int no larger than ``cap``."""

    def parse(text: str) -> int:
        value = int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = "int"
    return parse


def _tol(default: float) -> float:
    """The tolerance XCHAN_TOL sets, or ``default`` when it is unset or empty."""
    raw = os.environ.get("XCHAN_TOL")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"XCHAN_TOL is not a decimal string: {raw!r}") from None
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"XCHAN_TOL must be a positive finite number, got {raw!r}")
    return value


def _line(name: str, ok: bool, detail: str, tol: float) -> str:
    return f"{name}: {'ok' if ok else 'FAIL'} {detail} tol={tol:g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
