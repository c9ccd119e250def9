"""Bit-identity check of xchan's outputs: one SHA-256 per output record.

A fixed grid of channels (sampled, zero-diagonal, padded-mixture, phased
and Haar-rotated at N = 2, 3, 4, 5, 6, 7, 8, 11, 12, 16, two seeds each,
and six qubit (nu1, nu2) pairs; the kinds come from ``tools/kinds.py``) is
run through the library and the CLI.
Each output becomes one record: its bytes (arrays with dtype and shape,
floats in hex, CLI runs as exit code, stdout, stderr and ``--out`` file)
are hashed, and an exception is recorded as its type and message.

    python tools/bitdiff.py

prints the manifest, a JSON object from record name to digest, for the
``xchan`` importable here (``--src DIR`` puts DIR first on the path), and

    python tools/bitdiff.py --against REV

runs the grid in two child processes, one on this tree's ``src`` and one
on a ``git archive`` of REV in a temporary directory, and prints the
records that differ, grouped by function and N.  It exits 1 if any
record differs or exists on one side only.

Bits depend on the BLAS kernel and its thread count, so compare manifests
only between two trees on one machine, never against a stored one.  The
children default ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 unless they are set.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (2, 3, 4, 5, 6, 7, 8, 11, 12, 16)
SEEDS = (1, 2)
KINDS = ("sampled", "zero-diagonal", "padded-mixture", "phased", "rotated")
PAIRS = ((0.8, 0.5), (0.5, 0.8), (0.3, 0.3), (1.0, 0.5), (1.0, 1.0), (1e-4, 0.9))
# CLI runs at these N; ``jacobian --step`` only up to CLI_STEP_MAX_N.
CLI_SIZES = (2, 3, 4, 8, 16)
CLI_STEP_MAX_N = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Documents that ``check``, ``apply`` and ``dilate`` refuse: not trace
# preserving (exit 1), and a part beyond the entry bound (exit 2).
REFUSED_DOCS = {
    "nontp.json": '{"dim":2,"kraus":[[[[0.5,0],[0,0]],[[0,0],[0.5,0]]],'
    '[[[0,0],[0.5,0]],[[0.5,0],[0,0]]]]}',
    "big.json": '{"dim":2,"kraus":[[[[1e200,0],[0,0]],[[0,0],[1e200,0]]]]}',
}
# A record's name is its function, N and label joined by SEP.
SEP = " | "


class Failed(str):
    """A record whose computation raised: ``"Type: message"``."""


def attempt(fn, *args):
    """``fn(*args)``, or the ``Failed`` record of what it raised.  A tree
    under comparison may lack a function or refuse an input; either is its
    output for that record."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - the failure is the record
        return Failed(f"{type(err).__name__}: {err}")


def then(value, fn):
    """``fn(value)``, unless ``value`` is already a failure."""
    return value if isinstance(value, Failed) else attempt(fn, value)


def encode(value) -> bytes:
    """The bytes of a record's value that its digest covers."""
    if isinstance(value, Failed):
        return b"raised " + value.encode()
    if isinstance(value, np.ndarray):
        head = f"{value.dtype.str}{value.shape}".encode()
        return head + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(map(encode, value)) + b")"
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    if isinstance(value, bytes):
        return value
    return repr(value).encode()


def grid_channel(kind: str, n: int, seed: int):
    """The grid's channel of one kind, N and seed.  ``kinds`` and ``xchan``
    are imported here, after ``--src`` has put a tree's package on the path."""
    import kinds
    import xchan

    _, ch = xchan.sample_extremal(n, seed)
    rng = np.random.default_rng([n, seed])
    if kind == "sampled":
        return ch
    if kind == "zero-diagonal":
        # Exact zeros and an all-zero first diagonal: a dropped operator.
        return xchan.build_extremal(kinds.zero_diagonals(n, seed, zero=0))
    if kind == "padded-mixture":
        return kinds.padded(kinds.mixture(ch, np.eye(n)[rng.permutation(n)], 0.3))
    if kind == "phased":
        phases = np.exp(2j * np.pi * rng.random(n))
        return xchan.KrausChannel(phases[:, None] * ch.stack)
    return kinds.rotated(ch, seed)


def library_records(max_n: int):
    """(function, N, label, value) for every library record of the grid."""
    import kinds
    import xchan

    for n in (s for s in SIZES if s <= max_n):
        for seed in SEEDS:
            for kind in KINDS:
                label = f"{kind} s{seed}"
                ch = attempt(grid_channel, kind, n, seed)
                j = then(ch, xchan.choi)
                yield "choi", n, label, j
                yield "choi_min_eigenvalue", n, label, then(j, xchan.choi_min_eigenvalue)
                yield "kraus_from_choi", n, label, then(j, lambda m: xchan.kraus_from_choi(m).stack)
                yield "check_extremal", n, label, then(ch, lambda c: tuple(xchan.check_extremal(c)))
                model = then(ch, xchan.stinespring)
                yield "stinespring", n, label, then(model, lambda m: (m.u, m.unitarity_residual))
                yield "DilationModel", n, label, then(
                    model,
                    lambda m: xchan.DilationModel(m.dim_sys, m.dim_env, m.u).unitarity_residual,
                )
                rho = xchan.random_density(n, seed)
                yield "apply", n, label, then(ch, lambda c: xchan.apply(c, rho).mat)
                yield "evolve_via_dilation", n, label, then(
                    model, lambda m: xchan.evolve_via_dilation(m, rho).mat
                )
                yield "dump_channel", n, label, then(ch, xchan.dump_channel)
            rng = np.random.default_rng([n, seed, 1])
            unitaries = [kinds.haar(n, rng) @ u for u in xchan.canonical_unitaries(n)]
            params = xchan.sample_extremal(n, seed)[0]
            yield "build_extremal", n, f"given unitaries s{seed}", attempt(
                lambda: xchan.build_extremal(params, unitaries).stack
            )
    for nu1, nu2 in PAIRS:
        label = f"nu=({nu1}, {nu2})"
        p = xchan.NuParams(nu1, nu2)
        ch = attempt(xchan.channel_from_nu, p)
        yield "channel_from_nu", 2, label, then(ch, lambda c: c.stack)
        yield "bloch_affine", 2, label, then(
            ch, lambda c: (xchan.bloch_affine(c).t_lin, xchan.bloch_affine(c).t_vec)
        )
        yield "ellipsoid_samples", 2, label, attempt(xchan.ellipsoid_samples, p, 64, 3)
        yield "dump_channel", 2, label, then(ch, xchan.dump_channel)


def run_cli(argv: list[str], out: str | None = None):
    """(exit code, stdout, stderr, bytes of ``out`` or None) of one
    in-process ``xchan`` run in the current directory."""
    from xchan import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = Path(out).read_bytes() if out and Path(out).exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


def cli_records(max_n: int):
    """(function, N, label, value) for every CLI record of the grid; files
    are named relative to the current directory, so no output holds a
    temporary path."""
    import xchan

    def record(n, argv, out=None):
        if out:
            argv = [*argv, "--out", out]
        return f"cli {argv[0]}", n, " ".join(argv), attempt(run_cli, argv, out)

    for n in (s for s in CLI_SIZES if s <= max_n):
        sampled, rotated, state = f"s{n}.json", f"r{n}.json", f"rho{n}.json"
        yield record(n, ["sample", "--n", str(n), "--seed", "1"])
        yield record(n, ["sample", "--n", str(n), "--seed", "1"], sampled)
        Path(rotated).write_text(xchan.dump_channel(grid_channel("rotated", n, 1)))
        Path(state).write_text(xchan.dump_state(xchan.random_density(n, 1)))
        for doc in (sampled, rotated):
            yield record(n, ["check", doc])
            yield record(n, ["apply", "--channel", doc, "--state", state])
            yield record(n, ["apply", "--channel", doc, "--state", state], f"out-{doc}")
            yield record(n, ["dilate", doc])
            yield record(n, ["dilate", doc], f"dil-{doc}")
        yield record(n, ["jacobian", "--n", str(n), "--seed", "1"])
        if n <= CLI_STEP_MAX_N:
            yield record(n, ["jacobian", "--n", str(n), "--seed", "1", "--step", "1e-5"])
    Path("rho2.json").write_text(xchan.dump_state(xchan.random_density(2, 1)))
    for doc, text in REFUSED_DOCS.items():
        Path(doc).write_text(text)
        yield record(2, ["check", doc])
        yield record(2, ["apply", "--channel", doc, "--state", "rho2.json"])
        yield record(2, ["dilate", doc])
    for nu1, nu2 in PAIRS:
        nus = ["--nu1", repr(nu1), "--nu2", repr(nu2)]
        yield record(2, ["build", *nus])
        argv = ["bloch", *nus, "--ellipsoid", "pts.csv", "--count", "50", "--seed", "2"]
        name, n, label, value = record(2, argv)
        yield name, n, label, then(value, lambda v: (*v[:3], Path("pts.csv").read_bytes()))


def manifest(max_n: int = max(SIZES)) -> dict[str, str]:
    """Record name -> SHA-256 of its bytes, for the ``xchan`` on the path
    and the grid up to N = ``max_n``.
    The CLI runs in a temporary directory; the working directory is
    restored afterwards."""
    out = {}

    def add(records):
        for function, n, label, value in records:
            out[SEP.join([function, f"N={n}", label])] = hashlib.sha256(encode(value)).hexdigest()

    add(library_records(max_n))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            add(cli_records(max_n))
        finally:
            os.chdir(home)
    return out


def child_manifest(src: Path) -> dict[str, str]:
    """The manifest of the tree whose package directory is ``src``, made in
    a child process."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--src", str(src)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if done.returncode:
        sys.exit(f"bitdiff: the grid failed on {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def order(name: str) -> tuple:
    """Sort key of a record name: function, then N as a number, then label."""
    function, n, label = name.split(SEP)
    return function, int(n[2:]), label


def against(rev: str) -> int:
    """Compare this tree's manifest with REV's; print the differences."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            sys.exit(f"bitdiff: git archive {rev} failed")
        theirs = child_manifest(Path(tmp, "src"))
    ours = child_manifest(ROOT / "src")
    differ = sorted((k for k in ours.keys() & theirs.keys() if ours[k] != theirs[k]), key=order)
    only_ours = sorted(ours.keys() - theirs.keys(), key=order)
    only_theirs = sorted(theirs.keys() - ours.keys(), key=order)
    print(
        f"bitdiff: {len(ours)} records in this tree, {len(theirs)} at {rev}; "
        f"{len(differ)} differ, {len(only_ours)} only here, {len(only_theirs)} only at {rev}"
    )
    for title, keys in (("differ", differ), ("only here", only_ours), (f"only at {rev}", only_theirs)):
        groups = defaultdict(list)
        for key in keys:
            function, n, label = key.split(SEP)
            groups[function, n].append(label)
        for (function, n), labels in groups.items():
            print(f"{title}: {function} {n}: {len(labels)} ({'; '.join(labels)})")
    return 1 if differ or only_ours or only_theirs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="directory to import xchan from, ahead of the path")
    parser.add_argument("--against", metavar="REV", help="compare this tree with git revision REV")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    if args.src:
        src = Path(args.src).resolve()
        sys.path.insert(0, str(src))
        import xchan

        if src not in Path(xchan.__file__).resolve().parents:
            sys.exit(f"bitdiff: imported xchan from {xchan.__file__}, not from {src}")
    print(json.dumps(manifest(), indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
