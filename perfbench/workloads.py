"""The three workloads: inputs from the seed, one item at a time, gated.

Every item checks its own outputs against the tolerances PAPER.md states and
raises ``GateFailure`` when one is missed; the runner counts any exception
from an item as a failed item.  Inputs depend only on ``(seed, item index)``,
so the same seed gives the same inputs however many items a run reaches.

Calls into xchan go through an ``api`` namespace built by ``bind``: the bare
functions when untraced, span-recording wrappers when traced.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import types

import numpy as np

from metrics import API
from spans import NullTracer

# Layers whose every call works at one (N, k), whatever the item's.
FIXED_SHAPE = {"qubit": (2, 2)}

# Gate tolerances (PAPER.md and the acceptance criteria).
TOL_TP = 1e-9          # completeness
TOL_ORTH = 1e-9        # pairwise trace orthogonality
TOL_PSD = 1e-10        # smallest Choi eigenvalue may dip this far below 0
TOL_CHOI_ROUND = 1e-9  # Choi -> Kraus -> Choi
TOL_DILATION = 1e-10   # dilation agreement and unitarity
TOL_BLOCH = 1e-10      # Bloch linear part and translation
TOL_ELLIPSOID = 1e-8   # ellipsoid equation
TOL_ORACLE = 1e-12     # agreement with an independent numpy evaluation

CLI_N = 16
CLI_CYCLE = ("sample", "check", "apply", "dilate")


class GateFailure(Exception):
    """An item's output missed its tolerance or returned a wrong verdict."""


class Gate:
    """Checks residuals against tolerances and keeps their maxima."""

    def __init__(self):
        self.worst: dict[tuple[str, int], float] = {}

    def check(self, layer: str, n: int, what: str, value: float, tol: float) -> None:
        value = float(value)
        recorded = value if value == value else float("inf")
        key = (layer, n)
        self.worst[key] = max(self.worst.get(key, 0.0), recorded)
        if not value <= tol:
            raise GateFailure(f"{what} at N={n}: residual {value:.3e} > {tol:g}")

    def verdict(self, what: str, n: int, ok: bool) -> None:
        if not ok:
            raise GateFailure(f"{what} at N={n}: wrong verdict")

    def by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (layer, _), value in self.worst.items():
            out[layer] = max(out.get(layer, 0.0), value)
        return out


def bind(tracer=None) -> types.SimpleNamespace:
    """Namespace of the API functions, wrapped in spans when traced."""
    api = types.SimpleNamespace()
    for layer, names in API.items():
        module = importlib.import_module(f"xchan.{layer}")
        for name in names:
            fn = getattr(module, name)
            if tracer is not None:
                fn = tracer.wrap(f"{layer}.{name}", fn, FIXED_SHAPE.get(layer))
            setattr(api, name, fn)
    return api


def item_seed(seed: int, i: int, salt: int = 0) -> int:
    """Deterministic per-item seed for xchan's seeded samplers."""
    return (seed * 1_000_003 + i * 7_919 + salt) % (2**32)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank state g^dag g / Tr, g complex Gaussian, made by the benchmark."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g.conj().T @ g
    return h / np.trace(h).real


def stacked_action(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_i K_i rho K_i^dag over a (k, N, N) stack, the oracle for ``apply``."""
    return (kraus @ rho @ kraus.conj().transpose(0, 2, 1)).sum(axis=0)


class Workload:
    """One workload; ``item(i)`` runs item i, ``shape(i)`` gives its (N, k)."""

    name = ""
    CYCLE: tuple[int, ...] = ()  # N of each item in one round of the mix

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.gate = Gate()
        self.api = bind()
        self.tracer = NullTracer()

    def setup(self) -> None:
        """Untimed preparation shared by all items."""

    @property
    def cycle(self) -> int:
        return len(self.CYCLE)

    def dim(self, i: int) -> int:
        return self.CYCLE[i % self.cycle]

    def shape(self, i: int) -> tuple[int, int]:
        n = self.dim(i)
        return n, n

    def item(self, i: int) -> None:
        raise NotImplementedError

    def _channel_chain(self, ch, n: int, s: int) -> None:
        """Checks, Choi round trip, action and dilation of one channel."""
        api, gate = self.api, self.gate
        tp = api.check_trace_preserving(ch)
        gate.check("channels", n, "completeness", tp.residual, TOL_TP)
        gate.verdict("check_trace_preserving", n, tp.ok)
        kraus = np.asarray(ch.kraus)
        unital = api.check_unital(ch)
        acc = np.einsum("kij,klj->il", kraus, kraus.conj())
        expected = float(np.max(np.abs(acc - np.eye(n))))
        gate.check("channels", n, "unital residual vs oracle",
                   abs(unital.residual - expected), TOL_ORACLE)
        gate.verdict("check_unital", n, unital.ok == (expected <= TOL_TP))
        orth = api.check_trace_orthogonal(ch)
        gate.check("channels", n, "trace orthogonality", orth.residual, TOL_ORTH)
        ext = api.check_extremal(ch)
        gate.verdict("check_extremal", n, ext.extremal)
        j = api.choi(ch)
        low = api.choi_min_eigenvalue(j)
        gate.check("channels", n, "Choi PSD", max(0.0, -low), TOL_PSD)
        back = api.kraus_from_choi(j)
        gate.check("channels", n, "Choi round trip",
                   np.max(np.abs(api.choi(back) - j)), TOL_CHOI_ROUND)
        rho = api.random_density(n, s)
        out = api.apply(ch, rho)
        gate.check("channels", n, "apply vs oracle",
                   np.max(np.abs(out.mat - stacked_action(kraus, rho.mat))), TOL_ORACLE)
        model = api.stinespring(ch)
        u = model.u
        gate.check("dilation", n, "unitarity",
                   np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))), TOL_DILATION)
        via = api.evolve_via_dilation(model, rho)
        gate.check("dilation", n, "dilation agreement",
                   np.max(np.abs(via.mat - out.mat)), TOL_DILATION)


class Population(Workload):
    """Acceptance population: N = 2 + i mod 3, plus one qubit geometry check."""

    name = "population"
    CYCLE = (2, 3, 4)

    def item(self, i):
        api, gate = self.api, self.gate
        n = self.dim(i)
        s = item_seed(self.seed, i)
        _, ch = api.sample_extremal(n, s)
        self._channel_chain(ch, n, s)

        nu1, nu2 = 1.0 - np.random.default_rng([self.seed, i]).random(2)
        p = api.NuParams(nu1, nu2)
        affine = api.bloch_affine(api.channel_from_nu(p))
        gate.check("qubit", 2, "Bloch linear part",
                   np.max(np.abs(affine.t_lin - np.diag([p.nu1, p.nu2, p.nu3]))), TOL_BLOCH)
        t3 = api.predicted_translation(p)
        t = affine.t_vec
        gate.check("qubit", 2, "translation",
                   max(abs(abs(t[2]) - t3), abs(t[0]), abs(t[1])), TOL_BLOCH)
        _, w = api.ellipsoid_samples(p, count=200, seed=s)
        eq = (w[:, 0] / p.nu1) ** 2 + (w[:, 1] / p.nu2) ** 2 + ((w[:, 2] - t3) / p.nu3) ** 2
        gate.check("qubit", 2, "ellipsoid equation", np.max(np.abs(eq - 1.0)), TOL_ELLIPSOID)


class LargeN(Workload):
    """The channel chain at N = 8, 8, 8, 16, plus the N=8 Jacobian rank."""

    name = "large_n"
    CYCLE = (8, 8, 8, 16)

    def item(self, i):
        api = self.api
        n = self.dim(i)
        s = item_seed(self.seed, i)
        _, ch = api.sample_extremal(n, s)
        self._channel_chain(ch, n, s)
        if n == 8:
            rank = api.parameter_jacobian_rank(api.sample_interior(n, s))
            self.gate.verdict(f"parameter_jacobian_rank={rank}", n, rank == n * n - n)


class CliPipeline(Workload):
    """One ``python -m xchan`` process per item: sample, check, apply, dilate.

    ``inproc`` switches to calling ``xchan.cli.main(argv)`` in this process
    instead, on the same files, so the difference is start-up plus import.
    """

    name = "cli_pipeline"
    CYCLE = (CLI_N,) * len(CLI_CYCLE)
    inproc = False

    def setup(self):
        self.paths = {name: os.path.join(self.workdir, f"{name}.json")
                      for name in ("channel", "state", "out", "dilation")}
        cli = importlib.import_module("xchan.cli")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.main = cli.main
        self.channel = None
        self.stack = None

    def _run(self, command: str, argv: list[str]) -> str:
        tracer = self.tracer
        if self.inproc:
            buf = io.StringIO()
            with tracer.span(f"cli.{command}"), contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = self.main(argv)
            stdout = buf.getvalue()
        else:
            with tracer.span(f"cli.{command}"):
                proc = subprocess.run(
                    [sys.executable, "-m", "xchan", *argv], env=self.env,
                    capture_output=True, text=True, timeout=120,
                )
            code, stdout = proc.returncode, proc.stdout
        self.gate.verdict(f"xchan {command} exit code {code}", CLI_N, code == 0)
        return stdout

    def item(self, i):
        api, gate, paths = self.api, self.gate, self.paths
        command = CLI_CYCLE[i % len(CLI_CYCLE)]
        s = item_seed(self.seed, i // len(CLI_CYCLE))
        if command == "sample":
            self.channel = None
            self._run(command, ["sample", "--n", str(CLI_N), "--seed", str(s),
                                "--out", paths["channel"]])
            with open(paths["channel"]) as fh:
                text = fh.read()
            ch = api.parse_channel(text)
            self.tracer.note_bytes("serialize.parse_channel", len(text))
            self.channel, self.stack = ch, np.asarray(ch.kraus)
            _, expected = api.sample_extremal(CLI_N, s)
            gate.check("serialize", CLI_N, "sample document vs in-process sample",
                       np.max(np.abs(self.stack - np.asarray(expected.kraus))), TOL_ORACLE)
        elif command == "check":
            stdout = self._run(command, ["check", paths["channel"]])
            gate.verdict("check verdict", CLI_N,
                         "verdict: pass" in stdout and "extremal: yes" in stdout)
        elif command == "apply":
            if self.channel is None:
                raise GateFailure("no channel from this cycle's sample item")
            mat = random_state(np.random.default_rng([self.seed, i]), CLI_N)
            text = api.dump_state(api.DensityMatrix(mat))
            self.tracer.note_bytes("serialize.dump_state", len(text))
            with open(paths["state"], "w") as fh:
                fh.write(text)
            self._run(command, ["apply", "--channel", paths["channel"],
                                "--state", paths["state"], "--out", paths["out"]])
            with open(paths["out"]) as fh:
                text = fh.read()
            out = api.parse_state(text)
            self.tracer.note_bytes("serialize.parse_state", len(text))
            gate.check("channels", CLI_N, "CLI apply vs oracle",
                       np.max(np.abs(out.mat - stacked_action(self.stack, mat))), TOL_ORACLE)
        else:
            stdout = self._run(command, ["dilate", paths["channel"], "--out",
                                         paths["dilation"]])
            for what in ("unitarity", "roundtrip"):
                found = re.search(rf"{what} residual: (\S+)", stdout)
                if found is None:
                    raise GateFailure(f"dilate printed no {what} residual")
                gate.check("dilation", CLI_N, f"CLI dilation {what}",
                           float(found.group(1)), TOL_DILATION)
            with open(paths["dilation"]) as fh:
                doc = json.load(fh)
            gate.verdict("dilation document shape", CLI_N,
                         doc["dim_sys"] == CLI_N and len(doc["unitary"]) == CLI_N * doc["dim_env"])


WORKLOADS = {w.name: w for w in (Population, LargeN, CliPipeline)}
