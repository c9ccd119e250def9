"""``tools/bitdiff.py``: one well-formed manifest, the same on every run.

The tool hashes every library and CLI output of a fixed grid.  Run twice
in one process at N <= 4, the second time with every cache warm, it must
give the same digest for every record; a record name is its function, N
and label.  No manifest is stored: bits depend on the BLAS kernel and its
thread count, so manifests are compared only between two trees on one
machine (``--against``).
"""

import importlib.util
import re
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitdiff.py"

FUNCTIONS = {
    "choi",
    "choi_min_eigenvalue",
    "kraus_from_choi",
    "check_extremal",
    "stinespring",
    "DilationModel",
    "apply",
    "evolve_via_dilation",
    "dump_channel",
    "build_extremal",
    "channel_from_nu",
    "bloch_affine",
    "ellipsoid_samples",
    "cli sample",
    "cli check",
    "cli apply",
    "cli dilate",
    "cli jacobian",
    "cli build",
    "cli bloch",
}


def load_tool():
    spec = importlib.util.spec_from_file_location("bitdiff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_small_grid_gives_one_well_formed_manifest_twice():
    bitdiff = load_tool()
    first = bitdiff.manifest(max_n=4)
    assert bitdiff.manifest(max_n=4) == first
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in first.values())
    names = [name.split(bitdiff.SEP) for name in first]
    assert all(len(parts) == 3 for parts in names)
    assert {function for function, _, _ in names} == FUNCTIONS
    assert {n for _, n, _ in names} == {"N=2", "N=3", "N=4"}
    # Every kind of channel at every N and seed has its library records.
    assert len([1 for function, _, _ in names if function == "choi"]) == 3 * 2 * 5


def test_records_differ_in_every_bit():
    bitdiff = load_tool()
    zero = bitdiff.encode(np.zeros(2))
    assert zero != bitdiff.encode(-np.zeros(2))
    assert zero != bitdiff.encode(np.zeros(2, dtype=complex))
    assert zero != bitdiff.encode(np.zeros((2, 1)))
    assert bitdiff.encode(0.1) != bitdiff.encode(np.nextafter(0.1, 1.0))
    assert bitdiff.encode(bitdiff.Failed("ValueError: x")) != bitdiff.encode("ValueError: x")
