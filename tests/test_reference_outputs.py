"""Committed outputs of the command line, so that a change which should keep
the results shows that it does. A change that moves one of these values
updates it here and names the move and its cause in CHANGES.md.

The model is not pinned: its float32 matrix products may round differently
under the BLAS kernels chosen for other CPUs.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dltsched.cli import main

# SHA-256 of `generate --count 2000 --seed 7` at each compute intensity.
DATASET_SHA256 = {
    "10000": "6224b05ad48b9b88c23cfe78b39deb70484f0bd389e4093d0a9cc6e5df4c6c30",
    "100": "55f4050834fc6cdd7203dc9d988154ce642dc9080001ee1e8741dc9be6dc6ab0",
}

README_SYSTEM = ["--root-speed", "10", "--load-gb", "25", "--child", "5:100", "--child", "8:40", "--child", "12:75"]

# `solve --format machine` on the README's system at each compute intensity.
SOLVE_OUTPUT = {
    "10000": (
        '{"n":3,"unloaded_children":0,'
        '"alpha":[0.2915361217598532,0.14504284664669315,0.22751819081834218,0.33590284077511146],'
        '"t_star_s":7288.40304399633,"t_star_norm_s_per_gb":291.5361217598532,'
        '"comm_finish_s":[36.260711661673284,178.45958092313714,290.427194514841],'
        '"compute_finish_s":[7288.403043996331,7288.403043996332,7288.40304399633,7288.40304399633]}\n'
    ),
    "100": (
        '{"n":3,"unloaded_children":0,'
        '"alpha":[0.6197033898305084,0.20656779661016947,0.11016949152542373,0.0635593220338983],'
        '"t_star_s":154.92584745762713,"t_star_norm_s_per_gb":6.197033898305085,'
        '"comm_finish_s":[51.64194915254237,120.49788135593218,141.68432203389827],'
        '"compute_finish_s":[154.9258474576271,154.9258474576271,154.9258474576271,154.92584745762707]}\n'
    ),
}


def run(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("intensity", DATASET_SHA256)
def test_generated_dataset(tmp_path, intensity):
    path = tmp_path / "data.jsonl"
    run("generate", "--count", "2000", "--seed", "7", "--out", str(path), "--compute-intensity", intensity)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_SHA256[intensity]


@pytest.mark.parametrize("intensity", SOLVE_OUTPUT)
def test_solve_of_the_readme_system(intensity):
    assert run("solve", *README_SYSTEM, "--compute-intensity", intensity, "--format", "machine") == SOLVE_OUTPUT[intensity]
