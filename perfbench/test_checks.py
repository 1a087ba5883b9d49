"""Each benchmark check accepts a right answer and rejects a perturbed one.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dltsched import datagen, solver  # noqa: E402

INTENSITY = 100.0
NUDGE = 1.0 + 1e-7  # a hundred times the checks' relative tolerance


@pytest.fixture(scope="module")
def systems():
    return workloads.draw_systems(seed=11, stream=0, count=200)


@pytest.fixture(scope="module")
def program(systems):
    """The program's exact answers for the drawn systems, zero-padded."""
    allocs = [solver.solve_optimal(solver.to_time_rates(c, INTENSITY), c.load_gb) for c in systems.configs]
    return workloads.padded_alpha([a.alpha for a in allocs]), np.array([a.t_star for a in allocs])


@pytest.fixture(scope="module")
def refs(systems):
    return systems.references(INTENSITY)


def exact_verdicts(systems, refs, alpha, t_star):
    return checks.check_exact(
        alpha, t_star, refs["alpha"], refs["t_star"], refs["w0"], refs["w"], refs["z"], systems.mask, systems.load
    )


def test_reference_solves_the_finish_time_system(systems, refs):
    """Forward substitution agrees with a dense solve of the same equations."""
    for i in range(20):
        n = int(systems.mask[i].sum())
        w0, w, z = refs["w0"][i], refs["w"][i, :n], refs["z"][i, :n]
        a = np.zeros((n + 1, n + 1))
        a[np.arange(n), np.arange(n)] = np.concatenate([[w0], w[:-1]])
        a[np.arange(n), np.arange(1, n + 1)] = -(z + w)
        a[n] = 1.0
        dense = np.linalg.solve(a, np.eye(n + 1)[n])
        assert np.allclose(refs["alpha"][i, : n + 1], dense, rtol=1e-9, atol=0)


def test_exact_check_accepts_the_program(systems, refs, program):
    assert exact_verdicts(systems, refs, *program).all()


@pytest.mark.parametrize("perturb", ["t_star", "alpha", "sum", "finish", "padding", "missing"])
def test_exact_check_rejects_perturbed_answers(systems, refs, program, perturb):
    alpha, t_star = program[0].copy(), program[1].copy()
    i = 7
    n = int(systems.mask[i].sum())
    if perturb == "t_star":
        t_star[i] *= NUDGE
    elif perturb == "alpha":
        alpha[i, 2] *= NUDGE
    elif perturb == "sum":
        alpha[i] *= NUDGE
    elif perturb == "finish":  # fractions that sum to 1 but do not finish together
        alpha[i, : n + 1] = 1.0 / (n + 1)
    elif perturb == "padding":
        alpha[i, n + 1] = 1e-3
    else:
        alpha[i] = np.nan
    verdicts = exact_verdicts(systems, refs, alpha, t_star)
    assert not verdicts[i]
    assert verdicts.sum() == len(verdicts) - 1


def test_finish_times_equal_only_at_the_optimum(refs, systems):
    finish = checks.finish_times(refs["alpha"], refs["w0"], refs["w"], refs["z"], systems.load)
    full = np.concatenate([np.ones((len(finish), 1), dtype=bool), systems.mask], axis=1)
    assert np.all(checks.close(finish, refs["t_star"][:, None]) | ~full)
    even = np.where(full, 1.0, 0.0) / full.sum(axis=1, keepdims=True)
    finish = checks.finish_times(even, refs["w0"], refs["w"], refs["z"], systems.load)
    assert not np.any(np.all(checks.close(finish, finish[:, :1]) | ~full, axis=1))


def hybrid_case():
    ref = np.array([6000.0, 7000.0, 100.0, 200.0])
    surrogate = np.array([5900.0, 7100.0, 110.0, 190.0])
    return {
        "t_hybrid": ref[:2].tolist() + surrogate[2:].tolist(),
        "verified": [True, True, False, False],
        "ml_estimate": surrogate.copy(),
        "surrogate": surrogate,
        "ref_t_star": ref,
    }


def test_hybrid_check_accepts_both_branches():
    assert checks.check_hybrid(threshold=5000.0, **hybrid_case()).all()


@pytest.mark.parametrize(
    "field,row,value",
    [
        ("t_hybrid", 0, 6000.0 * NUDGE),  # exact branch, answer off the reference
        ("ml_estimate", 1, 4000.0),  # exact branch taken below the threshold
        ("t_hybrid", 2, 111.0),  # surrogate branch, answer is not the estimate
        ("surrogate", 3, 5100.0),  # surrogate branch above the threshold
        ("verified", 3, True),  # claims the exact branch but answers the estimate
    ],
)
def test_hybrid_check_rejects_perturbed_answers(field, row, value):
    case = hybrid_case()
    case[field] = np.array(case[field])
    case[field][row] = value
    if field == "surrogate":
        case["ml_estimate"][row] = value
        case["t_hybrid"][row] = value
    verdicts = checks.check_hybrid(threshold=5000.0, **case)
    assert not verdicts[row]
    assert verdicts.sum() == 3


def test_hybrid_check_rejects_an_estimate_unlike_the_surrogate():
    case = hybrid_case()
    case["ml_estimate"][2] *= NUDGE
    assert checks.check_hybrid(threshold=5000.0, **case).tolist() == [True, True, False, True]


def test_surrogate_check_rejects_non_finite_and_non_positive():
    assert checks.check_surrogate([1.0, np.nan, np.inf, -3.0, 0.0]).tolist() == [True, False, False, False, False]


def test_surrogate_round_fails_on_one_bad_answer_and_only_non_positive_ones_are_known():
    out = workloads.Outcome()
    out.count_surrogate_round([5.0, 7.0])
    assert (out.attempted, out.failed, out.correct) == (1, 0, True)
    out.count_surrogate_round([5.0, -1.0, 0.0])
    assert (out.attempted, out.failed, out.nonpositive_rounds, out.correct) == (2, 1, 1, True)
    out.count_surrogate_round([5.0, -1.0, np.nan])
    assert (out.attempted, out.failed, out.nonpositive_rounds, out.correct) == (3, 2, 1, False)


def test_metric_formulas():
    p, y = np.array([1.0, 2.0, 4.0]), np.array([1.0, 3.0, 4.0])
    assert checks.r2(p, y) == pytest.approx(1.0 - 9.0 / 42.0)
    assert checks.mape_pct(p, y) == pytest.approx(100.0 / 9.0)


@pytest.mark.parametrize("key", ["count", "r2", "mape_pct"])
def test_report_check_rejects_perturbed_metrics(key):
    rng = np.random.default_rng(0)
    y = rng.uniform(10, 100, 50)
    p = y * rng.uniform(0.9, 1.1, 50)
    report = {"count": 50, "r2": checks.r2(p, y), "mape_pct": checks.mape_pct(p, y)}
    assert checks.check_report(report, p, y)
    report[key] = report[key] + 1 if key == "count" else report[key] * NUDGE
    assert not checks.check_report(report, p, y)


def test_desk_floor():
    assert checks.check_desk_floor(0.95, 10.0)
    assert not checks.check_desk_floor(0.9499, 5.0)
    assert not checks.check_desk_floor(0.99, 10.01)


def test_feature_check_matches_the_program_and_rejects_a_perturbed_feature(systems):
    stored = np.array([datagen.extract_features(c).as_array() for c in systems.configs])
    ref = checks.reference_features(systems.root_speed, systems.speeds, systems.bandwidths, systems.mask, systems.load)
    assert checks.check_features(stored, ref).all()
    stored[5, 12] *= NUDGE
    assert checks.check_features(stored, ref).tolist().count(False) == 1


def test_tracer_sees_calls_through_every_lookup_and_restores_them(systems):
    original = solver.solve_optimal
    tracer = tracing.Tracer()
    tracer.install()
    try:
        datagen.make_record(systems.configs[0], INTENSITY)  # datagen's own import of solve_optimal
        solver.solve_optimal(solver.to_time_rates(systems.configs[1], INTENSITY), 1.0)
    finally:
        tracer.uninstall()
    assert solver.solve_optimal is original and datagen.solve_optimal is original
    assert len(tracer.calls["solver.solve_optimal"].total_ns) == 2
    assert tracer.calls["datagen.make_record"].self_ns[0] < tracer.calls["datagen.make_record"].total_ns[0]


def test_every_declared_per_layer_figure_is_computed():
    """run.py prints exactly the declared figures and ends a run that lacks one."""
    declared = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    notes = {
        "solver.solve_optimal": [5, 15],
        "datagen.generate_dataset": [100, 100],
        "datagen.save_dataset": [1e6, 1e6],
        "mlp.predict_features": [1, 1],
        "mlp.train": [10, 10],
        "cli.hybrid_predict": [True, False],
    }
    names = {*tracing.P50_US, *tracing.MEDIAN_S, *tracing.SELF_S, *notes}
    calls = {name: tracing.Calls([2000, 3000], [1000, 1000], notes.get(name, [])) for name in names}
    assert set(tracing.layer_metrics(calls)) | {"trace.overhead_pct"} == declared
