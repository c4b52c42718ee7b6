"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

workloads = run._import_library()

import oracles  # noqa: E402
import tracing  # noqa: E402
from sphmax import (covering_number, middle_cantor,  # noqa: E402
                    parse_profile, spherical_mean)
from sphmax.radial_operator import MaximalValue  # noqa: E402


def _inputs(name, seed, tmp_path, decks=2):
    tmp_path.mkdir()
    wl = workloads.WORKLOADS[name](random.Random(seed), tmp_path, decks)
    try:
        ops = [op for _ in range(decks) for op in wl.deck()]
        # cli configs name their temporary directory; compare without it
        return [(op.label.replace(str(wl.root), "ROOT")
                 if hasattr(wl, "root") else op.label, sorted(op.props))
                for op in ops]
    finally:
        wl.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    first = _inputs(name, 5, tmp_path / "a")
    assert first == _inputs(name, 5, tmp_path / "b")
    assert first != _inputs(name, 6, tmp_path / "c")


def test_strata_cover_every_parameter_range():
    gen = workloads.Gen(random.Random(1), 8)
    draws = sorted(gen.unit("slot", k, 8) for k in range(8))
    assert [int(8 * u) for u in draws] == list(range(8))


def _first_op(name, tmp_path, pick):
    wl = workloads.WORKLOADS[name](random.Random(3), tmp_path, 2)
    ops = [op for op in wl.deck() if pick(op)]
    return wl, ops[0]


def test_injected_wrong_maximal_value_counts_as_failed(tmp_path):
    wl, op = _first_op("maxval-sweep", tmp_path,
                       lambda op: "odd_d_pure_power" in op.props)
    honest = op.run
    tally = run.Tally(workloads.PROPERTIES)
    run.run_op(op, tally)
    assert tally.failures == []

    def wrong():
        good = honest()
        return MaximalValue(good.value * (1 + 1e-4), good.t)

    op.run = wrong
    run.run_op(op, tally)
    assert tally.failed == [1]
    assert "closed form" in tally.failures[0][0]


def test_injected_wrong_covering_count_counts_as_failed(tmp_path):
    wl, op = _first_op("covering", tmp_path,
                       lambda op: op.label.startswith("cantor("))
    honest = op.run

    def wrong():
        rep, counts, rows = honest()
        return rep, counts[:-1] + [counts[-1] + 1], rows

    op.run = wrong
    tally = run.Tally(workloads.PROPERTIES)
    run.run_op(op, tally)
    assert tally.failed == [0]


def test_raised_error_counts_as_failed(tmp_path):
    wl, op = _first_op("domination", tmp_path, lambda op: True)

    def boom():
        raise ZeroDivisionError("injected")

    op.run = boom
    tally = run.Tally(workloads.PROPERTIES)
    run.run_op(op, tally)
    assert tally.failed == [0] and "ZeroDivisionError" in tally.failures[0][0]


def test_cli_rerun_with_changed_artifact_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["cli-batch"](random.Random(2), tmp_path, 2)
    try:
        ops = wl.deck()
        a, b = next((x, y) for x, y in zip(ops, ops[1:])
                    if "sphmax region" in x.label and x.set_key == y.set_key)
        tally = run.Tally(workloads.PROPERTIES)
        run.run_op(a, tally)
        honest = b.run

        def tampered():
            result = honest()
            out = Path(b.label.split("--out ")[1].split()[0])
            path = out / "region_summary.csv"
            path.write_text(path.read_text() + "x\n")
            return result

        b.run = tampered
        run.run_op(b, tally)
        assert tally.failed == [1]
    finally:
        wl.close()


def test_percentile_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == pytest.approx(50.5)
    assert run.percentile(values, 0.9) == pytest.approx(90.1)
    assert run.samples_beyond(100, 0.9) == 10
    assert run.samples_beyond(99, 0.9) == 9
    with pytest.raises(ValueError):
        run.latency_summary([0.001] * 99)
    lat = run.latency_summary([k / 1000 for k in values])
    assert lat["op_p90_ms"] == pytest.approx(90.1)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("expr", ["chi(1/2,1)", "pow(2,-0.5,0,0,1)+chi(3/2,3)",
                                  "pow(-1.5,2,0,1/8,5/2)"])
def test_closed_form_oracle_matches_library(d, expr):
    f = parse_profile(expr)
    for r in (0.3, 1.25, 2.7):
        for t in (1.0, 1.5, 2.0):
            exact = oracles.spherical_mean_exact(d, f, r, [t])[0]
            assert spherical_mean(d, f, r, t) == pytest.approx(exact, rel=1e-8,
                                                               abs=1e-12)


def test_cantor_oracle():
    E = middle_cantor(Fraction(1, 3), 3)
    counts = [covering_number(E, Fraction(1, 3 ** k)) for k in range(4)]
    assert oracles.check_cantor_counts(Fraction(1, 3), 3, counts) is None
    assert oracles.check_cantor_counts(Fraction(1, 3), 3, [1, 2, 4, 9])


def test_tracer_wraps_cross_module_bindings():
    import sphmax
    import sphmax.norm_probe as norm_probe
    import sphmax.radial_operator as radial_operator
    original = radial_operator.maximal_value
    f = parse_profile("chi(1/2,1)")
    tracer = tracing.Tracer()
    wrapped = tracer.install()
    try:
        assert "maximal_value" in wrapped["radial_operator"]
        assert norm_probe.maximal_value is radial_operator.maximal_value
        assert sphmax.maximal_value is radial_operator.maximal_value
        assert radial_operator.maximal_value is not original
        tracer.active = True
        sphmax.spherical_mean(3, f, 1.25, 1.5)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert radial_operator.maximal_value is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["quadrature.integrate", "radial_operator.spherical_mean"]
    integ = tracer.spans[0]
    assert integ[tracing.PARENT] == tracer.spans[1][tracing.ID]
    assert integ[tracing.POINTS] > 0


def test_tracer_fails_loudly_on_missing_name(monkeypatch):
    monkeypatch.setitem(tracing.REQUIRED, "quadrature",
                        ("integrate", "no_such_function"))
    with pytest.raises(tracing.MissingLayerFunction, match="no_such_function"):
        tracing.Tracer().install()


def test_self_time_subtracts_covered_child_time():
    spans = [(0, "a", 0.0, 10.0, None, 0, 0, None),
             (1, "b", 1.0, 4.0, 0, 0, 0, None),
             (2, "b", 3.0, 6.0, 0, 0, 0, None),   # overlaps its sibling
             (3, "c", 2.0, 3.0, 1, 0, 0, None)]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert tracing.zero_call_layers(
        [(0, "quadrature.integrate", 0, 1, None, 0, 0, None)]) == [
        "fractal_set", "radial_operator", "type_set_geometry", "norm_probe",
        "cli"]


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == list(run.WORKLOAD_NAMES[:len(gated)])


def test_point_set_scales_stay_above_the_set_resolution(tmp_path):
    # estimate_dimensions rejects scales finer than the set's finest feature
    for seed in range(3):
        wl = workloads.WORKLOADS["covering"](random.Random(seed), tmp_path, 5)
        tally = run.Tally(workloads.PROPERTIES)
        for _ in range(5):
            for op in wl.deck():
                if not op.label.startswith("cantor("):
                    run.run_op(op, tally)
        assert tally.failures == []
