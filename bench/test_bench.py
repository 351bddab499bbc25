"""Tests of the benchmark itself: seeded inputs and the outside-in tracer.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import os
import subprocess
import sys

import pytest

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _inputs_in_fresh_process(workload, seed, hashseed):
    code = ("import sys, workloads; sys.stdout.buffer.write("
            f"workloads.dumps(workloads.generate({workload!r}, {seed})))")
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    return subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, check=True).stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = _inputs_in_fresh_process(workload, 7, 1)
    assert first == _inputs_in_fresh_process(workload, 7, 2)
    assert first == workloads.dumps(workloads.generate(workload, 7))
    assert first != workloads.dumps(workloads.generate(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_values_not_the_op_mix(workload):
    def shape(seed):
        return [(op["kind"], op.get("form"), op.get("label"))
                for op in workloads.generate(workload, seed)]

    assert shape(1) == shape(2)
    assert len(shape(1)) >= workloads.MIN_OPS


def test_point_heights_stay_in_a_narrow_band():
    rng = workloads.rng_for("test", 0)
    for bits in (5, 10, 15, 20):
        for _ in range(20):
            p, q = workloads._point_at_bits(rng, bits)
            assert 1 << (bits - 1) <= p <= (1 << (bits - 1)) * 17 // 16 + 1
            assert q != 0 and p % q


def test_cli_keeps_the_hanging_input():
    for seed in (1, 2, 3):
        hanging = [op for op in workloads.generate("cli", seed)
                   if op["label"] == "hanging"]
        assert len(hanging) == 1
        assert workloads.HANGING_LITERAL in hanging[0]["argv"]


def test_closed_forms_agree_with_reference_values():
    assert workloads.kronecker_hom(["P", 1], ["Q", 3]) == 2
    assert workloads.kronecker_ext(["Q", 1], ["P", 1]) == 2
    assert workloads.kronecker_ext(["Q", 200], ["P", 200]) == 400
    assert workloads.kronecker_hom(["P", 1], ["P", 2]) == 2


@pytest.fixture
def traced():
    tr = tracer.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def _ancestors(spans, i):
    names = []
    while spans[i][3] >= 0:
        i = spans[i][3]
        names.append(spans[i][0])
    return names


def test_intra_package_calls_produce_spans(traced):
    from siltglue import kronecker, silting
    assert silting.glue_kronecker("P4", "P3", "P4").render() == "P3 + P4"
    spans = list(traced.spans())
    names = [s[0] for s in spans]
    derived = [i for i, n in enumerate(names) if n == "complexes.derived_hom_dim"]
    assert derived
    assert all("silting.glue_kronecker" in _ancestors(spans, i) for i in derived)
    # a representation no earlier test has seen, so hom_dim misses its cache
    rep = workloads._explicit(workloads._change_basis(
        workloads.rng_for("tracer-test", 0),
        workloads._direct_sum([workloads._rep_p(3), workloads._rep_q(2)])))
    start = len(spans)
    kronecker.hom_dim(rep, rep)
    spans = list(traced.spans())[start:]
    assert [s[0] for s in spans] == ["kronecker.hom_dim", "exactlin.sparse_rank"]
    assert spans[1][3] == start
    summary = traced.summary()
    assert summary["counters"]["exactlin.sparse_rank.nonzeros"] > 0
    assert summary["counters"]["exactlin.rref.cells"] > 0
    assert summary["caches"]["kronecker.hom_dim"]["misses"] > 0


def test_self_time_excludes_child_spans(traced):
    from siltglue import silting
    silting.glue_kronecker("Q3", "Q4", "Q3")
    s = traced.summary()
    spans = list(traced.spans())
    total = sum(end - start for name, start, end, parent in spans
                if parent < 0)
    assert sum(s["self_s"].values()) == pytest.approx(total, rel=1e-6)


def test_uninstall_restores_every_alias():
    import siltglue
    from siltglue import complexes, exactlin, silting
    before = (silting.derived_hom_dim, complexes.derived_hom_dim,
              exactlin.rref, siltglue.decompose)
    tr = tracer.Tracer()
    tr.install()
    assert silting.derived_hom_dim is complexes.derived_hom_dim
    assert silting.derived_hom_dim is not before[0]
    assert siltglue.decompose is not before[3]
    tr.uninstall()
    assert (silting.derived_hom_dim, complexes.derived_hom_dim,
            exactlin.rref, siltglue.decompose) == before


@pytest.mark.parametrize("workload", ["kronecker-glue", "kronecker-decompose",
                                      "tube-sweep"])
def test_traced_answers_equal_untraced_answers(workload, tmp_path):
    # every 7th op, plus the small-rank census ops the round trips read
    picked = [op for k, op in enumerate(workloads.generate(workload, 3))
              if op["kind"] in ("census", "roundtrip") and op["n"] <= 4
              or op["kind"] not in ("census", "roundtrip") and k % 7 == 0]
    plain = [op.run() for op in workloads.build(workload, picked, str(tmp_path))]
    tr = tracer.Tracer()
    tr.install()
    try:
        ops = workloads.build(workload, picked, str(tmp_path))
        traced = [op.run() for op in ops]
    finally:
        tr.uninstall()
    assert traced == plain
    assert all(op.check(r) for op, r in zip(ops, traced))
    assert sum(tr.summary()["calls"].values()) > 0
