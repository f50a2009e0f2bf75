"""Tests of the benchmark's op generators: python3 -m pytest -q bench"""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_program()
from workloads import (FORMATS, WORKLOADS, AnalyzeMix, Crosscheck,  # noqa: E402
                       OracleScan)

CERTIFICATE = {(0, -3, 0), (0, -2, 0), (0, -1, 1), (1, -4, 0), (1, -2, 1),
               (1, 0, 2), (1, 1, 3), (2, 3, 5)}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param].load()


def test_same_seed_same_ops_other_seed_other_ops(workload):
    assert workload.ops(7) == workload.ops(7)
    assert workload.ops(7) != workload.ops(8)


def test_no_op_repeats_outside_certificate_stratum(workload):
    ops = workload.ops(3)
    if workload.name == "oracle_scan":
        fixed = {OracleScan._box(e["box"]) for e in workload.expected["fixed"]}
        ops = [op for op in ops if op not in fixed]
    elif workload.name == "analyze_mix":
        ops = [op >> 2 for op in ops if workload.stratum(op) != "certificate"]
    else:
        ops = [op[:3] for op in ops]
    assert len(ops) == len(set(ops))


def test_oracle_boxes():
    workload = WORKLOADS["oracle_scan"].load()
    ops = workload.ops(5)
    fixed = [OracleScan._box(e["box"]) for e in workload.expected["fixed"]]
    assert fixed == [((0, 10), (-30, 30), (0, 30)), ((0, 20), (-40, 40), (0, 40))]
    per_round = workload.round_size
    assert per_round == OracleScan.STRATA + len(fixed)
    assert len(ops) == per_round * OracleScan.BOXES_PER_STRATUM
    volumes = [workload.triplets(box) for box in ops if box not in fixed]
    assert 450 <= min(volumes) and max(volumes) <= 22000
    assert sorted(volumes)[len(volumes) // 2] == pytest.approx(3225, rel=0.2)
    for r in range(OracleScan.BOXES_PER_STRATUM):
        round_ = ops[r * per_round:(r + 1) * per_round]
        assert all(round_.count(box) == 1 for box in fixed)
        strata = {OracleScan._box(e["box"]): s
                  for s, stratum in enumerate(workload.expected["strata"])
                  for e in stratum}
        assert sorted(strata[box] for box in round_ if box not in fixed) == \
            list(range(OracleScan.STRATA))
    for box in ops:
        assert all(lo_r <= lo <= hi <= hi_r
                   for (lo, hi), (lo_r, hi_r) in zip(box, OracleScan.REGION))


def test_analyze_mix_strata_and_formats():
    workload = WORKLOADS["analyze_mix"].load()
    assert len(workload.strata["invalid"]) == 235259
    assert len(workload.strata["valid"]) == 67354
    ops = workload.ops(11)
    assert len(ops) == AnalyzeMix.ROUNDS * workload.round_size
    strata = Counter(workload.stratum(op) for op in ops)
    assert strata == {"invalid": 0.4 * len(ops), "valid": 0.4 * len(ops),
                      "certificate": 0.2 * len(ops)}
    for r in range(0, AnalyzeMix.ROUNDS, 17):
        round_ = ops[r * workload.round_size:(r + 1) * workload.round_size]
        assert Counter(workload.stratum(op) for op in round_) == AnalyzeMix.ROUND
    triplets = {stratum: {workload.triplet(op >> 2) for op in ops
                          if workload.stratum(op) == stratum} for stratum in strata}
    assert triplets["certificate"] == CERTIFICATE
    assert workload.stratum(workload.index((3, 1, 10)) * 4) == "valid"
    assert workload.stratum(workload.index((0, -3, 0)) * 4) == "certificate"
    for stratum in strata:
        formats = Counter(FORMATS[op & 3] for op in ops if workload.stratum(op) == stratum)
        assert set(formats) == set(FORMATS)
        assert max(formats.values()) / min(formats.values()) < 1.1
    (llo, lhi), (mlo, mhi), (nlo, nhi) = AnalyzeMix.REGION
    assert ((llo, lhi), (mlo, mhi), (nlo, nhi)) == ((0, 40), (-60, 60), (0, 60))
    for lam, mu, nu in set().union(*triplets.values()):
        assert llo <= lam <= lhi and mlo <= mu <= mhi and nlo <= nu <= nhi
        assert AnalyzeMix.triplet(AnalyzeMix.index((lam, mu, nu))) == (lam, mu, nu)


def test_crosscheck_triplets_and_gauge():
    ops = WORKLOADS["crosscheck"].load().ops(13)
    assert len(ops) == Crosscheck.OPS
    (llo, lhi), (mlo, mhi), (nlo, nhi) = Crosscheck.BOX
    swaps = 0
    for lam, mu, nu, fmt, top in ops:
        assert llo <= lam <= lhi and mlo <= mu <= mhi and nlo <= nu <= nhi
        assert fmt in FORMATS
        x, y = sorted(top[2:4])
        k = x
        assert (y - x, top[4] - 2 * k, top[5] - 3 * k) == (lam, mu, nu)
        swaps += top[2] > top[3]
    assert 0.4 < swaps / len(ops) < 0.6
    assert max(Counter(op[3] for op in ops).values()) < 0.3 * len(ops)


def test_loop_never_runs_an_op_twice():
    class Recorder:
        def __init__(self):
            self.seen = []

        def run(self, op):
            self.seen.append(op)
            return op

        def check(self, op, result):
            return None

    recorder = Recorder()
    loop = run.timed_loop(recorder, list(range(50)), 10, 10**12, round_size=5)
    assert recorder.seen == list(range(10, 50))
    assert len(loop.durations) == 40
