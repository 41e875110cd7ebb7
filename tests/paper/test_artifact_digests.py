"""Byte guard for the paper's artifacts at reduced size.

Each workload of the paper-artifact benchmark (``perfbench/``) runs once at
its ``tiny`` size in a fresh interpreter on the pure DES core with
``PYTHONHASHSEED=0``: Figure 6 (two replications), the campus scale run,
and the replay of Table 2, Figures 4-5, the office week and the campus day,
serially and on a two-worker pool.  Every replication result and every
rendered artifact is digested in perfbench's canonical form and compared
with the literals below, so a change that moves any output byte fails
here.  ``replay-jobs2`` runs ``replay``'s inputs and must match its
literals, which guards the pool path as well.

When an output change is intended, record the new digests with
``run.run_pass(workload, 0, False, "tiny")`` from ``perfbench/run.py``.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: ``(replication digests, artifact digests)`` per input set, recorded with
#: ``run.run_pass(workload, 0, False, "tiny")``.
EXPECTED = {
    "fig6": (
        (
            ("figure6", "23b05b93d21159f219c51f0b309c7df19ddf446f3e4c40ce8f3767667766d305"),
            ("figure6", "6b017afe5a79e91a73b88eec2f6b05b220aca7a1ee77dde120c38cc40f6e3fad"),
        ),
        (
            ("figure6", "b044dd15d6ec379c9d969e275fb4767795e5361f0ed19733091af106aa776f1d"),
        ),
    ),
    "campus-100k": (
        (
            ("campus", "af19b137b3cce11cbc5eae977cbdd131c1e4dbedc5908c0bb2373bd12d384aba"),
        ),
        (
            ("campus", "1e37666264372570cbfe7dcbbd128e612b58789bdc98ad0c9f515e5dde63e0bd"),
        ),
    ),
    "replay": (
        (
            ("table2", "9bad62957b363e799d914768c12a8df9abff381682b42ebf0f781cbd7489c06d"),
            ("table2", "f8574ba04f24cc321356da096b629f1f242c1985086ec667ed11d290f30f171e"),
            ("table2", "e90f361c49b604acd6627355dad9d97051a436b7eee41b2a1a1843cee5edf8e5"),
            ("table2", "5ef51849ffb5a1dcce481d0ab5609f40d25670204f78316ecc3a19fd68ec7f74"),
            ("table2", "34ce100ea5fbf59b021e30db18e75f3babd426487576c81da4ed07f4c7afce26"),
            ("table2", "d8095b30aff6a00230c551f1510fc6ee30b8b584ad62d7ea3ebc6fca00301187"),
            ("figure4", "edddce5d0ccf28bb53ef071d8d2d8507cd90c86641a390e1c48348336904cd52"),
            ("figure5", "77bf73a5dbff79338dd00f5b1e29b1ee3e2f15702a75f52ae9839cc836dfe7fe"),
            ("figure5", "f14e345be307d5376655d1d5007319b41140e9e49053fc789764aba36969e26b"),
            ("figure5", "af56ea9b591be61e0cf7ee63db455909e7863ee24039142f9208f1df6f3a00ab"),
            ("figure5", "7300044048f0fd55c2b42801055e5b4c5a7ce95c0fd23013278c20116f3f49d2"),
            ("figure5", "5802db4d4931adb3ebfe775820b69356b6d4dadf9ae7a562563647f804337bb7"),
            ("figure5", "5c98fcb8792337f4d573acd719a9873dd5d5306af27d782a9d8904301639dafd"),
            ("office-week", "cde03f06ba58137edd2ee7f91a1d3bcbf4e02ba7d9d3350e669f52b3fcfde542"),
            ("campus-day", "850522452032b61a0aaed857f7fd4991da422945558697032da62378f401cd3a"),
        ),
        (
            ("table2", "1935b5810fdd3c5d569f5cdc6e005b84a08dcab91147a334659f8e6e3b393703"),
            ("figure4", "a93d4d20fb648c238e6a4269216595de2f4500703bc8517c2e8e0238f4bf3b18"),
            ("figure5", "561b5719f91df6cc80bb1e355c42880f34a177cee89c1cccdf3ceeb55a777243"),
            ("office-week", "24a616e7c3ec919484d7fa239ce92fe83964d8496967e581cc3f48722e95dabf"),
            ("campus-day", "b9a183a140aafab0fb9b7a361d3b4aebdee4e7a3da61d7f77be564efd3ff609d"),
        ),
    ),
}


@pytest.fixture(scope="module")
def perfbench_run():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["fig6", "campus-100k", "replay", "replay-jobs2"])
def test_tiny_artifacts_match_recorded_digests(perfbench_run, workload):
    report = perfbench_run.run_pass(workload, 0, False, "tiny")
    assert report["ok"], report.get("error")
    replications, artifacts = EXPECTED[perfbench_run.digest_key(workload)]
    assert [tuple(pair) for pair in report["replication_digests"]] == list(replications)
    assert [tuple(pair) for pair in report["artifact_digests"]] == list(artifacts)
