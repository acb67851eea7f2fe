import numpy as np

from hkc.records import build_records, canonical_json, worst_residuals


def test_worst_residuals_do_not_depend_on_pair_order():
    # the maximum over floats is exact and commutative: the same pairs in
    # any order give the same bits; keys come in the order of first yield
    rng = np.random.default_rng(8)
    pairs = [(f"k{i % 3}", rng.random((4, 1)) * 10.0 ** -rng.integers(1, 12))
             for i in range(12)]
    pairs += [("k3", 0.25), ("k1", [0.5, 1e-3]), ("k4", np.zeros((4, 1)))]
    want = worst_residuals(pairs)
    assert list(want) == ["k0", "k1", "k2", "k3", "k4"]
    assert want["k1"] == 0.5 and want["k4"] == 0.0
    assert want["k0"] == max(float(np.max(r)) for k, r in pairs if k == "k0")
    for _ in range(20):
        got = worst_residuals([pairs[i] for i in rng.permutation(len(pairs))])
        assert got == want


def test_nan_residual_fails_its_record():
    pairs = [("axioms.unit_reeb", [1e-17, np.nan]), ("axioms.compat", 1e-17),
             ("axioms.unit_reeb", 0.0)]
    assert np.isnan(worst_residuals(pairs)["axioms.unit_reeb"])
    recs = {r.id: r for r in build_records("axioms", 2, pairs, (1e-9, 1e-9))}
    reeb, compat = recs["axioms.unit_reeb"], recs["axioms.compat"]
    assert reeb.passed is False and np.isnan(reeb.max_residual)
    assert compat.passed is True and compat.samples == 2
    assert '"max_residual": "nan"' in canonical_json(reeb.as_dict())


def test_canonical_json_of_numpy_scalars_containers_and_non_finite_floats():
    # the writer's other branches, which no golden reaches: numpy scalars,
    # a tuple and an ndarray are written as their Python counterparts
    cases = [
        (np.float64(0.1), "0.10000000000000001"),
        (np.int64(-7), "-7"),
        (np.bool_(True), "true"),
        (np.bool_(False), "false"),
        ((1, "a", None), '[\n  1,\n  "a",\n  null\n]'),
        (np.array([[1.0, 2.5], [3.0, -0.0]]),
         "[\n  [\n    1,\n    2.5\n  ],\n  [\n    3,\n    -0\n  ]\n]"),
        (float("nan"), '"nan"'),
        (float("inf"), '"inf"'),
        (-float("inf"), '"-inf"'),
        (np.float64("-inf"), '"-inf"'),
        ({}, "{}"),
        ([], "[]"),
        ({"b": [], "a": {}}, '{\n  "a": {},\n  "b": []\n}'),
    ]
    for value, want in cases:
        assert canonical_json(value) == want, value
