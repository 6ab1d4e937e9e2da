"""Menu validation, dominance pruning, and profit normalization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orric import (
    InferConfig,
    ProfileSet,
    RetrainConfig,
    load_profiles,
    normalize_profits,
    prune_dominated,
    read_menus,
    save_profiles,
)


def antichain_prune(pairs: list[tuple[float, float]], keep_zero: bool = False) -> list[tuple[float, float]]:
    """Quadratic all-pairs dominance filter, the oracle for prune_dominated.

    An entry is kept iff no other entry has cost <= its cost and payoff
    >= its payoff (other than exact duplicates, which collapse to one).
    """
    unique = sorted(set(pairs), key=lambda e: (e[1], -e[0]))
    kept = []
    for payoff, cost in unique:
        dominated = any(
            (oc <= cost and op >= payoff) and (oc, op) != (cost, payoff)
            for op, oc in unique
        )
        if not dominated:
            kept.append((payoff, cost))
    kept.sort(key=lambda e: e[1])
    return kept


class TestValidation:
    def test_gain_range(self):
        with pytest.raises(ValueError):
            RetrainConfig(gain=-0.1, cost=1.0)
        with pytest.raises(ValueError):
            RetrainConfig(gain=1.5, cost=1.0)
        with pytest.raises(ValueError):
            RetrainConfig(gain=0.5, cost=-1.0)

    def test_infer_positive(self):
        with pytest.raises(ValueError):
            InferConfig(profit=0.0, cost=1.0)
        with pytest.raises(ValueError):
            InferConfig(profit=0.5, cost=0.0)

    @pytest.mark.parametrize("make", [
        lambda x: RetrainConfig(gain=0.5, cost=x),
        lambda x: InferConfig(profit=x, cost=1.0),
        lambda x: InferConfig(profit=0.5, cost=x),
    ], ids=["retrain-cost", "infer-profit", "infer-cost"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, make, value):
        with pytest.raises(ValueError):
            make(value)

    def test_profit_above_one_allowed(self):
        # raw accuracy menus arrive unnormalized
        cfg = InferConfig(profit=79.57, cost=7.94)
        assert cfg.profit == 79.57

    def test_empty_menus_rejected(self):
        with pytest.raises(ValueError):
            ProfileSet(retrain=[], infer=[(0.5, 1.0)])
        with pytest.raises(ValueError):
            ProfileSet(retrain=[(0.0, 0.0)], infer=[])
        with pytest.raises(ValueError, match="^inference menu is empty$"):
            prune_dominated([(0, 0)], [])

    def test_zero_configuration_required(self):
        with pytest.raises(ValueError):
            ProfileSet(retrain=[(0.1, 1.0)], infer=[(0.5, 1.0)])

    def test_strict_monotonicity_required(self):
        with pytest.raises(ValueError):
            ProfileSet(retrain=[(0.0, 0.0), (0.5, 2.0), (0.4, 3.0)], infer=[(0.5, 1.0)])
        with pytest.raises(ValueError):
            ProfileSet(retrain=[(0.0, 0.0)], infer=[(0.5, 1.0), (0.6, 1.0)])

    def test_tuple_coercion(self, worked_profiles):
        assert worked_profiles.retrain[1] == RetrainConfig(gain=1.0, cost=10.0)
        assert worked_profiles.infer[0] == InferConfig(profit=0.6, cost=2.0)


class TestDerived:
    def test_worked_extrema(self, worked_profiles):
        ps = worked_profiles
        assert (ps.m, ps.n) == (2, 2)
        assert ps.max_gain == 1.0
        assert ps.min_profit == 0.6
        assert ps.max_profit == 1.0
        assert ps.min_infer_cost == 2.0
        assert ps.top_pair_cost == 15.0


class TestPruning:
    def test_noise_menu_drops_full_resolution(self):
        # raw student rows under heavy noise: the most expensive input
        # size is also less accurate than the next one down, so it goes
        raw_infer = [(42.97, 6.35), (55.71, 6.71), (64.53, 7.45), (56.28, 7.94)]
        ps = prune_dominated([(0.0, 0.0)], raw_infer)
        assert ps.n == 3
        assert [cfg.cost for cfg in ps.infer] == [6.35, 6.71, 7.45]
        assert [cfg.profit for cfg in ps.infer] == [42.97, 55.71, 64.53]

    def test_monotone_input_unchanged(self, worked_profiles):
        ps = prune_dominated(
            [tuple(e) for e in [(0.0, 0.0), (1.0, 10.0)]],
            [(0.6, 2.0), (1.0, 5.0)],
        )
        assert ps == worked_profiles

    def test_auto_insert_zero(self):
        ps = prune_dominated([(0.5, 3.0)], [(1.0, 1.0)])
        assert ps.retrain[0] == RetrainConfig(gain=0.0, cost=0.0)
        with pytest.raises(ValueError):
            prune_dominated([(0.5, 3.0)], [(1.0, 1.0)], auto_insert_zero=False)

    def test_cost_tie_keeps_higher_payoff(self):
        ps = prune_dominated([(0.0, 0.0)], [(0.4, 2.0), (0.6, 2.0), (1.0, 5.0)])
        assert [(c.profit, c.cost) for c in ps.infer] == [(0.6, 2.0), (1.0, 5.0)]

    def test_duplicates_collapse(self):
        ps = prune_dominated([(0.0, 0.0), (0.5, 3.0), (0.5, 3.0)], [(1.0, 1.0)])
        assert ps.m == 2

    def test_idempotent(self, rng=np.random.default_rng(7)):
        for _ in range(50):
            k = int(rng.integers(1, 9))
            raw = [(float(p), float(c)) for p, c in zip(rng.uniform(0.1, 1.0, k), rng.uniform(0.5, 9.0, k))]
            once = prune_dominated([(0.0, 0.0)], raw)
            twice = prune_dominated(
                [(e.gain, e.cost) for e in once.retrain],
                [(e.profit, e.cost) for e in once.infer],
            )
            assert once == twice

    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=1.0),
                st.floats(min_value=0.01, max_value=10.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_all_pairs_oracle(self, raw):
        ps = prune_dominated([(0.0, 0.0)], raw)
        got = [(cfg.profit, cfg.cost) for cfg in ps.infer]
        assert got == antichain_prune(raw)

    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.01, max_value=10.0),
            ),
            min_size=0,
            max_size=8,
        )
    )
    def test_retrain_matches_oracle_with_zero_entry(self, raw):
        ps = prune_dominated(raw, [(1.0, 1.0)])
        got = [(cfg.gain, cfg.cost) for cfg in ps.retrain]
        assert got == antichain_prune(raw + [(0.0, 0.0)])

    def test_free_gain_rejected(self):
        with pytest.raises(ValueError):
            prune_dominated([(0.3, 0.0)], [(1.0, 1.0)])

    def test_no_kept_entry_dominated(self, rng=np.random.default_rng(11)):
        for _ in range(100):
            k = int(rng.integers(1, 9))
            raw = list(zip(rng.uniform(0.1, 1.0, k), rng.uniform(0.5, 9.0, k)))
            ps = prune_dominated([(0.0, 0.0)], [(float(p), float(c)) for p, c in raw])
            kept = [(cfg.profit, cfg.cost) for cfg in ps.infer]
            for a in kept:
                for b in kept:
                    if a != b:
                        assert not (b[1] <= a[1] and b[0] >= a[0])

    def test_every_removed_entry_dominated(self, rng=np.random.default_rng(13)):
        for _ in range(100):
            k = int(rng.integers(1, 9))
            raw = [(float(p), float(c)) for p, c in zip(rng.uniform(0.1, 1.0, k), rng.uniform(0.5, 9.0, k))]
            ps = prune_dominated([(0.0, 0.0)], raw)
            kept = [(cfg.profit, cfg.cost) for cfg in ps.infer]
            for p, c in raw:
                if (p, c) not in kept:
                    assert any(kc <= c and kp >= p for kp, kc in kept)


class TestNormalization:
    def test_student_original_row(self):
        out = normalize_profits([44.93, 59.38, 73.29, 79.57])
        expected = [0.5647, 0.7463, 0.9211, 1.0]
        assert out == pytest.approx(expected, abs=1e-4)
        assert out[-1] == 1.0

    def test_singleton(self):
        assert normalize_profits([0.37]) == [1.0]

    def test_exact_halving(self):
        assert normalize_profits([50.0, 100.0]) == [0.5, 1.0]

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            normalize_profits([0.0, 1.0])
        with pytest.raises(ValueError):
            normalize_profits([])


class TestIO:
    def test_json_round_trip(self, tmp_path, worked_profiles):
        path = tmp_path / "profiles.json"
        save_profiles(path, worked_profiles)
        assert load_profiles(path) == worked_profiles

    def test_csv_read(self, tmp_path, worked_profiles):
        path = tmp_path / "profiles.csv"
        path.write_text(
            "kind,gain_or_profit,cost\n"
            "retrain,0,0\n"
            "retrain,1,10\n"
            "infer,0.6,2\n"
            "infer,1.0,5\n"
        )
        assert load_profiles(path) == worked_profiles

    def test_load_prunes(self, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({
            "retrain": [{"gain": 0.5, "cost": 3.0}],
            "infer": [{"profit": 0.9, "cost": 2.0}, {"profit": 0.4, "cost": 4.0}],
        }))
        ps = load_profiles(path)
        assert ps.retrain[0] == RetrainConfig(gain=0.0, cost=0.0)
        assert ps.n == 1

    def test_read_menus_keeps_raw(self, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({
            "retrain": [{"gain": 0.0, "cost": 0.0}],
            "infer": [{"profit": 0.9, "cost": 2.0}, {"profit": 0.4, "cost": 4.0}],
        }))
        retrain, infer = read_menus(path)
        assert len(infer) == 2

    def test_wrong_csv_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kind,payoff,cost\ninfer,0.5,1\n")
        with pytest.raises(ValueError, match="^profile CSV must have header kind,gain_or_profit,cost$"):
            read_menus(path)

    def test_json_menu_not_a_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"retrain": 5, "infer": [{"profit": 1.0, "cost": 1.0}]}))
        with pytest.raises(ValueError, match='^profile JSON "retrain" must be a list$'):
            read_menus(path)

    def test_unknown_csv_kind(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kind,gain_or_profit,cost\nboth,0.5,1\n")
        with pytest.raises(ValueError):
            load_profiles(path)
