"""Success accounting, seed derivation, sweep aggregation, and the
results serialization formats."""

import json
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmtopo import harness
from swarmtopo.engine import BatchResult, Neighborhoods, RunResult
from swarmtopo.harness import (
    AggregateMetrics,
    ExperimentPlan,
    RESULTS_COLUMNS,
    SuccessCriterion,
    death_fraction_to_prob,
    derive_seed,
    parse_results_csv,
    results_to_csv,
    results_to_json,
    run_plan,
    success_predicate,
    trade_off,
)
from swarmtopo.graph_metrics import natural_connectivity
from swarmtopo.objectives import ObjectiveSpec, default_spec, shekel_params
from swarmtopo.topology import TOPOLOGY_KINDS, TopologySpec

from strategies import graph_of


def _mask_at(points, objective, criterion=SuccessCriterion()):
    # position-radius reads only the positions; scores are placeholders
    positions = np.asarray(points, dtype=np.float64)
    return success_predicate(criterion, objective)(positions, np.zeros(len(positions)))


def _tiny_plan(**overrides):
    settings = dict(
        topologies=(
            TopologySpec(kind="complete", node_count=12),
            TopologySpec(kind="ring", node_count=12),
        ),
        objectives=(default_spec("shekel"),),
        death_fractions=(0.0, 0.3),
        base_seed=99,
        repetitions=2,
        max_iters=60,
    )
    settings.update(overrides)
    return ExperimentPlan(**settings)


class TestSuccessCriterion:
    def test_default_tolerance_is_half_percent_of_diagonal(self):
        # shekel's box [0, 10]^4 has diagonal 20, ackley's [-15, 30]^2
        # sqrt(2) * 45.  The last coordinate within eps of the optimum
        # qualifies and the next float does not
        for name, eps in (("shekel", 0.1), ("ackley", 0.005 * np.sqrt(2) * 45.0)):
            objective = default_spec(name)
            opt = objective.optimum_location
            inside = opt[0] + eps
            if inside - opt[0] > eps:
                inside = np.nextafter(inside, -np.inf)
            points = np.tile(opt, (2, 1))
            points[:, 0] = inside, np.nextafter(inside, np.inf)
            assert _mask_at(points, objective).tolist() == [True, False], name

    def test_default_tolerance_is_resolved_once_per_predicate(self, monkeypatch):
        calls = []
        diagonal = ObjectiveSpec.range_diagonal

        def counted(self):
            calls.append(self.name)
            return diagonal(self)

        monkeypatch.setattr(ObjectiveSpec, "range_diagonal", counted)
        objective = default_spec("shekel")
        predicate = success_predicate(SuccessCriterion(), objective)
        positions = np.array([objective.optimum_location] * 3)
        for _ in range(10):
            assert predicate(positions, np.zeros(3)).all()
        assert calls == ["shekel"]

    def test_boundary_inclusive_two_of_three(self):
        objective = default_spec("shekel")
        criterion = SuccessCriterion()
        eps = 0.1
        base = objective.optimum_location
        offsets = [0.1 * eps, eps, 1.1 * eps]
        points = [base + np.array([d, 0, 0, 0]) for d in offsets]
        assert _mask_at(points, objective, criterion).tolist() == [True, True, False]

    def test_value_gap_mode(self):
        objective = default_spec("rastrigin")
        criterion = SuccessCriterion(mode="value-gap", tolerance=0.5)
        # rastrigin([0.04, 0]) ~ 0.319 <= 0.5; rastrigin([0.25, 0]) ~ 5.6
        near = np.array([[0.04, 0.0], [0.25, 0.0]])
        scores = objective.score_many(near)
        mask = success_predicate(criterion, objective)(near, scores)
        assert mask.tolist() == [True, False]

    def test_value_gap_mode_maximization(self):
        objective = default_spec("shekel")
        criterion = SuccessCriterion(mode="value-gap", tolerance=0.5)
        # shekel peaks near 10.5 at the optimum and is below 1 at the origin
        points = np.array([objective.optimum_location, np.zeros(4)])
        mask = success_predicate(criterion, objective)(points, objective.score_many(points))
        assert mask.tolist() == [True, False]

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            SuccessCriterion(mode="nearest")
        with pytest.raises(ValueError):
            SuccessCriterion(tolerance=0.0)
        for tolerance in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=f"got {tolerance}"):
                SuccessCriterion(tolerance=tolerance)

    @pytest.mark.parametrize("dimension", [1, 2, 4, 10])
    def test_radius_mask_matches_row_formula_bit_for_bit(self, dimension):
        # the column-wise sum must give the bits of the row-wise formula,
        # on random points and on points placed at the tolerance itself
        objective = default_spec("rastrigin", dimension)
        criterion = SuccessCriterion()
        # rastrigin's box is [-5.12, 5.12]^d
        eps = 0.005 * (np.sqrt(dimension) * 10.24)
        opt = objective.optimum_location
        rng = np.random.default_rng(dimension)
        points = [opt + rng.normal(0.0, eps / np.sqrt(dimension), size=(400, dimension))]
        for scale in (eps, eps / np.sqrt(dimension)):
            for towards in (-np.inf, np.inf):
                edge = np.nextafter(scale, towards)
                points.append(opt + np.diag(np.full(dimension, edge)))
                points.append(opt - np.full((1, dimension), edge))
                direction = rng.normal(size=(50, dimension))
                direction /= np.sqrt((direction * direction).sum(axis=1))[:, None]
                points.append(opt + edge * direction)
        points = np.concatenate(points)
        before = points.copy()
        gaps = points - opt
        expected = np.sqrt((gaps * gaps).sum(axis=1)) <= eps
        mask = _mask_at(points, objective, criterion)
        assert np.array_equal(mask, expected)
        assert mask.any() and not mask.all()
        assert np.array_equal(points, before)

    def test_all_agents_at_optimum_all_win(self):
        objective = default_spec("shekel")
        assert _mask_at([objective.optimum_location] * 5, objective).all()

    def test_far_swarm_no_winners(self):
        objective = default_spec("shekel")
        assert not _mask_at([[0.0, 0.0, 0.0, 0.0]] * 3, objective).any()


def _sphere(radius, count, seed):
    """``count`` points of R^4 at distance ``radius`` from Shekel's
    optimum; ``radius`` may be one per point."""
    directions = np.random.default_rng(seed).normal(size=(count, 4))
    directions /= np.sqrt((directions * directions).sum(axis=1))[:, None]
    return default_spec("shekel").optimum_location + np.reshape(radius, (-1, 1)) * directions


def _shekel_maxima(eps, starts, seed):
    """Local maxima of Shekel outside the ball of radius ``eps`` about the
    optimum, by SLSQP from ``starts`` random points of [-2, 12]^4 (scipy
    is a test-only oracle); only the points that keep the constraint."""
    from scipy.optimize import minimize

    objective = default_spec("shekel")
    centre = objective.optimum_location
    rng = np.random.default_rng(seed)
    found = []
    for start in rng.uniform(-2.0, 12.0, size=(starts, 4)):
        constraints = (
            [{"type": "ineq", "fun": lambda x: np.sum((x - centre) ** 2) - eps * eps}]
            if eps > 0 else []
        )
        done = minimize(lambda x: -objective.evaluate(x), start, method="SLSQP",
                        constraints=constraints)
        if np.sqrt(np.sum((done.x - centre) ** 2)) >= eps:
            found.append(objective.evaluate(done.x))
    assert len(found) > starts // 2
    return np.array(found)


class TestSettleScore:
    """``settle_score``: any best score above it satisfies the criterion.

    The oracles are the kernel on dense samples and scipy's local
    maximizers; none of them may reach the certified score.
    """

    shekel = default_spec("shekel")

    def _score(self, mode="position-radius", tolerance=None):
        return success_predicate(SuccessCriterion(mode, tolerance), self.shekel).settle_score

    @pytest.mark.parametrize("eps", [0.1, 0.03, 0.5, 2.0])
    def test_radius_score_bounds_shekel_outside_the_ball(self, eps):
        score = self._score(tolerance=eps)
        assert score is not None and score < self.shekel.optimum_value
        rng = np.random.default_rng(7)
        centre = self.shekel.optimum_location
        # the sphere itself, a shell outside it, and far points, most of
        # them outside the search box
        shell = _sphere(rng.uniform(eps, 1.5 * eps, 50_000), 50_000, 1)
        far = rng.uniform(-5.0, 15.0, size=(200_000, 4))
        far = far[np.sqrt(((far - centre) ** 2).sum(axis=1)) >= eps]
        for points in (_sphere(eps, 200_000, 0), shell, far):
            assert self.shekel.evaluate_many(points).max() < score
        assert _shekel_maxima(eps, 40, 3).max() < score

    def test_default_radius_score(self):
        # 0.1 is 0.5% of the box diagonal; the sphere peaks near 9.646
        score = self._score()
        assert score == self._score(tolerance=0.1)
        sphere_max = self.shekel.evaluate_many(_sphere(0.1, 200_000, 4)).max()
        assert 9.64 < sphere_max < score < 9.70

    def test_score_above_certificate_qualifies(self):
        # a best scoring above the score lies inside the ball
        score = self._score()
        qualifies = success_predicate(SuccessCriterion(), self.shekel)
        points = self.shekel.optimum_location + np.random.default_rng(5).uniform(
            -0.1, 0.1, size=(400_000, 4)
        )
        values = self.shekel.evaluate_many(points)
        above = values > score
        assert above.any() and not above.all()
        assert qualifies(points[above], values[above]).all()

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.005, 5.0])
    def test_value_gap_score_at_its_boundary(self, eps):
        optimum = self.shekel.optimum_value
        score = self._score("value-gap", eps)
        assert optimum - eps < score < optimum
        qualifies = success_predicate(SuccessCriterion("value-gap", eps), self.shekel)
        # from just above the score to the highest value Shekel reaches
        highest = _shekel_maxima(0.0, 20, 6).max()
        assert highest <= optimum + eps
        scores = np.array([np.nextafter(score, np.inf), optimum, highest])
        assert qualifies(np.zeros((3, 4)), scores).all()
        # the score is as low as the boundary allows, up to the margin
        assert score - (optimum - eps) <= 2e-9 * optimum

    @pytest.mark.parametrize("mode, eps", [
        ("position-radius", 1e-3),   # the ball misses Shekel's true maximizer
        ("position-radius", 4.0),    # the ball reaches the edge of the box
        ("position-radius", 10.0),
        ("value-gap", 1e-5),         # Shekel rises above its value at (4, 4, 4, 4)
    ])
    def test_uncertifiable_tolerances_have_no_score(self, mode, eps):
        assert self._score(mode, eps) is None

    @pytest.mark.parametrize("name", ["ackley", "griewank", "schwefel", "rastrigin"])
    @pytest.mark.parametrize("mode", ["position-radius", "value-gap"])
    def test_other_objectives_have_no_score(self, name, mode):
        criterion = SuccessCriterion(mode)
        assert success_predicate(criterion, default_spec(name)).settle_score is None

    def test_score_is_computed_once_per_key(self):
        harness._settle_score.cache_clear()
        for _ in range(3):
            self._score()
            self._score("value-gap", 0.1)
        info = harness._settle_score.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 4, 2)


class TestFloorScore:
    """``floor_score``: no best score below it satisfies the criterion.

    The oracles are the kernel on dense samples of the ball and its
    sphere, and on points that the success check accepts though exact
    rational arithmetic puts them outside the ball.
    """

    shekel = default_spec("shekel")

    def _predicate(self, mode="position-radius", tolerance=None):
        return success_predicate(SuccessCriterion(mode, tolerance), self.shekel)

    @pytest.mark.parametrize("eps", [0.1, 0.03, 0.5, 2.0])
    def test_radius_floor_bounds_shekel_inside_the_ball(self, eps):
        floor = self._predicate(tolerance=eps).floor_score
        rng = np.random.default_rng(11)
        # the sphere and the whole ball, uniform in volume
        ball = _sphere(eps * rng.random(100_000) ** 0.25, 100_000, 2)
        for points in (_sphere(eps, 100_000, 1), ball):
            assert self.shekel.evaluate_many(points).min() >= floor

    def test_default_radius_floor(self):
        # the closed form at 0.1, against the ball's sampled minimum 9.6017
        floor = self._predicate().floor_score
        centers, heights = shekel_params()
        reach = np.sqrt(((centers - 4.0) ** 2).sum(axis=1)) + 0.1
        assert floor == pytest.approx((1.0 / (reach**2 + heights)).sum(), rel=2e-9)
        assert 9.5904 < floor < 9.5906
        sampled = self.shekel.evaluate_many(_sphere(0.1, 200_000, 4)).min()
        assert floor < sampled < 9.602

    @pytest.mark.parametrize("eps", [0.1, 0.03, 0.5])
    def test_rounding_outside_the_ball(self, eps):
        from fractions import Fraction

        qualifies = self._predicate(tolerance=eps)
        rng = np.random.default_rng(3)
        # points a few ulps beyond the sphere, in exact arithmetic
        points = _sphere(eps * (1.0 + rng.uniform(0.0, 4e-16, 8_000)), 8_000, 5)
        accepted = points[qualifies(points, np.zeros(len(points)))]
        centre = [Fraction(float(c)) for c in self.shekel.optimum_location]
        outside = np.array([
            sum((Fraction(float(x)) - c) ** 2 for x, c in zip(point, centre)) > Fraction(eps) ** 2
            for point in accepted
        ], dtype=bool)
        assert outside.any()
        assert self.shekel.evaluate_many(accepted[outside]).min() >= qualifies.floor_score

    @pytest.mark.parametrize("eps", [0.1, 0.01, 5.0])
    def test_value_gap_floor_at_its_boundary(self, eps):
        optimum = self.shekel.optimum_value
        qualifies = self._predicate("value-gap", eps)
        floor = qualifies.floor_score
        assert floor < optimum - eps
        assert (optimum - eps) - floor <= 2e-9 * optimum
        # the lowest qualifying score lies above it, the scores below it fail
        below = np.array([np.nextafter(floor, -np.inf), floor - 1e-6, 0.0])
        assert not qualifies(np.zeros((3, 4)), below).any()
        assert qualifies(np.zeros((1, 4)), np.array([optimum - eps])).all()

    @pytest.mark.parametrize("name", ["ackley", "griewank", "schwefel", "rastrigin"])
    @pytest.mark.parametrize("mode", ["position-radius", "value-gap"])
    def test_other_objectives_have_no_floor(self, name, mode):
        criterion = SuccessCriterion(mode)
        assert success_predicate(criterion, default_spec(name)).floor_score is None

    def test_floor_is_computed_once_per_key(self):
        harness._floor_score.cache_clear()
        for _ in range(3):
            self._predicate()
            self._predicate("value-gap", 0.1)
        info = harness._floor_score.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 4, 2)


class TestDeathConversion:
    def test_pinned_inversions(self):
        p15 = death_fraction_to_prob(0.15, 500)
        p30 = death_fraction_to_prob(0.30, 500)
        assert abs(p15 - 0.0003249850399135168) < 1e-18
        assert abs(p30 - 0.0007130955143356266) < 1e-18
        # published rounded values
        assert abs(p15 - 0.00033) < 1e-5
        assert abs(p30 - 0.0007) < 2e-5

    def test_round_trip(self):
        for fraction in (0.05, 0.15, 0.30, 0.9):
            p = death_fraction_to_prob(fraction, 500)
            assert abs((1.0 - (1.0 - p) ** 500) - fraction) < 1e-12

    def test_zero_fraction(self):
        assert death_fraction_to_prob(0.0, 500) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            death_fraction_to_prob(1.0, 500)
        with pytest.raises(ValueError):
            death_fraction_to_prob(-0.1, 500)
        with pytest.raises(ValueError):
            death_fraction_to_prob(0.5, 0)


class TestTradeOff:
    def test_hand_computed_triples(self):
        assert abs(trade_off(100.0, 400.0, 100.0, 400.0, 0.7) - 0.4) < 1e-12
        assert abs(trade_off(50.0, 100.0, 100.0, 400.0, 0.7) - 0.275) < 1e-12
        assert abs(trade_off(100.0, 123.0, 100.0, 400.0, 1.0) - 1.0) < 1e-12
        assert abs(trade_off(0.0, 400.0, 100.0, 400.0, 0.7) - (-0.3)) < 1e-12

    def test_absent_time_is_absent_value(self):
        assert trade_off(10.0, None, 100.0, 400.0, 0.7) is None

    def test_rejects_bad_normalizers(self):
        with pytest.raises(ValueError):
            trade_off(1.0, 1.0, 0.0, 400.0, 0.7)
        with pytest.raises(ValueError):
            trade_off(1.0, 1.0, 100.0, 0.0, 0.7)
        with pytest.raises(ValueError):
            trade_off(1.0, 1.0, 100.0, 400.0, 1.5)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        args = (42, "ring-n100", "shekel", 0.15, 3)
        assert derive_seed(*args) == derive_seed(*args)
        variants = {
            derive_seed(42, "ring-n100", "shekel", 0.15, 3),
            derive_seed(43, "ring-n100", "shekel", 0.15, 3),
            derive_seed(42, "star-n100", "shekel", 0.15, 3),
            derive_seed(42, "ring-n100", "ackley", 0.15, 3),
            derive_seed(42, "ring-n100", "shekel", 0.30, 3),
            derive_seed(42, "ring-n100", "shekel", 0.15, 4),
        }
        assert len(variants) == 6

    def test_uint64_range(self):
        seed = derive_seed(0, "x", "y", 0.0, 0)
        assert 0 <= seed < 2**64


class TestPlanValidation:
    def test_rejects_duplicate_topology_ids(self):
        with pytest.raises(ValueError):
            _tiny_plan(
                topologies=(
                    TopologySpec(kind="ring", node_count=12),
                    TopologySpec(kind="ring", node_count=12),
                )
            )

    def test_rejects_duplicate_objectives(self):
        with pytest.raises(ValueError):
            _tiny_plan(objectives=(default_spec("shekel"), default_spec("shekel")))

    def test_rejects_duplicate_death_fractions_by_value(self):
        # 0 and -0 are one hostility level, though repr() tells them apart
        with pytest.raises(ValueError) as info:
            _tiny_plan(death_fractions=(0.0, 0.3, -0.0))
        assert str(info.value) == "duplicate death fractions in plan: [0.0]"

    def test_negative_zero_fraction_is_zero(self):
        # repr(-0.0) is '-0.0': kept as given, it would give the runs other
        # seeds than 0.0 and print -0.0 in the row
        def csv(fraction):
            plan = _tiny_plan(
                topologies=(TopologySpec(kind="ring", node_count=12),),
                objectives=(default_spec("rastrigin"),),
                death_fractions=(fraction,),
                max_iters=30,
            )
            assert repr(plan.death_fractions[0]) == "0.0"
            return results_to_csv(run_plan(plan))

        assert csv(-0.0) == csv(0.0)

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            _tiny_plan(topologies=())
        with pytest.raises(ValueError):
            _tiny_plan(objectives=())
        with pytest.raises(ValueError):
            _tiny_plan(death_fractions=())

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            _tiny_plan(repetitions=0)
        with pytest.raises(ValueError):
            _tiny_plan(alpha=2.0)
        with pytest.raises(ValueError):
            _tiny_plan(death_fractions=(1.0,))
        with pytest.raises(ValueError):
            _tiny_plan(death_horizon=0)


class TestRunCellAndPlan:
    def test_cell_shape_and_determinism(self):
        plan = _tiny_plan(
            topologies=(TopologySpec(kind="complete", node_count=12),),
            death_fractions=(0.0,),
        )
        (cell,) = run_plan(plan)
        assert run_plan(plan) == [cell]
        assert 0.0 <= cell.gsr <= 1.0
        assert cell.repetitions == 2
        assert cell.topology_id == plan.topologies[0].topology_id()
        assert (cell.trade_off is None) == (cell.gs_time is None)

    def test_gsr_one_implies_full_winners_at_zero_death(self):
        # spec invariant: with p=0, global success means every agent won
        plan = _tiny_plan(
            topologies=(TopologySpec(kind="complete", node_count=12),),
            death_fractions=(0.0,),
            repetitions=3,
            max_iters=400,
        )
        (cell,) = run_plan(plan)
        if cell.gsr == 1.0:
            assert cell.winners_mean == 12.0

    def test_plan_rows_and_trade_off_normalization(self):
        plan = _tiny_plan()
        rows = run_plan(plan)
        assert len(rows) == 4  # 2 topologies x 1 objective x 2 fractions
        ids = [(r.topology_id, r.objective, r.death_fraction) for r in rows]
        assert len(set(ids)) == 4
        # recompute trade-offs from the stored aggregates
        for fraction in (0.0, 0.3):
            group = [r for r in rows if r.death_fraction == fraction]
            times = [r.gs_time for r in group if r.gs_time is not None]
            winners_max = max(r.winners_mean for r in group)
            if not times or winners_max <= 0:
                assert all(r.trade_off is None for r in group)
                continue
            time_max = max(times)
            for r in group:
                if r.gs_time is None:
                    assert r.trade_off is None
                else:
                    expected = trade_off(
                        r.winners_mean, r.gs_time, winners_max, time_max, plan.alpha
                    )
                    assert abs(r.trade_off - expected) < 1e-15

    def test_single_cell_self_normalizes_to_0_4(self):
        plan = _tiny_plan(
            topologies=(TopologySpec(kind="complete", node_count=12),),
            death_fractions=(0.0,),
            repetitions=2,
            max_iters=500,
        )
        rows = run_plan(plan)
        assert len(rows) == 1
        row = rows[0]
        if row.gs_time is not None and row.winners_mean > 0:
            assert abs(row.trade_off - 0.4) < 1e-12

    def test_slice_without_winners_has_no_trade_off(self, monkeypatch):
        # a run can converge and still end with no qualifying best: the
        # slice then has no winners to normalize by
        def converged_without_winners(batch, *args, **kwargs):
            return BatchResult(tuple(
                RunResult(
                    converged=True,
                    convergence_iteration=5,
                    winners=0,
                    survivors=config.n_agents,
                    iterations_executed=config.max_iters,
                )
                for config in batch.configs
            ))

        monkeypatch.setattr(harness, "run", converged_without_winners)
        rows = run_plan(_tiny_plan())
        assert [(r.gs_time, r.winners_mean, r.trade_off) for r in rows] == [
            (5.0, 0.0, None)
        ] * 4

    def test_workers_match_serial(self):
        plan = _tiny_plan()
        assert run_plan(plan, workers=2) == run_plan(plan, workers=1)

    def test_cell_order_does_not_matter(self):
        plan = _tiny_plan()
        flipped = _tiny_plan(topologies=tuple(reversed(plan.topologies)))
        by_cell = {
            (r.topology_id, r.death_fraction): r for r in run_plan(plan)
        }
        for r in run_plan(flipped):
            assert by_cell[(r.topology_id, r.death_fraction)] == r

    def test_graph_metrics_attached(self):
        rows = run_plan(_tiny_plan())
        complete_row = next(r for r in rows if r.topology_kind == "complete")
        assert complete_row.avg_path_length == 1.0
        assert complete_row.natural_connectivity is not None

    def test_one_node_cell_matches_plan_row(self):
        # a one-node graph has no pairs: no path length, on either path
        plan = _tiny_plan(topologies=(TopologySpec(kind="complete", node_count=1),))
        rows = run_plan(plan)
        assert [r.avg_path_length for r in rows] == [None, None]
        assert [r.natural_connectivity for r in rows] == [
            natural_connectivity(graph_of("complete", node_count=1))
        ] * 2
        assert run_plan(plan, workers=2) == rows

    def test_each_topology_built_once(self, monkeypatch):
        built = []
        graphs = set()
        build_topology, run = harness.build_topology, harness.run

        def counting_build(spec):
            built.append(spec.topology_id())
            return build_topology(spec)

        def recording_run(batch, batch_graphs, *args, **kwargs):
            graphs.update(map(id, batch_graphs))
            return run(batch, batch_graphs, *args, **kwargs)

        monkeypatch.setattr(harness, "build_topology", counting_build)
        monkeypatch.setattr(harness, "run", recording_run)
        plan = _tiny_plan()
        run_plan(plan)
        assert built == [spec.topology_id() for spec in plan.topologies]
        assert len(graphs) == len(plan.topologies)  # the cells share each graph

    @pytest.mark.parametrize("traced", [False, True])
    def test_cell_failure_names_the_cell(self, monkeypatch, traced):
        run = harness.run

        def failing_run(batch, graphs, *args, **kwargs):
            # the ring is the one sparse graph of the tiny plan
            for config, graph in zip(batch.configs, graphs):
                if not graph.is_complete and config.death_prob > 0:
                    raise ZeroDivisionError("boom")
            return run(batch, graphs, *args, **kwargs)

        monkeypatch.setattr(harness, "run", failing_run)
        on_trace = (lambda *run: None) if traced else None
        with pytest.raises(RuntimeError) as info:
            run_plan(_tiny_plan(), on_trace=on_trace)
        assert str(info.value) == (
            "cell topology=ring-n12 objective=shekel death_fraction=0.3 "
            "failed: ZeroDivisionError: boom"
        )
        assert isinstance(info.value.__cause__, ZeroDivisionError)


    @settings(max_examples=6, deadline=None)
    @given(budget=st.integers(1, 400_000), seed=st.integers(0, 2**16))
    def test_batching_and_workers_do_not_change_results(self, budget, seed):
        specs = (
            TopologySpec("complete", node_count=9),
            TopologySpec("star", node_count=9),
            TopologySpec("ring", node_count=9),
            TopologySpec("core-periphery", node_count=9, core_size=3),
            TopologySpec("ring-core-star", node_count=9, hub_count=2),
            TopologySpec("multi-ring", node_count=9, ring_levels=2),
            TopologySpec("von-neumann", rows=3, cols=3),
            TopologySpec("scale-free", node_count=9, attach_count=2, seed=seed),
            TopologySpec("random", node_count=9, edge_prob=0.3, seed=seed),
            TopologySpec("small-world", node_count=9, degree=4, rewire_prob=0.3, seed=seed),
            TopologySpec("ring", node_count=6),
        )
        assert {spec.kind for spec in specs} == set(TOPOLOGY_KINDS)
        plan = _tiny_plan(
            topologies=specs,
            objectives=(default_spec("shekel"), default_spec("rastrigin")),
            success=SuccessCriterion(tolerance=2.0),
            base_seed=seed,
            max_iters=20,
        )

        def traced_run(workers=1):
            traces = {}

            def on_trace(*run):
                traces[run[:4]] = run[4]

            return run_plan(plan, workers, on_trace), traces

        # a one-byte budget runs every run as its own batch
        with mock.patch.object(harness, "_CHUNK_BYTES", 1):
            alone = traced_run()
        with mock.patch.object(harness, "_CHUNK_BYTES", budget):
            assert traced_run() == alone
            assert traced_run(workers=2) == alone
            assert run_plan(plan, workers=2) == alone[0]
        assert len(alone[1]) == len(specs) * 2 * 2 * plan.repetitions

    def test_traces_are_dropped_before_aggregation(self, monkeypatch):
        seen = []
        aggregate = harness._aggregate

        def spying_aggregate(plan, cell, results):
            seen.extend(results)
            return aggregate(plan, cell, results)

        monkeypatch.setattr(harness, "_aggregate", spying_aggregate)
        traces = []
        rows = run_plan(_tiny_plan(), on_trace=lambda *run: traces.append(run))
        # 4 cells x 2 repetitions, each trace handed over once and then dropped
        assert len(seen) == len(traces) == 8
        assert all(result.trace is None for result in seen)
        assert all(len(trace[0]) == 60 for *_, trace in traces)
        assert rows == run_plan(_tiny_plan())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trace_callback_error_stops_the_plan(self, monkeypatch, tmp_path, workers):
        log = tmp_path / "chunks.log"
        run_rows = harness._run_rows

        def logging_run_rows(*args):
            # forked workers inherit this patch and append to the same file
            with open(log, "a", encoding="ascii") as fh:
                fh.write("chunk\n")
            return run_rows(*args)

        def failing(*run):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "_run_rows", logging_run_rows)
        plan = _tiny_plan(repetitions=10)
        # a one-byte budget makes each of the 40 runs its own chunk
        with mock.patch.object(harness, "_CHUNK_BYTES", 1):
            with pytest.raises(OSError, match="disk full"):
                run_plan(plan, workers, on_trace=failing)
        # the chunks not yet started when the callback failed never run
        assert len(log.read_text("ascii").splitlines()) < 40

    @pytest.mark.parametrize("kind", ["complete", "star", "ring"])
    def test_row_bytes_count_the_leader_entries(self, kind):
        # the estimate's leader-CSR entries are the ones the engine builds:
        # a complete row is one segment of its N agents
        graph = graph_of(kind, node_count=30)
        objective = default_spec("shekel")
        cell = harness._Cell(0, TopologySpec(kind, node_count=30), graph, (None, 0.0),
                             objective, 0.0)
        entries = Neighborhoods((graph,))._indices.size
        assert harness._row_bytes(cell) == 8 * (10 * 30 * 4 + 3 * entries)
        assert entries == {"complete": 30, "star": 30 + 2 * 29, "ring": 30 * 3}[kind]

    def test_chunk_failure_without_a_failing_cell(self, monkeypatch):
        run = harness.run

        def failing_run(batch, graphs, *args, **kwargs):
            if len(batch.configs) > 2:
                raise ValueError("too many")
            return run(batch, graphs, *args, **kwargs)

        monkeypatch.setattr(harness, "run", failing_run)
        with pytest.raises(RuntimeError, match="failed together: ValueError: too many"):
            run_plan(_tiny_plan())


class TestSerialization:
    def _rows(self):
        return [
            AggregateMetrics(
                topology_id="ring-n100",
                topology_kind="ring",
                objective="shekel",
                death_fraction=0.15,
                repetitions=50,
                gsr=0.84,
                gs_time=123.5,
                winners_mean=87.2,
                trade_off=0.4179,
                avg_path_length=2500 / 99,
                natural_connectivity=0.83,
            ),
            AggregateMetrics(
                topology_id="star-n100",
                topology_kind="star",
                objective="shekel",
                death_fraction=0.15,
                repetitions=50,
                gsr=0.0,
                gs_time=None,
                winners_mean=0.0,
                trade_off=None,
                avg_path_length=None,
                # never absent: every graph has a natural connectivity
                natural_connectivity=5.349371175761953,
            ),
        ]

    def test_csv_header_and_absent_markers(self):
        text = results_to_csv(self._rows())
        lines = text.splitlines()
        assert lines[0] == ",".join(RESULTS_COLUMNS)
        assert lines[0] == (
            "topology_id,topology_kind,objective,death_fraction,repetitions,"
            "gsr,gs_time,winners_mean,trade_off,L,natural_connectivity"
        )
        star = lines[2].split(",")
        assert star[6] == "--" and star[8] == "--"
        assert star[9] == "--" and star[10] == "5.349371175761953"

    def test_csv_round_trip(self):
        rows = self._rows()
        assert parse_results_csv(results_to_csv(rows)) == rows

    def test_csv_rejects_wrong_header(self):
        with pytest.raises(ValueError):
            parse_results_csv("a,b,c\n1,2,3\n")

    def test_csv_parse_failure_names_line_and_column(self):
        lines = results_to_csv(self._rows()).splitlines()
        lines[2] = lines[2].replace(",0.0,", ",zz,", 1)  # the star row's gsr
        with pytest.raises(ValueError) as info:
            parse_results_csv("\n".join(lines) + "\n")
        assert str(info.value) == (
            "line 3, column gsr: could not convert string to float: 'zz'"
        )
        # natural connectivity is never absent, so the absent marker is an error
        lines[1] = lines[1].rsplit(",", 1)[0] + ",--"
        with pytest.raises(ValueError) as info:
            parse_results_csv("\n".join(lines) + "\n")
        assert str(info.value) == (
            "line 2, column natural_connectivity: could not convert string to float: '--'"
        )
        with pytest.raises(ValueError, match=r"^line 2: malformed results row"):
            parse_results_csv(lines[0] + "\nring-n100,ring\n")

    def test_json_mirror(self):
        payload = json.loads(results_to_json(self._rows()))
        assert set(payload) == {"results"}
        first, second = payload["results"]
        assert first["topology_id"] == "ring-n100"
        assert first["L"] == 2500 / 99
        assert second["gs_time"] is None
        assert second["trade_off"] is None
        assert set(first) == set(RESULTS_COLUMNS)

    def test_csv_floats_survive_exactly(self):
        rows = self._rows()
        parsed = parse_results_csv(results_to_csv(rows))
        assert parsed[0].avg_path_length == 2500 / 99
        assert parsed[0].gsr == 0.84


_TEXT = st.text(alphabet=string.ascii_letters + string.digits + ' -_.,"', max_size=12)
_FLOAT = st.one_of(
    st.floats(allow_nan=False), st.sampled_from([0.1234567, 0.1, 1 / 3, -0.0, 5e-324])
)


@st.composite
def _result_rows(draw):
    return AggregateMetrics(
        topology_id=draw(_TEXT),
        topology_kind=draw(_TEXT),
        objective=draw(_TEXT),
        death_fraction=draw(_FLOAT),
        repetitions=draw(st.one_of(st.just(1), st.integers(1, 10**6))),
        gsr=draw(_FLOAT),
        gs_time=draw(st.none() | _FLOAT),
        winners_mean=draw(_FLOAT),
        trade_off=draw(st.none() | _FLOAT),
        avg_path_length=draw(st.none() | _FLOAT),
        natural_connectivity=draw(_FLOAT),
    )


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_result_rows(), max_size=5))
def test_results_csv_round_trip_is_byte_identical(rows):
    text = results_to_csv(rows)
    parsed = parse_results_csv(text)
    assert parsed == rows
    assert results_to_csv(parsed) == text
