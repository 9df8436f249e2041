from dataclasses import replace

import numpy as np
import pytest

from pgrain import DomainError, compute_metrics
from pgrain import eval as ev
from pgrain.eval import (
    RegionSpec,
    StageSpec,
    SyntheticSceneSpec,
    ToyPipelineConfig,
    ablate_csv,
    ablate_m,
    constant_label_scene,
    density_imbalanced_scene,
    generate_scene,
    metrics_csv,
    plane_side,
    run_toy_pipeline,
    two_plane_boundary_scene,
)
from pgrain.pagwn import aggregate_precomputed, baseline_backward, pagwn_backward, pagwn_forward_batch


def metrics_oracle(pred, truth, c):
    """Independent dict-counting confusion oracle."""
    tp = {k: 0 for k in range(c)}
    fp = {k: 0 for k in range(c)}
    fn = {k: 0 for k in range(c)}
    for p, t in zip(pred, truth):
        if p == t:
            tp[t] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    iou, acc = {}, {}
    for k in range(c):
        iou[k] = tp[k] / (tp[k] + fp[k] + fn[k]) if tp[k] + fp[k] + fn[k] else None
        acc[k] = tp[k] / (tp[k] + fn[k]) if tp[k] + fn[k] else None
    defined_iou = [v for v in iou.values() if v is not None]
    defined_acc = [v for v in acc.values() if v is not None]
    oa = sum(tp.values()) / len(pred)
    return iou, acc, sum(defined_iou) / len(defined_iou), sum(defined_acc) / len(defined_acc), oa


class TestComputeMetrics:
    def test_perfect_prediction(self):
        report = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert report.miou == 1.0 and report.macc == 1.0 and report.oa == 1.0

    def test_hand_confusion_case(self):
        report = compute_metrics([0, 1, 1, 1], [0, 0, 1, 1], 2)
        assert report.per_class_iou[0] == 0.5
        assert report.per_class_iou[1] == 2.0 / 3.0
        assert report.per_class_acc[0] == 0.5
        assert report.per_class_acc[1] == 1.0
        assert report.oa == 0.75
        assert report.macc == 0.75
        assert report.miou == pytest.approx(7.0 / 12.0, rel=1e-15, abs=0)

    def test_all_wrong_two_class(self):
        report = compute_metrics([1, 0, 1, 0], [0, 1, 0, 1], 2)
        assert report.oa == 0.0 and report.miou == 0.0

    def test_absent_class_is_nan_and_excluded(self):
        report = compute_metrics([0, 0], [0, 0], 3)
        assert np.isnan(report.per_class_iou[1]) and np.isnan(report.per_class_iou[2])
        assert report.miou == 1.0

    def test_class_predicted_but_absent_from_truth(self):
        # IoU defined (zero), accuracy undefined
        report = compute_metrics([1, 0], [0, 0], 2)
        assert report.per_class_iou[1] == 0.0
        assert np.isnan(report.per_class_acc[1])

    def test_errors(self):
        with pytest.raises(DomainError) as exc:
            compute_metrics([0, 1], [0], 2)
        assert exc.value.kind == "length-mismatch"
        with pytest.raises(DomainError) as exc:
            compute_metrics([0, 2], [0, 1], 2)
        assert exc.value.kind == "label-out-of-range"

    def test_non_integer_labels_rejected(self):
        for pred, truth in ((np.array([1.0, 0.0]), [1, 0]), ([1, 0], np.array([1.0, 0.0]))):
            with pytest.raises(DomainError) as exc:
                compute_metrics(pred, truth, 2)
            assert exc.value.kind == "dimension-mismatch"
            assert "labels must be integers" in str(exc.value)

    def test_matches_oracle_on_random_cases(self, rng):
        for _ in range(200):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(1, 60))
            pred = rng.integers(0, c, size=n)
            truth = rng.integers(0, c, size=n)
            report = compute_metrics(pred, truth, c)
            iou, acc, miou, macc, oa = metrics_oracle(pred.tolist(), truth.tolist(), c)
            for k in range(c):
                if iou[k] is None:
                    assert np.isnan(report.per_class_iou[k])
                else:
                    assert report.per_class_iou[k] == iou[k]
                if acc[k] is None:
                    assert np.isnan(report.per_class_acc[k])
                else:
                    assert report.per_class_acc[k] == acc[k]
            assert report.oa == oa
            assert report.miou == pytest.approx(miou, rel=1e-12)
            assert report.macc == pytest.approx(macc, rel=1e-12)

    def test_iou_never_exceeds_accuracy(self, rng):
        for _ in range(50):
            c = int(rng.integers(2, 5))
            pred = rng.integers(0, c, size=100)
            truth = rng.integers(0, c, size=100)
            report = compute_metrics(pred, truth, c)
            both = ~np.isnan(report.per_class_iou) & ~np.isnan(report.per_class_acc)
            assert np.all(report.per_class_iou[both] <= report.per_class_acc[both] + 1e-15)

    def test_oa_is_frequency_weighted_accuracy(self, rng):
        c = 3
        pred = rng.integers(0, c, size=200)
        truth = rng.integers(0, c, size=200)
        report = compute_metrics(pred, truth, c)
        weights = np.bincount(truth, minlength=c) / 200.0
        accs = np.where(np.isnan(report.per_class_acc), 0.0, report.per_class_acc)
        assert report.oa == pytest.approx(float((weights * accs).sum()), rel=1e-12)

    def test_joint_permutation_invariance(self, rng):
        pred = rng.integers(0, 3, size=80)
        truth = rng.integers(0, 3, size=80)
        perm = rng.permutation(80)
        a = compute_metrics(pred, truth, 3)
        b = compute_metrics(pred[perm], truth[perm], 3)
        assert a.miou == b.miou and a.macc == b.macc and a.oa == b.oa

    def test_csv_layout(self):
        report = compute_metrics([0, 1, 1, 1], [0, 0, 1, 1], 2)
        lines = metrics_csv(report).splitlines()
        assert lines[0] == "class,iou,acc"
        assert len(lines) == 1 + 2 + 3
        assert lines[-3].startswith("miou,") and lines[-1].startswith("oa,")

    def test_text_report_carries_all_three_means(self):
        from pgrain.eval import metrics_text
        report = compute_metrics([0, 1, 1, 1], [0, 0, 1, 1], 2)
        text = metrics_text(report)
        assert "mIoU 0.5833" in text and "mAcc 0.7500" in text and "OA 0.7500" in text


class TestSceneGeneration:
    def test_single_plane_region(self):
        spec = SyntheticSceneSpec(regions=(RegionSpec("plane", 100, 50.0, 2),), seed=1)
        cloud = generate_scene(spec)
        assert cloud.num_points == 100
        assert np.all(cloud.labels == 2)
        assert np.all(cloud.coords[:, 2] == 0.0)  # first plane is the floor

    def test_same_seed_is_identical(self):
        spec = SyntheticSceneSpec(
            regions=(RegionSpec("plane", 64, 50.0, 0, 0.1), RegionSpec("sphere", 64, 50.0, 1, 0.1)),
            seed=9,
        )
        a, b = generate_scene(spec), generate_scene(spec)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.features, b.features)

    def test_density_scales_separate_nn_distances(self):
        from pgrain.spatial import build_index, knn_batch
        dense, sparse = 10.0, 1.0
        spec = SyntheticSceneSpec(
            regions=(RegionSpec("plane", 400, dense, 0), RegionSpec("plane", 400, sparse, 1)),
            seed=3,
        )
        cloud = generate_scene(spec)
        _, distances = knn_batch(build_index(cloud), cloud.coords, 9)
        mean_nn = distances[:, 1:].mean(axis=1)  # skip self
        ratio = mean_nn[cloud.labels == 1].mean() / mean_nn[cloud.labels == 0].mean()
        assert ratio >= (dense / sparse) ** (1.0 / 3.0) / 2.0
        assert ratio > 1.0

    def test_sphere_points_on_surface(self):
        spec = SyntheticSceneSpec(regions=(RegionSpec("sphere", 200, 100.0, 0),), seed=4)
        cloud = generate_scene(spec)
        radius = np.sqrt(200 / (4 * np.pi * 100.0))
        center = cloud.coords.mean(axis=0)
        dist = np.linalg.norm(cloud.coords - center, axis=1)
        np.testing.assert_allclose(dist, radius, rtol=0.15)

    def test_invalid_specs_rejected(self):
        with pytest.raises(DomainError):
            SyntheticSceneSpec(regions=(), seed=0)
        for primitive in ("cone", "box-edge"):
            with pytest.raises(DomainError):
                SyntheticSceneSpec(regions=(RegionSpec(primitive, 10, 1.0, 0),), seed=0)
        with pytest.raises(DomainError):
            SyntheticSceneSpec(regions=(RegionSpec("plane", 0, 1.0, 0),), seed=0)

    def test_boundary_scene_band_tracks_edge(self):
        cloud, boundary = two_plane_boundary_scene(seed=0, point_count=400, density=400.0)
        side = plane_side(400, 400.0)
        dist = np.sqrt((cloud.coords[:, 0] - side) ** 2 + cloud.coords[:, 2] ** 2)
        assert boundary.any() and not boundary.all()
        assert dist[boundary].max() < dist[~boundary].min() + 1e-12


class TestToyPipeline:
    def _tiny_config(self, **kw):
        defaults = dict(
            stages=(StageSpec(m_points=32, k=8, split=3),),
            num_classes=2,
            head_hidden=(8,),
            epochs=5,
            learning_rate=0.1,
            batch_size=2,
            seed=0,
            aggregator="pagwn",
        )
        defaults.update(kw)
        return ToyPipelineConfig(**defaults)

    def test_constant_label_scenes_reach_perfect_oa(self):
        train = [constant_label_scene(seed, point_count=96) for seed in range(3)]
        test = [constant_label_scene(99, point_count=96)]
        result = run_toy_pipeline(self._tiny_config(), train, test)
        assert result.metrics.oa == 1.0

    def test_deterministic_to_the_last_bit(self):
        train = [density_imbalanced_scene(s, dense_count=96, sparse_count=48) for s in range(2)]
        test = [density_imbalanced_scene(77, dense_count=96, sparse_count=48)]
        config = self._tiny_config(epochs=3)
        a = run_toy_pipeline(config, train, test)
        b = run_toy_pipeline(config, train, test)
        assert a.metrics.miou == b.metrics.miou
        assert a.metrics.oa == b.metrics.oa
        assert a.losses == b.losses

    def test_divergence_is_reported_with_epoch(self):
        # constant-label scenes cannot diverge (overshooting saturates the
        # softmax in the right direction), so use a two-class task
        train = [density_imbalanced_scene(0, dense_count=96, sparse_count=48)]
        test = [density_imbalanced_scene(1, dense_count=96, sparse_count=48)]
        with np.errstate(all="ignore"), pytest.raises(DomainError) as exc:
            run_toy_pipeline(self._tiny_config(learning_rate=1e200, epochs=5), train, test)
        assert exc.value.kind == "divergence"
        assert "epoch" in str(exc.value)

    @pytest.mark.parametrize("overrides", [
        dict(learning_rate=1e200, epochs=1),
        dict(learning_rate=1e100, epochs=2),
        dict(learning_rate=1e100, epochs=1, aggregator="knn_baseline"),
        dict(learning_rate=1e100, epochs=1, aggregator="bq_baseline", bq_radius=0.6),
    ], ids=["pagwn-1e200", "pagwn-1e100", "knn_baseline", "bq_baseline"])
    def test_overflow_in_the_test_forward_is_divergence_at_the_last_epoch(self, overrides):
        # the last step leaves finite weights that overflow in the test scenes' forward,
        # in the aggregator or in the head
        train = [density_imbalanced_scene(0, dense_count=96, sparse_count=48)]
        test = [density_imbalanced_scene(1, dense_count=96, sparse_count=48)]
        config = self._tiny_config(**overrides)
        with np.errstate(all="ignore"), pytest.raises(DomainError) as exc:
            run_toy_pipeline(config, train, test)
        assert str(exc.value) == f"divergence: non-finite values at epoch {config.epochs - 1}"

    def test_baseline_aggregators_run(self):
        train = [density_imbalanced_scene(s, dense_count=96, sparse_count=48) for s in range(2)]
        test = [density_imbalanced_scene(50, dense_count=96, sparse_count=48)]
        for aggregator, extra in (("knn_baseline", {}), ("bq_baseline", {"bq_radius": 0.6})):
            config = self._tiny_config(aggregator=aggregator, epochs=2, **extra)
            result = run_toy_pipeline(config, train, test)
            assert 0.0 <= result.metrics.oa <= 1.0

    def test_scenes_must_be_labeled(self, rng):
        from conftest import random_cloud
        unlabeled = random_cloud(rng, n_points=40)
        with pytest.raises(DomainError) as exc:
            run_toy_pipeline(self._tiny_config(), [unlabeled], [unlabeled])
        assert exc.value.kind == "invalid-spec"

    def test_label_outside_the_classes_is_rejected(self):
        inside, outside = constant_label_scene(0, point_count=64), constant_label_scene(0, point_count=64, label=3)
        config = ToyPipelineConfig((StageSpec(16, 4, 2),), num_classes=2, epochs=1)
        for train, test in (([outside], [inside]), ([inside], [outside])):
            with pytest.raises(DomainError) as exc:
                run_toy_pipeline(config, train, test)
            assert exc.value.kind == "label-out-of-range"

    def test_config_validation(self):
        with pytest.raises(DomainError):
            self._tiny_config(stages=())
        with pytest.raises(DomainError):  # increasing sample counts
            self._tiny_config(stages=(StageSpec(8, 4, 2), StageSpec(16, 4, 2)))
        with pytest.raises(DomainError):  # split out of range
            self._tiny_config(stages=(StageSpec(8, 4, 4),))
        with pytest.raises(DomainError):
            self._tiny_config(aggregator="transformer")
        with pytest.raises(DomainError):
            self._tiny_config(aggregator="bq_baseline")  # radius missing

    def test_head_layer_sizes_and_stage_fields_must_be_integers(self):
        # a bool is an int in Python but not in JSON
        for head_hidden in ((0,), (8, -1), (2.5,), ("8",), (True,), (8, True)):
            with pytest.raises(DomainError) as exc:
                self._tiny_config(head_hidden=head_hidden)
            assert exc.value.kind == "invalid-spec", head_hidden
        for stage in (StageSpec(32, "8", 3), StageSpec(32.0, 8, 3), StageSpec(32, 8, 2.5),
                      StageSpec(32, 8, True), StageSpec(True, 8, 3), StageSpec(32, True, 1)):
            with pytest.raises(DomainError) as exc:
                self._tiny_config(stages=(stage,))
            assert exc.value.kind == "invalid-spec", stage

    @pytest.mark.parametrize("fields", [dict(learning_rate=float("inf")), dict(learning_rate=float("nan")),
                                        dict(epsilon=0.0), dict(epsilon=-1.0), dict(epsilon=float("nan"))],
                             ids=["lr-inf", "lr-nan", "eps-0", "eps-neg", "eps-nan"])
    def test_non_finite_or_non_positive_step_and_epsilon_are_invalid_spec(self, fields):
        # rejected by the config itself, before any scene is planned or trained on
        with pytest.raises(DomainError) as exc:
            self._tiny_config(**fields)
        assert exc.value.kind == "invalid-spec"
        assert next(iter(fields)) in str(exc.value)

    @pytest.mark.parametrize("value", [{}, "ab", 8, None, range(1, 3)], ids=["dict", "str", "int", "none", "range"])
    @pytest.mark.parametrize("field", ["stages", "head_hidden"])
    def test_stages_and_head_hidden_must_be_lists(self, field, value):
        # tuple({}) is () and tuple("ab") is ("a", "b"): neither may pass as a layer list
        with pytest.raises(DomainError) as exc:
            self._tiny_config(**{field: value})
        assert exc.value.kind == "invalid-spec"
        assert f"{field} must be a list" in str(exc.value)

    def test_wrong_typed_fields_are_invalid_spec(self):
        two_stages = (StageSpec("8", 4, 1), StageSpec(4, 2, 1))
        cases = [dict(stages=two_stages), dict(epochs=2.5), dict(num_classes="2"), dict(learning_rate="x")]
        # a radius that is not a number is wrong whether or not the aggregator reads it
        cases += [dict(aggregator=name, bq_radius="0.1") for name in ("pagwn", "knn_baseline", "bq_baseline")]
        # JSON true and false are not numbers, though Python's bool is an int
        cases += [dict(epochs=True), dict(batch_size=True), dict(seed=False), dict(num_classes=True),
                  dict(learning_rate=True), dict(epsilon=True), dict(aggregator="bq_baseline", bq_radius=True)]
        for fields in cases:
            with pytest.raises(DomainError) as exc:
                self._tiny_config(**fields)
            assert exc.value.kind == "invalid-spec", fields


class TestTrainingLossGradient:
    """Central differences of one scene's whole training loss.

    The loss runs through a two-stage encoder, the aggregator, the
    ``full_map`` scatter, the head and softmax cross-entropy, exactly as a
    training step does; its gradients are the ones SGD applies.
    """

    H = 1e-6
    ENTRIES = 12  # per parameter tensor
    # |analytic - fd| / max(|analytic|, |fd|, FLOOR); the worst seen on this
    # config is 6.7e-8 (pagwn), 1.1e-7 (knn_baseline) and 4.7e-8 (bq_baseline),
    # so TOL leaves a 9x margin.  Below FLOOR the check is absolute, at
    # 1e-9, above the ~2e-10 rounding noise of an h=1e-6 difference.
    TOL = 1e-6
    FLOOR = 1e-3

    @pytest.mark.parametrize("aggregator", ["pagwn", "knn_baseline", "bq_baseline"])
    def test_matches_central_differences(self, aggregator):
        config = ToyPipelineConfig(stages=(StageSpec(64, 8, 3), StageSpec(16, 4, 2)), num_classes=2,
                                   aggregator=aggregator, bq_radius=0.15)
        scene = density_imbalanced_scene(5, dense_count=96, sparse_count=32)
        plan = ev._plan_scene(scene, config, 0)
        agg = ev._AGGREGATOR_TABLE[aggregator]
        # one epoch of training moves gamma, beta and the biases off their initial values
        params = run_toy_pipeline(replace(config, epochs=1), [scene], [scene]).params
        first = ev._first_lift(plan, agg, config)

        def step(p):
            x_final, outs, _ = ev._encode(plan, first, p, agg, config)
            return ev._scene_grads(plan, p, x_final, outs, config, epoch=0)

        _, grads = step(params)
        trainable = {name for name in params if name.endswith(("weight", "bias", "gamma", "beta"))}
        assert set(grads) == trainable
        rng = np.random.default_rng(17)
        for name in sorted(trainable):
            assert grads[name].shape == params[name].shape, name
            picks = rng.choice(params[name].size, min(self.ENTRIES, params[name].size), replace=False)
            for i in picks:
                losses = []
                for delta in (self.H, -self.H):
                    moved = params[name].copy()
                    moved.flat[i] += delta
                    losses.append(step({**params, name: moved})[0])
                fd = (losses[0] - losses[1]) / (2 * self.H)
                analytic = grads[name].flat[i]
                err = abs(analytic - fd) / max(abs(analytic), abs(fd), self.FLOOR)
                assert err < self.TOL, (name, int(i), analytic, fd)


class TestRunningStatisticsFold:
    """The training loop is the one place that folds batch statistics into the checkpoint."""

    @pytest.mark.parametrize("aggregator", ["pagwn", "knn_baseline", "bq_baseline"])
    def test_one_scene_one_step_folds_the_initial_batch_statistics(self, aggregator):
        config = ToyPipelineConfig(stages=(StageSpec(64, 8, 3), StageSpec(16, 4, 2)), num_classes=2,
                                   epochs=1, batch_size=1, aggregator=aggregator, bq_radius=0.15)
        scene = density_imbalanced_scene(5, dense_count=96, sparse_count=32)
        agg = ev._AGGREGATOR_TABLE[aggregator]
        initial = ev._init_params(config, scene.feature_dim)
        plan = ev._plan_scene(scene, config, 0)
        _, _, stats = ev._encode(plan, ev._first_lift(plan, agg, config), initial, agg, config)
        trained = run_toy_pipeline(config, [scene], [scene]).params
        assert set(stats) == {name[:-len("running_mean")] for name in initial if name.endswith("running_mean")}
        for prefix, (mean, var) in stats.items():
            momentum = float(initial[prefix + "momentum"])
            for name, batch in (("running_mean", mean), ("running_var", var)):
                expected = (1 - momentum) * initial[prefix + name] + momentum * batch
                assert np.array_equal(trained[prefix + name], expected), prefix + name
                assert not np.array_equal(trained[prefix + name], initial[prefix + name]), prefix + name


_TWO_STAGES = (StageSpec(64, 8, 3), StageSpec(16, 4, 2))


class TestFirstStageLift:
    """The training loop lifts each scene's first stage once and never lowers it."""

    @pytest.mark.parametrize("aggregator", ["pagwn", "knn_baseline", "bq_baseline"])
    def test_kept_lift_gives_the_public_block_bit_for_bit(self, aggregator):
        config = ToyPipelineConfig(stages=_TWO_STAGES, num_classes=2, aggregator=aggregator, bq_radius=0.15)
        scene = density_imbalanced_scene(5, dense_count=96, sparse_count=32)
        plan = ev._plan_scene(scene, config, 0)
        agg = ev._AGGREGATOR_TABLE[aggregator]
        params = ev._stage_views(ev._init_params(config, scene.feature_dim), 1)[0]
        coords, centers, hoods = plan.stages[0]
        x = scene.features
        upstream = np.random.default_rng(3).normal(size=(centers.size, 2 * x.shape[1]))
        if aggregator == "pagwn":
            want = pagwn_forward_batch(coords[hoods], x[hoods], coords[centers], x[centers], params,
                                       config.stages[0].split, config.epsilon)
            want_features, (want_grads, _) = want.aggregated, pagwn_backward(want.cache, upstream)
        else:
            want = aggregate_precomputed(x, hoods, params)
            want_features, (want_grads, _) = want.aggregated, baseline_backward(want.cache, upstream)
        first = ev._first_lift(plan, agg, config)
        for _ in range(2):  # one lift serves every epoch
            out = agg.forward(params, plan.stages[0], first, x, "training")
            assert np.array_equal(out.aggregated, want_features)
            assert list(out.batch_stats) == list(want.batch_stats)
            for name, pair in want.batch_stats.items():
                assert all(np.array_equal(a, b) for a, b in zip(out.batch_stats[name], pair)), name
            grads, _ = agg.backward(out, upstream)
            assert list(grads) == list(want_grads)
            for name, value in want_grads.items():
                assert np.array_equal(grads[name], value), name

    @pytest.mark.parametrize("aggregator", ["pagwn", "knn_baseline", "bq_baseline"])
    def test_only_later_stages_lower(self, aggregator, monkeypatch):
        agg = ev._AGGREGATOR_TABLE[aggregator]
        lowered = []

        def lower(out, splan, d_lifted):
            lowered.append(splan[0].shape[0])  # points in the stage's input
            return agg.lower(out, splan, d_lifted)

        monkeypatch.setitem(ev._AGGREGATOR_TABLE, aggregator, replace(agg, lower=lower))
        train = [density_imbalanced_scene(s, dense_count=96, sparse_count=32) for s in range(2)]
        test = [density_imbalanced_scene(60, dense_count=96, sparse_count=32)]
        config = ToyPipelineConfig(stages=_TWO_STAGES[:1], num_classes=2, epochs=2, aggregator=aggregator,
                                   bq_radius=0.15)
        run_toy_pipeline(config, train, test)
        assert lowered == []
        run_toy_pipeline(replace(config, stages=_TWO_STAGES), train, test)
        # stage 1 reads stage 0's 64 centers, once per training scene and epoch; the 128-point scenes never
        assert lowered == [64] * 4


class TestAblateM:
    def _scenes(self):
        train = [density_imbalanced_scene(s, dense_count=96, sparse_count=48) for s in range(2)]
        test = [density_imbalanced_scene(60, dense_count=96, sparse_count=48)]
        return train, test

    def _config(self):
        return ToyPipelineConfig(
            stages=(StageSpec(m_points=32, k=8, split=3),),
            num_classes=2, head_hidden=(8,), epochs=2, learning_rate=0.1,
            batch_size=2, seed=0, aggregator="pagwn",
        )

    def test_single_value_reproduces_direct_run(self):
        train, test = self._scenes()
        config = self._config()
        direct = run_toy_pipeline(config, train, test)
        rows = ablate_m(config, [3], train, test)
        assert len(rows) == 1
        assert rows[0][0] == 3
        assert rows[0][1].miou == direct.metrics.miou
        assert rows[0][1].oa == direct.metrics.oa

    def test_duplicates_warn_and_dedupe(self):
        train, test = self._scenes()
        with pytest.warns(UserWarning, match="duplicate"):
            rows = ablate_m(self._config(), [2, 2, 3], train, test)
        assert [m for m, _ in rows] == [2, 3]

    def test_csv_has_one_row_per_m(self):
        train, test = self._scenes()
        rows = ablate_m(self._config(), [1, 2, 3, 4], train, test)
        lines = ablate_csv(rows).splitlines()
        assert lines[0] == "m,miou,macc,oa"
        assert len(lines) == 5

    def test_split_one_accepted_on_one_neighbor_stage(self):
        # a k == 1 stage normalizes its single row as one group, so the
        # config accepts split 1 there, and so does the sweep
        train, test = self._scenes()
        config = replace(self._config(), stages=(StageSpec(m_points=32, k=1, split=1),), epochs=1)
        rows = ablate_m(config, [1], train, test)
        assert [m for m, _ in rows] == [1]
        with pytest.raises(DomainError) as exc:
            ablate_m(config, [2], train, test)
        assert exc.value.kind == "bad-split"

    def test_out_of_range_m_rejected(self):
        train, test = self._scenes()
        with pytest.raises(DomainError) as exc:
            ablate_m(self._config(), [8], train, test)
        assert exc.value.kind == "bad-split"
