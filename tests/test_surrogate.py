import numpy as np
import pytest

from ldovco.surrogate import (
    EnsembleModel,
    MlpConfig,
    ScalerStats,
    fit,
    predict,
    predict_conservative,
    update,
)


def lhs_matrix(n, d, seed):
    rng = np.random.default_rng(seed)
    u = (rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T + rng.uniform(size=(n, d))) / n
    return 2.0 * u - 1.0


def r_squared(pred, truth):
    ss_res = float(((pred - truth) ** 2).sum())
    ss_tot = float(((truth - truth.mean(axis=0)) ** 2).sum())
    return 1.0 - ss_res / ss_tot


class TestScaler:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 5.0, size=(50, 4))
        y = rng.normal(-2.0, 0.3, size=(50, 2))
        s = ScalerStats.from_data(x, y)
        assert np.allclose(s.unscale_y(s.scale_y(y)), y, atol=1e-9)

    def test_degenerate_std_floored(self):
        x = np.ones((20, 3))
        y = np.ones((20, 1))
        s = ScalerStats.from_data(x, y)
        assert (s.x_std >= 1e-12).all()
        assert np.isfinite(s.scale_x(x)).all()


class TestFit:
    def test_constant_target(self):
        x = lhs_matrix(160, 2, seed=0)
        y = np.full((160, 3), 7.0)
        model = fit(x, y, MlpConfig(), seed=1)
        pred = predict(model, lhs_matrix(30, 2, seed=9))
        assert np.abs(pred - 7.0).max() <= 1e-3

    def test_linear_target_r2(self):
        x = lhs_matrix(200, 2, seed=3)
        y = 2.0 * x[:, :1]
        model = fit(x[:160], y[:160], MlpConfig(), seed=5)
        assert r_squared(predict(model, x[160:]), y[160:]) >= 0.95

    def test_deterministic_weights(self):
        x = lhs_matrix(120, 3, seed=2)
        y = x[:, :1] + x[:, 1:2] ** 2
        a = fit(x, y, MlpConfig(), seed=11)
        b = fit(x, y, MlpConfig(), seed=11)
        for pa, pb in ((a.w1, b.w1), (a.b1, b.b1), (a.w2, b.w2), (a.b2, b.b2)):
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        x = lhs_matrix(120, 3, seed=2)
        y = x[:, :1]
        a = fit(x, y, MlpConfig(), seed=11)
        b = fit(x, y, MlpConfig(), seed=12)
        assert not np.array_equal(a.w1, b.w1)

    @staticmethod
    def assert_weights_match_best_val(model, x, y, seed):
        # early stopping must never hand back weights worse than the best
        # validation epoch
        split_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        perm = split_rng.permutation(len(x))
        n_val = int(round(0.2 * len(x)))
        xv, yv = x[perm[:n_val]], y[perm[:n_val]]
        xs = model.scaler.scale_x(xv)
        hidden = np.tanh(xs[None] @ model.w1 + model.b1[:, None, :])
        pred = hidden @ model.w2 + model.b2[:, None, :]
        val = np.mean((pred - model.scaler.scale_y(yv)[None]) ** 2, axis=(1, 2))
        assert np.allclose(val, model.train_log["best_val_loss"], atol=1e-12)

    def test_returned_weights_match_best_val(self):
        x = lhs_matrix(150, 2, seed=8)
        y = np.sin(2 * x[:, :1]) + x[:, 1:2]
        model = fit(x, y, MlpConfig(epochs=300), seed=3)
        self.assert_weights_match_best_val(model, x, y, seed=3)

    def test_early_stop_keeps_best_weights(self):
        x = lhs_matrix(150, 2, seed=8)
        y = np.full((150, 2), 7.0)
        cfg = MlpConfig(patience=1, min_delta=1e-4)
        model = fit(x, y, cfg, seed=3)
        assert 0 < model.train_log["epochs_run"] < cfg.epochs
        self.assert_weights_match_best_val(model, x, y, seed=3)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((5, 2)), np.zeros((5, 1)), MlpConfig(), seed=0)

    def test_non_finite_rejected(self):
        x = np.zeros((20, 2))
        y = np.zeros((20, 1))
        y[3] = np.nan
        with pytest.raises(ValueError):
            fit(x, y, MlpConfig(), seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MlpConfig(epochs=0)


class TestPredict:
    def test_member_order_invariance(self):
        x = lhs_matrix(100, 2, seed=4)
        y = x[:, :1] * 3.0
        model = fit(x, y, MlpConfig(), seed=2)
        flipped = EnsembleModel(
            w1=model.w1[::-1].copy(), b1=model.b1[::-1].copy(),
            w2=model.w2[::-1].copy(), b2=model.b2[::-1].copy(),
            scaler=model.scaler,
        )
        probe = lhs_matrix(10, 2, seed=5)
        assert np.allclose(predict(model, probe), predict(flipped, probe), atol=1e-12)

    def test_single_vector_shape(self):
        x = lhs_matrix(100, 3, seed=4)
        y = np.hstack([x[:, :1], x[:, 1:2]])
        model = fit(x, y, MlpConfig(), seed=2)
        out = predict(model, x[0])
        assert out.shape == (2,)

    def test_dimension_mismatch(self):
        x = lhs_matrix(100, 3, seed=4)
        model = fit(x, x[:, :1], MlpConfig(), seed=2)
        with pytest.raises(ValueError):
            predict(model, np.zeros(5))


class TestConservative:
    @pytest.fixture()
    def model(self):
        x = lhs_matrix(150, 2, seed=6)
        y = np.hstack([x[:, :1] * 2.0, x[:, 1:2] ** 2])
        return fit(x, y, MlpConfig(), seed=7)

    def test_beta_half_is_median(self, model):
        probe = lhs_matrix(20, 2, seed=1)
        med = predict_conservative(model, probe, 0.5, senses=np.array([1.0, -1.0]))
        hidden = np.tanh(model.scaler.scale_x(probe)[None] @ model.w1 + model.b1[:, None, :])
        members = model.scaler.unscale_y(hidden @ model.w2 + model.b2[:, None, :])
        assert np.allclose(med, np.median(members, axis=0), atol=1e-12)

    def test_identical_members_equal_mean(self, model):
        clone = EnsembleModel(
            w1=np.repeat(model.w1[:1], 5, axis=0), b1=np.repeat(model.b1[:1], 5, axis=0),
            w2=np.repeat(model.w2[:1], 5, axis=0), b2=np.repeat(model.b2[:1], 5, axis=0),
            scaler=model.scaler,
        )
        probe = lhs_matrix(12, 2, seed=2)
        for beta in (0.0, 0.3, 0.5, 0.9, 1.0):
            assert np.allclose(
                predict_conservative(clone, probe, beta), predict(clone, probe), atol=1e-12
            )

    def test_monotone_in_beta_per_orientation(self, model):
        probe = lhs_matrix(40, 2, seed=3)
        senses = np.array([1.0, -1.0])
        betas = [0.5, 0.6, 0.7, 0.85, 1.0]
        prev = None
        for beta in betas:
            cur = predict_conservative(model, probe, beta, senses=senses)
            if prev is not None:
                # upper-oriented output never decreases, lower never increases
                assert (cur[:, 0] >= prev[:, 0] - 1e-12).all()
                assert (cur[:, 1] <= prev[:, 1] + 1e-12).all()
            prev = cur

    def test_invalid_beta(self, model):
        with pytest.raises(ValueError):
            predict_conservative(model, np.zeros(2), 1.5)


class TestUpdate:
    def test_zero_epoch_update_preserves_predictions(self):
        # the scaler remap is exact, so continuing with zero epochs must not
        # move the model
        x = lhs_matrix(100, 3, seed=10)
        y = x[:, :1] - 0.5 * x[:, 2:3]
        model = fit(x, y, MlpConfig(), seed=4)
        x2 = np.vstack([x, lhs_matrix(40, 3, seed=11)])
        y2 = x2[:, :1] - 0.5 * x2[:, 2:3]
        updated = update(model, x2, y2, epochs=0, seed=4)
        probe = lhs_matrix(25, 3, seed=12)
        assert np.allclose(predict(updated, probe), predict(model, probe), atol=1e-9)

    def test_update_improves_fit_on_new_data(self):
        x = lhs_matrix(100, 2, seed=13)
        y = np.sin(3 * x[:, :1])
        model = fit(x, y, MlpConfig(epochs=150), seed=5)
        for _ in range(5):
            model = update(model, x, y, epochs=100, seed=5)
        final = update(model, x, y, epochs=0, seed=5)
        assert np.mean(final.train_log["best_val_loss"]) <= np.mean(
            model.train_log["best_val_loss"]
        ) + 1e-12

    def test_update_deterministic(self):
        x = lhs_matrix(80, 2, seed=14)
        y = x[:, :1] ** 2
        base = fit(x, y, MlpConfig(epochs=100), seed=6)
        a = update(base, x, y, epochs=50, seed=7)
        b = update(base, x, y, epochs=50, seed=7)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b2, b.b2)
