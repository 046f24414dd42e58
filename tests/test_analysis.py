import ast
import copy
import importlib
import json
import math
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_backbone, train_config
from fpt import analysis
from fpt.analysis import (
    attention_map,
    attention_mean_convergence,
    attention_objective,
    batch_layer_similarity,
    bruteforce_rank_m_objective,
    conditioned_least_squares_problem,
    jacobian_bound_check,
    maxent_dual_solve,
    optimal_pca_attention,
    scale_to_spectral_norm,
    sgd_conditioning_check,
    sgd_rate_experiment,
)
from fpt.backbone import (
    AdamState,
    Batch,
    adam_step,
    forward,
    init_random,
    load_weights,
    loss_and_grads,
    mix_weights,
    param_hash,
    predict,
    save_weights,
    validate_store,
)
from fpt.data import (
    SplitSpec,
    TimeSeriesDataset,
    WindowSpec,
    few_shot_subset,
    mask_count,
    window_masks,
)
from fpt.errors import FormatError, InvalidInput, NumericalFailure, RankDeficient, ShapeError
from fpt.metrics import MetricReport, mase, mse, prf1
from fpt.numerics import finite_diff_grad, sym_eig
from fpt.preprocess import PatchConfig, normalize_windows, patchify_windows
from fpt.rng import seeded_rng
from fpt.synthetic import inject_spikes, sinusoid
from fpt.tasks import (
    make_ablation,
    mixed_weights_similarity_sweep,
    run_anomaly,
    run_classification,
    run_imputation,
    synthetic_pretrain,
)


class TestTokenSimilarity:
    def test_identical_tokens(self):
        layer = np.tile([1.0, 2.0, 3.0], (1, 5, 1))
        assert batch_layer_similarity([layer])[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_tokens(self):
        assert batch_layer_similarity([np.eye(4)[None]])[0] == pytest.approx(0.0, abs=1e-12)

    def test_double_loop_oracle(self):
        rng = seeded_rng(0)
        layers = [rng.normal((2, 6, 5)) for _ in range(3)]
        means = batch_layer_similarity(layers)
        for li, layer in enumerate(layers):
            sims = []
            for sample in layer:
                for i in range(6):
                    for j in range(i + 1, 6):
                        a, b = sample[i], sample[j]
                        sims.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
            assert len(sims) == 30  # 6*5/2 unordered pairs in each of 2 samples
            assert means[li] == pytest.approx(np.mean(sims), abs=1e-12)

    def test_single_token_rejected(self):
        with pytest.raises(InvalidInput):
            batch_layer_similarity([np.ones((1, 1, 4))])

    def test_zero_norm_token_scores_zero(self):
        layer = np.vstack([np.zeros(3), np.ones(3), 2 * np.ones(3)])[None]
        # two zero-pairs contribute 0, the nonzero pair contributes 1
        assert batch_layer_similarity([layer])[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_batch_means_match_per_sample(self):
        rng = seeded_rng(1)
        batch_layer = rng.normal((4, 5, 6))
        means = batch_layer_similarity([batch_layer])
        per_sample = [batch_layer_similarity([batch_layer[b : b + 1]])[0] for b in range(4)]
        assert means[0] == pytest.approx(np.mean(per_sample), abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInput):
            batch_layer_similarity([np.zeros((0, 5, 6))])

    def test_pca_replaced_forward_profile_bounded_same_shape(self):
        from fpt.backbone import forward

        cfg = tiny_backbone(n_layers=2)
        store = init_random(cfg, seeded_rng(40))
        tokens = seeded_rng(41).normal((3, 6, cfg.patch_len))
        _, trace_soft = forward(store, cfg, tokens)
        _, trace_pca = forward(store, cfg, tokens, pca_m=2)
        assert [t.shape for t in trace_pca] == [t.shape for t in trace_soft]
        sims = batch_layer_similarity(trace_pca)
        assert len(sims) == cfg.n_layers + 1
        assert all(-1.0 <= s <= 1.0 for s in sims)


class TestAttentionObjective:
    def test_zero_matrix_gives_trace(self):
        x = seeded_rng(2).normal((10, 4))
        xc = x - x.mean(axis=0)
        val = attention_objective(x, np.zeros((4, 4)))
        assert val == pytest.approx(np.trace(xc.T @ xc), rel=1e-12)
        lam = sym_eig(xc.T @ xc).eigenvalues
        assert val == pytest.approx(float(lam.sum()), rel=1e-10)

    def test_full_rank_optimum_is_zero(self):
        x = seeded_rng(3).normal((12, 4))
        sol = optimal_pca_attention(x, 4)
        assert sol.objective <= 1e-8


class TestOptimalPcaAttention:
    def test_known_gram(self):
        # centered patterns whose Gram matrix is diag(4, 1)
        x = np.array(
            [[np.sqrt(2), 0], [-np.sqrt(2), 0], [0, np.sqrt(0.5)], [0, -np.sqrt(0.5)]]
        )
        sol = optimal_pca_attention(x, 1)
        assert np.allclose(sol.a_star, [[0.25, 0.0], [0.0, 0.0]], atol=1e-10)
        assert sol.objective == pytest.approx(1.0, abs=1e-10)
        bf = bruteforce_rank_m_objective(x, 1, seeded_rng(6), steps=1500)
        assert sol.objective <= bf + 1e-4

    def test_random_objective_equals_tail_and_beats_bruteforce(self):
        x = seeded_rng(7).normal((12, 4))
        sol = optimal_pca_attention(x, 2)
        tail = float(np.sum(sol.eigen.eigenvalues[2:]))
        assert sol.objective == pytest.approx(tail, rel=1e-6)
        bf = bruteforce_rank_m_objective(x, 2, seeded_rng(8), steps=1500)
        assert sol.objective <= bf + 1e-4

    def test_beats_random_rank_m_matrices(self):
        rng = seeded_rng(9)
        x = rng.normal((10, 5))
        sol = optimal_pca_attention(x, 2)
        for _ in range(50):
            u = rng.normal((5, 2))
            v = rng.normal((5, 2))
            assert sol.objective <= attention_objective(x, u @ v.T) + 1e-10

    def test_psd_and_rank(self):
        x = seeded_rng(10).normal((14, 6))
        sol = optimal_pca_attention(x, 3)
        assert np.allclose(sol.a_star, sol.a_star.T, atol=1e-10)
        lam = sym_eig(sol.a_star).eigenvalues
        assert lam.min() >= -1e-10
        assert int((lam > 1e-10).sum()) == 3

    def test_rank_deficient_rejected(self):
        x = np.zeros((6, 3))
        x[:, 0] = seeded_rng(11).normal(6)  # rank-1 pattern matrix
        with pytest.raises(RankDeficient):
            optimal_pca_attention(x, 2)

    def test_invalid_rank(self):
        x = seeded_rng(12).normal((6, 3))
        with pytest.raises(InvalidInput):
            optimal_pca_attention(x, 0)
        with pytest.raises(InvalidInput):
            optimal_pca_attention(x, 4)


def _residual_oracle(x, m, rng, restarts=10, steps=1500, init_lr=1e-2):
    """Reference oracle in residual form: it forms the (restarts, n, d)
    residual X - X A^T S of every candidate, with the same draws, steps and
    backtracking as bruteforce_rank_m_objective."""
    xc = x - x.mean(axis=0, keepdims=True)
    s = xc.T @ xc
    eye = np.eye(xc.shape[1])
    u = rng.normal((restarts, xc.shape[1], m), scale=0.3)
    v = rng.normal((restarts, xc.shape[1], m), scale=0.3)
    lr = np.full(restarts, init_lr)

    def objective(uu, vv):
        a = uu @ vv.swapaxes(1, 2)
        residual = xc[None] - np.einsum("ni,rji,jk->rnk", xc, a, s)
        return np.sum(residual * residual, axis=(1, 2))

    obj = objective(u, v)
    for _ in range(steps):
        a = u @ v.swapaxes(1, 2)
        r_mat = eye[None] - np.einsum("ij,rjk->rik", s, a)
        g_a = -2.0 * np.einsum("ij,rjk,kl->ril", s, r_mat, s)
        g_u = g_a @ v
        g_v = g_a.swapaxes(1, 2) @ u
        pending = np.ones(restarts, dtype=bool)
        for _ in range(40):
            cand_u = u - lr[:, None, None] * g_u
            cand_v = v - lr[:, None, None] * g_v
            cand_obj = objective(cand_u, cand_v)
            accept = pending & (cand_obj <= obj)
            u[accept] = cand_u[accept]
            v[accept] = cand_v[accept]
            obj[accept] = cand_obj[accept]
            pending &= ~accept
            if not pending.any():
                break
            lr[pending] *= 0.5
        lr[~pending] *= 1.2
        np.clip(lr, 1e-12, 10.0 * init_lr, out=lr)
    return float(obj.min())


def _loop_oracle(x, m, rng, restarts=10, steps=1500, init_lr=1e-2):
    """The oracle as one backtracking try per loop turn, the form the
    two-tries-per-pass loop of bruteforce_rank_m_objective must match bit
    for bit.  Returns the objective and the most tries any step took."""
    xc = x - x.mean(axis=0, keepdims=True)
    d = xc.shape[1]
    s = xc.T @ xc
    eye = np.eye(d)
    u = rng.normal((restarts, d, m), scale=0.3)
    v = rng.normal((restarts, d, m), scale=0.3)
    uv = np.concatenate([u, v], axis=2)
    lr = np.full(restarts, init_lr)

    def objective(uv):
        mm = eye - uv[..., m:] @ uv[..., :m].swapaxes(1, 2) @ s
        return np.sum(mm * (s @ mm), axis=(1, 2))

    obj = objective(uv)
    most_tries = 0
    for _ in range(steps):
        u, v = uv[..., :m], uv[..., m:]
        g_a = -2.0 * s @ (eye - s @ u @ v.swapaxes(1, 2)) @ s
        g = np.concatenate([g_a @ v, g_a.swapaxes(1, 2) @ u], axis=2)
        pending = np.ones(restarts, dtype=bool)
        for tries in range(1, 41):
            cand = uv - lr[:, None, None] * g
            cand_obj = objective(cand)
            accept = pending & (cand_obj <= obj)
            np.copyto(uv, cand, where=accept[:, None, None])
            np.copyto(obj, cand_obj, where=accept)
            pending &= ~accept
            if not pending.any():
                break
            lr[pending] *= 0.5
        most_tries = max(most_tries, tries)
        lr[~pending] *= 1.2
        np.clip(lr, 1e-12, 10.0 * init_lr, out=lr)
    return float(obj.min()), most_tries


def _c03_trials():
    """The c03 suite's ten trials: (x, m, the stream the oracle draws from)."""
    rng = seeded_rng(31)
    for trial in range(10):
        stream = rng.child(trial)
        d = 2 + stream.integers(5)
        n = d + 1 + stream.integers(16 - d)
        yield stream.normal((n, d)), 1 + stream.integers(d), stream


class TestBruteforceOracle:
    def test_zero_steps_is_best_initial_draw(self):
        x = seeded_rng(14).normal((9, 4))
        draws = seeded_rng(15)
        u = draws.normal((6, 4, 2), scale=0.3)
        v = draws.normal((6, 4, 2), scale=0.3)
        expected = min(attention_objective(x, u[r] @ v[r].T) for r in range(6))
        got = bruteforce_rank_m_objective(x, 2, seeded_rng(15), restarts=6, steps=0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bitwise_matches_parent_loop(self):
        cases = [(x, m, s, {"steps": 1500}) for x, m, s in _c03_trials()]
        x = seeded_rng(19).normal((7, 3))
        cases += [
            (x, 2, seeded_rng(20), {"steps": 0}),
            (x, 2, seeded_rng(21), {"restarts": 1, "steps": 300}),
            (x, 3, seeded_rng(22), {"steps": 300}),  # m == d
            (1e3 * x, 2, seeded_rng(23), {"steps": 60, "init_lr": 1.0}),  # 40 tries fail
        ]
        most_tries = 0
        for i, (x, m, stream, kw) in enumerate(cases):
            x_before = x.copy()
            ref, tries = _loop_oracle(x, m, copy.deepcopy(stream), **kw)
            most_tries = max(most_tries, tries)
            assert bruteforce_rank_m_objective(x, m, stream, **kw) == ref, i
            assert np.array_equal(x, x_before), i
        assert most_tries == 40  # the fall-through passes and their exit ran

    def test_matches_residual_form_on_c03_trials(self):
        rng = seeded_rng(31)  # the c03 suite's trial streams
        for trial in range(10):
            stream = rng.child(trial)
            d = 2 + stream.integers(5)
            n = d + 1 + stream.integers(16 - d)
            x = stream.normal((n, d))
            m = 1 + stream.integers(d)
            ref = _residual_oracle(x, m, copy.deepcopy(stream))
            got = bruteforce_rank_m_objective(x, m, stream, restarts=10, steps=1500)
            if ref > 1e-12:
                assert got == pytest.approx(ref, rel=1e-9), trial
            else:  # exact-zero optimum (m = d): compare absolutely
                assert got == pytest.approx(ref, abs=1e-18), trial


class TestJacobianBound:
    def test_zero_attention_matrix(self):
        x = seeded_rng(13).normal((3, 2))
        res = jacobian_bound_check(x, np.zeros((2, 2)))
        assert res.holds
        assert res.lhs == pytest.approx(1.0, abs=1e-6)  # row-stochastic constant map
        assert res.rhs == pytest.approx(3.0, abs=1e-12)  # N with no attention terms

    def test_single_token(self):
        x = seeded_rng(14).normal((1, 3))
        a = seeded_rng(15).normal((3, 3))
        res = jacobian_bound_check(x, a)
        assert res.holds
        assert res.lhs == pytest.approx(1.0, abs=1e-6)  # f(X) = x_1

    def test_random_audit_small(self):
        rng = seeded_rng(16)
        for _ in range(10):
            x = rng.normal((4, 3))
            a = scale_to_spectral_norm(rng.normal((3, 3)), 1.0)
            res = jacobian_bound_check(x, a)
            assert res.holds, (res.lhs, res.rhs)

    def test_size_cap(self):
        with pytest.raises(InvalidInput):
            jacobian_bound_check(np.zeros((40, 13)), np.zeros((13, 13)))

    def test_finite_diff_jacobian_matches_the_column_loop(self):
        """On c04-shaped trials, finite_diff_grad's Jacobian of the attention
        map is bit-identical to the column-by-column central differences the
        audit used to compute itself."""

        def column_loop(x, a, h):
            size = x.size
            jac = np.empty((size, size))
            base = x.astype(np.float64).copy()
            flat = base.ravel()
            for col in range(size):
                orig = flat[col]
                flat[col] = orig + h
                fp = attention_map(base, a)
                flat[col] = orig - h
                fm = attention_map(base, a)
                flat[col] = orig
                jac[:, col] = ((fp - fm) / (2.0 * h)).ravel()
            return jac

        rng = seeded_rng(41)
        for trial in range(50):
            trial_rng = rng.child(trial)
            d = 2 + trial_rng.integers(3)
            n = 2 + trial_rng.integers(5)
            x = trial_rng.normal((n, d))
            a = scale_to_spectral_norm(trial_rng.normal((d, d)), 1.0)
            jac = finite_diff_grad(lambda z: attention_map(z, a), x, 1e-6)
            assert jac.shape == (n, d, n, d)
            assert np.array_equal(jac.reshape(n * d, n * d), column_loop(x, a, 1e-6)), trial

    def test_attention_map_rows(self):
        x = seeded_rng(17).normal((5, 3))
        a = seeded_rng(18).normal((3, 3))
        out = attention_map(x, a)
        assert out.shape == (5, 3)


class TestMeanConvergence:
    def _weights(self, d, seed):
        rng = seeded_rng(seed)
        mu = rng.normal(d)
        mu /= np.linalg.norm(mu)
        scale = 1.0 / math.sqrt(d)
        return mu, rng.normal((d, d), scale=scale), rng.normal((d, d), scale=scale), rng.normal(
            (d, d), scale=scale
        ), rng

    def test_zero_variance_control(self):
        mu, wq, wk, wv, rng = self._weights(8, 19)
        res = attention_mean_convergence(mu, 0.0, wq, wk, wv, [16, 64, 256, 1024], 5, rng)
        assert max(e for _, e in res.points) <= 1e-10

    def test_slope_in_band(self):
        mu, wq, wk, wv, rng = self._weights(8, 20)
        res = attention_mean_convergence(mu, 0.1, wq, wk, wv, [16, 64, 256, 1024], 200, rng)
        assert -0.7 <= res.slope <= -0.3

    def test_trial_doubling_stability(self):
        mu, wq, wk, wv, _ = self._weights(8, 21)
        a = attention_mean_convergence(
            mu, 0.1, wq, wk, wv, [16, 64, 256, 1024], 200, seeded_rng(22)
        )
        b = attention_mean_convergence(
            mu, 0.1, wq, wk, wv, [16, 64, 256, 1024], 400, seeded_rng(23)
        )
        assert abs(a.slope - b.slope) <= 0.1

    def test_grid_validation(self):
        mu, wq, wk, wv, rng = self._weights(4, 24)
        with pytest.raises(InvalidInput):
            attention_mean_convergence(mu, 0.1, wq, wk, wv, [16, 32], 10, rng)
        with pytest.raises(InvalidInput):
            attention_mean_convergence(mu, 0.1, wq, wk, wv, [16, 32, 64], 10, rng)


class TestSgdConditioning:
    def test_realizable_orthonormal(self):
        rng = seeded_rng(25)
        raw = rng.normal((64, 4))
        q, _ = np.linalg.qr(raw)
        g = np.sqrt(64) * q  # (1/N) G^T G = I
        w_true = rng.normal((4, 2))
        y = g @ w_true
        res = sgd_conditioning_check(g, y, 1e-3, seeded_rng(26))
        assert res.steps < 100_000
        assert res.sigma_min == pytest.approx(1.0, abs=1e-8)
        # the closed-form optimum has zero suboptimality in the realizable case
        assert float(np.sum((g @ w_true - y) ** 2)) == 0.0

    def test_well_conditioned_needs_fewer_steps(self):
        g1, y1 = conditioned_least_squares_problem(1.0, seeded_rng(27))
        res1 = sgd_conditioning_check(g1, y1, 1e-3, seeded_rng(28))
        g2, y2 = conditioned_least_squares_problem(0.01, seeded_rng(27))
        res2 = sgd_conditioning_check(g2, y2, 1e-3, seeded_rng(28))
        assert res1.steps < res2.steps

    def test_singular_features_rejected(self):
        g = np.zeros((10, 3))
        g[:, 0] = seeded_rng(29).normal(10)
        with pytest.raises(RankDeficient):
            sgd_conditioning_check(g, np.zeros((10, 2)), 1e-3, seeded_rng(30))

    def test_rate_experiment_checks_every_sigma_before_any_run(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return sgd_conditioning_check(*args)

        monkeypatch.setattr(analysis, "sgd_conditioning_check", spy)
        with pytest.raises(InvalidInput, match="sigma must be finite"):
            sgd_rate_experiment([0.01, math.inf], 1e-3, seed=0)
        assert calls == []


class TestMaxentDual:
    def test_ln_two(self):
        assert maxent_dual_solve(0.5, 0.5) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_ln_one_and_quarter(self):
        assert maxent_dual_solve(0.2, 0.2) == pytest.approx(math.log(1.25), abs=1e-9)

    def test_matches_closed_form_on_random_pairs(self):
        rng = seeded_rng(31)
        for _ in range(50):
            q = float(rng.uniform((), 0.01, 0.99))
            g = float(rng.uniform((), 0.01, 0.99))
            expect = math.log(g / (q * (1 - g)))
            assert maxent_dual_solve(q, g) == pytest.approx(expect, abs=1e-9)

    def test_domain_validation(self):
        for q, g in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (0.5, 1.5)):
            with pytest.raises(InvalidInput):
                maxent_dual_solve(q, g)


class TestMixSweep:
    def _fixture(self):
        values = sinusoid(420, 24.0)[:, None]
        ds = TimeSeriesDataset(name="sweep-fix", values=values)
        wspec = WindowSpec(lookback=48, horizon=12, stride=2)
        patch = PatchConfig(8, 4)
        base = tiny_backbone(n_layers=2, d_model=16, n_heads=2, d_ff=32)
        from fpt.tasks import _derive_config

        cfg = _derive_config(base, patch, 48, 12)
        pretrained = init_random(cfg, seeded_rng(32))
        return pretrained, base, ds, wspec, patch

    def test_rows_shape_and_bounds(self):
        pretrained, base, ds, wspec, patch = self._fixture()
        rows = mixed_weights_similarity_sweep(
            pretrained, base, ds, wspec, patch, [0.0, 0.5, 1.0],
            train_config(seed=33), finetune_steps=5, revin_eps=1e-5, mode="replace",
        )
        assert len(rows) == 3
        for row in rows:
            assert len(row["similarity"]) == base.n_layers + 1
            assert all(-1.0 <= s <= 1.0 for s in row["similarity"])
            assert np.isfinite(row["mse"])

    def test_zero_ratio_reruns_identical(self):
        pretrained, base, ds, wspec, patch = self._fixture()
        sweep = (pretrained, base, ds, wspec, patch, [0.0], train_config(seed=34), 5, 1e-5)
        a = mixed_weights_similarity_sweep(*sweep, mode="replace")
        b = mixed_weights_similarity_sweep(*sweep, mode="replace")
        assert a == b


def _imported_modules(tree) -> set[str]:
    """Every module an ``fpt`` module's imports name, relative ones resolved
    against the ``fpt`` package; ``from fpt import tasks`` names fpt.tasks."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["fpt" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["fpt.analysis", "fpt.backbone", "fpt.preprocess"])
def test_analysis_imports_nothing_from_tasks_or_cli(module):
    """analysis, the backbone with its row record, and preprocessing sit
    below the runners and the CLI, in function bodies too."""
    path = importlib.import_module(module).__file__
    imported = _imported_modules(ast.parse(Path(path).read_text(encoding="utf-8")))
    assert "fpt.errors" in imported  # the walk sees the module's own imports
    above = {"fpt.tasks", "fpt.cli"}
    assert not {n for n in imported if n in above or n.startswith(tuple(f"{m}." for m in above))}


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_convergence_rejects_non_finite_or_negative_sigma(sigma):
    rng = seeded_rng(0)
    w = np.eye(4)
    with pytest.raises(InvalidInput, match="sigma"):
        attention_mean_convergence(np.ones(4), sigma, w, w, w, [16, 64, 256], 2, rng)


@pytest.mark.parametrize("target", [math.nan, math.inf, -1.0])
def test_spectral_norm_target_must_be_finite_and_nonnegative(target):
    with pytest.raises(InvalidInput, match="target"):
        scale_to_spectral_norm(np.eye(3), target)


_PATTERNS = seeded_rng(4).normal((6, 3))

def _store_without(name: str) -> dict:
    store = init_random(tiny_backbone(), seeded_rng(0))
    del store[name]
    return store


def _store_with(name: str, value) -> dict:
    return {**init_random(tiny_backbone(), seeded_rng(0)), name: value}


def _load_edited(edit) -> dict:
    """``load_weights`` of a saved tiny store whose manifest ``edit`` changed."""
    with tempfile.TemporaryDirectory() as tmp:
        save_weights(init_random(tiny_backbone(), seeded_rng(0)), tmp)
        path = Path(tmp, "manifest.json")
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return load_weights(tmp, tiny_backbone())


_SINE = TimeSeriesDataset(name="sine", values=sinusoid(400, 24.0)[:, None])
_TWO_CLASSES = TimeSeriesDataset(
    name="two", values=np.zeros((64, 4)), labels=np.array([0, 1, 0, 1]), label_kind="series"
)
_RUN = (tiny_backbone(), train_config(epochs=1), PatchConfig(8, 4))
_NO_DONOR = {"weights": None, "revin_eps": 1e-5}
_NO_CONTAINER = Path(__file__) / "container"  # under a file: no directory can be made there


# One malformed argument per public analysis or preprocess function (and the
# PCA rank and the store of the backbone's passes, and the spike fixture), or
# per field of a run record, and the typed error it raises in place of a raw
# numpy error or a silent no-op.
_MALFORMED_CALLS = {
    "pca-rank-not-an-integer": (InvalidInput, lambda: optimal_pca_attention(_PATTERNS, 1.5)),
    "oracle-zero-restarts": (
        InvalidInput,
        lambda: bruteforce_rank_m_objective(_PATTERNS, 1, seeded_rng(0), restarts=0),
    ),
    "oracle-negative-steps": (
        InvalidInput,
        lambda: bruteforce_rank_m_objective(_PATTERNS, 1, seeded_rng(0), steps=-1),
    ),
    "attention-map-4x4-on-3-columns": (ShapeError, lambda: attention_map(_PATTERNS, np.eye(4))),
    "convergence-2x2-wq-at-d3": (
        ShapeError,
        lambda: attention_mean_convergence(
            np.ones(3), 0.1, np.eye(2), np.eye(3), np.eye(3), [16, 64, 256], 2, seeded_rng(0)
        ),
    ),
    "patchify-1d-windows": (
        InvalidInput,
        lambda: patchify_windows(np.zeros(16), PatchConfig(4, 4)),
    ),
    "pca-rank-true": (InvalidInput, lambda: optimal_pca_attention(_PATTERNS, True)),
    "oracle-steps-2.5": (
        InvalidInput,
        lambda: bruteforce_rank_m_objective(_PATTERNS, 1, seeded_rng(0), steps=2.5),
    ),
    **{
        f"oracle-init-lr-{lr}": (
            InvalidInput,
            partial(bruteforce_rank_m_objective, _PATTERNS, 1, seeded_rng(0), steps=1, init_lr=lr),
        )
        for lr in (0.0, math.nan, -1.0)
    },
    "train-learning-rate-inf": (InvalidInput, lambda: train_config(learning_rate=math.inf)),
    "train-epochs-1.5": (InvalidInput, lambda: train_config(epochs=1.5)),
    "train-batch-size-true": (InvalidInput, lambda: train_config(batch_size=True)),
    "window-lookback-48.5": (InvalidInput, lambda: WindowSpec(48.5, 12, 1)),
    "patch-len-8.0": (InvalidInput, lambda: PatchConfig(8.0, 4)),
    "backbone-d-model-16.0": (InvalidInput, lambda: tiny_backbone(d_model=16.0)),
    "split-nan": (InvalidInput, lambda: SplitSpec(math.nan, 0.1, 0.2)),
    "donor-length-100.5": (
        InvalidInput,
        lambda: synthetic_pretrain(
            tiny_backbone(), WindowSpec(48, 12, 1), PatchConfig(8, 4), train_config(),
            revin_eps=1e-5, length=100.5, n_channels=4, noise=0.05,
        ),
    ),
    "pca-forward-rank-not-an-integer": (
        InvalidInput,
        lambda: forward(
            init_random(tiny_backbone(), seeded_rng(0)),
            tiny_backbone(),
            np.zeros((1, 3, 8)),
            pca_m=1.5,
        ),
    ),
    "revin-eps-nan": (InvalidInput, lambda: normalize_windows(np.arange(8.0)[None], math.nan)),
    **{
        f"finite-diff-step-{h}": (InvalidInput, partial(finite_diff_grad, np.sum, np.ones(2), h))
        for h in (math.nan, math.inf)
    },
    **{
        f"convergence-{name}": (
            InvalidInput,
            partial(
                attention_mean_convergence,
                np.ones(3), 0.1, *[np.eye(3)] * 3, grid, trials, seeded_rng(0),
            ),
        )
        for name, grid, trials in (
            ("trials-1.5", [16, 64, 256], 1.5),
            ("trials-true", [16, 64, 256], True),
            ("n-grid-2.5", [2.5, 20, 200], 2),
        )
    },
    "mask-count-nan": (InvalidInput, lambda: mask_count(math.nan, 48)),
    "adam-gradient-of-the-wrong-size": (
        ShapeError,
        lambda: adam_step({"w": np.zeros(3)}, {"w": np.zeros(2)}, AdamState(lr=1e-3), {"w"}),
    ),
    **{f"adam-lr-{lr}": (InvalidInput, partial(AdamState, lr=lr)) for lr in (-1.0, math.nan)},
    "window-masks-n-masked-1.5": (InvalidInput, lambda: window_masks(1, 1, 8, 1.5, seeded_rng(0))),
    "mase-period-1.5": (InvalidInput, lambda: mase([1.0], [2.0], np.arange(8.0), 1.5)),
    "mase-insample-nan": (InvalidInput, lambda: mase([1.0], [2.0], [1.0, math.nan, 2.0, 4.0], 1)),
    "train-learning-rate-x": (InvalidInput, lambda: train_config(learning_rate="x")),
    **{
        f"{fn.__name__}-{name}": (FormatError, partial(fn, store, tiny_backbone(), arg))
        for fn, arg in (
            (forward, np.zeros((1, 3, 8))),
            (predict, np.zeros((1, 3, 8))),
            (loss_and_grads, Batch(tokens=np.zeros((1, 3, 8)), targets=np.zeros((1, 1)))),
        )
        for name, store in (
            ("store-without-ln-f-gamma", _store_without("ln_f.gamma")),
            ("empty-store", {}),
        )
    },
    **{
        f"inject-spikes-{n}-in-10-steps": (
            InvalidInput,
            partial(inject_spikes, np.zeros(10), n, 3.0, (0, 10), seeded_rng(0)),
        )
        for n in (-1, 11)
    },
    # the scalar arguments of the runners and of the numerics, and the stream
    "anomaly-quantile-string": (
        InvalidInput,
        lambda: run_anomaly(_SINE, "0.9", 48, *_RUN, False, stride=None, **_NO_DONOR),
    ),
    "few-shot-percent-string": (InvalidInput, lambda: few_shot_subset(_SINE, "0.5", "suffix")),
    "classification-n-classes-string": (
        InvalidInput,
        lambda: run_classification(_TWO_CLASSES, *_RUN, n_classes="3", **_NO_DONOR),
    ),
    "maxent-q-string": (InvalidInput, lambda: maxent_dual_solve("x", 0.5)),
    "sgd-rate-eps-string": (InvalidInput, lambda: sgd_rate_experiment([1.0], "x", 0)),
    "sgd-rate-seed-negative": (InvalidInput, lambda: sgd_rate_experiment([1.0], 1e-3, -1)),
    "finite-diff-step-string": (InvalidInput, lambda: finite_diff_grad(np.sum, np.ones(2), "x")),
    "normalize-windows-eps-string": (
        InvalidInput,
        lambda: normalize_windows(np.ones((2, 8)), "x"),
    ),
    **{
        f"imputation-ratios-{name}": (
            InvalidInput,
            partial(run_imputation, _SINE, ratios, 48, *_RUN, stride=None, **_NO_DONOR),
        )
        for name, ratios in (("5", 5), ("ab", "ab"))
    },
    "mix-sweep-ratios-ab": (
        InvalidInput,
        lambda: mixed_weights_similarity_sweep(
            {}, tiny_backbone(), _SINE, WindowSpec(48, 12, 1), PatchConfig(8, 4), "ab",
            train_config(), 50, 1e-5, "replace",
        ),
    ),
    "rng-uniform-shape-negative": (InvalidInput, lambda: seeded_rng(0).uniform(-1)),
    "rng-uniform-shape-negative-2d": (InvalidInput, lambda: seeded_rng(0).uniform((-1, -1))),
    "rng-normal-shape-negative": (InvalidInput, lambda: seeded_rng(0).normal(-1)),
    "rng-permutation-negative": (InvalidInput, lambda: seeded_rng(0).permutation(-1)),
    "rng-integers-0": (InvalidInput, lambda: seeded_rng(0).integers(0)),
    "report-metric-without-rows": (InvalidInput, lambda: MetricReport().metric("MSE")),
    "mask-count-ratio-string": (InvalidInput, lambda: mask_count("0.5", 48)),
    "mix-weights-ratio-string": (
        InvalidInput,
        lambda: mix_weights(
            *[init_random(tiny_backbone(), seeded_rng(0))] * 2, "0.5", seeded_rng(1), "replace"
        ),
    ),
    **{
        f"donor-noise-{noise}": (
            InvalidInput,
            lambda noise=noise: synthetic_pretrain(
                tiny_backbone(), WindowSpec(48, 12, 1), PatchConfig(8, 4), train_config(epochs=1),
                revin_eps=1e-5, length=256, n_channels=1, noise=noise,
            ),
        )
        for noise in (-0.05, math.nan)
    },
    # typed-error branches that no other test reaches
    "backbone-dropout-1": (InvalidInput, lambda: tiny_backbone(dropout=1.0)),
    "backbone-head-mode-x": (InvalidInput, lambda: tiny_backbone(head_mode="x")),
    "backbone-pool-head-in-1": (InvalidInput, lambda: tiny_backbone(head_mode="pool")),
    **{
        f"backbone-{name}-10**6": (InvalidInput, partial(tiny_backbone, **{name: 10**6}))
        for name in ("n_layers", "d_model", "d_ff")
    },
    "store-extra-tensor": (
        FormatError,
        lambda: validate_store(_store_with("extra", np.zeros(1)), tiny_backbone()),
    ),
    "store-misshapen-tensor": (
        ShapeError,
        lambda: validate_store(_store_with("ln_f.gamma", np.zeros(3)), tiny_backbone()),
    ),
    # one type check of a store, behind validate_store, param_hash and save_weights
    "store-not-a-dict": (FormatError, lambda: validate_store(3, tiny_backbone())),
    "store-list-tensor": (
        FormatError,
        lambda: validate_store(_store_with("ln_f.gamma", [1.0] * 16), tiny_backbone()),
    ),
    "param-hash-string-tensor": (FormatError, lambda: param_hash({"a": "x"})),
    # save_weights checks the store before it writes: at a path no directory
    # can be made at, a check made only while writing raises IoError instead
    "save-weights-nan": (
        NumericalFailure,
        partial(save_weights, {"a": np.array([np.nan], np.float32)}, _NO_CONTAINER),
    ),
    "save-weights-1e300-overflows-float32": (
        NumericalFailure,
        partial(save_weights, {"a": np.array([1e300])}, _NO_CONTAINER),
    ),
    "save-weights-name-3": (FormatError, partial(save_weights, {3: np.zeros(2)}, _NO_CONTAINER)),
    **{
        f"save-weights-tensor-{name}": (FormatError, partial(save_weights, {"a": x}, _NO_CONTAINER))
        for name, x in (("string", "x"), ("ragged-list", [1.0, [2.0]]))
    },
    "container-format-version-2": (
        FormatError,
        lambda: _load_edited(lambda m: m.update(format_version=2)),
    ),
    "container-unexpected-tensor": (
        FormatError,
        lambda: _load_edited(lambda m: m["tensors"].append({**m["tensors"][0], "name": "x"})),
    ),
    **{
        f"mix-weights-{name}": (
            error,
            lambda other=other, ratio=ratio, mode=mode: mix_weights(
                init_random(tiny_backbone(), seeded_rng(0)), other, ratio, seeded_rng(1), mode
            ),
        )
        for name, error, other, ratio, mode in (
            ("ratio-1.5", InvalidInput, init_random(tiny_backbone(), seeded_rng(2)), 1.5, "replace"),
            ("mode-x", InvalidInput, init_random(tiny_backbone(), seeded_rng(2)), 0.5, "x"),
            ("other-names", ShapeError, _store_without("ln_f.beta"), 0.5, "replace"),
            ("misshapen", ShapeError, _store_with("ln_f.beta", np.zeros(3)), 0.5, "replace"),
        )
    },
    "loss-without-targets-or-labels": (
        InvalidInput,
        lambda: loss_and_grads(
            init_random(tiny_backbone(head_in=48), seeded_rng(0)), tiny_backbone(head_in=48),
            Batch(tokens=np.zeros((1, 3, 8))),
        ),
    ),
    **{
        f"{fn.__name__}-flatten-head-in-1-for-3-tokens": (
            ShapeError,
            partial(fn, init_random(tiny_backbone(), seeded_rng(0)), tiny_backbone(), arg),
        )
        for fn, arg in (
            (predict, np.zeros((2, 3, 8))),
            (loss_and_grads, Batch(tokens=np.zeros((2, 3, 8)), targets=np.zeros((2, 1)))),
        )
    },
    "ablation-arm-x": (
        InvalidInput,
        lambda: make_ablation("x", tiny_backbone(), seeded_rng(0), None),
    ),
    "sym-eig-2x3": (InvalidInput, lambda: sym_eig(np.zeros((2, 3)))),
    "sym-eig-empty-stack": (ShapeError, lambda: sym_eig(np.zeros((0, 2, 2)))),
    **{
        f"dataset-{kind}-labels-of-length-3": (
            InvalidInput,
            partial(TimeSeriesDataset, "x", np.zeros((8, 2)), np.zeros(3), kind),
        )
        for kind in ("series", "timestep")
    },
    "prf1-length-mismatch": (ShapeError, lambda: prf1([0, 1], [0, 1, 1], False)),
    "prf1-non-binary": (InvalidInput, lambda: prf1([0, 2], [0, 1], False)),
    "mse-empty": (ShapeError, lambda: mse([], [])),
    "mase-insample-no-longer-than-m": (InvalidInput, lambda: mase([1.0], [2.0], [1.0, 2.0], 2)),
}


@pytest.mark.parametrize("case", _MALFORMED_CALLS)
def test_malformed_argument_raises_a_typed_error(case):
    """The library twin of the CLI's ``TestIngestionFuzz``."""
    error, call = _MALFORMED_CALLS[case]
    with pytest.raises(error):
        call()
