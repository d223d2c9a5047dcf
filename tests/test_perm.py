import itertools
import tracemalloc

import numpy as np
import pytest

from spanlab import perm as perm_module
from spanlab.models import SpanModel
from spanlab.nn import xavier_init
from spanlab.perm import (
    PermutationNetwork,
    apply_soft,
    greedy_round,
    hard_match,
    sinkhorn,
)
from spanlab.tensor import (
    DomainError,
    GradTape,
    ShapeMismatch,
    Tensor,
    finite_difference_check,
)
from spanlab.train import batch_loss


def brute_force_match_weight(score):
    """Independent oracle: max over all n! permutations of the matching
    weight, summed slot by slot."""
    n = score.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    weights = score[np.arange(n), perms].sum(axis=1)
    return float(weights.max())


def match_weight(score, pi):
    return float(score[np.arange(len(pi)), pi].sum())


def inverse(pi):
    return np.argsort(pi, kind="stable")


def is_doubly_stochastic(matrix, tol):
    """True when entries are nonnegative and all row/column sums are 1 +- tol."""
    m = matrix.data if isinstance(matrix, Tensor) else np.asarray(matrix)
    return bool(
        m.shape[-1] == m.shape[-2]
        and np.all(m >= 0.0)
        and np.max(np.abs(m.sum(axis=-1) - 1.0)) <= tol
        and np.max(np.abs(m.sum(axis=-2) - 1.0)) <= tol
    )


class TestPermMatrix:
    """A hard permutation is an index array pi; its matrix is np.eye(n)[pi]."""

    def test_transpose_is_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pi = rng.permutation(7)
            mat = np.eye(7)[pi]
            np.testing.assert_array_equal(mat.T, np.eye(7)[inverse(pi)])
            np.testing.assert_array_equal(mat @ mat.T, np.eye(7))

    def test_apply_reindexes(self):
        pi = np.array([2, 0, 1])
        x = np.array([[0.0], [10.0], [20.0]])
        np.testing.assert_array_equal(x[pi], [[20.0], [0.0], [10.0]])
        np.testing.assert_array_equal(np.eye(3)[pi] @ x, x[pi])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pi = rng.permutation(9)
            np.testing.assert_array_equal(np.arange(9.0)[pi][inverse(pi)],
                                          np.arange(9.0))


class TestSinkhorn:
    def test_uniform_for_equal_logits(self):
        out = sinkhorn(np.zeros((4, 4)), temperature=0.7, iterations=1)
        np.testing.assert_allclose(out.data, 0.25, rtol=0, atol=1e-15)

    def test_dominant_diagonal_approaches_identity(self):
        out = sinkhorn(5.0 * np.eye(2), temperature=0.1, iterations=100)
        np.testing.assert_allclose(out.data, np.eye(2), atol=1e-4)

    def test_row_col_sums_converge(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(0.0, 1.0, size=(8, 8))
        out = sinkhorn(logits, temperature=1.0, iterations=100).data
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-6
        assert np.max(np.abs(out.sum(axis=0) - 1.0)) <= 1e-6

    def test_sums_over_random_sizes(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            logits = rng.normal(size=(n, n))
            out = sinkhorn(logits, temperature=1.0, iterations=100)
            assert is_doubly_stochastic(out, tol=1e-6)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(3, 5, 5))
        out = sinkhorn(batch, temperature=0.5, iterations=30).data
        for b in range(3):
            single = sinkhorn(batch[b], temperature=0.5, iterations=30).data
            np.testing.assert_array_equal(out[b], single)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            sinkhorn(np.zeros((2, 2)), temperature=0.0, iterations=5)
        with pytest.raises(DomainError):
            sinkhorn(np.zeros((2, 2)), temperature=1.0, iterations=0)
        with pytest.raises(ShapeMismatch):
            sinkhorn(np.zeros((0, 0)), temperature=1.0, iterations=5)
        with pytest.raises(DomainError):
            sinkhorn(np.array([[np.inf, 0.0], [0.0, 0.0]]), 1.0, 5)

    def test_differentiable_through_relu_matmul(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 3)) + 0.3)
        w = Tensor(rng.normal(size=(3, 4)))
        probe = Tensor(rng.normal(size=(4, 4)))

        def f(t):
            p = sinkhorn((x @ t).relu(), temperature=0.5, iterations=15)
            return (p * probe).sum()

        assert finite_difference_check(f, w, h=1e-5) <= 1e-4

    def test_single_element(self):
        out = sinkhorn(np.array([[3.0]]), temperature=0.1, iterations=5)
        np.testing.assert_allclose(out.data, [[1.0]])


def unrolled_sinkhorn(logits, temperature, iterations):
    """Sinkhorn as a composition of tape ops: the reference the fused op must
    match bit for bit, in value and in gradient."""
    log_p = logits * (1.0 / temperature)
    for _ in range(iterations):
        log_p = log_p - log_p.logsumexp(axis=-1, keepdims=True)
        log_p = log_p - log_p.logsumexp(axis=-2, keepdims=True)
    return log_p.exp()


def value_and_gradient(fn, logits, probe, temperature, iterations):
    """Output of ``fn`` and the gradient of sum(output * probe) w.r.t. the
    logits."""
    x = Tensor(logits)
    with GradTape() as tape:
        out = fn(x, temperature, iterations)
        loss = (out * Tensor(probe)).sum()
    return out.data, tape.gradient(loss, [x])[0].data


def span_paper_logits(seed, count):
    """Logits as the span-paper permutation network makes them, relu(x w),
    for ``count`` percentile sets (n=20, d=1, integers 1..20 at input scale
    0.05) and a Xavier weight."""
    x = np.random.default_rng(seed).integers(1, 21, size=(count, 20, 1)) * 0.05
    return np.maximum(x @ xavier_init((1, 20), seed).data, 0.0)


def first_repeat(logits, temperature, iterations):
    """(r, p) for one set: the first round r, a multiple of ``PERIOD``, whose
    log-state equals, bit for bit, the state ``PERIOD`` rounds earlier, and the
    least period p of the states from there on; (None, None) if no round by
    ``iterations`` repeats."""
    x = logits * (1.0 / temperature)
    states = [x.tobytes()]
    for r in range(1, iterations + 1):
        for axis in (-1, -2):
            x = x - Tensor(x).logsumexp(axis=axis, keepdims=True).data
        states.append(x.tobytes())
        if r % perm_module.PERIOD == 0 and states[r] == states[r - perm_module.PERIOD]:
            return r, min(p for p in (1, 2, 4) if states[r] == states[r - p])
    return None, None


def spy_sinkhorn_vjp(monkeypatch):
    """The names of the ops whose VJP the tape ran, one per run, for every
    sinkhorn op recorded from here on."""
    runs = []
    real = perm_module._record

    def recording(name, inputs, out_data, vjps):
        (vjp,) = vjps

        def run(g):
            runs.append(name)
            return vjp(g)

        return real(name, inputs, out_data, (run,))

    monkeypatch.setattr(perm_module, "_record", recording)
    return runs


class TestFusedSinkhorn:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (1, 4, 4), (3, 1, 1), (3, 5, 5)])
    @pytest.mark.parametrize("temperature", [0.1, 1.0])
    @pytest.mark.parametrize("iterations", [1, 20])
    def test_bit_identical_to_the_unrolled_composition(self, shape, temperature,
                                                      iterations):
        rng = np.random.default_rng(sum(shape) + iterations)
        logits = rng.normal(size=shape)
        probe = rng.normal(size=shape)
        fused = value_and_gradient(sinkhorn, logits, probe, temperature, iterations)
        reference = value_and_gradient(unrolled_sinkhorn, logits, probe,
                                       temperature, iterations)
        assert fused[0].tobytes() == reference[0].tobytes()
        assert fused[1].tobytes() == reference[1].tobytes()

    def test_bit_identical_where_rows_have_not_converged(self):
        # the max-digit setting (n=4, tau 0.1, 20 rounds) on relu logits
        rng = np.random.default_rng(13)
        logits = np.maximum(rng.normal(scale=2.0, size=(8, 4, 4)), 0.0)
        probe = rng.normal(size=(8, 4, 4))
        fused = value_and_gradient(sinkhorn, logits, probe, 0.1, 20)
        reference = value_and_gradient(unrolled_sinkhorn, logits, probe, 0.1, 20)
        assert np.max(np.abs(fused[0].sum(axis=-1) - 1.0)) > 0.05
        assert fused[0].tobytes() == reference[0].tobytes()
        assert fused[1].tobytes() == reference[1].tobytes()

    @pytest.mark.parametrize("iterations", [100, 101, 102, 103])
    def test_bit_identical_where_sets_repeat_at_different_rounds(self, iterations):
        logits = span_paper_logits(17, 16)
        repeats = [first_repeat(set_logits, 0.1, 100) for set_logits in logits]
        rounds = [r for r, _p in repeats if r is not None]
        # sets that repeat early, late, with a period above 1, and never
        assert min(rounds) <= 24 and max(rounds) >= 40
        assert any(p > 1 for _r, p in repeats if p is not None)
        assert any(r is None for r, _p in repeats)
        probe = np.random.default_rng(18).normal(size=logits.shape)
        fused = value_and_gradient(sinkhorn, logits, probe, 0.1, iterations)
        reference = value_and_gradient(unrolled_sinkhorn, logits, probe, 0.1,
                                       iterations)
        assert fused[0].tobytes() == reference[0].tobytes()
        assert fused[1].tobytes() == reference[1].tobytes()
        # a set's rounds never read its batch-mates
        for b in range(len(logits)):
            alone = value_and_gradient(sinkhorn, logits[b], probe[b], 0.1, iterations)
            assert alone[0].tobytes() == fused[0][b].tobytes()
            assert alone[1].tobytes() == fused[1][b].tobytes()

    @pytest.mark.parametrize("iterations", [20, 100, 103])
    def test_an_untaped_forward_matches_the_taped_one(self, iterations):
        # the untaped rounds overwrite their state in place; the taped ones
        # keep every half-round, so the two must agree bit for bit
        logits = span_paper_logits(17, 16)
        given = logits.copy()
        taped = value_and_gradient(sinkhorn, logits, np.ones(logits.shape), 0.1,
                                   iterations)[0]
        assert sinkhorn(logits, 0.1, iterations).data.tobytes() == taped.tobytes()
        assert sinkhorn(logits[3], 0.1, iterations).data.tobytes() == taped[3].tobytes()
        assert logits.tobytes() == given.tobytes()

    def test_gradient_matches_finite_differences_on_a_batch(self):
        rng = np.random.default_rng(14)
        logits = Tensor(rng.normal(size=(3, 4, 4)))
        probe = Tensor(rng.normal(size=(3, 4, 4)))

        def f(t):
            return (sinkhorn(t, temperature=0.5, iterations=20) * probe).sum()

        assert finite_difference_check(f, logits, h=1e-5) <= 1e-6

    def test_without_a_tape_keeps_nothing(self):
        logits = np.random.default_rng(16).normal(size=(8, 16, 16))

        def peak(forward):
            """Most bytes allocated at once while ``forward()`` runs, and
            its result."""
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = forward()
                return tracemalloc.get_traced_memory()[1] - before, result
            finally:
                tracemalloc.stop()

        def taped():
            with GradTape() as tape:
                sinkhorn(logits, temperature=0.1, iterations=20)
            return tape

        untaped_bytes, _p = peak(
            lambda: sinkhorn(logits, temperature=0.1, iterations=20))
        taped_bytes, tape = peak(taped)
        assert [op.name for op in tape._ops] == ["sinkhorn"]
        # a few working arrays, against those plus 40 half-round outputs
        assert untaped_bytes < 10 * logits.nbytes
        assert taped_bytes > 40 * logits.nbytes

    def test_a_taped_forward_keeps_only_the_sets_still_iterating(self):
        logits = span_paper_logits(17, 16)
        x = Tensor(logits)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with GradTape() as tape:
                loss = sinkhorn(x, temperature=0.1, iterations=100).sum()
            taped_bytes = tracemalloc.get_traced_memory()[1] - before
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.gradient(loss, [x])
            backward_bytes = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # every half-round of every set would take 200 times the logits; the
        # sets here leave by round 40, but for one that never repeats
        assert taped_bytes < 100 * logits.nbytes
        # the backward adds the exited sets' last PERIOD rounds, 8 half-rounds,
        # and a few transients, not a copy of the tape
        assert backward_bytes < 20 * logits.nbytes

    def test_learner_gradient_never_runs_the_sinkhorn_vjp(self, monkeypatch):
        runs = spy_sinkhorn_vjp(monkeypatch)
        rng = np.random.default_rng(17)
        model = SpanModel(n=4, d=2, L=1, hidden=5, tau=0.5, sinkhorn_iters=10, seed=3)
        x, y = Tensor(rng.normal(size=(3, 4, 2))), Tensor(rng.normal(size=(3, 1)))
        with GradTape() as tape:
            loss = batch_loss("mse", model.forward(x), y)
        tape.gradient(loss, list(model.learner_parameters().values()))
        assert runs == []
        tape.gradient(loss, list(model.adversary_parameters().values()))
        assert runs == ["sinkhorn"]


class TestPermutationNetwork:
    def test_zero_weight_gives_uniform(self):
        pn = PermutationNetwork(3, 5, temperature=0.1, iterations=20, seed=0)
        pn.weight.data = np.zeros((3, 5))
        out = pn.forward(np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(out.data, 0.2, rtol=0, atol=1e-15)

    def test_single_row_set(self):
        pn = PermutationNetwork(2, 1, seed=1, iterations=5)
        out = pn.forward(np.array([[0.4, -0.2]]))
        np.testing.assert_allclose(out.data, [[1.0]])

    def test_output_is_doubly_stochastic(self):
        rng = np.random.default_rng(6)
        pn = PermutationNetwork(4, 6, temperature=0.5, iterations=100, seed=2)
        for _ in range(10):
            out = pn.forward(rng.normal(size=(6, 4)))
            assert is_doubly_stochastic(out, tol=1e-6)

    def test_row_count_checked(self):
        pn = PermutationNetwork(3, 5, seed=0)
        with pytest.raises(ShapeMismatch):
            pn.forward(np.zeros((4, 3)))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(7)
        pn = PermutationNetwork(3, 4, temperature=0.5, iterations=25, seed=3)
        batch = rng.normal(size=(2, 4, 3))
        out = pn.forward(batch).data
        for b in range(2):
            np.testing.assert_array_equal(out[b], pn.forward(batch[b]).data)


class TestApplySoft:
    def test_identity_matrix(self):
        x = np.random.default_rng(8).normal(size=(4, 2))
        out = apply_soft(np.eye(4), x)
        np.testing.assert_array_equal(out.data, x)

    def test_hard_swap(self):
        swap = np.eye(2)[[1, 0]]
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = apply_soft(swap, x)
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [1.0, 2.0]])

    def test_uniform_averages_rows(self):
        x = np.array([[0.0, 4.0], [2.0, 0.0], [4.0, 2.0]])
        out = apply_soft(np.full((3, 3), 1.0 / 3.0), x)
        np.testing.assert_allclose(out.data, np.tile(x.mean(axis=0), (3, 1)))

    def test_lifted_perm_equals_reindexing(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            pi = rng.permutation(n)
            x = rng.normal(size=(n, 3))
            out = apply_soft(np.eye(n)[pi], x)
            np.testing.assert_array_equal(out.data, x[pi])

    def test_uniform_weights_are_order_canonical(self):
        # equal averaging weights must give bit-identical output under any
        # input reordering
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 3))
        uniform = np.full((6, 6), 1.0 / 6.0)
        ref = apply_soft(uniform, x).data
        for _ in range(20):
            perm = rng.permutation(6)
            shuffled = apply_soft(uniform, x[perm]).data
            assert shuffled.tobytes() == ref.tobytes()

    def test_differentiable_in_both_arguments(self):
        rng = np.random.default_rng(11)
        p = Tensor(sinkhorn(rng.normal(size=(3, 3)), 1.0, 20).data)
        x = Tensor(rng.normal(size=(3, 2)))
        probe = Tensor(rng.normal(size=(3, 2)))

        def f_p(t):
            return (apply_soft(t, x) * probe).sum()

        def f_x(t):
            return (apply_soft(p, t) * probe).sum()

        assert finite_difference_check(f_p, p) <= 1e-6
        assert finite_difference_check(f_x, x) <= 1e-6


class TestHardMatch:
    def test_diagonal_dominant(self):
        pi = hard_match(np.array([[0.9, 0.1], [0.2, 0.8]]))
        np.testing.assert_array_equal(pi, [0, 1])

    def test_antidiagonal(self):
        pi = hard_match(np.array([[0.1, 0.9], [0.8, 0.2]]))
        np.testing.assert_array_equal(pi, [1, 0])

    def test_matches_brute_force_weight(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            score = rng.uniform(0.0, 1.0, size=(n, n))
            pi = hard_match(score)
            assert match_weight(score, pi) == brute_force_match_weight(score)

    def test_ties_break_lexicographically(self):
        pi = hard_match(np.full((3, 3), 0.5))
        np.testing.assert_array_equal(pi, [0, 1, 2])
        # two optimal matchings: (0,1) and (1,0); lexicographically smaller wins
        pi = hard_match(np.array([[0.6, 0.4], [0.4, 0.6]]))
        np.testing.assert_array_equal(pi, [0, 1])
        pi = hard_match(np.array([[0.4, 0.6], [0.6, 0.4]]))
        np.testing.assert_array_equal(pi, [1, 0])

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            hard_match(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            hard_match(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestGreedyRound:
    def test_recovers_near_permutation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            pi = rng.permutation(n)
            noisy = np.eye(n)[pi] * 0.99 + rng.uniform(0, 0.001, size=(n, n))
            assert np.array_equal(greedy_round(noisy), pi)

    def test_uniform_gives_identity(self):
        pi = greedy_round(np.full((4, 4), 0.25))
        np.testing.assert_array_equal(pi, [0, 1, 2, 3])

    def test_greedy_matches_hungarian_on_sharp_sinkhorn(self):
        rng = np.random.default_rng(14)
        agree = 0
        for _ in range(100):
            logits = rng.uniform(0.0, 1.0, size=(8, 8))
            sharp = sinkhorn(logits, temperature=0.01, iterations=100).data
            if np.array_equal(greedy_round(sharp), hard_match(sharp)):
                agree += 1
        assert agree >= 95

    def test_sharpness_stabilizes_as_tau_shrinks(self):
        # distinct logits with a clear best-vs-second-best margin: the rounded
        # permutation must already be settled at tau=0.1
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 20:
            logits = rng.uniform(0.0, 4.0, size=(6, 6))
            perms = np.array(
                list(itertools.permutations(range(6))), dtype=np.int64
            )
            weights = np.sort(logits[perms, np.arange(6)].sum(axis=1))
            if weights[-1] - weights[-2] < 0.5:
                continue
            checked += 1
            # the colder run needs proportionally more normalization rounds
            # to reach its (sharper) fixed point
            at_01 = greedy_round(sinkhorn(logits, 0.1, 100))
            at_001 = greedy_round(sinkhorn(logits, 0.01, 1000))
            assert np.array_equal(at_01, at_001)
