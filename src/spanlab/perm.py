"""Differentiable permutation machinery.

The Sinkhorn operator drives a positive matrix toward the doubly-stochastic
polytope by alternating row and column normalization; run on exp(logits/tau)
it sharpens toward a permutation matrix as tau shrinks.  With a fixed round
count the output is only near that polytope: each round ends with the column
step, so columns sum to 1 and rows only approach 1.  The permutation
network maps a set to per-input logits whose Sinkhorn image acts as a soft
permutation.  Each set stops its rounds once its log-state repeats, bit for
bit, which leaves every value and gradient as the full round count gives
them.  One convention holds throughout: row i of P is slot i, so
``apply_soft`` returns P X, and a hard permutation is an index array ``pi``
with ``np.eye(n)[pi] @ x == x[pi]`` (slot i reads source ``pi[i]``).  Hard
matchings (Hungarian, greedy rounding) return such arrays, for validation and
diagnostics; training never hardens.
"""

from __future__ import annotations

import numpy as np

from spanlab.nn import xavier_init
from spanlab.tensor import (
    DomainError,
    ShapeMismatch,
    Tensor,
    _active_tape,
    _record,
)

__all__ = [
    "PermutationNetwork",
    "apply_soft",
    "greedy_round",
    "hard_match",
    "sinkhorn",
]


# rounds between repeat checks: a set whose log-state equals, bit for bit, its
# state PERIOD rounds earlier repeats with a period dividing PERIOD from then on
PERIOD = 4


def sinkhorn(logits, temperature, iterations):
    """Sinkhorn normalization of exp(logits/temperature).

    Runs ``iterations`` rounds of row normalization followed by column
    normalization, in log space for stability, as one taped op whose VJP
    replays the rounds in reverse (the unrolled gradient of Mena et al.,
    2018).  Accepts an (n,n) matrix or a (B,n,n) batch.  Each round ends
    with the column step, so the columns of the result sum to 1 while the
    rows only approach 1: at n=4, temperature 0.1 and 20 rounds the row sums
    can be off by 0.05-0.35.

    The forward does the arithmetic of ``logits * (1/temperature)``, one
    ``mul`` by a constant, then per half-round ``x - x.logsumexp(axis,
    keepdims=True)``, then ``exp``, and the VJP adds each half-round's two
    contributions in the order the tape would for that composition of ops,
    so values and gradients are bit-identical to it.

    Rounds stop per set once its state repeats.  Every ``PERIOD`` rounds
    each set still iterating is compared, bit for bit, with its state
    ``PERIOD`` rounds earlier.  A round reads no other set, so a set that
    repeats is periodic: it runs the ``(iterations - r) % PERIOD`` rounds
    that bring it to the state the full count would end in, and leaves the
    batch.  Results are bit-identical to running every round.  While a tape
    records, the half-round outputs of the sets still iterating are kept;
    the VJP replays every round, reading an exited set's later half-rounds
    from its last ``PERIOD`` rounds.  Without a tape the rounds overwrite
    their working arrays in place, so a call allocates a few batch-sized
    arrays whatever its round count.
    """
    if temperature <= 0.0:
        raise DomainError(f"sinkhorn: temperature {temperature} must be positive")
    if iterations < 1:
        raise DomainError(f"sinkhorn: iterations {iterations} must be >= 1")
    if not isinstance(logits, Tensor):
        logits = Tensor(logits)
    shape = logits.shape
    if len(shape) not in (2, 3) or shape[-1] != shape[-2] or shape[-1] == 0:
        raise ShapeMismatch("sinkhorn", shape)
    if not np.isfinite(logits.data).all():
        raise DomainError("sinkhorn: logits must be finite")

    factor = float(1.0 / temperature)
    x = (logits.data * factor).reshape((-1,) + shape[-2:])
    count = len(x)
    taped = _active_tape() is not None
    final = None  # the last log-state of each set, once one leaves early
    live = np.arange(count)  # the sets still iterating, rows of x
    stop = np.full(count, iterations)  # the round after which each set leaves
    next_stop = iterations
    # untaped, x and earlier are working arrays that every round overwrites
    earlier = x if taped else x.copy()  # the state of x at the last check
    work = np.empty_like(x)  # exp(x - max) of the live sets, every half-round
    steps = []  # (half-round output of the live sets, live)
    for r in range(1, iterations + 1):
        # normalize across columns (unit row sums), then across rows
        for axis in (-1, -2):
            m = np.maximum.reduce(x, axis=axis, keepdims=True)
            e = np.exp(np.subtract(x, m, out=work), out=work)
            lse = m + np.log(np.add.reduce(e, axis=axis, keepdims=True))
            if taped:  # the VJP reads every half-round output
                x = x - lse
                steps.append((x, live))
            else:
                np.subtract(x, lse, out=x)
        if r % PERIOD == 0 and r < iterations:
            repeat = _repeats(x, earlier)
            if repeat.any():
                stop[live[repeat]] = r + (iterations - r) % PERIOD
                next_stop = stop[live].min()
            if taped:
                earlier = x
            else:
                earlier[...] = x
        if r == next_stop:
            leave = stop[live] == r
            if leave.all():
                break
            if final is None:
                final = np.empty_like(x)  # x still holds every set
            final[live[leave]] = x[leave]
            stay = ~leave
            live, x, earlier = live[stay], x[stay], earlier[stay]
            work = work[:len(x)]
            next_stop = stop[live].min()
    if final is not None:
        final[live] = x
        x = final
    out = np.exp(x).reshape(shape)
    batch = x.shape

    def vjp(g):
        g = (out * g).reshape(batch)
        window = 2 * PERIOD
        exited = stop < iterations
        # the half-round from which each set's exp is read from cycle
        first = np.where(exited, 2 * stop - window, 2 * iterations)
        if exited.any():
            # each exited set's last PERIOD rounds, by half-round mod window
            cycle = np.empty((window,) + batch)
            for s in set(stop[exited].tolist()):
                sets = np.flatnonzero(stop == s)
                for k in range(2 * s - window, 2 * s):
                    y, rows = steps[k]
                    cycle[k % window, sets] = np.exp(y[np.searchsorted(rows, sets)])
        lead = int(first.min())  # before it every set is live and stored
        for k in reversed(range(2 * iterations)):
            if k < lead:
                e = np.exp(steps[k][0])
            elif k < len(steps):
                y, rows = steps[k]
                fresh = first[rows] > k
                cycle[k % window, rows[fresh]] = np.exp(y[fresh])
                e = cycle[k % window]
            else:
                e = cycle[k % window]
            g = g + e * np.sum(-g, axis=2 - k % 2, keepdims=True)
        return factor * g.reshape(shape)

    return _record("sinkhorn", (logits,), out, (vjp,))


def _repeats(x, earlier):
    """Which sets of ``x`` equal ``earlier`` bit for bit.  One entry is
    compared first, so a batch where nothing repeats pays little; bits, not
    values, because ``==`` takes -0.0 for 0.0."""
    now, then = x.view(np.int64), earlier.view(np.int64)
    same = now[:, 0, 0] == then[:, 0, 0]
    if same.any():
        same[same] = (now[same] == then[same]).all(axis=(1, 2))
    return same


class PermutationNetwork:
    """Per-input soft permutations: sinkhorn(relu(X @ W), tau, iters).

    The weight has shape (d, n), so one network is bound to one set size.
    Row i of the logits depends on element i alone, so the map is
    row-equivariant: permuting the input rows permutes the output rows.
    ``apply_soft`` reads row i of the result as slot i of P X.
    """

    def __init__(self, d, n, temperature=0.1, iterations=100, seed=0):
        if n < 1:
            raise ShapeMismatch("PermutationNetwork", (d, n))
        # a bad setting is a plain ValueError, the fault of whoever configured
        # it; sinkhorn keeps its own DomainErrors for direct callers
        if temperature <= 0:
            raise ValueError(f"PermutationNetwork: temperature {temperature} "
                             f"must be positive")
        if iterations < 1:
            raise ValueError(f"PermutationNetwork: iterations {iterations} "
                             f"must be >= 1")
        self.d = d
        self.n = n
        self.temperature = temperature
        self.iterations = iterations
        self.weight = xavier_init((d, n), seed)

    def forward(self, x):
        """Soft permutation for one set (n,d) or a batch (B,n,d)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim not in (2, 3) or x.shape[-2:] != (self.n, self.d):
            raise ShapeMismatch("pn_forward", x.shape, (self.n, self.d))
        return sinkhorn((x @ self.weight).relu(), self.temperature, self.iterations)

    def parameters(self):
        return {"weight": self.weight}


def apply_soft(p, x):
    """Permute a set by a soft matrix: returns P X, whose row i is the
    P[i]-weighted blend of the elements, so ``np.eye(n)[pi]`` gives ``x[pi]``.

    Source rows are first reordered into lexicographic value order (an exact
    identity for the product), so averaging weights that are themselves
    permutation-symmetric, e.g. the uniform matrix, yields bit-identical
    outputs however the input rows were ordered.  The product is taken as
    (P^T reordered)^T: the matmul's bits depend on its operands' layout.
    """
    if not isinstance(p, Tensor):
        p = Tensor(p)
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if p.ndim != x.ndim or p.shape[-1] != p.shape[-2] or p.shape[-2] != x.shape[-2]:
        raise ShapeMismatch("apply_soft", p.shape, x.shape)
    if x.ndim not in (2, 3):
        raise ShapeMismatch("apply_soft", p.shape, x.shape)
    order = _lex_row_order(x.data)
    return p.transpose().permute_rows(order).transpose() @ x.permute_rows(order)


def _lex_row_order(rows):
    """Lexicographic row order of an (n,d) set, or of each set in a (B,n,d)
    stack."""
    return np.lexsort(np.moveaxis(rows, -1, 0)[::-1])


def hard_match(score):
    """Exact maximum-weight matching of an n-by-n nonnegative score matrix.

    Returns the index array pi maximizing sum_i score[i, pi[i]] (row i is
    slot i).  Ties resolve toward the lexicographically smallest pi via
    optimal-completion checks.
    """
    score = score.data if isinstance(score, Tensor) else np.asarray(score, float)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise ShapeMismatch("hard_match", score.shape)
    if not np.isfinite(score).all():
        raise DomainError("hard_match: scores must be finite")
    n = score.shape[0]
    if n == 0:
        raise ShapeMismatch("hard_match", score.shape)
    pi = _hungarian_max(score)
    best = _match_weight(score, pi)

    # canonicalize: for each slot try smaller sources that keep the optimum
    for i in range(n):
        for j in range(int(pi[i])):
            if j in pi[:i]:
                continue
            candidate = _complete_assignment(score, pi[:i], i, j)
            weight = _match_weight(score, candidate)
            if weight >= best:
                best = weight
                pi = candidate
                break
    return pi


def _match_weight(a, pi):
    return float(sum(a[i, pi[i]] for i in range(len(pi))))


def _complete_assignment(a, prefix, slot, source):
    """Best assignment with slots < ``slot`` fixed to ``prefix`` and
    ``slot`` fixed to ``source``, which ``prefix`` must not hold."""
    n = a.shape[0]
    used = set(int(v) for v in prefix) | {source}
    free_slots = list(range(slot + 1, n))
    free_sources = [j for j in range(n) if j not in used]
    pi = np.empty(n, dtype=np.int64)
    pi[:slot] = prefix
    pi[slot] = source
    if free_slots:
        sub = a[np.ix_(free_slots, free_sources)]
        sub_pi = _hungarian_max(sub)
        for k, s in enumerate(free_slots):
            pi[s] = free_sources[sub_pi[k]]
    return pi


def _hungarian_max(a):
    """O(n^3) assignment maximizing sum_i a[i, sigma(i)] via shortest
    augmenting paths on the negated matrix with dual potentials."""
    a = np.asarray(a, dtype=np.float64)
    n, m = a.shape
    if n > m:
        raise ShapeMismatch("hungarian", a.shape)
    cost = -a
    inf = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    match = np.full(m + 1, n, dtype=np.int64)  # column -> row, n = free

    for i in range(n):
        match[m] = i
        j0 = m
        minv = np.full(m + 1, inf)
        way = np.full(m + 1, m, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = m
            for j in range(m):
                if used[j]:
                    continue
                cur = cost[i0, j] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == n:
                break
        while j0 != m:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    sigma = np.empty(n, dtype=np.int64)
    for j in range(m):
        if match[j] != n:
            sigma[match[j]] = j
    return sigma


def greedy_round(p):
    """Round a doubly-stochastic matrix to a hard permutation pi, with
    pi[r] = c where slot r reads source c.

    Entries are visited in descending order (row-major first among ties);
    each visit fixes an unused (row, column) pair.  O(n^2 log n).
    """
    m = p.data if isinstance(p, Tensor) else np.asarray(p, float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch("greedy_round", m.shape)
    n = m.shape[0]
    order = np.argsort(-m, axis=None, kind="stable")
    pi = np.full(n, -1, dtype=np.int64)
    row_used = np.zeros(n, dtype=bool)
    col_used = np.zeros(n, dtype=bool)
    placed = 0
    for flat in order:
        r, c = divmod(int(flat), n)
        if row_used[r] or col_used[c]:
            continue
        pi[r] = c
        row_used[r] = True
        col_used[c] = True
        placed += 1
        if placed == n:
            break
    return pi
