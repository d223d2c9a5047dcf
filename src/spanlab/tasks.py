"""Synthetic set-function datasets with exact, non-learned label oracles.

Four task families: max k-ary distance over Gaussian-mixture point sets,
r-th percentile of integer sets, multi-source max flow on a fixed random
digraph, and the planted top eigenvector of spiked-covariance samples.  A
digit-set task (max digit, optionally position-biased) supports the
adversarial-permutation ablation, backed by MNIST IDX files or by a
deterministic synthetic digit encoding.

Every generator is a pure function of its config and seed, and every stored
label can be re-derived by the matching oracle.  The annotated signature of
the generator ``TASK_KINDS`` names for a kind is the schema of its config
block: each key's name, default and type.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from spanlab.nn import Seed, seed_chain

__all__ = [
    "Dataset",
    "FlowGraph",
    "SetInstance",
    "TASK_KINDS",
    "TaskError",
    "edmonds_karp_maxflow",
    "gen_biased_maxdigit",
    "gen_flow_dataset",
    "gen_flowgraph",
    "gen_kary_distance",
    "gen_maxdigit",
    "gen_maxflow",
    "gen_percentile",
    "gen_spiked",
    "load_dataset",
    "load_mnist_idx",
    "oracle_kary",
    "oracle_maxflow",
    "oracle_percentile",
    "oracle_top_eigvec",
    "oracle_verify",
    "power_iteration",
    "save_dataset",
    "synthetic_digits",
]


class TaskError(ValueError):
    """Invalid task parameters or malformed task data."""


def _stream(seed, tag):
    """Generator for one named substream of a task seed (int or sequence)."""
    return np.random.default_rng(seed_chain(seed, tag))


@dataclass
class SetInstance:
    """One training pair: an (n,d) element matrix and an (L,) label."""

    elements: np.ndarray
    label: np.ndarray
    digits: list | None = None  # per-element digit identities (maxdigit task)


@dataclass
class Dataset:
    header: dict
    instances: list[SetInstance] = field(default_factory=list)

    def __len__(self):
        return len(self.instances)


def save_dataset(path, dataset):
    """One JSON object per line: a header, then {"set", "label"} records."""
    with open(path, "w") as fh:
        fh.write(json.dumps(dataset.header, sort_keys=True) + "\n")
        for inst in dataset.instances:
            rec = {"set": inst.elements.tolist(), "label": inst.label.tolist()}
            if inst.digits is not None:
                rec["digits"] = list(inst.digits)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_dataset(path):
    """Read a dataset written by ``save_dataset``; a malformed line or a
    header that is not an object raises TaskError naming the file and the
    line number."""
    header, instances = None, []
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            if not ln.strip():
                continue
            try:
                rec = json.loads(ln)
                if header is None:
                    if not isinstance(rec, dict):
                        raise ValueError("the header is not a JSON object")
                    header = rec
                    continue
                instances.append(SetInstance(
                    elements=np.asarray(rec["set"], dtype=np.float64),
                    label=np.asarray(rec["label"], dtype=np.float64),
                    digits=rec.get("digits"),
                ))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise TaskError(f"{path}:{lineno}: malformed record: {exc!r}") from exc
    if header is None:
        raise TaskError(f"{path}: empty dataset file")
    return Dataset(header=header, instances=instances)


# ---------------------------------------------------------------------------
# max k-ary distance


def oracle_kary(x, k):
    """Maximum over k-subsets of the summed pairwise Euclidean distances.

    Exhaustive over all C(n,k) subsets.  Within a subset the distances are
    accumulated in sorted order, which makes the value exactly invariant to
    row permutations of ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k not in (2, 3):
        raise TaskError(f"oracle_kary: k must be 2 or 3, got {k}")
    if n < k:
        raise TaskError(f"oracle_kary: need at least {k} elements, got {n}")
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    if k == 2:
        return float(dist.max())
    combos = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64)
    triples = np.stack(
        [
            dist[combos[:, 0], combos[:, 1]],
            dist[combos[:, 0], combos[:, 2]],
            dist[combos[:, 1], combos[:, 2]],
        ],
        axis=1,
    )
    sums = np.sort(triples, axis=1).sum(axis=1)
    return float(sums.max())


def gen_kary_distance(n: int, d: int, k: int, count: int, seed: Seed = 0):
    """Sets drawn from a k-center Gaussian mixture on [1,n]^d (covariance
    10*I), labeled by the exact k-ary distance oracle."""
    if k not in (2, 3):
        raise TaskError(f"gen_kary_distance: k must be 2 or 3, got {k}")
    if n < k:
        raise TaskError(f"gen_kary_distance: n={n} below k={k}")
    rng = _stream(seed, 101)
    instances = []
    for _ in range(count):
        centers = rng.uniform(1.0, float(n), size=(k, d))
        assign = rng.integers(0, k, size=n)
        x = centers[assign] + rng.normal(0.0, math.sqrt(10.0), size=(n, d))
        instances.append(SetInstance(x, np.array([oracle_kary(x, k)])))
    header = {"task": "kary", "n": n, "d": d, "L": 1, "k": k, "seed": seed}
    return Dataset(header, instances)


# ---------------------------------------------------------------------------
# r-th percentile


def oracle_percentile(x, r):
    """Nearest-rank percentile: sorted value at 1-based index ceil(r*n/100)."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    if flat.size == 0:
        raise TaskError("oracle_percentile: empty set")
    if not 0.0 < r <= 100.0:
        raise TaskError(f"oracle_percentile: r={r} outside (0, 100]")
    rank = math.ceil(r * flat.size / 100.0)
    return float(np.sort(flat)[rank - 1])


def gen_percentile(n: int, r: float, count: int, seed: Seed = 0,
                   value_range: list[int] | None = None):
    """Sets of n integers uniform on [1, n] (range overridable)."""
    lo, hi = value_range if value_range is not None else (1, n)
    if n < 1 or lo > hi:
        raise TaskError(f"gen_percentile: bad n={n} or range [{lo},{hi}]")
    rng = _stream(seed, 202)
    instances = []
    for _ in range(count):
        values = rng.integers(lo, hi + 1, size=n).astype(np.float64)
        x = values.reshape(n, 1)
        instances.append(SetInstance(x, np.array([oracle_percentile(x, r)])))
    header = {
        "task": "percentile", "n": n, "d": 1, "L": 1, "r": r,
        "value_range": [int(lo), int(hi)], "seed": seed,
    }
    return Dataset(header, instances)


# ---------------------------------------------------------------------------
# multi-source max flow


@dataclass
class FlowGraph:
    """Directed graph with positive integer capacities and a fixed sink."""

    vertices: int
    edges: list  # (u, v, capacity) triples
    sink: int = 0

    def capacity_matrix(self):
        cap = np.zeros((self.vertices, self.vertices), dtype=np.int64)
        for u, v, c in self.edges:
            cap[u, v] += c
        return cap


def gen_flowgraph(num_vertices, num_edges, cap_range=(1, 20), seed=0):
    """Random connected digraph: a reverse arborescence into the sink
    (vertex 0) guarantees every vertex can reach it, then extra random
    edges fill up to the requested count."""
    if num_edges < num_vertices - 1:
        raise TaskError(
            f"gen_flowgraph: need at least {num_vertices - 1} edges"
        )
    lo, hi = cap_range
    if lo < 1 or hi < lo:
        raise TaskError(f"gen_flowgraph: bad capacity range [{lo},{hi}]")
    rng = _stream(seed, 303)
    used = set()
    edges = []
    for v in range(1, num_vertices):
        parent = int(rng.integers(0, v))
        used.add((v, parent))
        edges.append((v, parent, int(rng.integers(lo, hi + 1))))
    attempts = 0
    while len(edges) < num_edges:
        attempts += 1
        if attempts > 100 * num_edges:
            raise TaskError("gen_flowgraph: could not place requested edges")
        u, v = (int(z) for z in rng.integers(0, num_vertices, size=2))
        if u == v or (u, v) in used:
            continue
        used.add((u, v))
        edges.append((u, v, int(rng.integers(lo, hi + 1))))
    return FlowGraph(vertices=num_vertices, edges=edges, sink=0)


def oracle_maxflow(graph, subset, sink=None):
    """Max flow from a super-source over ``subset`` to the sink, by DFS
    augmenting paths (Ford-Fulkerson).  Integer capacities make the result
    exact and the iteration terminating."""
    sink = graph.sink if sink is None else sink
    subset = [int(v) for v in subset]
    if sink in subset:
        raise TaskError("oracle_maxflow: sink cannot be a source")
    if not subset:
        return 0
    n = graph.vertices
    source = n
    big = sum(c for _, _, c in graph.edges) + 1

    # adjacency with paired residual edges
    adj = [[] for _ in range(n + 1)]

    def add_edge(u, v, cap):
        adj[u].append([v, cap, len(adj[v])])
        adj[v].append([u, 0, len(adj[u]) - 1])

    for u, v, c in graph.edges:
        add_edge(u, v, c)
    for h in sorted(set(subset)):
        add_edge(source, h, big)

    total = 0
    while True:
        # depth-first search for any augmenting path
        parent_edge = [None] * (n + 1)
        stack = [source]
        seen = [False] * (n + 1)
        seen[source] = True
        found = False
        while stack and not found:
            u = stack.pop()
            for idx, (v, cap, _) in enumerate(adj[u]):
                if cap > 0 and not seen[v]:
                    seen[v] = True
                    parent_edge[v] = (u, idx)
                    if v == sink:
                        found = True
                        break
                    stack.append(v)
        if not found:
            break
        bottleneck = big
        v = sink
        while v != source:
            u, idx = parent_edge[v]
            bottleneck = min(bottleneck, adj[u][idx][1])
            v = u
        v = sink
        while v != source:
            u, idx = parent_edge[v]
            adj[u][idx][1] -= bottleneck
            rev = adj[u][idx][2]
            adj[v][rev][1] += bottleneck
            v = u
        total += bottleneck
    return int(total)


def edmonds_karp_maxflow(graph, subset, sink=None):
    """Independent max-flow implementation: BFS shortest augmenting paths on
    a dense residual capacity matrix."""
    sink = graph.sink if sink is None else sink
    subset = [int(v) for v in subset]
    if sink in subset:
        raise TaskError("edmonds_karp_maxflow: sink cannot be a source")
    if not subset:
        return 0
    n = graph.vertices
    source = n
    big = sum(c for _, _, c in graph.edges) + 1
    residual = np.zeros((n + 1, n + 1), dtype=np.int64)
    for u, v, c in graph.edges:
        residual[u, v] += c
    for h in set(subset):
        residual[source, h] = big

    total = 0
    while True:
        parent = np.full(n + 1, -1, dtype=np.int64)
        parent[source] = source
        queue = [source]
        while queue and parent[sink] == -1:
            u = queue.pop(0)
            for v in np.nonzero(residual[u] > 0)[0]:
                if parent[v] == -1:
                    parent[v] = u
                    queue.append(int(v))
        if parent[sink] == -1:
            break
        bottleneck = big
        v = sink
        while v != source:
            u = int(parent[v])
            bottleneck = min(bottleneck, int(residual[u, v]))
            v = u
        v = sink
        while v != source:
            u = int(parent[v])
            residual[u, v] -= bottleneck
            residual[v, u] += bottleneck
            v = u
        total += bottleneck
    return int(total)


_EMBED_SEED = 424242
_EMBED_DIM = 64


def graph_embedding(graph):
    """Fixed 64-dim summary of the capacity structure: the flattened,
    max-normalized capacity matrix under a seed-fixed Gaussian projection."""
    flat = graph.capacity_matrix().astype(np.float64).reshape(-1)
    scale = flat.max() if flat.max() > 0 else 1.0
    proj = np.random.default_rng(_EMBED_SEED).normal(
        0.0, 1.0 / math.sqrt(flat.size), size=(flat.size, _EMBED_DIM)
    )
    return (flat / scale) @ proj


def gen_flow_dataset(graph, subset_size, count, seed):
    """Instances are subsets of non-sink vertices; each element is the
    vertex one-hot concatenated with the (constant) graph embedding; the
    label is the exact multi-source max flow."""
    if subset_size >= graph.vertices:
        raise TaskError("gen_flow_dataset: subset_size must be below |V|")
    rng = _stream(seed, 404)
    embed = graph_embedding(graph)
    non_sink = [v for v in range(graph.vertices) if v != graph.sink]
    instances = []
    for _ in range(count):
        subset = sorted(int(v) for v in rng.choice(non_sink, subset_size, replace=False))
        rows = []
        for v in subset:
            onehot = np.zeros(graph.vertices)
            onehot[v] = 1.0
            rows.append(np.concatenate([onehot, embed]))
        label = float(oracle_maxflow(graph, subset))
        instances.append(SetInstance(np.stack(rows), np.array([label])))
    lo = min(c for _, _, c in graph.edges)
    hi = max(c for _, _, c in graph.edges)
    header = {
        "task": "maxflow", "n": subset_size, "d": graph.vertices + _EMBED_DIM,
        "L": 1, "vertices": graph.vertices, "edge_count": len(graph.edges),
        "cap_range": [int(lo), int(hi)], "edges": [list(e) for e in graph.edges],
        "sink": graph.sink, "seed": seed,
    }
    return Dataset(header, instances)


def gen_maxflow(vertices: int, edges: int, count: int, seed: Seed = 0,
                cap_range: list[int] = [1, 20], subset_size: int = 3,
                graph_seed: Seed = 0):
    """Max-flow sets of ``subset_size`` sources on one random digraph with
    ``vertices`` vertices and ``edges`` edges, drawn from ``graph_seed``."""
    graph = gen_flowgraph(vertices, edges, cap_range=cap_range, seed=graph_seed)
    return gen_flow_dataset(graph, subset_size, count, seed)


# ---------------------------------------------------------------------------
# spiked covariance / top eigenvector


def _sign_canonical(v):
    for value in v:
        if value != 0.0:
            return v if value > 0.0 else -v
    return v


def power_iteration(matrix, iterations=1000, tol=1e-10):
    """Dominant eigenvector of a PSD matrix, sign-canonicalized (first
    nonzero coordinate positive).  Stops early when the iterate moves less
    than ``tol`` in relative terms."""
    matrix = np.asarray(matrix, dtype=np.float64)
    d = matrix.shape[0]
    b = np.random.default_rng(0xC0FFEE).normal(size=d)
    b /= np.linalg.norm(b)
    for _ in range(iterations):
        nb = matrix @ b
        norm = np.linalg.norm(nb)
        if norm == 0.0:
            raise TaskError("power_iteration: matrix annihilated the iterate")
        nb /= norm
        if np.linalg.norm(nb - b) < tol:
            b = nb
            break
        b = nb
    return _sign_canonical(b)


def oracle_top_eigvec(x):
    """Top eigenvector of the second-moment matrix of the rows of x."""
    x = np.asarray(x, dtype=np.float64)
    return power_iteration(x.T @ x)


def gen_spiked(n: int, d: int, sigma: float, count: int, seed: Seed = 0):
    """Rows sampled as z*v + sigma*noise for a planted unit spike v; the
    label is v itself (sign-canonicalized)."""
    if n <= 1 or d < 2 or sigma < 0:
        raise TaskError(f"gen_spiked: bad parameters n={n} d={d} sigma={sigma}")
    rng = _stream(seed, 505)
    instances = []
    for _ in range(count):
        for _attempt in range(100):
            v = rng.normal(size=d)
            norm = np.linalg.norm(v)
            if norm == 0.0:
                continue
            v = _sign_canonical(v / norm)
            z = rng.normal(size=n)
            x = z[:, None] * v[None, :] + sigma * rng.normal(size=(n, d))
            if not np.any(np.all(x == 0.0, axis=1)):
                break
        else:
            raise TaskError("gen_spiked: degenerate samples persisted")
        instances.append(SetInstance(x, v.copy()))
    header = {
        "task": "spiked", "n": n, "d": d, "L": d, "sigma": sigma, "seed": seed,
    }
    return Dataset(header, instances)


# ---------------------------------------------------------------------------
# digit sets (MNIST IDX or synthetic fallback)

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(TaskError):
    """Malformed IDX file."""


def load_mnist_idx(images_path, labels_path):
    """Parse big-endian IDX image/label files.

    Returns (images, labels): float64 images scaled to [0,1] and flattened
    to rows, int64 labels.
    """
    with open(images_path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise IdxFormatError(f"{images_path}: truncated header")
    magic, count, rows, cols = struct.unpack_from(">IIII", raw, 0)
    if magic != _IDX_IMAGE_MAGIC:
        raise IdxFormatError(f"{images_path}: bad magic 0x{magic:08x}")
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise IdxFormatError(f"{images_path}: expected {expected} bytes, got {len(raw)}")
    images = np.frombuffer(raw, dtype=np.uint8, offset=16).astype(np.float64)
    images = images.reshape(count, rows * cols) / 255.0

    with open(labels_path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise IdxFormatError(f"{labels_path}: truncated header")
    magic, label_count = struct.unpack_from(">II", raw, 0)
    if magic != _IDX_LABEL_MAGIC:
        raise IdxFormatError(f"{labels_path}: bad magic 0x{magic:08x}")
    if len(raw) != 8 + label_count:
        raise IdxFormatError(f"{labels_path}: payload size mismatch")
    labels = np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.int64)
    if label_count != count:
        raise IdxFormatError(
            f"image/label counts differ: {count} vs {label_count}"
        )
    return images, labels


def synthetic_digits(per_class=200, dim=16, noise=0.1, seed=0):
    """Deterministic digit-image stand-in: ten fixed Gaussian prototypes plus
    per-sample noise.  Interface-compatible with the MNIST loader output."""
    rng = _stream(seed, 909)
    prototypes = rng.normal(size=(10, dim))
    images = np.concatenate(
        [prototypes[c] + noise * rng.normal(size=(per_class, dim)) for c in range(10)]
    )
    labels = np.repeat(np.arange(10, dtype=np.int64), per_class)
    return images, labels


def gen_biased_maxdigit(images, labels, set_size, count, seed, biased):
    """Sets of images with distinct digit classes; the label is the one-hot
    of the maximum digit.  With ``biased`` the max-digit image always sits in
    the last position (the test-time bias probe keeps positions uniform)."""
    if not 2 <= set_size <= 10:
        raise TaskError(f"gen_biased_maxdigit: set_size {set_size} outside [2,10]")
    labels = np.asarray(labels)
    by_digit = [np.nonzero(labels == c)[0] for c in range(10)]
    for c, idx in enumerate(by_digit):
        if idx.size == 0:
            raise TaskError(f"gen_biased_maxdigit: no images for digit {c}")
    rng = _stream(seed, 606)
    instances = []
    for _ in range(count):
        digits = [int(c) for c in rng.choice(10, size=set_size, replace=False)]
        if biased:
            top = max(digits)
            digits.remove(top)
            digits.append(top)
        picks = [int(by_digit[c][rng.integers(len(by_digit[c]))]) for c in digits]
        label = np.zeros(10)
        label[max(digits)] = 1.0
        instances.append(SetInstance(images[picks].copy(), label, digits=digits))
    header = {
        "task": "maxdigit", "n": set_size, "d": int(images.shape[1]), "L": 10,
        "biased": bool(biased), "seed": seed,
    }
    return Dataset(header, instances)


def gen_maxdigit(set_size: int, count: int, seed: Seed = 0, biased: bool = False,
                 source: str = "synthetic", per_class: int = 200, digit_dim: int = 16,
                 noise: float = 0.1, corpus_seed: Seed = 0,
                 images_path: str | None = None, labels_path: str | None = None):
    """Max-digit sets over ``synthetic_digits`` or MNIST IDX files."""
    if source == "synthetic":
        corpus = synthetic_digits(per_class, digit_dim, noise, corpus_seed)
    elif source == "mnist" and images_path and labels_path:
        corpus = load_mnist_idx(images_path, labels_path)
    else:
        raise TaskError(f"gen_maxdigit: source must be 'synthetic', or 'mnist' "
                        f"with images_path and labels_path; got {source!r}")
    return gen_biased_maxdigit(*corpus, set_size, count, seed, biased)


# task kind -> name of its generator; callers look the name up at call time,
# so a wrapper rebound to the module attribute (bench/layertrace.py) sees it
TASK_KINDS = {"kary": "gen_kary_distance", "percentile": "gen_percentile",
              "maxflow": "gen_maxflow", "spiked": "gen_spiked",
              "maxdigit": "gen_maxdigit"}


# ---------------------------------------------------------------------------
# oracle verification


def oracle_verify(dataset, source="dataset"):
    """Re-derive every label from its oracle; returns a list of failure
    descriptions (empty list means the dataset verifies).  A header that
    lacks a parameter of its task, or a record the oracle cannot read, raises
    TaskError naming ``source`` and the header or record."""
    task = dataset.header.get("task")
    failures = []
    i = None  # the record being checked
    try:
        if task == "kary":
            k = dataset.header["k"]
            for i, inst in enumerate(dataset.instances):
                expect = oracle_kary(inst.elements, k)
                if expect != inst.label[0]:
                    failures.append(
                        f"record {i}: kary label {inst.label[0]} != {expect}")
        elif task == "percentile":
            r = dataset.header["r"]
            for i, inst in enumerate(dataset.instances):
                expect = oracle_percentile(inst.elements, r)
                if expect != inst.label[0]:
                    failures.append(
                        f"record {i}: percentile label {inst.label[0]} != {expect}"
                    )
        elif task == "maxflow":
            graph = FlowGraph(
                vertices=dataset.header["vertices"],
                edges=[tuple(e) for e in dataset.header["edges"]],
                sink=dataset.header["sink"],
            )
            for i, inst in enumerate(dataset.instances):
                subset = np.nonzero(inst.elements[:, : graph.vertices] == 1.0)[1]
                expect = float(oracle_maxflow(graph, subset))
                if expect != inst.label[0]:
                    failures.append(
                        f"record {i}: maxflow label {inst.label[0]} != {expect}"
                    )
        elif task == "spiked":
            for i, inst in enumerate(dataset.instances):
                est = oracle_top_eigvec(inst.elements)
                cos = abs(float(est @ inst.label)) / (
                    np.linalg.norm(est) * np.linalg.norm(inst.label)
                )
                if not cos >= 0.99:  # a NaN alignment fails too
                    failures.append(
                        f"record {i}: spike alignment |cos|={cos:.4f} < 0.99")
        elif task == "maxdigit":
            for i, inst in enumerate(dataset.instances):
                if inst.digits is None:
                    failures.append(f"record {i}: missing digit annotations")
                    continue
                top = max(inst.digits)
                expect = np.zeros(10)
                expect[top] = 1.0
                if not np.array_equal(inst.label, expect):
                    failures.append(f"record {i}: label is not one-hot of max digit")
                if dataset.header.get("biased") and inst.digits[-1] != top:
                    failures.append(f"record {i}: biased set lacks max digit last")
        else:
            failures.append(f"unknown task kind {task!r}")
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        where = "header" if i is None else f"record {i}"
        raise TaskError(f"{source}: {where}: malformed: {exc!r}") from exc
    return failures
