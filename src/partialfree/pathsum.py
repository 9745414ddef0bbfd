"""Exact expected word traces for diagonal-plus-adjacency models.

For A = diag(g_1..g_N) with i.i.d. entries and B a 0/1 adjacency matrix,
the normalized expected trace of a two-letter word is a sum over closed
walks on the graph of B: each B factor hops along an edge, each A^e factor
deposits e powers of g at the walker's current site, and independence
factorizes the expectation into a product of pure entry moments, one per
distinct site visited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError
from .matrices import chain_adjacency
from .words import Word

DEFAULT_MAX_HOPS = 20


def gaussian_entry_moments(order: int):
    """Moments m_1..m_order of a standard Gaussian entry: 0, 1, 0, 3, 0, 15, ..."""
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    out = []
    for k in range(1, order + 1):
        if k % 2:
            out.append(0)
        else:
            value = 1
            for j in range(1, k, 2):
                value *= j
            out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class LatticeModel:
    """Adjacency structure of B plus entry moments of the diagonal of A.

    ``entry_moments`` is indexed from order 1 (m_1, m_2, ...); order 0 is
    implicitly 1.  ``translation_invariant`` marks vertex-transitive graphs
    (set by the chain constructor for circulant chains) so walk sums can fix
    the start site instead of averaging over all of them.  ``neighbors``
    lists each site's neighbors, built once from the adjacency.
    """

    adjacency: np.ndarray
    entry_moments: tuple
    translation_invariant: bool = False
    max_hops: int = DEFAULT_MAX_HOPS
    neighbors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diagonal(adj) != 0):
            raise ValueError("adjacency must have a zero diagonal")
        if not np.all((adj == 0) | (adj == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", adj.astype(np.int64))
        object.__setattr__(self, "neighbors", tuple(np.flatnonzero(r).tolist() for r in adj))
        object.__setattr__(self, "entry_moments", tuple(self.entry_moments))

    @classmethod
    def chain(cls, n: int, entry_moments, circulant: bool = True,
              max_hops: int = DEFAULT_MAX_HOPS) -> "LatticeModel":
        """The n-site chain whose adjacency ``matrices.chain_adjacency`` samples as B.

        Circulant chains are vertex-transitive (n = 2 is one edge, which its
        swap maps onto itself), so their walk sums fix the start site.
        """
        if n < 2:
            raise ValueError(f"a chain needs at least 2 sites, got {n}")
        return cls(chain_adjacency(n, circulant), tuple(entry_moments),
                   translation_invariant=circulant, max_hops=max_hops)

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

    def is_open_chain(self) -> bool:
        return np.array_equal(self.adjacency, chain_adjacency(self.size, circulant=False))

    def entry_moment(self, order: int):
        if order == 0:
            return 1
        if order > len(self.entry_moments):
            raise ValueError(
                f"word needs entry moment m_{order}, only {len(self.entry_moments)} given"
            )
        return self.entry_moments[order - 1]


def _walk_sum(model: LatticeModel, steps, start: int):
    """Sum of expected weights over closed walks from ``start``.

    ``steps`` holds an int e per A block, which deposits e powers of the
    entry at the walker's site, and None per B factor, a hop to a neighbor.
    """
    exact = all(isinstance(m, (int, Fraction)) for m in model.entry_moments)
    neighbors = model.neighbors
    total = Fraction(0) if exact else 0.0

    def visit(i, site, deposits):
        nonlocal total
        if i == len(steps):
            if site == start:
                weight = 1
                for powered in deposits.values():
                    weight *= model.entry_moment(powered)
                total += weight
            return
        e = steps[i]
        if e is None:
            for nxt in neighbors[site]:
                visit(i + 1, nxt, deposits)
            return
        deposits[site] = deposits.get(site, 0) + e
        visit(i + 1, site, deposits)
        deposits[site] -= e
        if deposits[site] == 0:
            del deposits[site]

    visit(0, start, {})
    return total


def exact_word_net(word: Word, model: LatticeModel):
    """Exact normalized expected trace of a two-letter word on the model.

    The letter A (index 0) is the i.i.d. diagonal matrix, B (index 1) the
    adjacency matrix.  Exact rational output when the entry moments are
    exact numbers.
    """
    word = word.canonical()
    if any(letter > 1 for letter, _ in word.blocks):
        raise ValueError("walk sums are defined for two-letter words")
    if word.length == 0:
        return 1
    hops = sum(e for letter, e in word.blocks if letter)
    if hops > model.max_hops:
        raise ResourceLimitError(
            f"word requires {hops} hops, above the configured bound {model.max_hops}"
        )
    # a step per A block, not per symbol: A^e is one recursion level at any e
    steps = [step for letter, e in word.blocks for step in ([None] * e if letter else [e])]
    starts = [0] if model.translation_invariant else range(model.size)
    return sum(_walk_sum(model, steps, s) for s in starts) / len(starts)


def boundary_corrected_word_net(word: Word, model: LatticeModel):
    """Walk sum on the open chain, where paths may not cross the endpoints.

    Requires the model's adjacency to be the open (non-circulant) chain;
    endpoint clipping is what produces the O(1/N) departure from the
    translation-invariant value.
    """
    if not model.is_open_chain():
        raise ValueError("boundary correction applies to the open chain only")
    return exact_word_net(word, model)
