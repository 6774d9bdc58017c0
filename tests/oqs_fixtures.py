"""Reference operator-valued matrices for the OQS chain build, and a
permutation/gauge matcher that compares emitted tensors against them.

Bond-index order and per-index scale are gauge freedoms of a TTNO, so the
chain tensors are compared up to both.
"""

import itertools

import numpy as np

from ttno.oqs import OQSSpec, n_sites


# -- reference operator-valued matrices for the chain build --------------------

def chain_reference_matrices(spec: OQSSpec) -> dict[str, np.ndarray]:
    """Operator-valued matrices (left bond, right bond, d, d) the chain build
    must reproduce per site kind, up to bond-index order and bond gauge."""
    j = spec.coupling
    g = complex(spec.g)
    w = spec.omega
    d = spec.boson_dim
    eye2 = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    eyeb = np.eye(d, dtype=complex)
    bmat = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        bmat[k, k + 1] = np.sqrt(k + 1)
    coupling = g * bmat + g.conjugate() * bmat.conj().T
    nmat = np.diag(np.arange(d, dtype=complex))

    spin = np.zeros((5, 6, 2, 2), dtype=complex)
    spin[0, 0] = eye2
    spin[1, 0] = -j * x
    spin[2, 0] = -j * y
    spin[3, 0] = -j * z
    spin[4, 1] = z
    spin[4, 2] = x
    spin[4, 3] = y
    spin[4, 4] = z
    spin[4, 5] = eye2

    boson_mid = np.zeros((6, 6, d, d), dtype=complex)
    boson_mid[0, 0] = eyeb
    boson_mid[1, 0] = coupling
    boson_mid[1, 1] = eyeb
    boson_mid[2, 2] = eyeb
    boson_mid[3, 3] = eyeb
    boson_mid[4, 4] = eyeb
    boson_mid[5, 0] = w * nmat
    boson_mid[5, 5] = eyeb

    boson_group_end = np.zeros((6, 5, d, d), dtype=complex)
    boson_group_end[0, 0] = eyeb
    boson_group_end[1, 0] = coupling
    boson_group_end[2, 1] = eyeb
    boson_group_end[3, 2] = eyeb
    boson_group_end[4, 3] = eyeb
    boson_group_end[5, 0] = w * nmat
    boson_group_end[5, 4] = eyeb

    # boundary reductions
    spin_first = spin[4:5, :, :, :]                      # only the start row
    spin_last = spin[:, [0, 1, 5], :, :]                 # no further spins
    boson_last_group = boson_mid[np.ix_([0, 1, 5], [0, 1, 5])]
    chain_end = boson_group_end[:, 0:1, :, :]            # final column only
    boson_first = boson_mid[1:, :, :, :]                 # nothing done yet
    boson_first_end = boson_group_end[1:, :, :, :]

    return {
        "spin": spin,
        "spin_first": spin_first,
        "spin_last": spin_last,
        "boson_mid": boson_mid,
        "boson_group_end": boson_group_end,
        "boson_last_group": boson_last_group,
        "boson_first": boson_first,
        "boson_first_end": boson_first_end,
        "chain_end": chain_end,
    }


def chain_fixture_kind(spec: OQSSpec, site: int) -> str:
    """Which fixture applies to which chain site (chains with >= 2 spins)."""
    n, m = spec.n_spins, spec.n_baths
    period = m + 1
    s, rem = divmod(site, period)
    if rem == 0:
        if s == 0:
            return "spin_first"
        if s == n - 1:
            return "spin_last"
        return "spin"
    b = rem - 1
    last_of_group = (b == m - 1)
    if site == n_sites(spec) - 1:
        return "chain_end"
    if s == n - 1:
        return "boson_last_group"
    if site == 1:
        # no term has completed left of the very first boson
        return "boson_first_end" if last_of_group else "boson_first"
    return "boson_group_end" if last_of_group else "boson_mid"


# -- permutation/gauge matching -------------------------------------------------

def _trim_zero_lines(mat: np.ndarray) -> np.ndarray:
    """Drop all-zero bond rows/columns of a (l, r, d, d) operator matrix."""
    keep_rows = [i for i in range(mat.shape[0]) if np.any(mat[i])]
    keep_cols = [jj for jj in range(mat.shape[1]) if np.any(mat[:, jj])]
    return mat[np.ix_(keep_rows, keep_cols)]


def _proportionality(a: np.ndarray, b: np.ndarray,
                     tol: float = 1e-9) -> complex | None:
    """Scalar lam with a == lam * b, or None."""
    ib = np.argmax(np.abs(b))
    bmax = b.reshape(-1)[ib]
    if abs(bmax) < tol:
        return None
    lam = a.reshape(-1)[ib] / bmax
    if np.allclose(a, lam * b, atol=tol):
        return complex(lam)
    return None


def operator_matrices_equivalent(a: np.ndarray, b: np.ndarray,
                                 allow_scaling: bool = True) -> bool:
    """True if the operator-valued matrices agree up to a permutation of the
    bond rows and columns (and, optionally, a nonzero scale per bond index).

    All-zero bond rows/columns are ignored on both sides.
    """
    a = _trim_zero_lines(np.asarray(a, dtype=complex))
    b = _trim_zero_lines(np.asarray(b, dtype=complex))
    if a.shape != b.shape:
        return False
    n_rows, n_cols = a.shape[:2]

    def support_cols(mat, i):
        return frozenset(jj for jj in range(mat.shape[1]) if np.any(mat[i, jj]))

    def support_rows(mat, jj):
        return frozenset(i for i in range(mat.shape[0]) if np.any(mat[i, jj]))

    a_row_sizes = sorted(len(support_cols(a, i)) for i in range(n_rows))
    b_row_sizes = sorted(len(support_cols(b, i)) for i in range(n_rows))
    if a_row_sizes != b_row_sizes:
        return False

    for row_perm in itertools.permutations(range(n_rows)):
        # row_perm maps a-row i -> b-row row_perm[i]; prune by support size
        if any(len(support_cols(a, i)) != len(support_cols(b, row_perm[i]))
               for i in range(n_rows)):
            continue
        for col_map in _column_maps(a, b, row_perm):
            if _gauge_consistent(a, b, row_perm, col_map, allow_scaling):
                return True
    return False


def _column_maps(a, b, row_perm):
    """All column bijections whose support patterns match under row_perm."""
    n_cols = a.shape[1]
    b_pattern: dict[frozenset, list[int]] = {}
    for jj in range(n_cols):
        pat = frozenset(i for i in range(b.shape[0]) if np.any(b[i, jj]))
        b_pattern.setdefault(pat, []).append(jj)
    a_groups: dict[frozenset, list[int]] = {}
    for jj in range(n_cols):
        pat = frozenset(row_perm[i] for i in range(a.shape[0])
                        if np.any(a[i, jj]))
        a_groups.setdefault(pat, []).append(jj)
    if set(a_groups) != set(b_pattern):
        return
    if any(len(a_groups[p]) != len(b_pattern[p]) for p in a_groups):
        return
    patterns = sorted(a_groups, key=lambda p: tuple(sorted(p)))
    per_group = [itertools.permutations(b_pattern[p]) for p in patterns]
    for combo in itertools.product(*per_group):
        col_map = [None] * n_cols
        for p, assigned in zip(patterns, combo):
            for src, dst in zip(a_groups[p], assigned):
                col_map[src] = dst
        yield col_map


def _gauge_consistent(a, b, row_perm, col_map, allow_scaling):
    """Check a[i,j] == r_i * c_j * b[row_perm[i], col_map[j]] elementwise."""
    n_rows, n_cols = a.shape[:2]
    lam: dict[tuple[int, int], complex] = {}
    for i in range(n_rows):
        for jj in range(n_cols):
            cell_a = a[i, jj]
            cell_b = b[row_perm[i], col_map[jj]]
            a_zero, b_zero = not np.any(cell_a), not np.any(cell_b)
            if a_zero != b_zero:
                return False
            if a_zero:
                continue
            p = _proportionality(cell_a, cell_b)
            if p is None:
                return False
            if not allow_scaling and not np.isclose(p, 1.0):
                return False
            lam[(i, jj)] = p
    if not allow_scaling:
        return True
    # factor lam[(i,j)] = r_i * c_j: BFS over the bipartite support graph,
    # one free gauge per connected component
    rows_of: dict[int, list[int]] = {}
    cols_of: dict[int, list[int]] = {}
    for (i, jj) in lam:
        rows_of.setdefault(i, []).append(jj)
        cols_of.setdefault(jj, []).append(i)
    r: dict[int, complex] = {}
    c: dict[int, complex] = {}
    for start in sorted(rows_of):
        if start in r:
            continue
        r[start] = 1.0
        stack = [("r", start)]
        while stack:
            kind, node = stack.pop()
            if kind == "r":
                for jj in rows_of[node]:
                    want = lam[(node, jj)] / r[node]
                    if jj in c:
                        if not np.isclose(c[jj], want):
                            return False
                    else:
                        c[jj] = want
                        stack.append(("c", jj))
            else:
                for i in cols_of[node]:
                    want = lam[(i, node)] / c[node]
                    if i in r:
                        if not np.isclose(r[i], want):
                            return False
                    else:
                        r[i] = want
                        stack.append(("r", i))
    return True
