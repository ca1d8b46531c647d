"""Exact linear algebra over a prime field or the rationals.

Every computation in the package bottoms out here: ranks, kernel bases,
linear solves and quotient projections of matrices stored dense, as
residues mod a prime p in int64 numpy arrays or as arbitrary-precision
`fractions.Fraction` in object arrays.  One elimination kernel, `_rref`,
serves both fields.  The section matrices of the Künneth monomial model are
a few percent dense, so `_rref` eliminates on the nonzeros (Bouillaguet and
Delaplace, "Sparse Gaussian elimination modulo p: an update", CASC 2016)
and over F_p hands what fills in to a dense numpy loop, `_rref_dense`.
Over Q a dense loop would run the same `Fraction` arithmetic one object at
a time, zeros included, so elimination over Q stays sparse, and products
over Q skip zeros too.  A rank, `_rank`, peels structural pivots off the
nonzero pattern and eliminates only what is left.  The reduced row echelon
form is unique, so neither pivot choices nor the switch to the dense loop
change any result, and every basis produced downstream is reproducible.

A `Matrix` keeps what its eliminations found, so no read-out eliminates a
matrix twice.  Its echelon (the nonzero rows of the RREF and their pivot
columns) comes from one elimination and serves every kernel read-out:
`kernel_basis`, and, on a matrix whose rows or columns span the subspace,
`quotient_data`, `span_basis` and `column_space_basis`.  Its first solve
eliminates [A | I] once, which yields the echelon and the transform U with
U @ A = RREF(A); every right-hand side B, then and later, costs the product
U @ B.  U is m x m, so only matrices that are solved against build it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_PRIME = 32003
MAX_PRIME = 3_037_000_499  # (p - 1)**2 < 2**63, so PrimeField._block is at least 1
SPARSE_UPDATE_LIMIT = 1024  # entries one sparse pivot update of _rref may touch over F_p; past it the rest goes dense


class QhorrocksError(Exception):
    """Base of the package's exceptions; `exit_code` is the CLI's exit status when one escapes."""

    exit_code = 1


class NoSolution(QhorrocksError):
    """Raised when a right-hand side is not in the column space."""

    exit_code = 1


class FieldMismatch(QhorrocksError, TypeError):
    """Raised when values from two different fields are combined."""

    exit_code = 2


class PrimeField:
    """The field F_p for a prime p <= MAX_PRIME, elements stored as ints in [0, p)."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not 2 <= p <= MAX_PRIME:
            raise ValueError(f"prime out of range 2..{MAX_PRIME}: {p}")
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"not a prime: {p}")
        self.p = p
        # how many products (p - 1)**2 can add to one residue and stay below 2**63:
        # the inner-dimension block of matmul, and the row updates _rref makes
        # between two reductions of the whole matrix
        self._block = (2**63 - p) // (p - 1) ** 2

    @property
    def name(self) -> str:
        return f"p={self.p}"

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def array(self, data) -> np.ndarray:
        a = np.array(data, dtype=np.int64)
        return np.mod(a, self.p)

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return np.mod(a, self.p)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        step = self._block
        out = np.mod(a[:, :step] @ b[:step], self.p)
        for s in range(step, a.shape[1], step):
            out = np.mod(out + a[:, s : s + step] @ b[s : s + step], self.p)
        return out

    def inv(self, x) -> int:
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, -1, self.p)

    def neg(self, x):
        return (-int(x)) % self.p

    def scalar(self, x) -> int:
        if isinstance(x, str):
            x = x.strip()
            if "/" in x:
                num, den = x.split("/")
                if int(den) % self.p == 0:
                    raise ValueError(f"zero denominator in {x!r} over {self.name}")
                return int(num) * self.inv(int(den)) % self.p
            x = int(x)
        if isinstance(x, Fraction):
            return int(x.numerator) * self.inv(int(x.denominator)) % self.p
        return int(x) % self.p

    def random_scalar(self, rng) -> int:
        return rng.randrange(self.p)

    def format_scalar(self, x) -> str:
        # balanced representative: -1 reads better than p - 1
        x = int(x) % self.p
        return str(x - self.p if x > self.p // 2 else x)


class RationalField:
    """The rationals, elements stored as `fractions.Fraction` in object arrays."""

    p = None

    @property
    def name(self) -> str:
        return "rationals"

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        a = np.empty((rows, cols), dtype=object)
        a[:] = Fraction(0)
        return a

    def array(self, data) -> np.ndarray:
        a = np.empty(np.shape(data), dtype=object)
        flat = a.reshape(-1)
        src = np.array(data, dtype=object).reshape(-1)
        for k in range(flat.shape[0]):
            flat[k] = Fraction(src[k])
        return a

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # one outer product per inner index, on the nonzeros only: a Fraction product
        # costs as much when it is zero, and numpy's object matmul forms them all
        out = self.zeros(a.shape[0], b.shape[1])
        if min(out.shape) <= 1:
            # no product, or a vector: testing every entry for zero costs about what the products do
            return a @ b if out.size and a.shape[1] else out
        anz, bnz = a != 0, b != 0
        for k in np.flatnonzero(anz.any(axis=0) & bnz.any(axis=1)):
            i, j = np.flatnonzero(anz[:, k]), np.flatnonzero(bnz[k])
            out[np.ix_(i, j)] += np.outer(a[i, k], b[k, j])
        return out

    def inv(self, x) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(x)

    def neg(self, x):
        return -Fraction(x)

    def scalar(self, x) -> Fraction:
        if isinstance(x, str):
            try:
                return Fraction(x.strip())
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {x.strip()!r}") from None
        return Fraction(x)

    def random_scalar(self, rng) -> Fraction:
        return Fraction(rng.randrange(-20, 21))

    def format_scalar(self, x) -> str:
        return str(Fraction(x))


def get_field(spec) -> PrimeField | RationalField:
    """Build a field from an int, 'rationals'/'q', or 'p=<prime>' text."""
    if isinstance(spec, (PrimeField, RationalField)):
        return spec
    if isinstance(spec, int):
        return PrimeField(spec)
    s = str(spec).strip().lower()
    if s in ("q", "qq", "rationals", "rational"):
        return RationalField()
    if s.startswith("p="):
        s = s[2:]
    return PrimeField(int(s))


@dataclass(frozen=True, eq=False)
class Matrix:
    """A dense matrix over a fixed field.  Immutable; all ops return new values.

    The array is frozen on construction, so the rank, the echelon and the
    transform U of the module docstring are each computed once and kept:
    the rank and the echelon on first use, U on the first solve.
    """

    field: PrimeField | RationalField
    a: np.ndarray  # 2-D, row-major, read-only
    # what eliminations found, kept by the first read-out that computes it (object.__setattr__)
    _rank = None
    _echelon = None
    _transform = None

    def __post_init__(self):
        if self.a.ndim != 2:
            raise ValueError("matrix storage must be 2-D")
        self.a.flags.writeable = False

    # -- constructors -------------------------------------------------
    @staticmethod
    def make(field, rows) -> "Matrix":
        data = [[field.scalar(x) for x in row] for row in rows]
        if not data:
            return Matrix(field, field.zeros(0, 0))
        return Matrix(field, field.array(data))

    @staticmethod
    def zeros(field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, field.zeros(rows, cols))

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        a = field.zeros(n, n)
        one = field.scalar(1)
        for i in range(n):
            a[i, i] = one
        return Matrix(field, a)

    @staticmethod
    def from_columns(field, cols, rows_dim: int | None = None) -> "Matrix":
        cols = list(cols)
        if not cols:
            return Matrix(field, field.zeros(rows_dim or 0, 0))
        a = field.zeros(len(cols[0]), len(cols))
        for j, c in enumerate(cols):
            a[:, j] = c
        return Matrix(field, a)

    # -- shape --------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def col(self, j: int) -> np.ndarray:
        return self.a[:, j].copy()

    def columns(self):
        for j in range(self.cols):
            yield self.a[:, j].copy()

    def is_zero(self) -> bool:
        return not np.any(self.a != 0)

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            return Matrix(self.field, self.field.matmul(self.a, other.a))
        v = np.asarray(other).reshape(-1, 1)
        return self.field.matmul(self.a, v)[:, 0]

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, self.field.reduce(self.a + other.a))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, self.field.reduce(self.a - other.a))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.field.reduce(-self.a))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.all(self.a == other.a))
        )

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"

    # -- elimination read-outs -----------------------------------------
    def rank(self) -> int:
        if self._rank is None:
            object.__setattr__(self, "_rank", _rank(self.field, self.a))
        return self._rank

    def echelon(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """The nonzero rows of the reduced row echelon form, and their pivot columns; eliminated once."""
        if self._echelon is None:
            r, pivots = _rref(self.field, self.a)
            self._keep_echelon(r[: len(pivots)].copy(), pivots)
        return self._echelon

    def _keep_echelon(self, r: np.ndarray, pivots: tuple[int, ...]):
        r.flags.writeable = False
        object.__setattr__(self, "_echelon", (r, pivots))
        object.__setattr__(self, "_rank", len(pivots))

    def _kernel_rows(self) -> tuple[np.ndarray, list[int]]:
        """Right kernel basis as the rows of an array, and the free column each row is 1 at.

        The row of free column f is e_f minus the entries of the RREF's
        pivot rows in column f, placed at their pivot columns.
        """
        r, pivots = self.echelon()
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        k = self.field.zeros(len(free), self.cols)
        k[range(len(free)), free] = self.field.scalar(1)
        if pivots:
            k[:, list(pivots)] = self.field.reduce(-r[:, free].T)
        return k, free

    def kernel_basis(self) -> list[np.ndarray]:
        """Basis of the right kernel, one vector per non-pivot column."""
        return list(self._kernel_rows()[0])

    def kernel_matrix(self) -> "Matrix":
        return Matrix.from_columns(self.field, self.kernel_basis(), rows_dim=self.cols)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """One exact solution of self @ x = rhs, free variables set to zero."""
        sol = self.solve_matrix(Matrix.from_columns(self.field, [np.asarray(rhs)], rows_dim=self.rows))
        return sol.col(0)

    def solve_matrix(self, rhs: "Matrix") -> "Matrix":
        """Solve self @ X = rhs column-wise, free variables zero; raises NoSolution if any column fails.

        With U @ self = RREF(self), Y = U @ rhs: rhs is in the column space
        exactly when the rows of Y past the rank vanish, and then row i of Y
        is the value of the i-th pivot variable.  The RREF is unique, so X is
        the solution that eliminating [self | rhs] would read out.
        """
        self._check(rhs)
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        if self._transform is None:
            # one elimination of [self | I]: its left block is RREF(self), its right block U
            n = self.cols
            r, pivots = _rref(self.field, np.concatenate([self.a, Matrix.identity(self.field, self.rows).a], axis=1))
            pivots = tuple(c for c in pivots if c < n)
            object.__setattr__(self, "_transform", r[:, n:].copy())
            self._keep_echelon(r[: len(pivots), :n].copy(), pivots)
        _, pivots = self.echelon()
        y = self.field.matmul(self._transform, rhs.a)
        if np.any(y[len(pivots) :] != 0):
            raise NoSolution("rhs outside column space")
        x = self.field.zeros(self.cols, rhs.cols)
        x[list(pivots), :] = y[: len(pivots)]
        return Matrix(self.field, x)

    def column_space_basis(self) -> "Matrix":
        """Canonical basis of the column span: the echelon rows of the transpose, as columns."""
        r, _ = Matrix(self.field, self.a.T).echelon()
        return Matrix(self.field, r.T.copy())


def _rref(field, a: np.ndarray, reduced: bool = True) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan elimination: the reduced row echelon form of a and its pivot columns.

    Rows are held sparse, as dicts {column: nonzero} of Python scalars, with
    the set of rows that hit each column.  Columns go left to right; the
    pivot row of a column is the unused row with the fewest nonzeros, and an
    update touches only the pivot row's nonzeros in the rows that hit the
    column.  Python ints are exact, so over F_p each entry is reduced as it
    is written and nothing can overflow.  Over F_p, when one update would
    touch more than SPARSE_UPDATE_LIMIT entries, what is left has filled
    in: the rows go into an array, pivot rows first in pivot order, then
    the unused rows, and `_rref_dense` finishes from that column.  The first
    update is priced from the nonzero pattern before any dict is built, so a
    dense input goes to `_rref_dense` whole.  With reduced=False only unused
    rows are updated: a row echelon form with the same pivots, for a rank.
    """
    m, n = a.shape
    p = field.p
    a = field.reduce(a)
    ii, jj = np.nonzero(a)
    bounds = np.searchsorted(ii, np.arange(m + 1))
    if p and (m - 1) * n > SPARSE_UPDATE_LIMIT and ii.shape[0]:
        # the first update, priced as below from the nonzero pattern: a dense input skips the dicts
        hit = ii[jj == jj.min()]
        if (hit.shape[0] - 1) * int(np.diff(bounds)[hit].min()) > SPARSE_UPDATE_LIMIT:
            return _rref_dense(field, a, 0, [], reduced)
    il, jl, xs, bounds = ii.tolist(), jj.tolist(), a[ii, jj].tolist(), bounds.tolist()
    rows = [dict(zip(jl[s:e], xs[s:e])) for s, e in zip(bounds, bounds[1:])]
    hits: list[set[int]] = [set() for _ in range(n)]  # the rows with a nonzero in each column
    for i, j in zip(il, jl):
        hits[j].add(i)
    unused = set(range(m))
    order: list[int] = []  # the pivot rows, in pivot order
    pivots: list[int] = []
    for c in range(n):
        if not unused:
            break
        cand = [i for i in hits[c] if i in unused]
        if not cand:
            continue
        r = min(cand, key=lambda i: len(rows[i]))
        prow = rows[r]
        targets = list(hits[c]) if reduced else cand
        if p and (len(targets) - 1) * len(prow) > SPARSE_UPDATE_LIMIT:
            return _rref_dense(field, _rows_array(field, [rows[i] for i in order + sorted(unused)], m, n), c, pivots, reduced)
        if prow[c] != 1:
            inv = field.inv(prow[c])
            for j, x in prow.items():
                prow[j] = x * inv % p if p else x * inv
        for i in targets:
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if p:
                    y %= p
                if y:
                    if j not in row:
                        hits[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    hits[j].discard(i)
        unused.discard(r)
        order.append(r)
        pivots.append(c)
    return _rows_array(field, [rows[i] for i in order], m, n), tuple(pivots)


def _rows_array(field, rows: list[dict], m: int, n: int) -> np.ndarray:
    """An m x n array whose first rows are the sparse rows {column: value} given, the rest zero."""
    ks, js, xs = [], [], []
    for k, row in enumerate(rows):
        ks += [k] * len(row)
        js += row
        xs += row.values()
    out = field.zeros(m, n)
    out[ks, js] = xs
    return out


def _rref_dense(field, a: np.ndarray, start: int, pivots: list[int], reduced: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """The dense loop of `_rref` over F_p, from column start on, with rows [0, len(pivots)) the pivot rows found so far.

    Each pivot updates only columns c: (every row from r down is already zero
    left of c) and only the rows whose pivot-column entry is nonzero.  The
    entries are reduced lazily: the pivot column and the pivot row before
    they are used, the rest of the matrix only when one more update could
    overflow int64 (after `PrimeField._block` updates) and once at the end
    (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  a comes in reduced,
    and is overwritten.
    """
    m, n = a.shape
    budget = field._block  # updates before an entry could overflow
    pending = 0  # updates since the matrix was last reduced
    r = len(pivots)
    for c in range(start, n):
        if r >= m:
            break
        top = 0 if reduced else r
        a[top:, c] = field.reduce(a[top:, c])
        nz = np.flatnonzero(a[r:, c])
        if nz.shape[0] == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        prow = field.reduce(field.reduce(a[r, c:]) * field.inv(a[r, c]))
        a[r, c:] = prow
        live = top + np.flatnonzero(a[top:, c])
        live = live[live != r]
        if live.shape[0]:
            if pending == budget:
                a[top:, c:] = field.reduce(a[top:, c:])
                pending = 0
            a[live, c:] -= np.outer(a[live, c], prow)
            pending += 1
        pivots.append(c)
        r += 1
    return field.reduce(a), tuple(pivots)


def _rank(field, a: np.ndarray) -> int:
    """The rank of a: structural pivots peeled off its nonzero pattern, then elimination of the rest.

    Entries are reduced first, so the pattern is that of the residues.  A
    column whose only live nonzero lies in row i is a pivot: column
    operations with it clear the rest of row i and change nothing outside
    row i, so the rank is 1 plus the rank of a with row i and that column
    deleted.  A row with a single live nonzero is the transposed case.  Each
    such peel is exact and needs no arithmetic, and deleting a pivot's row
    and column may leave new singletons (LaMacchia and Odlyzko, "Solving
    large sparse linear systems over finite fields", CRYPTO '90; Bouillaguet
    and Delaplace, "Sparse Gaussian elimination modulo p: an update", CASC
    2016).  Pattern rows and columns are the two sides of a bipartite graph;
    a work list of degree-1 vertices peels it in time linear in the nonzeros.
    The surviving rows and columns keep their original entries, and `_rref`
    with reduced=False ranks them.  When no row or column of a is a
    singleton, a goes straight to `_rref` and the graph is never built.
    """
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    a = field.reduce(a)
    nz = a != 0
    row_deg, col_deg = nz.sum(axis=1), nz.sum(axis=0)
    if not ((row_deg == 1).any() or (col_deg == 1).any()):
        return len(_rref(field, a, reduced=False)[1])
    # vertex v < m is row v, vertex m + j is column j; its neighbours are nbr[start[v]:start[v + 1]]
    rows, cols = np.nonzero(nz)
    deg = np.concatenate([row_deg, col_deg])
    nbr = np.concatenate([cols + m, rows[np.argsort(cols, kind="stable")]]).tolist()
    start = np.concatenate([[0], np.cumsum(deg)]).tolist()
    # live neighbours of each live vertex; 0 once peeled, and a live neighbour is never at 0
    deg = deg.tolist()
    work = [v for v, d in enumerate(deg) if d == 1]
    rank = 0
    while work:
        v = work.pop()
        if deg[v] != 1:
            continue
        w = next(x for x in nbr[start[v] : start[v + 1]] if deg[x])
        deg[v] = deg[w] = 0
        rank += 1
        for x in nbr[start[w] : start[w + 1]]:
            if deg[x]:
                deg[x] -= 1
                if deg[x] == 1:
                    work.append(x)
    left_rows = [i for i in range(m) if deg[i]]
    left_cols = [j for j in range(n) if deg[m + j]]
    if left_rows and left_cols:
        rank += len(_rref(field, a[np.ix_(left_rows, left_cols)], reduced=False)[1])
    return rank


def hstack(mats: list[Matrix]) -> Matrix:
    mats = list(mats)
    return Matrix(mats[0].field, np.concatenate([m.a for m in mats], axis=1))


def vstack(mats: list[Matrix]) -> Matrix:
    mats = list(mats)
    return Matrix(mats[0].field, np.concatenate([m.a for m in mats], axis=0))


def quotient_data(span: Matrix) -> tuple[Matrix, Matrix]:
    """Coset data for the quotient of span's ambient space (its rows) by its column span.

    Returns (reps, proj): `proj` is the surjection ambient -> quotient whose
    rows are the kernel basis of the transpose of span, so its kernel is
    exactly the column span; `reps` has one column per coset basis vector,
    the standard basis vector at that kernel vector's free coordinate.  By
    construction proj @ reps is the identity.
    """
    field = span.field
    k, free = Matrix(field, span.a.T)._kernel_rows()
    reps = field.zeros(span.rows, len(free))
    reps[free, range(len(free))] = field.scalar(1)
    return Matrix(field, reps), Matrix(field, k)


def span_basis(field, vectors, ambient_dim: int) -> Matrix:
    """Canonical basis (rref rows, as columns) of the span of the given vectors."""
    return Matrix.from_columns(field, vectors, ambient_dim).column_space_basis()


def preimage_basis(m: Matrix, target_span: Matrix) -> Matrix:
    """Basis of {x : m @ x lies in the column span of target_span}."""
    stacked = hstack([m, -target_span]) if target_span.cols else m
    return Matrix(m.field, stacked.kernel_matrix().a[: m.cols]).column_space_basis()


def subspace_equal(a: Matrix, b: Matrix) -> bool:
    """Whether two column-span subspaces of the same ambient space coincide."""
    return a.rows == b.rows and a.column_space_basis() == b.column_space_basis()
