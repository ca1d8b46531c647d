"""Exact dense linear algebra over a prime field or the rationals.

Every computation in the package bottoms out here: ranks, kernel bases,
linear solves and quotient projections of dense matrices.  Two scalar
backends share one elimination loop, `_rref`: residues mod a prime p stored
in int64 numpy arrays, and arbitrary-precision `fractions.Fraction` stored in
object arrays.  Each pivot updates only the rows with a nonzero entry in its
column and only the columns from it rightwards.  Over F_p the reduction mod p
is delayed (Dumas, Giorgi and Pernet, "Dense linear algebra over word-size
prime fields: the FFLAS and FFPACK packages", ACM TOMS 35(3), 2008): only the
pivot column and row are reduced before use, the rest of the matrix once per
`PrimeField._block` updates and at the end; over Q the reductions are no-ops.
Pivoting is deterministic (first nonzero entry), so every basis produced
anywhere downstream is reproducible across runs.

A rank, `_rank`, first peels structural pivots off the nonzero pattern: a
column whose only nonzero lies in row i adds 1 to the rank, and column
operations with it clear row i without touching any other entry, so row i
and the column drop out and the rest of the matrix keeps its values; a row
with one nonzero is the transposed case.  This is the "structured Gaussian
elimination" of LaMacchia and Odlyzko ("Solving large sparse linear systems
over finite fields", CRYPTO '90) and the "structural pivots" of Bouillaguet
and Delaplace ("Sparse Gaussian elimination modulo p: an update", CASC 2016).
The section matrices of the Künneth monomial model are sparse and nearly
triangular, and peeling alone ranks them; only what survives the peel is
eliminated, by the forward half of `_rref`.  A `Matrix` remembers its rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_PRIME = 32003
MAX_PRIME = 3_037_000_499  # (p - 1)**2 < 2**63, so PrimeField._block is at least 1


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
        if a.shape[1] == 0:
            return self.zeros(a.shape[0], b.shape[1])
        return a @ b

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

    The array is frozen on construction, so the rank, once computed by
    `rank()` or `kernel_basis()`, is remembered.
    """

    field: PrimeField | RationalField
    a: np.ndarray  # 2-D, row-major, read-only

    def __post_init__(self):
        if self.a.ndim != 2:
            raise ValueError("matrix storage must be 2-D")
        self.a.flags.writeable = False
        object.__setattr__(self, "_rank", None)

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

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, self.field.reduce(self.a * self.field.scalar(c)))

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

    def kernel_basis(self) -> list[np.ndarray]:
        """Basis of the right kernel, one vector per non-pivot column."""
        k, free = _kernel(self.field, self.a)
        object.__setattr__(self, "_rank", self.cols - len(free))
        return list(k)

    def kernel_matrix(self) -> "Matrix":
        return Matrix.from_columns(self.field, self.kernel_basis(), rows_dim=self.cols)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """One exact solution of self @ x = rhs, free variables set to zero."""
        sol = self.solve_matrix(Matrix.from_columns(self.field, [np.asarray(rhs)], rows_dim=self.rows))
        return sol.col(0)

    def solve_matrix(self, rhs: "Matrix") -> "Matrix":
        """Solve self @ X = rhs column-wise; raises NoSolution if any column fails."""
        self._check(rhs)
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        aug = hstack([self, rhs])
        r, pivots = _rref(self.field, aug.a)
        n = self.cols
        x = self.field.zeros(n, rhs.cols)
        for i, pc in enumerate(pivots):
            if pc >= n:
                raise NoSolution("rhs outside column space")
            x[pc, :] = r[i, n:]
        return Matrix(self.field, x)

    def column_space_basis(self) -> "Matrix":
        """Canonical basis of the column span (rref of the transpose, as columns)."""
        return span_basis(self.field, self.a.T, self.rows)


def _rref(field, a: np.ndarray, reduced: bool = True) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan elimination: the reduced row echelon form of a and its pivot columns.

    Each pivot updates only columns c: (every row from r down is already zero
    left of c) and only the rows whose pivot-column entry is nonzero.  Over
    F_p the entries are reduced lazily: the pivot column and the pivot row
    before they are used, the rest of the matrix only when one more update
    could overflow int64 (after `PrimeField._block` updates) and once at the
    end.  With reduced=False only the rows below each pivot are cleared: a row
    echelon form with the same pivots, enough for a rank.
    """
    a = a.copy()
    m, n = a.shape
    budget = field._block if field.p else math.inf  # updates before an entry could overflow
    pending = 0  # updates since the matrix was last reduced
    pivots = []
    r = 0
    for c in range(n):
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
    The surviving rows and columns keep their original entries, and the
    forward half of `_rref` ranks them.  When no row or column of a is a
    singleton, a goes straight to `_rref` and the graph is never built, so a
    dense matrix pays only for one count of its nonzeros.
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


def _kernel(field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Right kernel basis as the rows of an array, and the free column each row is 1 at."""
    r, pivots = _rref(field, a)
    pivset = set(pivots)
    free = [j for j in range(a.shape[1]) if j not in pivset]
    k = field.zeros(len(free), a.shape[1])
    k[range(len(free)), free] = field.scalar(1)
    for i, pc in enumerate(pivots):
        k[:, pc] = field.reduce(-r[i, free])
    return k, free


def _nonzero_rows(field, vectors, n: int) -> np.ndarray:
    """The nonzero vectors as the rows of an array with n columns."""
    vecs = [v for v in vectors if np.any(np.asarray(v) != 0)]
    rows = field.zeros(len(vecs), n)
    for i, v in enumerate(vecs):
        rows[i, :] = v
    return rows


def hstack(mats: list[Matrix]) -> Matrix:
    mats = list(mats)
    return Matrix(mats[0].field, np.concatenate([m.a for m in mats], axis=1))


def vstack(mats: list[Matrix]) -> Matrix:
    mats = list(mats)
    return Matrix(mats[0].field, np.concatenate([m.a for m in mats], axis=0))


def quotient_data(field, ambient_dim: int, subspace: list[np.ndarray]) -> tuple[Matrix, Matrix]:
    """Coset data for ambient / span(subspace).

    Returns (reps, proj): `proj` is the surjection ambient -> quotient whose
    rows are the kernel basis of the subspace vectors stacked as rows, so its
    kernel is exactly the span; `reps` has one column per coset basis vector,
    the standard basis vector at that kernel vector's free coordinate.  By
    construction proj @ reps is the identity.
    """
    k, free = _kernel(field, _nonzero_rows(field, subspace, ambient_dim))
    reps = field.zeros(ambient_dim, len(free))
    reps[free, range(len(free))] = field.scalar(1)
    return Matrix(field, reps), Matrix(field, k)


def span_basis(field, vectors, ambient_dim: int) -> Matrix:
    """Canonical basis (rref rows, as columns) of the span of the given vectors."""
    r, pivots = _rref(field, _nonzero_rows(field, vectors, ambient_dim))
    return Matrix(field, r[: len(pivots)].T.copy())


def preimage_basis(m: Matrix, target_span: Matrix) -> Matrix:
    """Basis of {x : m @ x lies in the column span of target_span}."""
    stacked = hstack([m, -target_span]) if target_span.cols else m
    kern = stacked.kernel_basis()
    parts = [v[: m.cols] for v in kern]
    return span_basis(m.field, parts, m.cols)


def subspace_equal(a: Matrix, b: Matrix) -> bool:
    """Whether two column-span subspaces of the same ambient space coincide."""
    if a.rows != b.rows:
        return False
    sa = span_basis(a.field, list(a.columns()), a.rows)
    sb = span_basis(b.field, list(b.columns()), b.rows)
    return sa == sb
