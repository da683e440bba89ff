"""A dense oracle for the sparse-row isometries of `quartic15.lattice`.

Plain products over every entry, written without any library code: the
tests compare the library's sparse certificates and reflections against
these definitions.
"""


def mat_mul(a, b):
    """The dense product over every row-column pair."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def is_involution(m):
    """M·M = 1."""
    return mat_mul(m, m) == identity(len(m))


def preserves_gram(m, gram):
    """M·G·M^T = G."""
    return mat_mul(mat_mul(m, gram), [list(col) for col in zip(*m)]) == [list(row) for row in gram]


def dense(iso):
    """The square matrix of an isometry from its sparse rows."""
    n = len(iso.rows)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(iso.rows):
        for j, x in row:
            out[i][j] = x
    return out


def sparse(m):
    """The canonical sparse rows of a matrix: its nonzero (column, entry)
    pairs in column order, as tuples."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in m)


def reflection(gram, r):
    """The reflection in r, row by row from its dense definition
    e_i − 2(e_i·r)/(r·r)·r."""
    gr = [sum(g * x for g, x in zip(row, r)) for row in gram]
    rr = sum(x * y for x, y in zip(r, gr))
    rows = []
    for i, p in enumerate(gr):
        coeff, rem = divmod(-2 * p, rr)
        assert rem == 0
        row = [coeff * x for x in r]
        row[i] += 1
        rows.append(row)
    return rows
