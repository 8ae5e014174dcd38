"""Independent brute-force Hom oracle, and a weight-block reader of one
endomorphism, shared by the solver and acceptance tests."""

from fractions import Fraction

from onemotives import linalg
from onemotives.crystal import FilteredPhiModule
from onemotives.linalg import Matrix


def naive_hom_dimension(src, tgt):
    """Entry-by-entry equation assembly plus textbook Fraction elimination.

    Unknowns: the entries of h (row-major) followed by auxiliary
    coordinates expressing each image of a Fil1 generator in the target
    Fil1 basis.  Kernel dimension equals dim Hom because the auxiliary
    coordinates are determined by h.  Nothing here calls the package's
    solvers.
    """
    na, nb = src.dim, tgt.dim
    ra, rb = src.fil1.cols, tgt.fil1.cols
    nh = nb * na
    nvars = nh + rb * ra
    rows = []
    for i in range(nb):
        for j in range(na):
            row = [Fraction(0)] * nvars
            for k in range(nb):
                row[k * na + j] += tgt.phi.at(i, k)
            for k in range(na):
                row[i * na + k] -= src.phi.at(k, j)
            rows.append(row)
    for c in range(ra):
        for i in range(nb):
            row = [Fraction(0)] * nvars
            for k in range(na):
                row[i * na + k] += src.fil1.at(k, c)
            for s in range(rb):
                row[nh + c * rb + s] -= tgt.fil1.at(i, s)
            rows.append(row)
    rank = 0
    for col in range(nvars):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pval = rows[rank][col]
        rows[rank] = [x / pval for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return nvars - rank


def random_rational_module(rng, ctx):
    """Non-graded module of dimension 1 to 3: an invertible integer phi and
    a full-rank integer Fil1 of random rank.  Its slopes may break every
    weight's rule, so it carries no weights; the Hom solver reads none."""
    n = rng.randint(1, 3)
    while True:
        phi = Matrix(n, n, [Fraction(rng.randint(-5, 5)) for _ in range(n * n)])
        if linalg.char_poly(phi)[0] != 0:
            break
    r = rng.randint(0, n)
    while True:
        fil = Matrix(n, r, [Fraction(rng.randint(-3, 3)) for _ in range(n * r)])
        if r == 0 or linalg.rank(fil) == r:
            break
    return FilteredPhiModule(ctx, n, phi, (), fil, label="random", graded=False)


def weight_block_structure(h, m):
    """Zero/nonzero report for each weight-to-weight block of an endomorphism."""
    blocks = [(w, range(o, o + d)) for w, o, d in m.weight_offsets()]
    return {
        (w1, w2): linalg.is_zero(linalg.submatrix(h, b1, b2)) for w1, b1 in blocks for w2, b2 in blocks
    }
