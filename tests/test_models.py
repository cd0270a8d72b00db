"""Independent models of the constructed groups.

The pc-built groups are compared against two entirely separate realizations:
unitriangular 3x3 matrices over Z/q for the two-step family, and an explicit
split extension C_q |x (C_q |x C_s^3) for the three-step families.  The
generator-matching map is verified multiplicative on every pair of elements,
which validates the whole collection/enumeration stack.
"""

import random

from bforge.families import build_case_i, build_case_ii, build_case_iii


# -- unitriangular matrices ----------------------------------------------------


def mat_mul(A, B, q):
    return tuple(
        sum(A[3 * i + t] * B[3 * t + j] for t in range(3)) % q
        for i in range(3)
        for j in range(3)
    )


MAT_ID = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def mat_pow(A, e, q):
    R = MAT_ID
    while e:
        if e & 1:
            R = mat_mul(R, A, q)
        A = mat_mul(A, A, q)
        e >>= 1
    return R


def mat_inv(A, q):
    # unitriangular: A^(q^2) = identity comfortably bounds the order
    R, X = MAT_ID, A
    while mat_mul(X, A, q) != MAT_ID:
        X = mat_mul(X, A, q)
    return X


def heisenberg_images(pg, q):
    X = (1, 1, 0, 0, 1, 0, 0, 0, 1)
    Y = (1, 0, 0, 0, 1, 1, 0, 0, 1)
    Z = mat_mul(mat_mul(mat_inv(Y, q), mat_inv(X, q), q), mat_mul(Y, X, q), q)
    return [X, Y, Z]


def test_case_i_matches_matrix_model():
    for p, k in ((5, 1), (7, 1)):
        pg = build_case_i(p, k)
        G = pg.group
        q = p**k
        images = heisenberg_images(pg, q)
        table = [None] * G.order
        for idx in range(G.order):
            out = MAT_ID
            for i, e in enumerate(G.vec(idx)):
                if e:
                    out = mat_mul(out, mat_pow(images[i], e, q), q)
            table[idx] = out
        assert len(set(table)) == G.order  # bijective onto the matrix group
        for a in range(G.order):
            for b in range(G.order):
                assert table[G.mul(a, b)] == mat_mul(table[a], table[b], q)


def test_case_i_52_matches_matrix_model_sampled():
    pg = build_case_i(5, 2)
    G = pg.group
    q = 25
    images = heisenberg_images(pg, q)
    table = {}

    def phi(idx):
        out = table.get(idx)
        if out is None:
            out = MAT_ID
            for i, e in enumerate(G.vec(idx)):
                if e:
                    out = mat_mul(out, mat_pow(images[i], e, q), q)
            table[idx] = out
        return out

    rng = random.Random(41)
    for _ in range(20000):
        a, b = rng.randrange(G.order), rng.randrange(G.order)
        assert phi(G.mul(a, b)) == mat_mul(phi(a), phi(b), q)


# -- split extension C_q |x (C_q |x C_s^3) --------------------------------------


class SplitModel:
    """x acts on <y> |x A by y -> y z, z -> z t; y acts on A by z -> z w;
    t and w are untouched.  Elements are (i, (j, (k, l, m)))."""

    def __init__(self, q, s):
        self.q, self.s = q, s
        self.identity = (0, (0, (0, 0, 0)))

    def a_add(self, a, b):
        s = self.s
        return tuple((u + v) % s for u, v in zip(a, b))

    def a_conj_y(self, a, j):
        k, l, m = a
        return (k, l, (m + k * j) % self.s)

    def a_conj_x(self, a, i):
        k, l, m = a
        return (k, (l + k * i) % self.s, m)

    def h_mul(self, h1, h2):
        j1, a1 = h1
        j2, a2 = h2
        return ((j1 + j2) % self.q, self.a_add(self.a_conj_y(a1, j2), a2))

    def h_conj_x(self, h, i):
        # (y^j a)^(x^i) = (y z)^(x^(i-1)) ... computed one x at a time
        for _ in range(i):
            j, a = h
            yz = (1, (1, 0, 0))
            out = (0, (0, 0, 0))
            for _ in range(j):
                out = self.h_mul(out, yz)
            h = self.h_mul(out, (0, self.a_conj_x(a, 1)))
        return h

    def mul(self, g1, g2):
        i1, h1 = g1
        i2, h2 = g2
        return ((i1 + i2) % self.q, self.h_mul(self.h_conj_x(h1, i2), h2))

    def gens(self):
        X = (1, (0, (0, 0, 0)))
        Y = (0, (1, (0, 0, 0)))
        Z = (0, (0, (1, 0, 0)))
        T = (0, (0, (0, 1, 0)))
        W = (0, (0, (0, 0, 1)))
        return [X, Y, Z, T, W]

    def pow(self, g, e):
        out = self.identity
        for _ in range(e):
            out = self.mul(out, g)
        return out


def split_model_checks(model):
    # the x-action must be an automorphism of H with order dividing q
    hs = [
        (j, (k, l, m))
        for j in range(model.q)
        for k in range(model.s)
        for l in range(model.s)
        for m in range(model.s)
    ]
    for h in hs:
        assert model.h_conj_x(h, model.q) == h
    rng = random.Random(43)
    for _ in range(2000):
        h1, h2 = rng.choice(hs), rng.choice(hs)
        assert model.h_conj_x(model.h_mul(h1, h2), 1) == model.h_mul(
            model.h_conj_x(h1, 1), model.h_conj_x(h2, 1)
        )


def check_split_isomorphism(pg, q, s):
    model = SplitModel(q, s)
    split_model_checks(model)
    G = pg.group
    images = model.gens()
    table = [None] * G.order
    for idx in range(G.order):
        out = model.identity
        for i, e in enumerate(G.vec(idx)):
            if e:
                out = model.mul(out, model.pow(images[i], e))
        table[idx] = out
    assert len(set(table)) == G.order
    for a in range(G.order):
        for b in range(G.order):
            assert table[G.mul(a, b)] == model.mul(table[a], table[b])


def test_case_ii_matches_split_model():
    check_split_isomorphism(build_case_ii(1), 3, 3)


def test_case_iii_matches_split_model():
    check_split_isomorphism(build_case_iii(2), 4, 2)
