"""Power-commutator presentations, collection, consistency checking, .pcp I/O.

A presentation has generators g_0 < g_1 < ... < g_{n-1} with prime-power
relative orders m_i, power relations g_i^{m_i} = t_i and commutator relations
[g_j, g_i] = c_ji for j > i, where every tail t_i / c_ji is a word over
generators of strictly larger index (so the presentation is weighted /
nilpotent-shaped and collection from the left terminates).

Conventions: [a, b] = a^-1 b^-1 a b, hence g_j g_i = g_i g_j [g_j, g_i].
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from math import isqrt, log2
from typing import Iterable, Iterator, Optional

from .errors import CapExceeded, ConsistencyError, PcpSyntaxError, ShapeError

# A word is a sequence of (generator index, exponent) tokens, exponents nonzero.
Token = tuple[int, int]
Word = tuple[Token, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


_TRIAL_BOUND = 1 << 20
# the first 13 primes decide every n below _MR_BOUND; the first 12 are
# fooled by 318665857834031151167461 = 399165290221 * 798330580441
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _iroot(m: int, e: int) -> int:
    """The largest r with r^e <= m, by Newton's iteration from above; the
    float logarithm starts it within 2^-30 of the root."""
    x = log2(m) / e
    shift = max(int(x) - 60, 0)
    r = (int(2 ** (x - shift) * (1 + 2**-30)) + 1) << shift
    while True:
        s = ((e - 1) * r + m // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES: exact for odd 41 < n < _MR_BOUND."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or n - 1 in (pow(a, d << j, n) for j in range(s)) for a in _MR_BASES)


def prime_power_base(m: int) -> Optional[int]:
    """The prime p with m = p^e (e >= 1), or None when m is not a prime power.

    Trial division finds any prime factor below 2^20, so an m below 2^40
    without one is prime.  A larger m is a prime power exactly when its
    first exact integer e-th root, largest e first, is prime, which
    _is_prime decides.  A root at or above _MR_BOUND raises CapExceeded: no
    group with such a relative order fits in memory."""
    if m < 2:
        return None
    for p in range(2, min(isqrt(m), _TRIAL_BOUND) + 1):
        if m % p == 0:
            while m % p == 0:
                m //= p
            return p if m == 1 else None
    if m < _TRIAL_BOUND**2:
        return m
    for e in range(m.bit_length() // 20, 0, -1):  # every prime factor is above 2^20
        r = _iroot(m, e)
        if r**e == m:
            break
    if r >= _MR_BOUND:
        raise CapExceeded(f"relative order of {m.bit_length()} bits: not a power of an integer "
                          f"below {_MR_BOUND}, too large for any group")
    return r if _is_prime(r) else None


@dataclass(frozen=True)
class PcPresentation:
    name: str
    names: tuple[str, ...]
    orders: tuple[int, ...]
    power_tails: tuple[Word, ...]
    comm_tails: dict[tuple[int, int], Word] = field(default_factory=dict)

    @property
    def ngens(self) -> int:
        return len(self.names)

    def order(self) -> int:
        n = 1
        for m in self.orders:
            n *= m
        return n

    def index(self, gname: str) -> int:
        return self.names.index(gname)


def _validate_word(word: Iterable[Token], floor: int, ngens: int, what: str) -> Word:
    out = []
    for g, e in word:
        if not 0 <= g < ngens:
            raise ShapeError(f"{what}: generator index {g} out of range")
        if g <= floor:
            raise ShapeError(f"{what}: tail references generator {g}, not later than {floor}")
        if e:
            out.append((int(g), int(e)))
    return tuple(out)


def make_presentation(
    name: str,
    names: Iterable[str],
    orders: Iterable[int],
    power_tails: Optional[dict[int, Iterable[Token]]] = None,
    comm_tails: Optional[dict[tuple[int, int], Iterable[Token]]] = None,
) -> PcPresentation:
    """Validate shape constraints and normalize all tails to collected form."""
    names = tuple(names)
    orders = tuple(int(m) for m in orders)
    n = len(names)
    if n == 0:
        raise ShapeError("empty generator list")
    if len(set(names)) != n:
        raise ShapeError("duplicate generator names")
    for nm in names:
        if not _NAME_RE.match(nm):
            raise ShapeError(f"invalid generator name {nm!r}")
    if len(orders) != n:
        raise ShapeError("orders/names length mismatch")
    for nm, m in zip(names, orders):
        if prime_power_base(m) is None:
            raise ShapeError(f"relative order {m} of {nm} is not a prime power >= 2")
    ptails = [()] * n
    for i, w in (power_tails or {}).items():
        ptails[i] = _validate_word(w, i, n, f"power tail of {names[i]}")
    ctails: dict[tuple[int, int], Word] = {}
    for (j, i), w in (comm_tails or {}).items():
        if not j > i:
            raise ShapeError(f"comm [{names[j]}, {names[i]}]: first generator must be later")
        wv = _validate_word(w, j, n, f"comm tail [{names[j]}, {names[i]}]")
        if wv:
            ctails[(j, i)] = wv
    raw = PcPresentation(name, names, orders, tuple(ptails), ctails)
    # re-collect tails so stored words are normal forms (canonical serialization)
    coll = Collector(raw)
    ptails2 = tuple(_vec_to_word(coll.collect(w)) for w in raw.power_tails)
    ctails2 = {k: _vec_to_word(coll.collect(w)) for k, w in raw.comm_tails.items()}
    ctails2 = {k: w for k, w in ctails2.items() if w}
    return PcPresentation(name, names, orders, ptails2, ctails2)


def _vec_to_word(vec: tuple[int, ...]) -> Word:
    return tuple((i, e) for i, e in enumerate(vec) if e)


class Collector:
    """Collection from the left over a weighted pc presentation.

    Normal forms are exponent tuples (e_0, ..., e_{n-1}) with 0 <= e_i < m_i.
    Rewriting pushes the leftmost out-of-place generator into the collected
    prefix, conjugating the trailing suffix; tails only involve later
    generators, so the recursion is well-founded on the generator index.
    Single-threaded: it memoizes as it collects, and every memo lives and
    dies with the Collector.  It keeps the collected power tails t_i, the
    powers (g_l^(g_i))^e of conjugates of generators (e = 1 is the
    conjugate), the powers t_i^q that an exponent overflow multiplies in,
    and the conjugate s^(g_i) of each suffix s it has lifted.  Results are
    those of recomputing: the memoized values are pure functions of their
    keys.

    Generators g_z, ..., g_{n-1} from the first index z past every comm
    tail's leading generator form the central suffix: they appear in no
    commutator relation, so they commute with everything and conjugation
    fixes them.  Multiplying by g_i lifts and conjugates only the part of
    the suffix below z and leaves the central part in place, so memo keys
    of conjugates carry no central coordinates.  On a nilpotent-quotient
    cover this is every tail generator.  On a consistent presentation the
    normal forms are those of lifting the whole suffix; on an inconsistent
    one, such as a cover, the two can differ by a relation of the
    presentation: lifting conjugates a central-only suffix s by a power u
    of a power tail as inv(u) s u, and inv(u) u may collect to a nonzero
    central word there.
    """

    def __init__(self, pres: PcPresentation):
        self.pres = pres
        self.n = pres.ngens
        self.orders = pres.orders
        self.identity = (0,) * self.n
        self._tails: list[Optional[tuple[int, ...]]] = [None] * self.n
        self._tails_known = [False] * self.n
        # _central_from[i]: conjugation by g_i fixes every later generator
        self._central_from = [
            all(pres.comm_tails.get((l, i)) is None for l in range(i + 1, self.n))
            for i in range(self.n)
        ]
        # g_central, ..., g_{n-1} appear in no commutator relation
        self.central = 1 + max((j for (j, _), w in pres.comm_tails.items() if w), default=-1)
        self._conj_gen_pow: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._tail_pow: dict[tuple[int, int], tuple[int, ...]] = {}
        self._conj1_memo: list[dict] = [dict() for _ in range(self.n)]

    # -- public API ---------------------------------------------------------

    def collect(self, word: Iterable[Token]) -> tuple[int, ...]:
        w = [0] * self.n
        for g, e in word:
            self._rmul(w, g, e)
        return tuple(w)

    def mul(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        w = list(u)
        for i, e in enumerate(v):
            if e:
                self._rmul(w, i, e)
        return tuple(w)

    def inv(self, u: tuple[int, ...]) -> tuple[int, ...]:
        w = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            if u[i]:
                self._rmul(w, i, -u[i])
        return tuple(w)

    def power(self, u: tuple[int, ...], e: int) -> tuple[int, ...]:
        if e < 0:
            u, e = self.inv(u), -e
        res = None
        sq = u
        while e:
            if e & 1:
                res = sq if res is None else self.mul(res, sq)
            e >>= 1
            if e:
                sq = self.mul(sq, sq)
        return self.identity if res is None else res

    def comm(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return self.mul(self.mul(self.inv(u), self.inv(v)), self.mul(u, v))

    def conjugate(self, u: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        return self.mul(self.mul(self.inv(g), u), g)

    def gen_vec(self, i: int) -> tuple[int, ...]:
        v = [0] * self.n
        v[i] = 1
        return tuple(v)

    # -- internals ----------------------------------------------------------

    def _tail(self, i: int) -> Optional[tuple[int, ...]]:
        if not self._tails_known[i]:
            word = self.pres.power_tails[i]
            self._tails_known[i] = True
            self._tails[i] = self.collect(word) if word else None
        return self._tails[i]

    def _rmul(self, w: list, i: int, e: int) -> None:
        """Multiply the normal form in w by g_i^e (any integer e), in place."""
        if e == 0:
            return
        n, z = self.n, self.central
        s = None  # the part of w after g_i and before the central suffix
        if any(w[i + 1:z]):
            zero = self.identity
            s = zero[:i + 1] + tuple(w[i + 1:z]) + zero[z:]
            w[i + 1:z] = zero[i + 1:z]
        if s is not None and not self._central_from[i]:
            s = self._conj_pow(s, i, e)
        q, r = divmod(w[i] + e, self.orders[i])
        w[i] = r
        if q:
            tq = self._tail_power(i, q)
            if tq is not None:
                for l in range(i + 1, n):
                    if tq[l]:
                        self._rmul(w, l, tq[l])
        if s is not None:
            for l in range(i + 1, n):
                if s[l]:
                    self._rmul(w, l, s[l])

    def _conj_pow(self, s: tuple[int, ...], i: int, e: int) -> tuple[int, ...]:
        """s^(g_i^e) for s supported on generators > i."""
        q, r = divmod(e, self.orders[i])
        for _ in range(r):
            s = self._conj1(s, i)
        if q:
            tq = self._tail_power(i, q)
            if tq is not None:
                s = self.mul(self.inv(tq), self.mul(s, tq))
        return s

    def _conj1(self, s: tuple[int, ...], i: int) -> tuple[int, ...]:
        memo = self._conj1_memo[i]
        res = memo.get(s)
        if res is not None:
            return res
        out = None
        for l in range(i + 1, self.n):
            if s[l]:
                c = self._conj_gen_power(l, i, s[l])
                out = c if out is None else self.mul(out, c)
        out = self.identity if out is None else out
        memo[s] = out
        return out

    def _tail_power(self, i: int, q: int) -> Optional[tuple[int, ...]]:
        """t_i^q, or None when g_i's power tail is trivial."""
        t = self._tail(i)
        if t is None:
            return None
        res = self._tail_pow.get((i, q))
        if res is None:
            res = self._tail_pow[(i, q)] = self.power(t, q)
        return res

    def _conj_gen_power(self, l: int, i: int, e: int) -> tuple[int, ...]:
        """(g_l^(g_i))^e, as a normal form."""
        key = (l, i, e)
        res = self._conj_gen_pow.get(key)
        if res is None:
            base = self._conj_of_gen(l, i) if e == 1 else self._conj_gen_power(l, i, 1)
            res = self._conj_gen_pow[key] = self.power(base, e)
        return res

    def _conj_of_gen(self, l: int, i: int) -> tuple[int, ...]:
        """g_l^(g_i) = g_l [g_l, g_i], as a normal form."""
        w = [0] * self.n
        self._rmul(w, l, 1)
        for g, e in self.pres.comm_tails.get((l, i), ()):
            self._rmul(w, g, e)
        return tuple(w)


# -- consistency ------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    gens: tuple[str, ...]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind} overlap on ({', '.join(self.gens)}): {self.lhs} != {self.rhs}"


def overlap_checks(
    coll: Collector, ngens: Optional[int] = None
) -> Iterator[tuple[str, tuple[str, ...], tuple, tuple]]:
    """Yield (kind, gens, lhs, rhs) for every overlap test word.

    The checks are the standard ones that certify unique normal forms for a
    weighted presentation: triple associativity g_k(g_j g_i) = (g_k g_j)g_i
    for k > j > i and the power overlaps for j >= i.  With ngens, only the
    checks among the first ngens generators are made (all by default).
    """
    n = coll.n if ngens is None else ngens
    names = coll.pres.names
    g = [coll.gen_vec(i) for i in range(n)]
    gpow = [coll.collect([(i, coll.orders[i])]) for i in range(n)]
    gpow1 = [coll.collect([(i, coll.orders[i] - 1)]) for i in range(n)]
    for k in range(2, n):
        for j in range(1, k):
            gkj = coll.mul(g[k], g[j])
            for i in range(j):
                lhs = coll.mul(g[k], coll.mul(g[j], g[i]))
                rhs = coll.mul(gkj, g[i])
                yield "associativity", (names[k], names[j], names[i]), lhs, rhs
    for j in range(n):
        for i in range(j):
            lhs = coll.mul(gpow[j], g[i])
            rhs = coll.mul(gpow1[j], coll.mul(g[j], g[i]))
            yield "power", (names[j], names[j], names[i]), lhs, rhs
            lhs = coll.mul(g[j], gpow[i])
            rhs = coll.mul(coll.mul(g[j], g[i]), gpow1[i])
            yield "power", (names[j], names[i], names[i]), lhs, rhs
        lhs = coll.mul(gpow[j], g[j])
        rhs = coll.mul(g[j], gpow[j])
        yield "power", (names[j], names[j], names[j]), lhs, rhs


def consistency_check(pres: PcPresentation) -> Optional[Violation]:
    """Return None when normal forms are well-defined, else the first violation."""
    coll = Collector(pres)
    for kind, gens, lhs, rhs in overlap_checks(coll):
        if lhs != rhs:
            return Violation(kind, gens, lhs, rhs)
    return None


def require_consistent(pres: PcPresentation) -> None:
    v = consistency_check(pres)
    if v is not None:
        raise ConsistencyError(f"{pres.name}: {v}")


# -- .pcp text format -------------------------------------------------------


@dataclass
class PcpFile:
    """A parsed .pcp file: presentation plus optional metadata stanzas."""

    presentation: PcPresentation
    family: Optional[str] = None
    params: dict[str, int] = field(default_factory=dict)
    distinguished: dict[str, Word] = field(default_factory=dict)
    theta: dict[str, Word] = field(default_factory=dict)
    images: dict[str, Word] = field(default_factory=dict)


def format_word(word: Word, names: tuple[str, ...]) -> str:
    if not word:
        return "1"
    toks = []
    for g, e in word:
        toks.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return " ".join(toks)


def _parse_word(text: str, names: tuple[str, ...], line: int) -> Word:
    text = text.strip()
    if text == "1":
        return ()
    toks = []
    for tok in text.split():
        if "^" in tok:
            nm, _, exp = tok.partition("^")
            try:
                e = int(exp)
            except ValueError:
                raise PcpSyntaxError(line, f"bad exponent in token {tok!r}")
        else:
            nm, e = tok, 1
        if nm not in names:
            raise PcpSyntaxError(line, f"unknown generator {nm!r}")
        toks.append((names.index(nm), e))
    return tuple(toks)


def _parse_order(tok: str, gname: str, line: int) -> int:
    """A relative order token as an int.  A decimal token with more
    significant digits than int() reads by default (4,300) raises
    CapExceeded unread, since it is far above _MR_BOUND; a shorter one that
    large is refused by its value after parsing."""
    digits = tok.removeprefix("+").lstrip("0")
    if digits.isascii() and digits.isdigit():
        if len(digits) > sys.int_info.default_max_str_digits:
            raise CapExceeded(f"relative order of {gname} has {len(digits)} digits: at least {_MR_BOUND}, "
                              f"too large for any group")
        return int(digits)
    try:
        return int(tok)
    except ValueError:
        shown = tok if len(tok) <= 40 else tok[:40] + "..."
        raise PcpSyntaxError(line, f"bad order {shown!r}")


def parse_pcp(text: str) -> PcpFile:
    """Parse the line-oriented .pcp format (UTF-8, '#' comments)."""
    name = None
    gens: list[tuple[str, int, str, int]] = []  # (name, order, power word text, line)
    comm_lines: list[tuple[str, str, str, int]] = []
    stanzas: list[tuple[str, list[str], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "pcgroup":
            if name is not None:
                raise PcpSyntaxError(lineno, "duplicate pcgroup line")
            if len(fields) != 2:
                raise PcpSyntaxError(lineno, "expected: pcgroup <name>")
            name = fields[1]
        elif kw == "gen":
            if len(fields) < 4 or fields[2] != "order":
                raise PcpSyntaxError(lineno, "expected: gen <name> order <m> [power <word>]")
            m = _parse_order(fields[3], fields[1], lineno)
            power = ""
            if len(fields) > 4:
                if fields[4] != "power":
                    raise PcpSyntaxError(lineno, "expected 'power' clause")
                power = " ".join(fields[5:])
                if not power:
                    raise PcpSyntaxError(lineno, "empty power word")
            gens.append((fields[1], m, power, lineno))
        elif kw == "comm":
            if len(fields) < 5 or fields[3] != "=":
                raise PcpSyntaxError(lineno, "expected: comm <gj> <gi> = <word>")
            comm_lines.append((fields[1], fields[2], " ".join(fields[4:]), lineno))
        elif kw in ("family", "param", "distinguished", "theta", "images"):
            stanzas.append((kw, fields[1:], lineno))
        else:
            raise PcpSyntaxError(lineno, f"unknown directive {kw!r}")
    if name is None:
        raise PcpSyntaxError(1, "missing pcgroup line")
    if not gens:
        raise PcpSyntaxError(1, "empty generator list")
    names = tuple(g[0] for g in gens)
    if len(set(names)) != len(names):
        raise PcpSyntaxError(gens[-1][3], "duplicate generator name")
    orders = tuple(g[1] for g in gens)
    power_tails: dict[int, Word] = {}
    for i, (_, _, ptext, lineno) in enumerate(gens):
        if ptext:
            power_tails[i] = _parse_word(ptext, names, lineno)
    comm_tails: dict[tuple[int, int], Word] = {}
    for gj, gi, wtext, lineno in comm_lines:
        if gj not in names or gi not in names:
            raise PcpSyntaxError(lineno, f"unknown generator in comm {gj} {gi}")
        j, i = names.index(gj), names.index(gi)
        comm_tails[(j, i)] = _parse_word(wtext, names, lineno)
    # every .pcp consumer enumerates its group, which no relative order this
    # large allows: refuse it before make_presentation factors it
    for nm, m, _, _ in gens:
        if m >= _MR_BOUND:
            raise CapExceeded(f"relative order of {nm} has {m.bit_length()} bits: at least {_MR_BOUND}, "
                              f"too large for any group")
    try:
        pres = make_presentation(name, names, orders, power_tails, comm_tails)
    except ShapeError as exc:
        raise PcpSyntaxError(gens[0][3], str(exc)) from exc
    out = PcpFile(pres)
    for kw, fields, lineno in stanzas:
        if kw == "family":
            if len(fields) != 1:
                raise PcpSyntaxError(lineno, "expected: family <name>")
            out.family = fields[0]
        elif kw == "param":
            if len(fields) != 2:
                raise PcpSyntaxError(lineno, "expected: param <key> <int>")
            try:
                out.params[fields[0]] = int(fields[1])
            except ValueError:
                raise PcpSyntaxError(lineno, f"bad param value {fields[1]!r}")
        else:
            if len(fields) < 3 or fields[1] != "=":
                raise PcpSyntaxError(lineno, f"expected: {kw} <key> = <word>")
            word = _parse_word(" ".join(fields[2:]), names, lineno)
            if kw == "distinguished":
                out.distinguished[fields[0]] = word
            elif kw == "theta":
                if fields[0] not in names:
                    raise PcpSyntaxError(lineno, f"unknown generator {fields[0]!r}")
                out.theta[fields[0]] = word
            else:
                out.images[fields[0]] = word
    return out


def parse_presentation(text: str) -> PcPresentation:
    return parse_pcp(text).presentation


def print_pcp(pf: PcpFile) -> str:
    """Canonical serialization; parse(print(pf)) round-trips byte-for-byte."""
    p = pf.presentation
    lines = [f"pcgroup {p.name}"]
    for i, (nm, m) in enumerate(zip(p.names, p.orders)):
        tail = p.power_tails[i]
        if tail:
            lines.append(f"gen {nm} order {m} power {format_word(tail, p.names)}")
        else:
            lines.append(f"gen {nm} order {m}")
    for j in range(p.ngens):
        for i in range(j):
            w = p.comm_tails.get((j, i))
            if w:
                lines.append(f"comm {p.names[j]} {p.names[i]} = {format_word(w, p.names)}")
    if pf.family:
        lines.append(f"family {pf.family}")
    for key in sorted(pf.params):
        lines.append(f"param {key} {pf.params[key]}")
    for key in sorted(pf.distinguished):
        lines.append(f"distinguished {key} = {format_word(pf.distinguished[key], p.names)}")
    for key in sorted(pf.theta, key=p.names.index):
        lines.append(f"theta {key} = {format_word(pf.theta[key], p.names)}")
    for key in sorted(pf.images):
        lines.append(f"images {key} = {format_word(pf.images[key], p.names)}")
    return "\n".join(lines) + "\n"


def print_presentation(pres: PcPresentation) -> str:
    return print_pcp(PcpFile(pres))
