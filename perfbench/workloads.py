"""Seeded SMT-LIB workloads for the end-to-end benchmark.

Every generator returns :class:`Case` objects: the script text handed to
``python -m repro`` plus the expected answer of each ``(check-sat)``.  The
expected answers come from construction or from brute force in plain
Python over a finite domain; nothing here imports ``repro``, so the oracle
cannot share a bug with the solver it checks.

Three workloads (see README.md for why each was chosen):

* ``fuzz_small`` — the fuzzing traffic: small scripts, each a seeded Boolean
  skeleton (nested ``and``/``or``/``not``/``ite``/``=>``) whose holes are
  filled by one theory's atom generator.  Every atom lives in a domain the
  oracle can enumerate exactly (see the ``_*_theory`` functions).
* ``hard_certified`` — a few seconds-scale scripts from the families of the
  in-process suites, run with ``--check-proofs``.
* ``incremental_big`` — one big shared base (xor ``let`` chain, long linear
  sum, nested ``ite``) followed by many easy ``push``/``check-sat``/``pop``
  rounds, shaped like symbolic execution.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Sequence


@dataclass(frozen=True)
class Case:
    """One generated script and the expected answer of each check-sat."""

    name: str
    text: str
    expected: tuple[str, ...]


# ---------------------------------------------------------------------------
# fuzz_small: Boolean skeletons over per-theory atoms.
# ---------------------------------------------------------------------------

#: An atom is its SMT-LIB text and its truth in one point of the domain.
Atom = tuple[str, Callable[[dict], bool]]


@dataclass
class Theory:
    """An atom generator with the finite domain that decides it exactly.

    ``points`` enumerates every model the oracle needs to look at; the
    script is satisfiable iff one of them satisfies it.  ``background``
    is asserted first in every script (box constraints), so the domain
    the oracle enumerates is the one the solver decides.
    """

    logic: str
    declarations: list[str]
    atom: Callable[[], Atom]
    points: Callable[[], Iterator[dict]]
    background: list[Atom]


def _num(value: int, real: bool = False) -> str:
    text = f"{abs(value)}.0" if real else str(abs(value))
    return text if value >= 0 else f"(- {text})"


_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "distinct": lambda a, b: a != b,
}


def _prop_theory(rng: random.Random) -> Theory:
    names = [f"p{i}" for i in range(rng.randint(3, 6))]

    def atom() -> Atom:
        name = rng.choice(names)
        return name, lambda env: env[name]

    def points() -> Iterator[dict]:
        for values in product((False, True), repeat=len(names)):
            yield dict(zip(names, values))

    return Theory(
        "QF_UF",
        [f"(declare-const {name} Bool)" for name in names],
        atom,
        points,
        [],
    )


LIA_BOX = (-2, 2)


def _lia_theory(rng: random.Random) -> Theory:
    names = ["x", "y", "z"]
    low, high = LIA_BOX

    def atom() -> Atom:
        used = rng.sample(names, rng.randint(1, 2))
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in used]
        bound = rng.randint(-4, 4)
        op = rng.choice(sorted(_COMPARE))
        terms = [name if c == 1 else f"(* {_num(c)} {name})" for c, name in zip(coeffs, used)]
        lhs = terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"
        compare = _COMPARE[op]
        return (
            f"({op} {lhs} {_num(bound)})",
            lambda env: compare(sum(c * env[n] for c, n in zip(coeffs, used)), bound),
        )

    def points() -> Iterator[dict]:
        for values in product(range(low, high + 1), repeat=len(names)):
            yield dict(zip(names, values))

    box = [
        (f"(<= {_num(low)} {name} {_num(high)})", lambda env, n=name: low <= env[n] <= high)
        for name in names
    ]
    return Theory(
        "QF_LIA", [f"(declare-const {name} Int)" for name in names], atom, points, box
    )


#: LRA atoms are difference constraints ``x - y ⋈ c`` and bounds ``x ⋈ c``
#: with integer ``c``.  Over n variables plus the zero node a negative
#: cycle has at most n + 1 edges, so with a grid step below 1 / (n + 1) a
#: conjunction of such literals is feasible over the reals iff it has a
#: solution on the grid (the shortest-path solution lies on it).  Grid
#: values are kept as integers scaled by LRA_SCALE.
LRA_BOX = (0, 2)
LRA_SCALE = 5


def _lra_theory(rng: random.Random) -> Theory:
    names = ["u", "v", "w"]
    low, high = LRA_BOX

    def atom() -> Atom:
        op = rng.choice(sorted(_COMPARE))
        compare = _COMPARE[op]
        bound = rng.randint(-2, 2)
        if rng.random() < 0.6:
            x, y = rng.sample(names, 2)
            return (
                f"({op} (- {x} {y}) {_num(bound, real=True)})",
                lambda env: compare(env[x] - env[y], bound * LRA_SCALE),
            )
        x = rng.choice(names)
        bound = rng.randint(low, high)
        return (
            f"({op} {x} {_num(bound, real=True)})",
            lambda env: compare(env[x], bound * LRA_SCALE),
        )

    def points() -> Iterator[dict]:
        grid = range(low * LRA_SCALE, high * LRA_SCALE + 1)
        for values in product(grid, repeat=len(names)):
            yield dict(zip(names, values))

    box = [
        (
            f"(<= {_num(low, real=True)} {name} {_num(high, real=True)})",
            lambda env, n=name: low * LRA_SCALE <= env[n] <= high * LRA_SCALE,
        )
        for name in names
    ]
    return Theory(
        "QF_LRA", [f"(declare-const {name} Real)" for name in names], atom, points, box
    )


_BV_BINARY = {
    "bvadd": lambda a, b, w: a + b,
    "bvsub": lambda a, b, w: a - b,
    "bvmul": lambda a, b, w: a * b,
    "bvand": lambda a, b, w: a & b,
    "bvor": lambda a, b, w: a | b,
    "bvxor": lambda a, b, w: a ^ b,
    "bvshl": lambda a, b, w: a << b if b < w else 0,
    "bvlshr": lambda a, b, w: a >> b if b < w else 0,
}
_BV_UNARY = {"bvnot": lambda a, w: ~a, "bvneg": lambda a, w: -a}


def _signed(value: int, width: int) -> int:
    return value - (1 << width) if value >> (width - 1) else value


_BV_COMPARE = {
    "=": lambda a, b, w: a == b,
    "distinct": lambda a, b, w: a != b,
    "bvult": lambda a, b, w: a < b,
    "bvule": lambda a, b, w: a <= b,
    "bvslt": lambda a, b, w: _signed(a, w) < _signed(b, w),
    "bvsle": lambda a, b, w: _signed(a, w) <= _signed(b, w),
}


def _bv_theory(rng: random.Random) -> Theory:
    width = rng.choice((3, 4))
    names = ["a", "b", "c"] if width == 3 else ["a", "b"]
    mask = (1 << width) - 1

    def term(depth: int) -> tuple[str, Callable[[dict], int]]:
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            if rng.random() < 0.8:
                name = rng.choice(names)
                return name, lambda env: env[name]
            value = rng.randint(0, mask)
            return f"#b{value:0{width}b}", lambda env: value
        if roll < 0.5:
            op = rng.choice(sorted(_BV_UNARY))
            fn = _BV_UNARY[op]
            text, arg = term(depth - 1)
            return f"({op} {text})", lambda env: fn(arg(env), width) & mask
        op = rng.choice(sorted(_BV_BINARY))
        fn2 = _BV_BINARY[op]
        left_text, left = term(depth - 1)
        right_text, right = term(depth - 1)
        return (
            f"({op} {left_text} {right_text})",
            lambda env: fn2(left(env), right(env), width) & mask,
        )

    def atom() -> Atom:
        op = rng.choice(sorted(_BV_COMPARE))
        compare = _BV_COMPARE[op]
        left_text, left = term(2)
        right_text, right = term(1)
        return (
            f"({op} {left_text} {right_text})",
            lambda env: compare(left(env), right(env), width),
        )

    def points() -> Iterator[dict]:
        for values in product(range(mask + 1), repeat=len(names)):
            yield dict(zip(names, values))

    return Theory(
        "QF_BV",
        [f"(declare-const {name} (_ BitVec {width}))" for name in names],
        atom,
        points,
        [],
    )


def restricted_growth(length: int) -> Iterator[tuple[int, ...]]:
    """Every partition of ``length`` items, as canonical class labels."""

    def extend(prefix: list[int], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for label in range(top + 2):
            prefix.append(label)
            yield from extend(prefix, max(top, label))
            prefix.pop()

    return extend([], -1)


#: Ground terms of the QF_UF fragment: constants, f over them, f(f(a)).
#: The set is closed under subterms, so a formula over it is satisfiable
#: iff some partition of the set that is a congruence for f satisfies it
#: (the quotient term model).
_UF_TERMS = ("a", "b", "c", "(f a)", "(f b)", "(f c)", "(f (f a))")
_UF_APPLICATIONS = {"(f a)": "a", "(f b)": "b", "(f c)": "c", "(f (f a))": "(f a)"}


def _uf_points() -> Iterator[dict]:
    for labels in restricted_growth(len(_UF_TERMS)):
        env = dict(zip(_UF_TERMS, labels))
        apps = list(_UF_APPLICATIONS.items())
        congruent = all(
            env[s_app] == env[t_app]
            for (s_app, s_arg), (t_app, t_arg) in product(apps, repeat=2)
            if env[s_arg] == env[t_arg]
        )
        if congruent:
            yield env


def _uf_theory(rng: random.Random) -> Theory:
    def atom() -> Atom:
        left, right = rng.sample(_UF_TERMS, 2)
        if rng.random() < 0.3:
            return f"(distinct {left} {right})", lambda env: env[left] != env[right]
        return f"(= {left} {right})", lambda env: env[left] == env[right]

    return Theory(
        "QF_UF",
        ["(declare-sort U 0)", "(declare-fun f (U) U)"]
        + [f"(declare-const {name} U)" for name in ("a", "b", "c")],
        atom,
        _uf_points,
        [],
    )


#: QF_AX over one base array ``a`` and uninterpreted index/value sorts.
#: Every array term is a store chain over ``a`` writing at ``i`` or ``j``,
#: so two chains can only differ at ``i`` or ``j``: an index universe of
#: two elements (i = 0, j ∈ {0, 1}) and a partition of the value terms
#: ``a[0], a[1], v, w`` enumerate every model up to isomorphism.
def _ax_theory(rng: random.Random) -> Theory:
    def index() -> tuple[str, Callable[[dict], int]]:
        name = rng.choice(("i", "j"))
        return name, lambda env: env[name]

    def array(depth: int) -> tuple[str, Callable[[dict], tuple]]:
        if depth == 0 or rng.random() < 0.4:
            return "a", lambda env: env["a"]
        base_text, base = array(depth - 1)
        index_text, at = index()
        value_text, val = value(depth - 1)

        def store(env: dict) -> tuple:
            cells = list(base(env))
            cells[at(env)] = val(env)
            return tuple(cells)

        return f"(store {base_text} {index_text} {value_text})", store

    def value(depth: int) -> tuple[str, Callable[[dict], int]]:
        if depth == 0 or rng.random() < 0.5:
            name = rng.choice(("v", "w"))
            return name, lambda env: env[name]
        array_text, arr = array(depth - 1)
        index_text, at = index()
        return f"(select {array_text} {index_text})", lambda env: arr(env)[at(env)]

    def atom() -> Atom:
        roll = rng.random()
        if roll < 0.5:
            (lt, left), (rt, right) = value(2), value(1)
            if not lt.startswith("(select"):
                array_text, arr = array(2)
                index_text, at = index()
                lt, left = f"(select {array_text} {index_text})", lambda env: arr(env)[at(env)]
            return f"(= {lt} {rt})", lambda env: left(env) == right(env)
        if roll < 0.8:
            (lt, left), (rt, right) = array(2), array(1)
            return f"(= {lt} {rt})", lambda env: left(env) == right(env)
        if roll < 0.9:
            return "(= i j)", lambda env: env["i"] == env["j"]
        return "(= v w)", lambda env: env["v"] == env["w"]

    def points() -> Iterator[dict]:
        for j in (0, 1):
            for a0, a1, v, w in restricted_growth(4):
                yield {"i": 0, "j": j, "a": (a0, a1), "v": v, "w": w}

    return Theory(
        "QF_AX",
        ["(declare-sort X 0)", "(declare-sort V 0)", "(declare-const a (Array X V))"]
        + [f"(declare-const {name} X)" for name in ("i", "j")]
        + [f"(declare-const {name} V)" for name in ("v", "w")],
        atom,
        points,
        [],
    )


FUZZ_THEORIES = {
    "prop": _prop_theory,
    "uf": _uf_theory,
    "lia": _lia_theory,
    "lra": _lra_theory,
    "bv": _bv_theory,
    "ax": _ax_theory,
}

#: A skeleton node is an atom index or ``(connective, *children)``.
Skeleton = object


def skeleton(rng: random.Random, depth: int, new_atom: Callable[[], int]) -> Skeleton:
    """A seeded Boolean skeleton of at most ``depth`` connective levels."""
    if depth == 0 or rng.random() < 0.2:
        return new_atom()
    kind = rng.choice(("and", "or", "not", "ite", "=>"))
    arity = {"not": 1, "ite": 3, "=>": 2}.get(kind) or rng.randint(2, 3)
    return (kind, *(skeleton(rng, depth - 1, new_atom) for _ in range(arity)))


def skeleton_text(node: Skeleton, atoms: Sequence[Atom]) -> str:
    if isinstance(node, int):
        return atoms[node][0]
    kind, *children = node
    return f"({kind} {' '.join(skeleton_text(child, atoms) for child in children)})"


def skeleton_holds(node: Skeleton, truth: Sequence[bool]) -> bool:
    if isinstance(node, int):
        return truth[node]
    kind, *children = node
    if kind == "not":
        return not skeleton_holds(children[0], truth)
    if kind == "and":
        return all(skeleton_holds(child, truth) for child in children)
    if kind == "or":
        return any(skeleton_holds(child, truth) for child in children)
    if kind == "=>":
        return not skeleton_holds(children[0], truth) or skeleton_holds(children[1], truth)
    condition, then, other = children
    return skeleton_holds(then if skeleton_holds(condition, truth) else other, truth)


def decide(
    theory: Theory, atoms: Sequence[Atom], base: Sequence[Skeleton], rounds: Sequence[Skeleton]
) -> tuple[str, ...]:
    """Expected answers of a fuzz script by enumerating the theory's domain:
    the base check needs the background and every base assertion, round r
    additionally its own assertion."""
    base_sat = False
    round_sat = [False] * len(rounds)
    for env in theory.points():
        if not all(holds(env) for _text, holds in theory.background):
            continue
        truth = [holds(env) for _text, holds in atoms]
        if not all(skeleton_holds(node, truth) for node in base):
            continue
        base_sat = True
        for r, node in enumerate(rounds):
            round_sat[r] = round_sat[r] or skeleton_holds(node, truth)
    return tuple("sat" if sat else "unsat" for sat in [base_sat, *round_sat])


def fuzz_case(seed: int, index: int) -> Case:
    """One fuzz script: background box, 1–3 skeleton assertions, a
    check-sat, then 0–2 ``push``/``assert``/``check-sat``/``pop`` rounds.

    The theory and the number of rounds cycle with ``index`` so every run
    has the same mix; the seed draws everything else."""
    rng = random.Random(f"fuzz_small/{seed}/{index}")
    kind = sorted(FUZZ_THEORIES)[index % len(FUZZ_THEORIES)]
    theory = FUZZ_THEORIES[kind](rng)
    atoms: list[Atom] = []

    def new_atom() -> int:
        atoms.append(theory.atom())
        return len(atoms) - 1

    def formula() -> Skeleton:
        return skeleton(rng, rng.randint(1, 3), new_atom)

    base = [formula() for _ in range(rng.randint(1, 3))]
    rounds = [formula() for _ in range(index // len(FUZZ_THEORIES) % 3)]

    expected = decide(theory, atoms, base, rounds)
    lines = [f"(set-logic {theory.logic})", *theory.declarations]
    lines += [f"(assert {text})" for text, _holds in theory.background]
    lines += [f"(assert {skeleton_text(node, atoms)})" for node in base]
    lines.append("(check-sat)")
    for node in rounds:
        lines += ["(push 1)", f"(assert {skeleton_text(node, atoms)})", "(check-sat)", "(pop 1)"]
    return Case(f"fuzz_{index:04d}_{kind}", "\n".join(lines) + "\n", expected)


# ---------------------------------------------------------------------------
# hard_certified: seconds-scale families, unsat answers certified.
# ---------------------------------------------------------------------------


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def php_case(rng: random.Random, holes: int) -> tuple[str, tuple[str, ...]]:
    """PHP(holes + 1, holes) over Boolean constants: unsat."""
    pigeons = range(holes + 1)
    var = {(p, h): f"q_{p}_{h}" for p in pigeons for h in range(holes)}
    lines = ["(set-logic QF_UF)"]
    lines += [f"(declare-const {name} Bool)" for name in _shuffled(rng, list(var.values()))]
    clauses = [f"(or {' '.join(var[p, h] for h in range(holes))})" for p in pigeons]
    clauses += [
        f"(or (not {var[p, h]}) (not {var[r, h]}))"
        for h in range(holes)
        for p in pigeons
        for r in range(p + 1, holes + 1)
    ]
    lines += [f"(assert {clause})" for clause in _shuffled(rng, clauses)]
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n", ("unsat",)


def planted_3sat_case(rng: random.Random, variables: int) -> tuple[str, tuple[str, ...]]:
    """Random 3-SAT at ratio 4.26 with a planted model: sat by construction."""
    model = [rng.random() < 0.5 for _ in range(variables)]
    clauses: list[str] = []
    while len(clauses) < round(4.26 * variables):
        picked = rng.sample(range(variables), 3)
        signs = [rng.random() < 0.5 for _ in picked]
        if not any(model[v] == s for v, s in zip(picked, signs)):
            continue
        clauses.append(
            "(or " + " ".join(f"b{v}" if s else f"(not b{v})" for v, s in zip(picked, signs)) + ")"
        )
    lines = ["(set-logic QF_UF)"]
    lines += [f"(declare-const b{v} Bool)" for v in range(variables)]
    lines += [f"(assert {clause})" for clause in clauses]
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n", ("sat",)


def euf_php_case(rng: random.Random, holes: int) -> tuple[str, tuple[str, ...]]:
    """holes + 1 pigeons whose images under f lie in ``holes`` cells and
    are pairwise distinct: unsat."""
    pigeons = [f"p{i}" for i in range(holes + 1)]
    cells = [f"h{j}" for j in range(holes)]
    lines = ["(set-logic QF_UF)", "(declare-sort U 0)", "(declare-fun f (U) U)"]
    lines += [f"(declare-const {name} U)" for name in _shuffled(rng, pigeons + cells)]
    asserts = [
        f"(or {' '.join(f'(= (f {p}) {h})' for h in _shuffled(rng, cells))})" for p in pigeons
    ]
    asserts += [
        f"(not (= (f {p}) (f {q})))"
        for i, p in enumerate(pigeons)
        for q in pigeons[i + 1:]
    ]
    lines += [f"(assert {text})" for text in _shuffled(rng, asserts)]
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n", ("unsat",)


def bv_miter_case(rng: random.Random, width: int) -> tuple[str, tuple[str, ...]]:
    """Distributivity miter a*(b+c) != a*b + a*c: unsat at every width."""
    a, b, c = _shuffled(rng, ["ma", "mb", "mc"])
    lines = ["(set-logic QF_BV)"]
    lines += [f"(declare-const {name} (_ BitVec {width}))" for name in ("ma", "mb", "mc")]
    lines.append(
        f"(assert (not (= (bvmul {a} (bvadd {b} {c})) (bvadd (bvmul {a} {b}) (bvmul {a} {c})))))"
    )
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n", ("unsat",)


def bv_factor_case(rng: random.Random, width: int) -> tuple[str, tuple[str, ...]]:
    """x * y = K over zero-extended words with 1 < x, y: sat iff K has a
    factorisation with both factors below 2^width (trial division)."""
    product_value = rng.randrange(1 << (width + 1), 1 << (2 * width - 2))
    factorable = any(
        product_value % d == 0 and product_value // d < (1 << width)
        for d in range(2, 1 << width)
    )
    wide = 2 * width
    lines = ["(set-logic QF_BV)"]
    lines += [f"(declare-const {name} (_ BitVec {width}))" for name in ("fx", "fy")]
    lines.append(
        f"(assert (= (bvmul ((_ zero_extend {width}) fx) ((_ zero_extend {width}) fy)) "
        f"#b{product_value:0{wide}b}))"
    )
    lines.append(f"(assert (bvult #b{1:0{width}b} fx))")
    lines.append(f"(assert (bvult #b{1:0{width}b} fy))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n", ("sat" if factorable else "unsat",)


def dense_simplex_case(rng: random.Random, n: int) -> tuple[str, tuple[str, ...]]:
    """The in-process suite's dense LP over a seeded variable order: the
    sum of all n variables is windowed, each variable boxed to [0, 2] and
    every prefix of the order bounded below — x = 1 satisfies it all."""
    xs = _shuffled(rng, [f"r{i}" for i in range(n)])
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const {x} Real)" for x in sorted(xs)]
    lines.append(f"(assert (<= {_num(n // 2, True)} (+ {' '.join(xs)}) {_num(n, True)}))")
    lines += [f"(assert (<= 0.0 {x} 2.0))" for x in xs]
    for i in range(n - 1):
        lines.append(f"(assert (>= (+ {' '.join(xs[: i + 2])}) {_num(i // 3, True)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n", ("sat",)


def sparse_simplex_case(rng: random.Random, n: int) -> tuple[str, tuple[str, ...]]:
    """Band rows x_i + x_{i+1} >= c_i and a cap on Σx one below the sum of
    the even rows' c_i: with n even those rows cover every variable once,
    so the cap is infeasible — unsat."""
    n += n % 2
    xs = [f"s{i}" for i in range(n)]
    bounds = [rng.randint(0, 9) for _ in range(n - 1)]
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const {x} Real)" for x in xs]
    rows = [f"(>= (+ {xs[i]} {xs[i + 1]}) {_num(bounds[i], True)})" for i in range(n - 1)]
    lines += [f"(assert {row})" for row in rows]
    cap = sum(bounds[i] for i in range(0, n - 1, 2)) - 1
    lines.append(f"(assert (<= (+ {' '.join(xs)}) {_num(cap, True)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n", ("unsat",)


def diamond_case(rng: random.Random, layers: int) -> tuple[str, tuple[str, ...]]:
    """d_{k+1} is d_k + 1 or d_k + 2 and d_0 = 0, so d_L takes exactly the
    integers in [L, 2L].  A window around one of them is sat; a window
    just outside the range is unsat."""
    ds = [f"d{k}" for k in range(layers + 1)]
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const {d} Real)" for d in ds]
    lines.append(f"(assert (= {ds[0]} 0.0))")
    for k in range(layers):
        one, two = f"(= {ds[k + 1]} (+ {ds[k]} 1.0))", f"(= {ds[k + 1]} (+ {ds[k]} 2.0))"
        lines.append(f"(assert (or {' '.join(_shuffled(rng, [one, two]))}))")
    sat = rng.random() < 0.5
    if sat:
        target = rng.randint(layers, 2 * layers)
        low, high = f"{target}.0", f"{target}.5"
    else:
        edge = rng.choice((layers - 1, 2 * layers))
        low, high = f"{edge}.25", f"{edge}.75"
    lines.append(f"(assert (<= {low} {ds[-1]} {high}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n", ("sat" if sat else "unsat",)


#: The hard_certified round: (family, generator, size).  The instances are
#: fixed (see hard_case); sizes put SAT search, theory check and proof
#: checking each at a fifth to a half of the traced time.
HARD_ROUND = (
    ("php", php_case, 5),
    ("planted3sat", planted_3sat_case, 280),
    ("euf_php", euf_php_case, 6),
    ("bv_miter", bv_miter_case, 3),
    ("bv_factor", bv_factor_case, 8),
    ("dense_simplex", dense_simplex_case, 150),
    ("sparse_simplex", sparse_simplex_case, 400),
    ("diamond", diamond_case, 60),
    ("planted3sat", planted_3sat_case, 220),
)

_DECLARATION = re.compile(r"^\(declare-(?:const|fun) (\S+) (.*)\)$", re.MULTILINE)


def rename_symbols(text: str, rng: random.Random) -> str:
    """Permute the names of declared symbols that share a signature.

    The renamed script is the same problem with the same structure, so a
    solver whose work does not depend on symbol names does the same work."""
    groups: dict[str, list[str]] = {}
    for name, signature in _DECLARATION.findall(text):
        groups.setdefault(signature, []).append(name)
    mapping = {}
    for names in groups.values():
        mapping.update(zip(names, rng.sample(names, len(names))))
    return re.sub(r"[^\s()]+", lambda match: mapping.get(match[0], match[0]), text)


def hard_case(seed: int, index: int) -> Case:
    """Round ``index // len(HARD_ROUND)`` of the hard families.

    Seconds-scale searches vary by an order of magnitude between random
    instances of one family, which would swamp any change to the code.  So
    each (family, round) instance is fixed, and the seed renames its
    symbols: every seed does the same work, spelled differently."""
    family, generate, size = HARD_ROUND[index % len(HARD_ROUND)]
    rounds = index // len(HARD_ROUND)
    text, expected = generate(random.Random(f"hard_certified/{index % len(HARD_ROUND)}/{rounds}"), size)
    text = rename_symbols(text, random.Random(f"hard_certified/{seed}/{index}"))
    return Case(f"hard_{index:04d}_{family}", text, expected)


# ---------------------------------------------------------------------------
# incremental_big: a big shared base, many easy incremental rounds.
# ---------------------------------------------------------------------------


def incremental_case(seed: int, index: int) -> Case:
    """A symbolic-execution-shaped script.

    The base has three independent parts, each satisfiable:

    * an xor chain ``t_k = x_k xor t_{k-1}`` written as nested ``let``
      binders and tied to ``z`` — z is the parity of the x's;
    * a long sum ``s = Σ y_k`` over 0/1-boxed integers;
    * a nested Boolean ``ite`` whose branches fix ``e`` to distinct constants.

    Each round pushes a few assertions and checks.  The parts share no
    symbol, so a round is sat iff each part's assertions are: parity pins
    are checked against the xor of the pinned bits, sum bounds against
    [0, width], ite targets against the constants the chain can yield.

    The sizes are drawn per script position, the same for every seed, so
    runs with different seeds do comparable work; the seed draws the
    contents (pins, bounds, constants and targets).
    """
    sizes = random.Random(f"incremental_big/sizes/{index}")
    chain = sizes.randint(150, 300)
    width = sizes.randint(30, 60)
    depth = sizes.randint(20, 40)
    rounds = sizes.randint(15, 25)
    rng = random.Random(f"incremental_big/{seed}/{index}")

    lines = ["(set-logic QF_LIA)"]
    lines += [f"(declare-const x{k} Bool)" for k in range(chain)]
    lines.append("(declare-const z Bool)")
    lines += [f"(declare-const y{k} Int)" for k in range(width)]
    lines += ["(declare-const s Int)", "(declare-const e Int)"]
    lines += [f"(declare-const g{k} Bool)" for k in range(depth)]

    lets = "".join(
        f"(let ((t{k} {'x0' if k == 0 else f'(xor x{k} t{k - 1})'})) " for k in range(chain)
    )
    lines.append(f"(assert {lets}(= z t{chain - 1}){')' * chain})")
    lines += [f"(assert (<= 0 y{k} 1))" for k in range(width)]
    lines.append(f"(assert (= s (+ {' '.join(f'y{k}' for k in range(width))})))")
    # Boolean-level ite: each branch fixes e to one of the constants.
    values = rng.sample(range(-1000, 1000), depth + 1)
    ite = f"(= e {_num(values[depth])})"
    for k in reversed(range(depth)):
        ite = f"(ite g{k} (= e {_num(values[k])}) {ite})"
    lines.append(f"(assert {ite})")

    expected = []
    for _ in range(rounds):
        lines.append("(push 1)")
        sat = True
        # Pin every x and z: the pins are consistent iff z is their parity.
        pinned = [rng.random() < 0.5 for _ in range(chain)]
        parity = sum(pinned) % 2 == 1
        z_value = parity if rng.random() < 0.75 else not parity
        sat &= z_value == parity
        literals = [f"x{k}" if bit else f"(not x{k})" for k, bit in enumerate(pinned)]
        literals.append("z" if z_value else "(not z)")
        lines.append(f"(assert (and {' '.join(literals)}))")
        bound = rng.randint(0, width + 2)
        sat &= bound <= width
        lines.append(f"(assert (>= s {bound}))")
        target = rng.choice(values) if rng.random() < 0.85 else rng.randint(1000, 2000)
        sat &= target in values
        lines.append(f"(assert (= e {_num(target)}))")
        lines.append("(check-sat)")
        lines.append("(pop 1)")
        expected.append("sat" if sat else "unsat")
    return Case(f"incremental_{index:04d}", "\n".join(lines) + "\n", tuple(expected))


# ---------------------------------------------------------------------------
# Workload table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """How ``python -m repro`` runs one workload's scripts.

    ``nominal_s`` is the wall time of one script on a 2-core x86 machine;
    a run executes ``count(seconds)`` scripts ``passes`` times over, so
    that it lasts about ``--seconds`` while its work stays fixed for a
    given seed.  Repeated passes let few, long scripts report a median
    time per script.
    """

    name: str
    generate: Callable[[int, int], Case]
    nominal_s: float
    cli_args: tuple[str, ...]
    wall_limit_s: float
    round_size: int = 1
    passes: int = 1

    def count(self, seconds: float) -> int:
        rounds = max(1, round(seconds / (self.nominal_s * self.round_size * self.passes)))
        return rounds * self.round_size

    def cases(self, seed: int, seconds: float) -> list[Case]:
        return [self.generate(seed, index) for index in range(self.count(seconds))]


WORKLOADS = {
    "fuzz_small": Workload("fuzz_small", fuzz_case, 0.19, ("--timeout", "0.5"), 30.0),
    "hard_certified": Workload(
        "hard_certified",
        hard_case,
        1.2,
        ("--check-proofs", "--timeout", "60"),
        90.0,
        round_size=len(HARD_ROUND),
        passes=3,
    ),
    "incremental_big": Workload(
        "incremental_big", incremental_case, 1.5, ("--timeout", "30"), 60.0, passes=2
    ),
}
