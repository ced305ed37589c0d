"""Seeded corpus of domain-safe expressions for the ``enclose`` workload.

Every expression is a sum of three terms over a random box:

* a separable term, ``u1(u2(xi))``, in one variable;
* a coupled term, ``u3(xj) * u4(xk)`` or ``u3(xj) / u4(xk)``, across two
  variables when the arity allows it;
* a term that uses one subexpression ``s`` twice, ``u5(s) - s^k``, so the
  interned DAG shares it.

Each argument is rescaled and shifted until its plain interval range sits
inside the atom's domain, the way the acceptance test for random expressions
fits them.  That makes every expression safe for interval evaluation; the
superposition model can still fail on a few, because its range bound is not
always inside the interval one.  Those tasks stay in the corpus and count as
failed.

The corpus is stratified.  Each block holds a fixed number of expressions
per (arity, branch count) pair, more of the cheap small-N ones than of the
N=256 ones, so that one run bounds several hundred expressions and the
corpus-wide averages move little from seed to seed.  The atoms, operators
and powers of expression i follow from i; the seed draws the boxes and the
variables, and with them every fitted constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from isarith import cli
from isarith.interval import Interval

ATOMS = ("neg", "sqr", "inv", "exp", "log", "sin", "cos", "tan", "sqrt", "cot")
ARITIES = (1, 2, 3, 4)
#: expressions per arity in one block, by branch count
PER_BLOCK = {16: 16, 64: 4, 256: 1}
BLOCKS = 8

# target range of each atom's argument; inv is fitted to one side of zero
_ARG_RANGE = {
    "neg": (-4.0, 4.0),
    "sqr": (-4.0, 4.0),
    "exp": (-3.0, 2.2),
    "log": (0.7, 4.0),
    "sqrt": (0.7, 4.0),
    "sin": (-4.0, 4.0),
    "cos": (-4.0, 4.0),
    "tan": (-0.6, 0.6),
    "cot": (0.5, 1.1),
}
_OFF_ZERO = ((0.6, 3.0), (-3.0, -0.6))


@dataclass(frozen=True)
class Task:
    """One bounding task: expression text(s), a domain spec in the CLI's
    syntax, and the branch count.  ``depth`` > 1 self-composes the map."""

    name: str
    texts: tuple[str, ...]
    spec: str
    branches: int
    depth: int = 1

    @property
    def arity(self) -> int:
        return self.spec.count(";") + 1


class _Generator:
    def __init__(self, rng: np.random.Generator, arity: int, box: list[Interval]):
        self.rng = rng
        self.arity = arity
        self.box = box

    def _range(self, text: str) -> Interval:
        return cli.eval_interval(cli.parse(text, self.arity), self.box)[0]

    def fit(self, text: str, lo: float, hi: float) -> str:
        """Scale, then shift, so the interval range lands inside [lo, hi]."""
        r = self._range(text)
        span = hi - lo
        if r.diam > 0.8 * span:
            text = f"({text})*{round(0.7 * span / r.diam, 6)}"
            r = self._range(text)
        shift = round(lo + 0.5 * span - (r.lo + 0.5 * r.diam), 6)
        if shift > 0:
            return f"({text}+{shift})"
        if shift < 0:
            return f"({text}-{-shift})"
        return f"({text})"

    def var(self) -> str:
        return f"x{int(self.rng.integers(1, self.arity + 1))}"

    def off_zero(self, text: str, side: int) -> str:
        return self.fit(text, *_OFF_ZERO[side])

    def unary(self, op: str, arg: str, side: int = 0) -> str:
        if op == "inv":
            return f"inv({self.off_zero(arg, side)})"
        fitted = self.fit(arg, *_ARG_RANGE[op])
        return f"(-{fitted})" if op == "neg" else f"{op}({fitted})"

    def expression(self, idx: int) -> str:
        """Expression number idx.  Its atoms, operator, power and the sign
        side of every reciprocal follow from idx; the variables, the box and
        so every fitted constant follow from the generator."""
        u = [ATOMS[(idx + 3 * slot) % len(ATOMS)] for slot in range(5)]
        side = idx // len(ATOMS) % 2
        separable = self.unary(u[0], self.unary(u[1], self.var(), side), side)
        j = int(self.rng.integers(1, self.arity + 1))
        k = j % self.arity + 1
        left = self.fit(self.unary(u[2], f"x{j}", side), -2.0, 2.0)
        right = self.unary(u[3], f"x{k}", 1 - side)
        if idx % 2:
            coupled = f"{left}/{self.off_zero(right, side)}"
        else:
            coupled = f"{left}*{self.fit(right, -2.0, 2.0)}"
        shared = f"({self.var()}*{self.var()}+{self.var()})"
        reuse = f"{self.unary(u[4], shared, 1 - side)}-{self.fit(shared, -1.6, 1.6)}^{2 + idx % 3}"
        return f"{separable}+{coupled}+{reuse}"


def random_tasks(seed: int, blocks: int = BLOCKS, per_block: dict[int, int] = PER_BLOCK,
                 arities=ARITIES) -> list[Task]:
    """The seeded part of the corpus, block after block."""
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(blocks):
        for arity in arities:
            for branches, count in per_block.items():
                for _ in range(count):
                    idx = len(tasks)
                    lows = rng.uniform(-2.0, 1.0, size=arity)
                    widths = rng.uniform(0.5, 2.5, size=arity)
                    box = [Interval(float(a), float(a + w)) for a, w in zip(lows, widths)]
                    text = _Generator(rng, arity, box).expression(idx)
                    spec = ";".join(f"x{i + 1}=[{b.lo!r},{b.hi!r}]" for i, b in enumerate(box))
                    tasks.append(Task(f"rand{idx:03d}_n{arity}_N{branches}", (text,), spec, branches))
    return tasks


def anchor_tasks() -> list[Task]:
    """Fixed tasks in every corpus: the wide-domain showcase at three branch
    counts, and the recursion map composed eight times with itself."""
    tasks = [
        Task(f"showcase_N{n}", (cli.SHOWCASE_EXPR,), "x1=[0,10];x2=[0,20]", n)
        for n in (10, 100, 1000)
    ]
    tasks.append(Task("recursion_k8_N20", cli.RECURSION_TEXTS, cli.RECURSION_DOMAIN, 20, depth=8))
    return tasks
