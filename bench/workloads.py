"""The four benchmark workloads: seeded input generation, the op stream the
worker times, and the checks of every output.

An op is the unit one latency counts.  The library workloads ask each input
once; whatever the program's memos answer is its own business.  Only ``cli``
tells two sorts of op apart: a *hit* asks a query the generated cache file
holds, a *miss* a fresh one.

Generation runs in its own interpreter, which may call the library (to keep
only valid directions, or to fill the CLI cache); the interpreter that is
timed receives only the generated inputs, so its memos start cold.

Nothing here is imported by the package; the oracles below (hook lengths,
margin-matrix counts) share no code with it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from functools import partial

KINDS = ("kron", "lr", "heis")

# ---------------------------------------------------------------------------
# Independent oracles


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n, largest part first."""
    if n == 0:
        return [()]
    max_part = n if max_part is None else max_part
    out = []
    for head in range(min(n, max_part), 0, -1):
        out.extend((head,) + rest for rest in partitions(n - head, head))
    return out


def hook_dimension(lam) -> int:
    """f^lam = n! / product of hook lengths."""
    lam = tuple(lam)
    if not lam:
        return 1
    conj = [sum(1 for p in lam if p > c) for c in range(lam[0])]
    hooks = 1
    for r, row in enumerate(lam):
        for c in range(row):
            hooks *= (row - c) + (conj[c] - r) - 1
    return math.factorial(sum(lam)) // hooks


def subdiagrams(lam) -> int:
    """Number of partitions whose diagram lies inside lam's (the empty one too)."""
    lam = tuple(lam)

    def count(i: int, cap: int) -> int:
        if i == len(lam):
            return 1
        return sum(count(i + 1, v) for v in range(min(cap, lam[i]) + 1))

    return count(0, lam[0] if lam else 0)


def margin_matrices(beta, gamma, cornered: bool, limit: int | None = None
                    ) -> list[tuple[tuple[int, ...], ...]]:
    """Every matrix of the margin class, filled cell by cell; with a limit,
    stop once more than that many are found.

    Plain: p x q, row sums beta, column sums gamma.  Cornered: (p+1) x (q+1)
    with a zero corner whose rows 2.. sum to beta and columns 2.. to gamma;
    the first row and column take up the slack of the inner block."""
    p, q = len(beta), len(gamma)
    if not cornered and sum(beta) != sum(gamma):
        return []
    block = [[0] * q for _ in range(p)]
    row_left, col_left = list(beta), list(gamma)
    out = []

    def fill(cell: int) -> None:
        if limit is not None and len(out) > limit:
            return
        if cell == p * q:
            if cornered:
                rows = [(0,) + tuple(col_left)]
                rows += [(row_left[i],) + tuple(block[i]) for i in range(p)]
                out.append(tuple(rows))
            elif not any(row_left) and not any(col_left):
                out.append(tuple(tuple(r) for r in block))
            return
        i, j = divmod(cell, q)
        top = min(row_left[i], col_left[j])
        # a plain matrix must empty each row at its last cell
        lows = [row_left[i]] if (not cornered and j == q - 1) else range(top + 1)
        for v in lows:
            if v > top:
                continue
            block[i][j] = v
            row_left[i] -= v
            col_left[j] -= v
            fill(cell + 1)
            row_left[i] += v
            col_left[j] += v
        block[i][j] = 0

    fill(0)
    return out


def strict_system(rows) -> tuple[int, tuple[int, ...]]:
    """Size of the strict system that decides additivity of a cornered
    matrix: the number of cell pairs on consecutive value levels (corner
    excluded), and the number of cells on each level, highest first."""
    levels: dict[int, int] = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if (i, j) != (0, 0):
                levels[v] = levels.get(v, 0) + 1
    vals = sorted(levels, reverse=True)
    pairs = sum(levels[a] * levels[b] for a, b in zip(vals, vals[1:]))
    return pairs, tuple(levels[v] for v in vals)


def spread_order(n: int, u: float):
    """Indices 0..n-1 in the order of the sequence frac(u + j / golden ratio):
    every prefix is spread evenly over the range."""
    step = (math.sqrt(5) - 1) / 2
    seen = set()
    j = 0
    while len(seen) < n:
        i = int(n * ((u + j * step) % 1.0))
        j += 1
        if i not in seen:
            seen.add(i)
            yield i


def part_text(p) -> str:
    return ",".join(map(str, p)) or "0"


def _size_ok(kind: str, a, b, c) -> bool:
    x, y, z = sum(a), sum(b), sum(c)
    if kind == "kron":
        return x == y == z
    if kind == "lr":
        return x == y + z
    return max(y, z) <= x <= y + z


class Workload:
    """Generation, op stream and checks of one workload."""

    @staticmethod
    def is_hit(spec) -> bool:
        """Whether the op asks what the program has stored already."""
        return False

    def final_failures(self, inputs: dict, ctx) -> list[str]:
        """Checks of the whole run, beyond each op's own check."""
        return []


# ---------------------------------------------------------------------------
# sweep: stabilization sequences over the acceptance-07 space


class Sweep(Workload):
    """Random (kind, direction, base) draws, all three kinds, sizes <= 3;
    one stabilization_sequence(kind, base, direction, range(6)) per op."""

    def generate(self, rng, rep: int, workdir: str) -> dict:
        from heisenstab.stability import Kind, coefficient

        small = [p for n in range(4) for p in partitions(n)]
        space = []
        for kind in KINDS:
            triples = [t for t in itertools.product(small, repeat=3) if _size_ok(kind, *t)]
            dirs = [t for t in triples if coefficient(Kind(kind), *t) > 0]
            space += [(kind, b, d) for d in dirs for b in triples]
        rng.shuffle(space)
        return {"ops": space}

    def stream(self, inputs: dict, ctx):
        from heisenstab.stability import Kind, stabilization_sequence

        kinds = {k: Kind(k) for k in KINDS}
        ns = range(6)
        for kind, base, direction in inputs["ops"]:
            yield (kind, base, direction), partial(
                stabilization_sequence, kinds[kind], base, direction, ns)

    @staticmethod
    def check(spec, out) -> bool:
        """A sequence of (n, value), n = 0..5, weakly increasing."""
        ns = [n for n, _ in out]
        vals = [v for _, v in out]
        return (ns == list(range(6))
                and all(isinstance(v, int) and v >= 0 for v in vals)
                and all(a <= b for a, b in zip(vals, vals[1:])))


# ---------------------------------------------------------------------------
# product: whole degree components of Heisenberg products


class Product(Workload):
    """Pairs (mu, nu), |mu|, |nu| in 5..7; one heisenberg_component(mu, nu, l)
    per degree l is an op.

    The cost of a pair grows with the number of diagrams inside mu and nu,
    so pairs are drawn round-robin over strata: the nine size pairs, each cut
    into thirds by that count.  Every run then gets the same mix of cheap
    and dear pairs, whatever the seed."""

    sizes = (5, 6, 7)

    def generate(self, rng, rep: int, workdir: str) -> dict:
        pools = {}
        for a, b in itertools.product(self.sizes, repeat=2):
            pool = sorted(itertools.product(partitions(a), partitions(b)),
                          key=lambda p: subdiagrams(p[0]) * subdiagrams(p[1]))
            for third in range(3):
                part = pool[third * len(pool) // 3:(third + 1) * len(pool) // 3]
                rng.shuffle(part)
                pools[(a, b, third)] = part
        used, pairs = set(), []
        while any(pools.values()):
            order = sorted(pools)
            rng.shuffle(order)
            for key in order:
                pool = pools[key]
                while pool:
                    mu, nu = pool.pop()
                    if tuple(sorted((mu, nu))) not in used:
                        used.add(tuple(sorted((mu, nu))))
                        pairs.append((mu, nu))
                        break
        return {"ops": [(mu, nu, l) for mu, nu in pairs
                        for l in range(max(sum(mu), sum(nu)), sum(mu) + sum(nu) + 1)]}

    def stream(self, inputs: dict, ctx):
        from heisenstab.coefficients import heisenberg_component

        for mu, nu, l in inputs["ops"]:
            yield (mu, nu, l), partial(heisenberg_component, mu, nu, l)

    @staticmethod
    def check(spec, out) -> bool:
        """Every term is a partition of l with a positive multiplicity, and
        sum_lam h f^lam = f^mu f^nu l! / (p! q! r!)."""
        mu, nu, l = spec
        terms = out.terms
        for lam, h in terms.items():
            lam = tuple(lam)
            if (sum(lam) != l or any(x <= 0 for x in lam)
                    or any(a < b for a, b in zip(lam, lam[1:]))
                    or not isinstance(h, int) or h <= 0):
                return False
        m, n = sum(mu), sum(nu)
        p, q, r = l - n, m + n - l, l - m
        lhs = sum(h * hook_dimension(lam) for lam, h in terms.items())
        rhs = (hook_dimension(mu) * hook_dimension(nu) * math.factorial(l)
               // (math.factorial(p) * math.factorial(q) * math.factorial(r)))
        return lhs == rhs


# ---------------------------------------------------------------------------
# additivity: margin classes and a sample of one large cornered class


VERDICTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verdicts.json")


def margin_classes(class_size: int) -> list[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """The classes the additivity workload enumerates: cornered ("h") with 1-3
    row and 1-3 column margins in 1..3, plain ("k") with 2-3 of each in 1..4
    and equal totals, each holding exactly class_size matrices."""
    def margins(parts, top):
        return [c for k in parts for c in itertools.product(range(1, top + 1), repeat=k)]

    out = []
    for kind, parts, top in (("h", (1, 2, 3), 3), ("k", (2, 3), 4)):
        for beta, gamma in itertools.product(margins(parts, top), repeat=2):
            if (kind == "h" or sum(beta) == sum(gamma)) and len(
                    margin_matrices(beta, gamma, kind == "h", class_size)) == class_size:
                out.append((kind, beta, gamma))
    return out


def load_verdicts() -> dict:
    """The verdict table ``make_verdicts.py`` wrote: for every class of
    margin_classes() and for the sampled (2,2,2,1)^2 class, its additive
    matrices; every other matrix of the class is not additive."""
    with open(VERDICTS, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(m) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, m))


class Additivity(Workload):
    """Whole margin classes, cornered and plain in turn, each followed by a
    block from the cornered class with margins (2,2,2,1)^2; one
    stable-triple decision per matrix is an op.  A repetition enumerates
    each class at most once and decides each sample matrix at most once.

    Every class has exactly `class_size` matrices and every block the same
    number of sample matrices, so the mix of ops does not move with the luck
    of the margins; two thirds of the ops decide sample matrices, so the
    median and p90 fall inside their heavy-tailed solver times.  Solver time
    varies mostly with the sizes of the value levels, so the sample walks
    the class sorted by those sizes along a low-discrepancy sequence from a
    seeded start: any prefix covers the class evenly.

    The six matrices of that class with the largest strict system (143 rows)
    take seconds each, a thousand times the class median.  Drawn at random
    they would make runs bimodal, so every run decides exactly one of them,
    the first op of the first repetition, and the blocks come from the
    rest of the class.

    Every verdict is compared with the committed verdict table, so a matrix
    wrongly found not additive fails its op as a bad certificate does."""

    big = ((2, 2, 2, 1), (2, 2, 2, 1))
    heavy = ((0, 1, 1, 1, 1), (1, 0, 0, 1, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 0, 0))
    class_size = 20
    block = 40

    def generate(self, rng, rep: int, workdir: str) -> dict:
        table = load_verdicts()
        matrices = margin_matrices(*self.big, cornered=True)
        if len(matrices) != table["sample"]["matrices"]:
            raise RuntimeError("the verdict table does not fit the (2,2,2,1)^2 class")
        additive = {_rows(m) for m in table["sample"]["additive"]}
        systems = {m: strict_system(m) for m in matrices}
        worst = max(pairs for pairs, _ in systems.values())
        pool = sorted((m for m, (pairs, _) in systems.items() if pairs < worst),
                      key=lambda m: (systems[m][1], m))
        sample = (pool[i] for i in spread_order(len(pool), rng.random()))
        ops = [["matrix", self.heavy in additive, self.heavy]] if rep == 0 else []
        by_kind = {kind: [c for c in table["classes"] if c["kind"] == kind] for kind in "hk"}
        for classes in by_kind.values():
            rng.shuffle(classes)
        for pair in zip(by_kind["h"], by_kind["k"]):
            for c in pair:
                count = len(margin_matrices(c["beta"], c["gamma"], c["kind"] == "h"))
                ops.append(["class", c["kind"], c["beta"], c["gamma"], count, c["additive"]])
                for _ in range(self.block):
                    m = next(sample)
                    ops.append(["matrix", m in additive, m])
        return {"ops": ops}

    def stream(self, inputs: dict, ctx):
        from heisenstab.additivity import (
            HeisenbergMatrix,
            heisenberg_matrices,
            heisenberg_stable_triple,
            kronecker_matrices,
            kronecker_stable_triple,
        )

        decide = {"k": kronecker_stable_triple, "h": heisenberg_stable_triple}
        enumerate_class = {"k": kronecker_matrices, "h": heisenberg_matrices}
        ctx.classes = []
        for item in inputs["ops"]:
            if item[0] == "class":
                _, kind, beta, gamma, expected, additive = item
                additive = {_rows(m) for m in additive}
                count = 0
                for A in enumerate_class[kind](beta, gamma):
                    count += 1
                    yield (kind, A, A.rows in additive), partial(decide[kind], A)
                ctx.classes.append((kind, beta, gamma, expected, count))
            else:
                _, additive, rows = item
                A = HeisenbergMatrix(rows)
                yield ("h", A, additive), partial(decide["h"], A)

    @staticmethod
    def check(spec, out) -> bool:
        """The verdict of the table: no triple for a matrix that is not
        additive; for one that is, a triple whose certificate
        check_certificate accepts and whose parts are the matrix's sorted
        entries and margins."""
        from heisenstab.additivity import check_certificate

        kind, A, additive = spec
        if out is None:
            return not additive
        return (additive
                and check_certificate(A, out.certificate)
                and tuple(out.alpha) == tuple(A.pi)
                and tuple(out.beta) == tuple(A.row_margins)
                and tuple(out.gamma) == tuple(A.col_margins))

    def final_failures(self, inputs, ctx) -> list[str]:
        """Each class enumerated to the end has the brute-force count."""
        return [f"class {kind} {beta} {gamma}: {count} matrices, expected {expected}"
                for kind, beta, gamma, expected, count in ctx.classes if count != expected]


# ---------------------------------------------------------------------------
# cli: one `heisenstab coeff` process per op


def _value(kind: str, lam, mu, nu) -> int:
    from heisenstab.coefficients import heisenberg_coeff, kron_coeff, lr_coeff

    return {"lr": lr_coeff, "kron": kron_coeff, "heis": heisenberg_coeff}[kind](lam, mu, nu)


class Cli(Workload):
    """`python -m heisenstab.cli coeff ...` run one at a time (a closed loop
    with one client) against a generated JSONL cache.  Hits are queries the
    cache holds; misses are fresh small queries asked with --oracle, which
    run both engines and append two records."""

    hit_rate = 0.75
    cache_file = "cache.jsonl"

    @staticmethod
    def _cache_pool():
        """LR queries of sizes 9 and 10 and Kronecker queries of size 6."""
        for n in (9, 10):
            for a in range(1, n):
                for lam, mu, nu in itertools.product(partitions(n), partitions(a), partitions(n - a)):
                    yield "lr", lam, mu, nu
        six = partitions(6)
        for t in itertools.product(six, repeat=3):
            yield ("kron", *t)

    @staticmethod
    def _miss_pool():
        """Small queries with a positive value: LR up to size 7, Kronecker
        of sizes 3..5, Heisenberg with factors of sizes 2..3."""
        for n in range(2, 8):
            for a in range(1, n):
                for lam, mu, nu in itertools.product(partitions(n), partitions(a), partitions(n - a)):
                    yield "lr", lam, mu, nu
        for n in (3, 4, 5):
            for t in itertools.product(partitions(n), repeat=3):
                yield ("kron", *t)
        for m, n in itertools.product((2, 3), repeat=2):
            for mu, nu in itertools.product(partitions(m), partitions(n)):
                for l in range(max(m, n), m + n + 1):
                    for lam in partitions(l):
                        yield "heis", lam, mu, nu

    def generate(self, rng, rep: int, workdir: str) -> dict:
        lines = []
        cached = []
        for kind, lam, mu, nu in self._cache_pool():
            q = f"{kind} {part_text(lam)} {part_text(mu)} {part_text(nu)}"
            value = _value(kind, lam, mu, nu)
            lines.append(json.dumps({"q": q, "engine": "primary", "value": value}))
            cached.append((kind, lam, mu, nu))
        rng.shuffle(lines)
        with open(os.path.join(workdir, self.cache_file), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        misses = [q for q in self._miss_pool() if _value(*q) > 0]
        rng.shuffle(misses)
        ops = []
        while misses:
            if rng.random() < self.hit_rate:
                ops.append([1, *rng.choice(cached)])
            else:
                ops.append([0, *misses.pop()])
        return {"ops": [[hit, kind, *map(part_text, t)] for hit, kind, *t in ops],
                "cache_lines": len(lines)}

    def stream(self, inputs: dict, ctx):
        env = dict(os.environ, HEIS_CACHE=os.path.join(ctx.workdir, self.cache_file))
        for i, (hit, kind, lam, mu, nu) in enumerate(inputs["ops"]):
            args = ["coeff", kind, lam, mu, nu] + ([] if hit else ["--oracle"])
            if ctx.trace:
                ctx.trace_files.append(os.path.join(ctx.workdir, f"trace-{i}.json"))
                argv = [sys.executable, os.path.join(ctx.bench_dir, "traced_cli.py"),
                        ctx.trace_files[-1], *args]
            else:
                argv = [sys.executable, "-m", "heisenstab.cli", *args]
            yield (hit, kind, lam, mu, nu), partial(self._invoke, argv, env)

    @staticmethod
    def is_hit(spec) -> bool:
        return bool(spec[0])

    @staticmethod
    def _invoke(argv, env):
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def check(spec, out) -> bool:
        """Exit 0, one JSON object on stdout, the in-process library value."""
        from heisenstab.partitions import Partition

        hit, kind, lam, mu, nu = spec
        code, stdout = out
        lines = stdout.splitlines()
        if code != 0 or len(lines) != 1:
            return False
        try:
            obj = json.loads(lines[0])
        except ValueError:
            return False
        expected = _value(kind, *(Partition.parse(t) for t in (lam, mu, nu)))
        return (isinstance(obj, dict) and obj.get("kind") == kind
                and obj.get("value") == expected
                and obj.get("engine") == ("primary" if hit else "both"))

    def final_failures(self, inputs, ctx) -> list[str]:
        """A hit only reads: the cache grew by two records per miss, no more."""
        path = os.path.join(ctx.workdir, self.cache_file)
        with open(path, "rb") as fh:
            lines = fh.read().count(b"\n")
        expected = inputs["cache_lines"] + 2 * ctx.misses_done
        return [] if lines == expected else [f"cache has {lines} lines, expected {expected}"]


WORKLOADS = {"sweep": Sweep(), "product": Product(), "additivity": Additivity(), "cli": Cli()}
