"""Seeded `.unity` corpora with known answers.

Every generator returns `Spec` records: the spec text plus the verdict
each named check must get. The answers are fixed by construction (the
reasoning sits next to each check form below), never by running the
verifier, so the benchmark can catch a wrong verdict.

The same seed always gives byte-identical text: every generator draws
from its own `random.Random` seeded with a string such as
"check-ring/<seed>", which `random.seed` hashes with SHA-512, so the
streams do not depend on PYTHONHASHSEED or the Python 3 release.
"""

import hashlib
import random
from dataclasses import dataclass, field

RING_EDGES = 16
# Edges whose token each ring spec's init removes. With exactly this many
# free edges the reachable set is every configuration of at most
# 16 - 4 = 12 tokens (tokens circulate freely while an edge is free), so
# every ring spec has sum(C(16, k), k <= 12) = 64839 reachable states
# and 16 commands per state, whatever the placement.
RING_FREED = 4
RING_STATES = 64839
RING_TRANSITIONS = RING_STATES * RING_EDGES


@dataclass
class Spec:
    name: str
    text: str
    # check name -> expected verdict (True = PASS)
    expected: dict
    # generator parameters, for the trace and the docs
    shape: dict = field(default_factory=dict)
    # compositional submission (serve only)
    compositional: bool = False

    def false_checks(self):
        return sorted(n for n, ok in self.expected.items() if not ok)


def digest(specs):
    """SHA-256 over every spec's name, text and expected verdicts."""
    h = hashlib.sha256()
    for s in specs:
        h.update(s.name.encode())
        h.update(b"\0")
        h.update(s.text.encode())
        h.update(b"\0")
        for name in sorted(s.expected):
            h.update(f"{name}={int(s.expected[name])};".encode())
        h.update(b"\1" if s.compositional else b"\0")
    return h.hexdigest()


def _e(k):
    return f"e{k % RING_EDGES}"


def _all(atoms):
    return " && ".join(atoms)


# --- token rings (check-ring, serve-session flat half) -----------------


def ring_program(rng, comps, cmd_tag=""):
    """A 16-edge token ring split into `comps` contiguous components;
    returns `(program text, freed edges)`. `cmd_tag` renames the
    commands (same behaviour, different program text)."""
    offset = rng.randrange(RING_EDGES)
    cuts = sorted(rng.sample(range(1, RING_EDGES), comps - 1))
    bounds = [0] + cuts + [RING_EDGES]
    arcs = [
        [(offset + k) % RING_EDGES for k in range(bounds[i], bounds[i + 1])]
        for i in range(comps)
    ]
    freed = sorted(rng.sample(range(RING_EDGES), RING_FREED))
    lines = []
    for i, arc in enumerate(arcs):
        lines.append(f"program Arc{i}")
        for k in arc + [arc[-1] + 1]:
            lines.append(f"  var {_e(k)} : bool")
        frees = [f"!{_e(k)}" for k in arc if k in freed]
        lines.append(f"  init {_all(frees) if frees else 'true'}")
        for k in arc:
            a, b = _e(k), _e(k + 1)
            lines.append(f"  fair cmd r{k}{cmd_tag}: {a} && !{b} -> {a} := false, {b} := true")
        lines.append("end")
        lines.append("")
    return "\n".join(lines), freed


def ring_battery(rng, freed, n_live, n_safe, form=0, planted=None):
    """`n_live` leadsto and `n_safe` safety checks over a ring program
    with the given freed edges, as `(name, property, expected)`.
    Leadsto forms cycle from `form`; safety forms always start with the
    invariant, the one safety form that scans every reachable state (it
    costs about as much as a leadsto, the others a few ms), so every
    battery carries exactly one and latency stays unimodal. The forms
    fix the cost; the seed only picks the edges (all equivalent by
    symmetry). `planted` is None, "safety" or "leadsto": the last safety
    check or the first leadsto is replaced by one that is false by
    construction."""
    full = _all(_e(k) for k in range(RING_EDGES))

    def live(k, form):
        # Weak fairness: while edge k holds a token and k+1 is free, only
        # r{k} is enabled on that pair and only it can clear the guard,
        # so the token passes to k+1.
        if form == 0:
            return f"{_e(k)} leadsto {_e(k + 1)}"
        return f"{_e(k)} && !{_e(k + 1)} leadsto {_e(k + 1)}"

    def safe(k, form):
        if form == 0:
            # Moves conserve the token count and init frees an edge, so
            # the full ring is unreachable: inductive invariant.
            return f"invariant !({full})"
        if form == 1:
            # r{k} moves the token to k+1; r{k-1} needs !e{k}; r{k+1}
            # needs e{k+1}. Either the token stays or it moved on.
            return f"{_e(k)} && !{_e(k + 1)} next {_e(k)} || {_e(k + 1)}"
        if form == 2:
            # No command is enabled in the full ring.
            return f"stable {full}"
        # Each component's init frees its own freed edges.
        return f"init !{_e(freed[k % RING_FREED])}"

    checks = []
    for j in range(n_live):
        checks.append((f"live{j}", live(rng.randrange(RING_EDGES), (form + j) % 2), True))
    for j in range(n_safe):
        checks.append((f"safe{j}", safe(rng.randrange(RING_EDGES), j % 4), True))
    if planted == "safety":
        # r{k-1} sets e{k} from a state with e{k-1} && !e{k}.
        last = n_live + n_safe - 1
        checks[last] = (f"bug{last}", f"stable !{_e(rng.randrange(RING_EDGES))}", False)
    elif planted == "leadsto":
        # The empty ring is reachable (init may leave every edge free)
        # and nothing ever fires in it.
        k = rng.randrange(RING_EDGES)
        checks[0] = ("bug0", f"!{_e(k)} leadsto {_e(k)}", False)
    return checks


def assemble(name, program, checks, shape, compositional=False):
    lines = [program, f"spec {name}"]
    lines += [f"  {cname}: {prop}" for cname, prop, _ in checks]
    lines.append("end")
    return Spec(
        name=name,
        text="\n".join(lines) + "\n",
        expected={c: ok for c, _, ok in checks},
        shape=shape,
        compositional=compositional,
    )


def ring_spec(rng, name, comps, n_live, n_safe, form, planted=None):
    program, freed = ring_program(rng, comps)
    checks = ring_battery(rng, freed, n_live, n_safe, form, planted)
    shape = {"family": "ring16", "components": comps, "leadsto": n_live, "safety": n_safe,
             "planted": planted or ""}
    return assemble(name, program, checks, shape)


RING_CORPUS = 18


def ring_corpus(seed):
    """check-ring: 18 ring16 specs.

    The multiset of shapes is the same for every seed (components 2..8,
    1..3 leadsto, 2..4 safety checks, two planted false checks), so the
    per-run mean work is fixed; the seed picks arcs, freed edges and
    check operands, and shuffles the order.
    """
    rng = random.Random(f"check-ring/{seed}")
    plant = {3: "safety", 12: "leadsto"}
    specs = []
    for i in range(RING_CORPUS):
        specs.append(ring_spec(rng, f"Ring{i}", 2 + i % 7, 1 + i % 3, 2 + (i // 3) % 3, i,
                               plant.get(i)))
    rng.shuffle(specs)
    return specs


# --- Dijkstra K-state rings (check-symbolic) ---------------------------


def kstate_spec(rng, name, n, k, planted):
    """Dijkstra's K-state self-stabilizing ring of `n` machines, one
    component per machine, `init true` (any start state).

    State space K^n (10^9 and up): beyond any explicit enumeration.
    """
    x = [f"x{i}" for i in range(n)]
    guards = [f"{x[0]} == {x[n - 1]}"] + [f"{x[i]} != {x[i - 1]}" for i in range(1, n)]
    lines = []
    for i in range(n):
        lines.append(f"program Machine{i}")
        lines.append(f"  var {x[i]} : int 0..{k - 1}")
        prev = x[n - 1] if i == 0 else x[i - 1]
        lines.append(f"  var {prev} : int 0..{k - 1}")
        lines.append("  init true")
        if i == 0:
            lines.append(f"  fair cmd m0: {guards[0]} -> {x[0]} := ({x[0]} + 1) % {k}")
        else:
            lines.append(f"  fair cmd m{i}: {guards[i]} -> {x[i]} := {x[i - 1]}")
        lines.append("end")
        lines.append("")
    some = " || ".join(f"({g})" for g in guards)
    count = " + ".join(f"(if {g} then 1 else 0)" for g in guards)
    checks = [
        # Pigeonhole: if no machine i > 0 is privileged all values equal
        # x0, so x0 == x{n-1} and machine 0 is. Valid in every state.
        ("privilege", f"invariant {some}", True),
        # Closure: with one privilege only that machine moves, and its
        # move hands the privilege to its successor.
        ("closure", f"stable {count} == 1", True),
        # A valid predicate keeps its value under every command.
        ("steady", f"unchanged {some}", True),
    ]
    for j in range(2):
        i = rng.randrange(1, n)
        v = rng.randrange(k)
        # Machine i either keeps its value or copies its predecessor's;
        # no other command writes x{i}.
        checks.append((f"copy{j}", f"{x[i]} == {v} next {x[i]} == {v} || {x[i]} == {x[i - 1]}",
                       True))
    v = rng.randrange(k)
    # Machine 0 either keeps its value or increments it mod K.
    checks.append(("tick", f"{x[0]} == {v} next {x[0]} == {v} || {x[0]} == {(v + 1) % k}", True))
    if planted:
        # init is `true`, so a state with two privileges is initial.
        pair = " + ".join(f"(if {g} then 1 else 0)" for g in guards)
        checks[1] = ("bug1", f"invariant {pair} == 1", False)
    shape = {"family": "kstate", "n": n, "K": k, "planted": "invariant" if planted else ""}
    return assemble(name, "\n".join(lines), checks, shape)


KSTATE_PLANTED = 9  # index of (n, K) = (10, 13)


def kstate_corpus(seed):
    """check-symbolic: one spec per (n, K) in {9, 10} x {10..15}; the
    seed picks the check operands and the order. The (10, 13) ring
    carries the planted false invariant."""
    rng = random.Random(f"check-symbolic/{seed}")
    shapes = [(n, k) for n in (9, 10) for k in range(10, 16)]
    specs = [kstate_spec(rng, f"KState{i}", n, k, i == KSTATE_PLANTED)
             for i, (n, k) in enumerate(shapes)]
    rng.shuffle(specs)
    return specs


# --- serve-session working set -----------------------------------------

SERVE_FLAT = 34  # distinct flat programs: more than the daemon's 32-spec memory layer
SERVE_GRIDS = 14
GRID_SIDE = 5


def grid_spec(name, n, tags):
    """An `n`-quadrant grid (side 5) for compositional submission.

    Quadrant `i`'s commands carry `tags[i]`; changing one tag changes
    exactly one component's program text, so only its certificates miss.
    Every check holds: each walker stays on its grid, parks once its
    fuel is spent, and weak fairness walks it to the corner.
    """
    m = GRID_SIDE - 1
    fuel = 2 * m
    lines = []
    for i in range(n):
        t = tags[i]
        lines += [
            f"program Quadrant{i}",
            f"  var x{i} : int 0..{m} local",
            f"  var y{i} : int 0..{m} local",
            f"  var f{i} : int 0..{fuel} local",
            f"  init x{i} == 0 && y{i} == 0 && f{i} == {fuel}",
            f"  fair cmd east{i}{t}: x{i} < {m} -> x{i} := x{i} + 1, f{i} := f{i} - 1",
            f"  fair cmd north{i}{t}: y{i} < {m} -> y{i} := y{i} + 1, f{i} := f{i} - 1",
            "end",
            "",
        ]
    checks = []
    for i in range(n):
        checks += [
            (f"origin{i}", f"init x{i} == 0 && y{i} == 0 && f{i} == {fuel}", True),
            (f"bounds{i}", f"invariant x{i} <= {m} && y{i} <= {m}", True),
            (f"settled{i}", f"stable f{i} == 0", True),
            (f"arrival{i}", f"true leadsto f{i} == 0", True),
        ]
    shape = {"family": "grid", "quadrants": n, "side": GRID_SIDE}
    return assemble(name, "\n".join(lines), checks, shape, compositional=True)


class ServeCorpus:
    """The serve-session working set: 34 flat ring16 programs, each with
    two check batteries (every check true) over the same program (a check-line edit keeps
    the program hash), and 14 compositional quadrant grids (4-6
    quadrants) whose one-component edits are generated on demand."""

    def __init__(self, seed):
        rng = random.Random(f"serve-session/{seed}")
        self.flat = []
        for i in range(SERVE_FLAT):
            program, freed = ring_program(rng, 2 + i % 7, cmd_tag=f"_p{i}")
            shape = {"family": "ring16", "components": 2 + i % 7}
            # Both batteries have the same shape (1 leadsto, 4 safety
            # checks of fixed forms), so every flat request costs the same
            # and the flat class stays narrow; the seed picks the edges.
            variants = [assemble(f"Flat{i}", program, ring_battery(rng, freed, 1, 4),
                                 dict(shape, variant=v)) for v in range(2)]
            self.flat.append(variants)
        self.grid_sizes = [4 + i % 3 for i in range(SERVE_GRIDS)]
        self.grids = [grid_spec(f"Grid{i}", n, [f"_g{i}"] * n)
                      for i, n in enumerate(self.grid_sizes)]

    def working_set(self):
        return [v[0] for v in self.flat] + self.grids

    def grid_edit(self, g, quadrant, tag):
        """Grid `g` with quadrant `quadrant`'s commands renamed by `tag`."""
        n = self.grid_sizes[g]
        tags = [f"_g{g}"] * n
        tags[quadrant] = f"_g{g}{tag}"
        return grid_spec(f"Grid{g}", n, tags)
