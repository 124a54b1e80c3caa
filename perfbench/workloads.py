"""The three benchmark workloads: seeded task streams, the timed task bodies
and the independent references that check them.

A task spec is a tuple of plain JSON-able values (rationals as "p/q"
strings), so specs can be generated before the library is imported, hashed
into the output digest and compared across seeds.  ``run_task`` performs the
user-level computation (the timed part); ``reference`` computes the value an
independent route says it must equal, and ``agrees`` compares the two.  Both
of the latter run outside the timed region.

Cost control: every workload is a list of strata of similar-cost specs.  A
pass takes the next spec of each stratum (each stratum is walked in its own
seeded order) and shuffles the pass, so every run sees the same mix of task
kinds and, over many passes, nearly the same mix of sizes; the seed changes
which specs appear and in what order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

MC_TRIALS = 2000  # fixed Monte Carlo trial count per task
MC_SIGMAS = 4  # a Monte Carlo estimate may sit at most this many sigma off
MC_CATALOGUE_SEED = "lpp-mc-catalogue"
MC_CATALOGUE_PER_DIMS = 8
MC_MIN_PROB = Fraction(1, 100)
RATIONALS = ("1/2", "1/3", "1/4", "1/5", "2/3", "2/5", "3/4", "3/5")


def _params(rng, l, n):
    return (tuple(rng.choice(RATIONALS) for _ in range(l)),
            tuple(rng.choice(RATIONALS) for _ in range(n)))


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------
# Each stratum holds specs whose task time lies within a factor of about 1.5
# on the reference machine (see README.md), so the seed moves the cost of a
# run little.

# (shape, n) pairs for rpp + svt, grouped by cost.  The two costliest groups
# fill two slots of each pass, so that the median and the 90th percentile of
# a run's latencies fall inside a group rather than in a gap between two.
_T8 = [((3, 2, 1, 1), 4), ((3, 2, 1), 4), ((3, 3, 2), 4), ((3, 2, 2, 1), 4),
       ((3, 3, 1, 1), 4), ((4, 4), 4)]
_T9 = [((4, 2), 4), ((4, 2, 1, 1), 4), ((4, 3), 4), ((4, 2, 2), 4)]
TABLEAU_STRATA = (
    [((2, 2), 3), ((2, 1), 3), ((2, 1, 1), 3), ((1, 1, 1, 1), 4), ((2, 2, 2), 3)],
    [((3, 1, 1), 3), ((3, 1), 3), ((3, 3), 3), ((3,), 4)],
    [((4, 1, 1), 3), ((2, 2), 4), ((4, 1), 3), ((3, 2, 1), 3), ((2, 1, 1), 4)],
    [((4, 2), 3), ((4,), 4), ((4, 4), 3), ((2, 2, 1), 4), ((4, 3), 3), ((3, 3, 2), 3)],
    [((4, 2, 1), 3), ((2, 2, 2), 4), ((3, 2, 2), 3), ((4, 2, 2), 3), ((4, 3, 1), 3)],
    [((3, 1, 1), 4), ((3, 1, 1, 1), 4), ((3, 1), 4), ((3, 3), 4)],
    [((3, 2), 4), ((2, 2, 2, 2), 4), ((4, 1, 1, 1), 4), ((3, 2, 2), 4), ((3, 3, 1), 4),
     ((4, 1, 1), 4), ((4, 1), 4)],
    _T8, _T8, _T9, _T9,
)

ALGEBRAIC_STRATA = (
    [("g", la, n) for la, n in [((2, 2, 2), 5), ((3, 1, 1, 1), 5), ((2, 2, 1, 1), 5),
                                ((4, 2, 1, 1), 4), ((3, 3, 1, 1), 4), ((2, 2, 2, 1), 4)]],
    [("g", la, n) for la, n in [((3, 3, 2), 5), ((4, 2, 2), 5), ((3, 2, 1, 1), 5),
                                ((4, 2, 2, 1), 4), ((3, 3, 2, 1), 4), ((3, 3, 1, 1), 5)]],
    [("G", la, 4) for la in [(3, 1, 1), (3, 1, 1, 1), (4, 1, 1, 1), (3, 2), (3, 3), (4, 1)]],
    [("pf", la, 5) for la in [(3, 3, 1), (3, 2, 1, 1), (3, 3, 2), (4, 2, 1)]],
    [("oprel", fam, 5) for fam in ("AB", "BD")],
    [("verify", "bounded_cauchy_littlewood", (2, 2, 8)), ("verify", "cauchy", (3, 3, 2)),
     ("verify", "littlewood", (4, 3, 2)), ("verify", "littlewood", (3, 3, 3)),
     ("verify", "bounded_cauchy_littlewood", (2, 3, 5))],
    [("verify", "ybe", (fam,)) for fam in ("nilp", "fermionic", "g_jagged")]
    + [("verify", kind, (la, 2)) for kind in ("branching", "symmetry")
       for la in [(3, 2), (2, 2, 1), (3, 3), (3, 2, 1)]]
    + [("verify", "cauchy", (3, 2, 2)), ("verify", "littlewood", (4, 2, 2))],
    [("cdf", 4, 3, 1), ("cdf", 3, 3, 3)],
)

# (l, n, m) of the exact-law tasks: sum of exact_prob over the l x m box
EXACT_DIMS = ((4, 3, 4), (5, 2, 3), (6, 2, 2), (6, 3, 2))
EXACT_PER_STRATUM = 8


def _lpp_strata(rng, catalogue):
    by_dims: dict = {}
    for t, x, la, mc_seed in catalogue:
        by_dims.setdefault((len(t), len(x)), []).append(("mc", t, x, la, mc_seed))
    exact = [[("exact", *_params(rng, l, n), m) for _ in range(EXACT_PER_STRATUM)]
             for l, n, m in EXACT_DIMS]
    return [by_dims[dims] for dims in sorted(by_dims)] + exact


def mc_catalogue(mods):
    """The fixed catalogue of Monte Carlo tasks: (t, x, target shape, seed).

    It does not depend on the run seed, so every Monte Carlo task a run can
    draw is checked once by the self-tests; a 4-sigma test has a false-alarm
    rate of about 6e-5 per task, which over the thousands of tasks of many
    seeded runs would otherwise fail a correct program now and then.
    Targets are shapes whose exact probability is at least 1%.
    """
    rng = random.Random(MC_CATALOGUE_SEED)
    out = []
    for l, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(MC_CATALOGUE_PER_DIMS):
            t, x = _params(rng, l, n)
            params = _geom(mods, t, x)
            likely = [la for la in mods.shapes.enumerate_partitions_in_box(l, 4)
                      if mods.lpp.exact_prob(la, params) >= MC_MIN_PROB]
            out.append((t, x, rng.choice(likely), rng.randrange(1 << 32)))
    return out


def task_stream(workload, seed, passes, mods=None):
    """The first ``passes`` passes of a workload's seeded task stream.

    ``mods`` is needed by ``lpp`` only: its catalogue uses exact_prob.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tableau_routes":
        strata = [[("tableau", la, n) for la, n in members] for members in TABLEAU_STRATA]
    elif workload == "algebraic_routes":
        strata = ALGEBRAIC_STRATA
    elif workload == "lpp":
        strata = _lpp_strata(rng, mc_catalogue(mods))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    orders = []
    for specs in strata:
        order = list(specs)
        rng.shuffle(order)
        orders.append(order)
    stream = []
    for k in range(passes):
        batch = [order[k % len(order)] for order in orders]
        rng.shuffle(batch)
        stream.extend(batch)
    return stream


# tiny fixed tasks run during set-up
WARMUP = {
    "tableau_routes": [("tableau", (2, 1), 3)],
    "algebraic_routes": [("g", (2, 1), 3), ("G", (2, 1), 3), ("pf", (2, 1), 3),
                         ("oprel", "AB", 3), ("verify", "ybe", ("nilp",)),
                         ("cdf", 2, 2, 1)],
    "lpp": [("exact", ("1/2", "1/3"), ("1/4", "1/5"), 2)],
}


# ---------------------------------------------------------------------------
# task bodies (timed)
# ---------------------------------------------------------------------------


def _geom(mods, t, x):
    return mods.lpp.GeomParams(tuple(map(Fraction, t)), tuple(map(Fraction, x)))


def _verifier(mods, name, args):
    sf = mods.symfunc
    if name == "ybe":
        lfac, rfac = mods.vertex.BUNDLED_FAMILIES[args[0]]
        rep = mods.vertex.check_ybe(lfac(), rfac())
        return {"holds": rep.ok, "failures": len(rep.failures)}
    fn = {"cauchy": sf.verify_cauchy, "littlewood": sf.verify_littlewood,
          "bounded_cauchy_littlewood": sf.verify_bounded_cauchy_littlewood,
          "branching": sf.verify_branching, "symmetry": sf.verify_symmetry}[name]
    rep = fn(*args)
    return {"holds": rep.holds, "lhs": rep.lhs}


def run_task(mods, spec):
    """Run one task and return its output (the timed part)."""
    kind = spec[0]
    sf = mods.symfunc
    if kind == "tableau":
        _, la, n = spec
        return (sf.dual_grothendieck(la, n, route="rpp"),
                sf.grothendieck(la, n, route="svt"))
    if kind == "g":
        _, la, n = spec
        return tuple(sf.dual_grothendieck(la, n, route=r)
                     for r in ("jt_h", "jt_e", "multischur"))
    if kind == "G":
        _, la, n = spec
        return tuple(sf.grothendieck(la, n, route=r)
                     for r in ("jacobi_trudi", "divided_diff"))
    if kind == "pf":
        _, la, n = spec
        return mods.vertex.partition_function(mods.vertex.build_dualg_model(la, n))
    if kind == "oprel":
        _, fam, m = spec
        return mods.vertex.verify_operator_relations(fam, m).results
    if kind == "verify":
        _, name, args = spec
        return _verifier(mods, name, args)
    if kind == "cdf":
        _, l, n, m = spec
        return mods.diffops.lpp_cdf_det(l, n, m)
    if kind == "mc":
        _, t, x, la, mc_seed = spec
        return mods.lpp.monte_carlo(la, _geom(mods, t, x), MC_TRIALS, mc_seed).hits
    if kind == "exact":
        _, t, x, m = spec
        params = _geom(mods, t, x)
        return sum((mods.lpp.exact_prob(la, params)
                    for la in mods.shapes.enumerate_partitions_in_box(len(t), m)),
                   Fraction(0))
    raise ValueError(f"unknown task kind {kind!r}")


# ---------------------------------------------------------------------------
# references (untimed)
# ---------------------------------------------------------------------------


def reference(mods, spec):
    """The value an independent route gives for the task's output."""
    kind = spec[0]
    sf = mods.symfunc
    if kind == "tableau":
        _, la, n = spec
        return (sf.dual_grothendieck(la, n, route="jt_e"),
                sf.grothendieck(la, n, route="divided_diff"))
    if kind == "g":
        _, la, n = spec
        return (sf.dual_grothendieck(la, n, route="schur_decomp"),) * 3
    if kind == "G":
        _, la, n = spec
        return (sf.grothendieck(la, n, route="schur_expansion"),) * 2
    if kind == "pf":
        _, la, n = spec
        return sf.dual_grothendieck(la, n, route="jt_e")
    if kind in ("oprel", "verify"):
        return True  # every relation / identity holds
    if kind == "cdf":
        _, l, n, m = spec
        return mods.diffops.lpp_cdf_schur(l, n, m)
    if kind == "mc":
        _, t, x, la, _ = spec
        return mods.lpp.exact_prob(la, _geom(mods, t, x))
    if kind == "exact":
        _, t, x, m = spec
        params = _geom(mods, t, x)
        box = mods.shapes.enumerate_partitions_in_box(min(len(t), len(x)), m)
        return sum((mods.lpp.schur_measure(la, params) for la in box), Fraction(0))
    raise ValueError(f"unknown task kind {kind!r}")


def agrees(spec, output, ref):
    kind = spec[0]
    if kind == "oprel":
        return all(output.values()) is ref
    if kind == "verify":
        return output["holds"] is ref
    if kind == "mc":
        sigma = math.sqrt(float(ref * (1 - ref)) / MC_TRIALS)
        return abs(output / MC_TRIALS - float(ref)) <= MC_SIGMAS * sigma
    return output == ref
