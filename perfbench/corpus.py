"""Seeded request corpora for the four benchmark workloads.

A workload is an endless sequence of *rounds*.  Every round of a workload has
the same mix of request shapes (prime, modulus, precision, set shape, verb),
and the seed and round number choose everything else: centres, elements,
table values, polynomials.  Keeping the mix fixed per round is what makes
runs with different seeds comparable, and generating each round afresh means
no two requests repeat, except where the query workload reuses its pool of
sets on purpose.

A request is a dict:
  ``verb``   CLI verb;
  ``argv``   argument list for ``padelic.cli.run``; the string ``{file}``
             stands for the path of the request file, if there is one;
  ``file``   JSON object to write as the request file, or None;
  ``spec``   what the response checker needs, in oracle.py's plain forms.

Generation uses only ``random.Random`` seeded with a string, so a seed gives
the same bytes in every process and under every hash seed.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

import oracle

WORKLOADS = ("expand", "basis", "approx", "query")

# latency_tail_ms of each workload: a high percentile that keeps at least ten
# samples beyond it in a 16 s run even in the host's slow phases.  It is fixed,
# not re-chosen per run, so a faster program (more samples) is not judged at a
# higher percentile, and a run always serves enough requests to keep ten
# beyond it.  Each lands in the middle of the band of ranks held by one
# request shape (or by shapes of about the same cost), never on the edge
# between two bands, where it would jump between their costs: for expand the
# middle of the 8th of 9 shapes (7.5/9), for basis of the two "deep" requests
# (8th and 9th of 10), for approx of the 7th and 8th of 9 shapes, which cost
# about the same, and for query inside the 1-in-64 band of 40-bit primes.
TAIL_PERCENTILE = {"expand": 83.3, "basis": 80.0, "approx": 80.0, "query": 99.5}


def min_samples(workload: str) -> int:
    """Fewest requests that leave ten beyond the workload's tail percentile."""
    return round(10 / (1 - TAIL_PERCENTILE[workload] / 100))


# ---------------------------------------------------------------------------
# sets


def ball_union(rng: random.Random, p: int, nballs: int, k: int) -> dict:
    """Balls c + p^k Z_p for c = a, a+1, ..., a+nballs-1 with a seeded shift a.

    Translation keeps every valuation of a difference, so all requests of one
    shape cost about the same and only the points change with the seed.
    """
    return shifted(rng, {"p": p, "balls": [[c, k] for c in range(nballs)]})


def finite_set(rng: random.Random, p: int, size: int, max_w: int = None) -> dict:
    """A fixed set of `size` p-integral rationals, shifted by a seeded integer.

    With max_w, the fixed set is the first whose w(size - 1) is at most max_w.
    """
    base = random.Random(f"padelic-perfbench:finite:{p}:{size}")
    while True:
        elems = set()
        while len(elems) < size:
            den = base.randrange(1, 13)
            if den % p:
                elems.add(Fraction(base.randrange(-60, 61), den))
        spec = {"p": p, "finite": [str(x) for x in sorted(elems)]}
        if max_w is None or oracle.set_w(spec, size - 1)[-1] <= max_w:
            return shifted(rng, spec)


def shifted(rng: random.Random, spec: dict) -> dict:
    """The set translated by a seeded integer."""
    p = spec["p"]
    if "finite" in spec:
        a = rng.randrange(-30, 31)
        return {"p": p, "finite": [str(Fraction(e) + a) for e in spec["finite"]]}
    a = rng.randrange(p ** max(k for _, k in spec["balls"]))
    return {"p": p, "balls": [[(c + a) % p ** k, k] for c, k in spec["balls"]]}


def zp(p: int) -> dict:
    return {"p": p, "balls": [[0, 0]]}


def set_dsl(spec: dict) -> str:
    if "finite" in spec:
        return f"p={spec['p']}; finite: " + ", ".join(spec["finite"])
    return f"p={spec['p']}; balls: " + ", ".join(f"{c}+p^{k}" for c, k in spec["balls"])


def adelic_dsl(adelic: dict) -> str:
    return "; ".join(["default=Zp"] + [set_dsl(c) for c in adelic["tracked"]])


def set_json(spec: dict) -> dict:
    if "finite" in spec:
        return {"p": spec["p"], "finite": [
            {"num": Fraction(e).numerator, "den": Fraction(e).denominator}
            for e in spec["finite"]]}
    return {"p": spec["p"], "balls": [{"center": c, "k": k} for c, k in spec["balls"]]}


def step_function(rng: random.Random, domain: dict, m: int, n_prec: int) -> dict:
    p = domain["p"]
    keys = sorted({oracle.residue(x, p ** m) for x in oracle.residue_points(domain, m)})
    table = {str(r): rng.randrange(p ** n_prec) for r in keys}
    return {"p": p, "m": m, "N": n_prec, "set": set_json(domain), "table": table,
            "domain": domain}


def _file_form(phi: dict) -> dict:
    return {k: v for k, v in phi.items() if k != "domain"}


# ---------------------------------------------------------------------------
# expand: certified Mahler-type expansions

# (p, m, N, shape): the fixed mix of one round, cheapest first.  The median
# falls on the ~0.2 s group and p83.3 on the ~0.4 s one, not on a gap.  p = 5
# stops at m = 2: m = 3 there takes over a minute per request.
EXPAND_MIX = [
    (2, 2, 6, "finite"), (5, 1, 4, "finite"), (2, 4, 6, "balls"), (3, 3, 6, "balls"),
    (2, 4, 8, "zp"), (5, 2, 4, "balls"), (3, 3, 4, "zp"), (5, 2, 4, "zp"), (3, 3, 5, "zp"),
]


FINITE_DOMAIN_SIZE = 12


def _expand_domain(rng: random.Random, p: int, m: int, shape: str) -> dict:
    if shape == "zp":
        return zp(p)
    if shape == "balls":
        return ball_union(rng, p, p - 1 if p > 2 else 2, m - 1 if m > 1 else 1)
    # expand orders a finite domain at only len + 1 digits and exits 3 when a
    # step valuation reaches that (see README, known defects), so the fixed
    # set is one that stays below it.
    return finite_set(rng, p, FINITE_DOMAIN_SIZE, max_w=FINITE_DOMAIN_SIZE)


def expand_request(rng: random.Random, p: int, m: int, n_prec: int, shape: str) -> dict:
    phi = step_function(rng, _expand_domain(rng, p, m, shape), m, n_prec)
    return {"verb": "expand", "kind": f"expand p={p} m={m} N={n_prec} {shape}",
            "argv": ["expand", "--request", "{file}"], "file": _file_form(phi), "spec": phi}


# ---------------------------------------------------------------------------
# basis: characteristic ideals and regular bases


def component(rng: random.Random, shape: tuple) -> dict:
    """(p, "balls", count, k) or (p, "finite", size) with seeded centres/elements."""
    if shape[1] == "balls":
        return ball_union(rng, shape[0], shape[2], shape[3])
    return finite_set(rng, shape[0], shape[2])


def deep_component(rng: random.Random) -> dict:
    """The 2-adic union 0+2^1, 3+2^3 (shifted), whose w reaches 34 by degree 24."""
    return shifted(rng, {"p": 2, "balls": [[0, 1], [3, 3]]})


def precision_for(adelic: dict, degree: int) -> int:
    """Digits a user must ask for: above every w_p(degree), and at least 32."""
    primes = set(oracle.small_primes(degree)) | {c["p"] for c in adelic["tracked"]}
    need = max((oracle.adelic_w(adelic, p, degree) for p in primes), default=0)
    return max(32, need + 1)


def basis_request(verb: str, adelic: dict, degree: int) -> dict:
    argv = [verb, "--adelic", adelic_dsl(adelic), "--degree", str(degree),
            "--precision", str(precision_for(adelic, degree))]
    return {"verb": verb, "argv": argv, "file": None,
            "spec": {"adelic": adelic, "degree": degree}}


# (verb, tracked component shapes, degree): one round, cheapest first.  The
# median falls among the three ~85 ms requests and p80 between the two "deep"
# ones (a 2-adic component whose w outgrows the default 32 digits), so
# neither sits on a gap between two shapes.
BASIS_MIX = [
    ("charideal", (), 24),
    ("charideal", ((3, "balls", 2, 2), (5, "balls", 3, 1)), 28),
    ("charideal", ((2, "finite", 24), (3, "balls", 1, 1), (5, "balls", 2, 1)), 20),
    ("basis", (), 14),
    ("basis", ((3, "balls", 2, 1), (5, "finite", 16)), 12),
    ("basis", ((2, "balls", 1, 1), (3, "finite", 14), (7, "balls", 3, 1)), 12),
    ("basis", ((2, "balls", 2, 2),), 20),
    ("basis", "deep", 24),
    ("basis", "deep", 24),
    ("basis", (), 28),
]


# ---------------------------------------------------------------------------
# approx: simultaneous approximation

# (closeness k, ((p, component, m), ...)): one round, cheapest first; the seed
# chooses ball centres and table values.  m = 2 at p = 5 is left out: it alone
# takes ~1 s.
APPROX_MIX = [
    (3, ((3, "zp", 2), (5, "balls", 1))),
    (2, ((2, "zp", 2), (3, "zp", 2))),
    (3, ((2, "balls", 2), (3, "zp", 2), (5, "balls", 1))),
    (3, ((2, "zp", 3), (3, "zp", 2))),
    (3, ((2, "zp", 2), (3, "zp", 2))),
    (2, ((2, "zp", 4), (3, "zp", 1))),
    (4, ((2, "zp", 2), (3, "zp", 2))),
    (4, ((2, "zp", 1), (3, "zp", 2))),
    (4, ((2, "zp", 2), (3, "zp", 2), (5, "zp", 1))),
]


def approx_request(rng: random.Random, k: int, targets_mix) -> dict:
    tracked, targets = [], {}
    for p, shape, m in targets_mix:
        dom = zp(p) if shape == "zp" else ball_union(rng, p, 2, 1)
        tracked.append(dom)
        targets[str(p)] = {"phi": step_function(rng, dom, m, k), "k": k}
    adelic = {"default": "Zp", "tracked": tracked}
    file = {"set": {"default": "Zp",
                    "tracked": {str(c["p"]): set_json(c) for c in tracked}},
            "targets": {p: {"phi": _file_form(t["phi"]), "k": t["k"]}
                        for p, t in targets.items()}}
    kind = "approx k=%d " % k + " ".join(f"{p}:{s}:m{m}" for p, s, m in targets_mix)
    return {"verb": "approx", "kind": kind, "argv": ["approx", "--request", "{file}"],
            "file": file, "spec": {"adelic": adelic, "targets": targets}}


# ---------------------------------------------------------------------------
# query: many short requests against a small reused pool of sets


def query_pool(seed: int) -> Dict[str, list]:
    rng = random.Random(f"padelic-perfbench:query-pool:{seed}")
    local = [ball_union(rng, 2, 2, 2), ball_union(rng, 3, 2, 1),
             ball_union(rng, 5, 3, 1), ball_union(rng, 7, 1, 1), finite_set(rng, 3, 14)]
    adelic = [{"default": "Zp", "tracked": []},
              {"default": "Zp", "tracked": [ball_union(rng, 2, 1, 2)]},
              {"default": "Zp", "tracked": [ball_union(rng, 3, 2, 1), ball_union(rng, 5, 2, 1)]},
              {"default": "Zp", "tracked": [ball_union(rng, 2, 3, 2), finite_set(rng, 5, 14)]}]
    return {"local": local, "adelic": adelic}


FORTY_BIT_LOW = 1 << 39 | 1 << 38 | 1 << 37 | 1 << 36


def forty_bit_prime(rng: random.Random) -> int:
    """A prime just below 2^40, so trial division takes nearly 2^20 steps."""
    q = rng.randrange(FORTY_BIT_LOW, 1 << 40) | 1
    while not oracle.is_probable_prime(q):
        q += 2
    return q


def small_poly(rng: random.Random, degree: int, big_prime: int = 0) -> list:
    coeffs = []
    for _ in range(degree + 1):
        den = rng.choice((1, 1, 2, 3, 4, 6, 8, 9, 12, 24))
        coeffs.append(Fraction(rng.randrange(-20, 21), den))
    coeffs[-1] = coeffs[-1] or Fraction(1)
    if big_prime:
        coeffs[1] += Fraction(rng.randrange(1, 1000), big_prime)
    return coeffs


def member_request(rng: random.Random, pool: dict, big_prime: int = 0) -> dict:
    coeffs = small_poly(rng, rng.randrange(2, 6), big_prime)
    text = oracle.poly_text(coeffs)
    if big_prime or rng.random() < 0.6:
        adelic = pool["adelic"][0] if big_prime else rng.choice(pool["adelic"])
        return {"verb": "member", "file": None,
                "argv": ["member", f"--poly={text}", "--adelic", adelic_dsl(adelic)],
                "spec": {"coeffs": [str(c) for c in coeffs], "adelic": adelic}}
    local = rng.choice(pool["local"])
    return {"verb": "member", "file": None,
            "argv": ["member", f"--poly={text}", "--set", set_dsl(local)],
            "spec": {"coeffs": [str(c) for c in coeffs], "set": local}}


def scale_request(rng: random.Random) -> dict:
    components = {}
    for p in sorted(rng.sample((2, 3, 5), rng.randrange(1, 3))):
        balls = []
        for _ in range(rng.randrange(1, 4)):
            c = Fraction(rng.randrange(1, 40), p ** rng.randrange(0, 3))
            balls.append([str(c), rng.randrange(-2, 3)])
        components[str(p)] = balls
    file = {"components": {p: [[{"num": Fraction(c).numerator, "den": Fraction(c).denominator}, k]
                                for c, k in balls] for p, balls in components.items()}}
    return {"verb": "scale", "argv": ["scale", "--request", "{file}"], "file": file,
            "spec": {"components": components}}


# verb -> requests per round; one member request per round carries a 40-bit
# prime, so 1 in 64 requests (above the 1% that p99 leaves) sits on the tail.
QUERY_MIX = {"member": 15, "member-40bit": 1, "ordering": 12, "charideal": 10,
             "adelic-ordering": 10, "scale": 8, "basis": 8}


def query_request(rng: random.Random, pool: dict, kind: str) -> dict:
    if kind == "member":
        return member_request(rng, pool)
    if kind == "member-40bit":
        return member_request(rng, pool, forty_bit_prime(rng))
    if kind == "ordering":
        local = rng.choice(pool["local"])
        top = len(local["finite"]) if "finite" in local else 16
        length = rng.randrange(4, top + 1)
        return {"verb": "ordering", "file": None,
                "argv": ["ordering", "--set", set_dsl(local), "--length", str(length)],
                "spec": {"set": local, "length": length}}
    if kind == "adelic-ordering":
        adelic = rng.choice([a for a in pool["adelic"]
                             if all("balls" in c for c in a["tracked"])])
        length = rng.randrange(3, 11)
        return {"verb": "adelic-ordering", "file": None,
                "argv": ["adelic-ordering", "--adelic", adelic_dsl(adelic),
                         "--length", str(length)],
                "spec": {"adelic": adelic, "length": length}}
    if kind == "scale":
        return scale_request(rng)
    degree = rng.randrange(2, 11) if kind == "charideal" else rng.randrange(2, 7)
    return basis_request(kind, rng.choice(pool["adelic"]), degree)


# ---------------------------------------------------------------------------


def round_requests(workload: str, seed: int, index: int) -> List[dict]:
    """Requests of round `index` of a workload under a seed."""
    rng = random.Random(f"padelic-perfbench:{workload}:{seed}:{index}")
    if workload == "expand":
        reqs = [expand_request(rng, *shape) for shape in EXPAND_MIX]
    elif workload == "basis":
        reqs = []
        for verb, shapes, degree in BASIS_MIX:
            if shapes == "deep":
                tracked = [deep_component(rng)]
            else:
                tracked = [component(rng, shape) for shape in shapes]
            adelic = {"default": "Zp", "tracked": tracked}
            reqs.append(dict(basis_request(verb, adelic, degree),
                             kind=f"{verb} {len(tracked)} tracked degree={degree}"))
    elif workload == "approx":
        reqs = [approx_request(rng, k, mix) for k, mix in APPROX_MIX]
    elif workload == "query":
        pool = query_pool(seed)
        kinds = [kind for kind, count in QUERY_MIX.items() for _ in range(count)]
        reqs = [dict(query_request(rng, pool, kind), kind=kind) for kind in kinds]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def warmup_requests(workload: str) -> List[dict]:
    """Small fixed requests, one per verb the workload uses, served during set-up."""
    rng = random.Random(f"padelic-perfbench:warmup:{workload}")
    if workload == "expand":
        return [expand_request(rng, 2, 2, 4, "zp"), expand_request(rng, 5, 1, 4, "finite")]
    if workload == "basis":
        small = {"default": "Zp", "tracked": [component(rng, (3, "balls", 2, 1))]}
        return [basis_request("basis", small, 4), basis_request("charideal", small, 4)]
    if workload == "approx":
        return [approx_request(rng, 2, ((2, "zp", 1), (3, "balls", 1)))]
    pool = query_pool(0)
    return [query_request(rng, pool, kind) for kind in QUERY_MIX if kind != "member-40bit"]
